"""Asyncio Postfix policy daemon serving the greylisting engine.

One process, one event loop, one :class:`~repro.serve.plugins.PluginChain`
— the concurrency model of postgrey and iRedAPD.  Every connection gets
an incremental :class:`~repro.serve.protocol.StanzaParser` and a tight
read → decide → respond loop; a burst of pipelined stanzas arriving in
one TCP segment is parsed, decided and answered in a single loop
iteration with one coalesced write, which is what carries the daemon
past 10k concurrent connections on a single core.

Time: the policy core reads ``clock.now`` and nothing else, so the
daemon chooses the clock:

* :class:`WallClock` — live serving; ``now`` is the host's wall time.
* :class:`ReplayClock` — a virtual clock advanced by the ``stamp``
  attribute the load generator attaches to each request, clamped
  monotonic.  With it, replayed simulator traffic produces bit-for-bit
  the simulator's decisions (the serve equivalence suite's contract).

Shutdown: SIGTERM/SIGINT stop the listener, already-connected peers get
:data:`DRAIN_GRACE` seconds to finish their in-flight stanzas (buffered
requests are always answered — the handler finishes its current batch
synchronously), stragglers are aborted, and the backend is flushed
(the SQLite commit) before the daemon exits 0.  The drain test asserts
no acknowledged triplet write is lost across this sequence.
:meth:`PolicyServer.start` installs the stop handlers, so a daemon that
announces its address after ``start`` honours a stop sent from then on.

Blocking calls: the SQLite backend commits on the event loop (batched
by ``commit_every``, sub-millisecond in WAL mode) — the same
single-writer trade iRedAPD makes.  The ASY001 analyzer audits every
coroutine here; each remaining blocking sink is individually
``noqa``-annotated at its definition with that rationale.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..sim.clock import Clock
from .plugins import PluginChain
from .protocol import (
    PolicyRequest,
    ProtocolError,
    StanzaParser,
    format_response,
)

#: How often (seconds) the background task flushes buffered backend
#: writes while serving.  Batching bound: a crash loses at most this
#: window plus ``commit_every`` un-flushed mutations.
FLUSH_INTERVAL = 1.0

#: Seconds connected peers get to finish in-flight stanzas on shutdown.
DRAIN_GRACE = 5.0

#: The signals that stop a daemon process and start its drain.
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class ReplayClock(Clock):
    """Virtual clock advanced by request ``stamp`` attributes.

    Stamps arrive monotonically non-decreasing from the sequential
    replay harness; under concurrent load (the benchmark) they may
    interleave out of order, so the advance is clamped — time never
    moves backwards, matching the simulator's own clock contract.
    """

    __slots__ = ()

    def observe_stamp(self, stamp: Optional[float]) -> None:
        if stamp is not None and stamp > self.now:
            self.advance_to(stamp)


class WallClock(Clock):
    """Live-mode clock: ``now`` is the host's wall time.

    This is the one place the serving layer reads host time; simulation
    code never sees this class (the CLK001/DET001 analyzer rules keep it
    that way — the policy core stays clock-agnostic).
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(start=0.0)

    @property
    def now(self) -> float:
        # Live serving is *defined* by wall time: greylist delays must
        # measure real seconds for real MTAs retrying against us.
        return time.time()  # repro: noqa CLK001 - live serving mode is wall-time by definition

    def observe_stamp(self, stamp: Optional[float]) -> None:
        """Stamps are a replay artefact; live daemons ignore them."""


@dataclass
class ServerStats:
    """Counters the daemon accumulates while serving."""

    connections: int = 0
    decisions: int = 0
    protocol_errors: int = 0
    truncated: int = 0
    actions: Dict[str, int] = field(default_factory=dict)

    def record(self, action: str) -> None:
        self.decisions += 1
        verb = action.split(" ", 1)[0]
        self.actions[verb] = self.actions.get(verb, 0) + 1


class PolicyServer:
    """The asyncio policy-delegation daemon.

    Parameters
    ----------
    chain:
        The plugin chain answering requests.
    clock:
        The serving clock (:class:`WallClock` or :class:`ReplayClock`).
        Must be the same object the chain's stateful plugins read.
    host / port:
        Listen address; port 0 binds an ephemeral port (:meth:`start`
        returns the bound address — the CLI announces it on stdout).
    sock:
        A pre-bound listening socket to serve on instead of binding
        ``host:port`` — the prefork path, where the supervisor binds
        one SO_REUSEPORT socket per worker before forking so crashed
        workers can be respawned onto the same accept queue.
    flush_interval:
        Period of the background backend flush (0 disables it).
    """

    def __init__(
        self,
        chain: PluginChain,
        clock: Clock,
        host: str = "127.0.0.1",
        port: int = 0,
        flush_interval: float = FLUSH_INTERVAL,
        sock: Optional[socket.socket] = None,
    ) -> None:
        self.chain = chain
        self.clock = clock
        self.host = host
        self.port = port
        self._sock = sock
        self.flush_interval = flush_interval
        self.stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._flusher: Optional[asyncio.Task] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set[asyncio.Task] = set()
        self._stopping = asyncio.Event()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind, start accepting and take over SIGTERM/SIGINT.

        Returns the bound (host, port).  From here on a stop signal sets
        off :meth:`run_until_signalled`'s drain; :meth:`shutdown` hands
        the signals back.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        # The asyncio default backlog (100) drops connects under the 10k
        # concurrent-connection benchmark's opening wave; the kernel caps
        # the effective value at net.core.somaxconn.
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=self._sock, backlog=8192
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, self.host, self.port, backlog=8192
            )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        loop = asyncio.get_running_loop()
        for signum in STOP_SIGNALS:
            loop.add_signal_handler(signum, self._stopping.set)
        if self.flush_interval > 0:
            self._flusher = loop.create_task(self._flush_loop())
        return self.host, self.port

    async def run_until_signalled(self) -> int:
        """Serve until SIGTERM/SIGINT, then drain, flush and return 0."""
        try:
            await self._stopping.wait()
        finally:
            await self.shutdown()
        return 0

    async def shutdown(self) -> None:
        """Graceful stop: drain in-flight connections, flush, close.

        Idempotent.  Ordering matters: stop accepting first, then give
        connected peers :data:`DRAIN_GRACE` to finish (their buffered
        stanzas are always decided and answered), then abort stragglers,
        and only then flush + close the backend — so every acknowledged
        decision's triplet write reaches durable storage.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            loop = asyncio.get_running_loop()
            for signum in STOP_SIGNALS:
                loop.remove_signal_handler(signum)
            self._server.close()
            await self._server.wait_closed()
        if self._handlers:
            await asyncio.wait(tuple(self._handlers), timeout=DRAIN_GRACE)
        for writer in tuple(self._writers):
            writer.transport.abort()
        if self._handlers:
            for task in tuple(self._handlers):
                task.cancel()
            await asyncio.gather(*self._handlers, return_exceptions=True)
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
        self.chain.close()

    async def _flush_loop(self) -> None:
        while True:
            await asyncio.sleep(self.flush_interval)
            self.chain.flush()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer)
        )
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        self._writers.add(writer)
        parser = StanzaParser()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    # The peer closed in the middle of a stanza.
                    if parser.pending:
                        self.stats.truncated += 1
                    break
                try:
                    requests = parser.feed(data)
                except ProtocolError as error:
                    # Count the error, answer what was pipelined ahead
                    # of the bad stanza in one write, then close.
                    self.stats.protocol_errors += 1
                    if error.requests:
                        writer.write(
                            b"".join(self._decide(r) for r in error.requests)
                        )
                        await writer.drain()
                    break
                if not requests:
                    continue
                # One coalesced write per pipelined burst: N stanzas in
                # a segment cost one syscall out, not N.
                if len(requests) == 1:
                    writer.write(self._decide(requests[0]))
                else:
                    writer.write(
                        b"".join(self._decide(r) for r in requests)
                    )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _decide(self, request: PolicyRequest) -> bytes:
        self.clock.observe_stamp(request.stamp)  # type: ignore[attr-defined]
        action = self.chain.decide(request)
        self.stats.record(action)
        return format_response(action)
