"""The policy daemon put together: what ``repro serve`` runs.

This is the one module that knows how the daemon is assembled from the
serving layer's parts:

* the triplet backend (``--store-backend``); a shared-memory segment
  outlives the daemon only when ``--store-path`` names it;
* the plugin chain: the throttle (when ``--throttle-max`` is set), then
  greylisting;
* the process model: one process, or with ``--workers N`` a prefork
  master (:mod:`repro.serve.prefork`) that forks N workers over one
  shared-memory table and, on the wall clock, sweeps expired triplets
  from it.

Both process models run one worker body, :func:`_serve_worker`: pick
the clock, build the chain, start the server, wait for SIGTERM/SIGINT,
drain, and print the stats line.

Start-up signals: a stop sent any time after the daemon announces
``listening on H:P`` is handled, never lost and never fatal.  The single
daemon announces only once :meth:`PolicyServer.start` has installed its
handlers.  The prefork master blocks SIGTERM and SIGINT before it
announces; its workers inherit that mask, and each process unblocks
them once its own handlers are in.

The stdout lines are an interface: CI, the benchmarks and the tests
parse ``listening on H:P`` and ``served N decisions ...``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import socket
import sys
from typing import List, Optional

from ..greylist.backends import (
    SERVING_COMMIT_EVERY,
    TripletBackend,
    create_backend,
)
from ..greylist.policy import GreylistPolicy
from ..greylist.store import TripletStore
from ..sim.clock import Clock
from .plugins import (
    DecisionCache,
    GreylistingPlugin,
    PluginChain,
    PolicyPlugin,
    ThrottlePlugin,
)
from .server import STOP_SIGNALS, PolicyServer, ReplayClock, WallClock


def raise_fd_limit() -> None:
    """Raise the soft fd limit to the hard one (10k+ connections need it).

    Best-effort: serving at default limits still works, just at fewer
    concurrent connections.
    """
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < hard:
            resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
    except (ImportError, ValueError, OSError):  # pragma: no cover
        pass


def serve(args: argparse.Namespace) -> int:
    """Run ``repro serve`` with the CLI's parsed and checked arguments.

    ``args.workers`` is the resolved worker count; more than one needs
    the shm backend.  Returns the process exit status.
    """
    raise_fd_limit()
    if args.workers > 1:
        return _serve_prefork(args)
    return _serve_worker(args, _serve_backend(args))


def _serve_backend(args: argparse.Namespace) -> TripletBackend:
    if args.store_backend == "shm":
        from ..greylist.shm import SharedMemoryBackend

        # An operator-named --store-path is the durable contract: the
        # segment must survive the daemon for the next one to reattach,
        # so the exit reaper is disabled.  Anonymous segments die with
        # the daemon.
        return SharedMemoryBackend(
            args.store_path,
            capacity=args.shm_capacity,
            persist=args.store_path is not None,
        )
    return create_backend(
        args.store_backend, args.store_path, commit_every=SERVING_COMMIT_EVERY
    )


def _serve_chain(
    args: argparse.Namespace, clock: Clock, backend: TripletBackend
) -> PluginChain:
    """Each process builds its *own* chain (plugins hold per-process
    caches); every chain reads and writes the same backend state."""
    store = TripletStore(clock, backend=backend)
    policy = GreylistPolicy(clock=clock, delay=args.delay, store=store)
    plugins: List[PolicyPlugin] = []
    if args.throttle_max > 0:
        plugins.append(
            ThrottlePlugin(
                clock,
                max_messages=args.throttle_max,
                period=args.throttle_period,
            )
        )
    plugins.append(GreylistingPlugin(policy, cache=DecisionCache()))
    return PluginChain(plugins)


def _serve_prefork(args: argparse.Namespace) -> int:
    """Master side of multi-worker serving: bind, fork, supervise."""
    from ..greylist.shm import SharedMemoryBackend
    from .prefork import PreforkSupervisor, bind_listening_sockets

    try:
        sockets, host, port = bind_listening_sockets(
            args.host, args.port, args.workers
        )
    except OSError as exc:
        return _cannot_listen(args.host, args.port, exc)
    backend = _serve_backend(args)
    # The CLI lets --workers > 1 through only with the shm backend.
    assert isinstance(backend, SharedMemoryBackend)
    segment = backend.segment
    # Blocked only now: creating the first segment starts CPython's
    # resource tracker, which unblocks both signals when it is done.
    signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
    _announce(host, port)
    print(
        f"prefork master pid {os.getpid()}: {args.workers} workers, "
        f"{len(sockets)} listening socket(s), segment {segment}",
        flush=True,
    )

    def worker(index: int, sock: socket.socket) -> int:
        attached = SharedMemoryBackend(segment=segment)
        return _serve_worker(args, attached, sock, index)

    maintenance = None
    if args.clock == "wall":
        # Background expiry: the master sweeps the shared table so
        # workers never pay a stop-the-world scan.  Replay daemons skip
        # it — their virtual clock lives in the workers.
        maintenance = TripletStore(WallClock(), backend=backend).sweep
    supervisor = PreforkSupervisor(
        worker, sockets, args.workers, maintenance=maintenance
    )
    try:
        return supervisor.run()
    finally:
        for sock in sockets:
            sock.close()
        backend.close()


def _serve_worker(
    args: argparse.Namespace,
    backend: TripletBackend,
    sock: Optional[socket.socket] = None,
    index: Optional[int] = None,
) -> int:
    """One serving process: the single daemon (``index`` None, binds
    and announces its own address) or prefork worker ``index`` on a
    socket the master bound."""
    clock = ReplayClock() if args.clock == "replay" else WallClock()
    chain = _serve_chain(args, clock, backend)
    server = PolicyServer(
        chain, clock, host=args.host, port=args.port, sock=sock
    )

    async def run() -> int:
        try:
            host, port = await server.start()
        except OSError as exc:
            await server.shutdown()
            return _cannot_listen(args.host, args.port, exc)
        if index is None:
            _announce(host, port)
        # start() took over the stop signals: a prefork worker, forked
        # with them blocked, takes one held since the announcement now.
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)
        status = await server.run_until_signalled()
        stats = server.stats
        prefix = "" if index is None else f"worker {index}: "
        print(
            f"{prefix}served {stats.decisions} decisions over "
            f"{stats.connections} connections "
            f"({stats.protocol_errors} protocol errors, "
            f"{stats.truncated} truncated)",
            flush=True,
        )
        return status

    return asyncio.run(run())


def _announce(host: str, port: int) -> None:
    # The smoke job and the benchmark parse this line to find an
    # ephemeral port; keep the format stable.
    print(f"listening on {host}:{port}", flush=True)


def _cannot_listen(host: str, port: int, exc: OSError) -> int:
    reason = os.strerror(exc.errno) if exc.errno else exc
    print(f"error: cannot listen on {host}:{port}: {reason}", file=sys.stderr)
    return 1
