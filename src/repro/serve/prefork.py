"""Prefork supervisor for multi-worker policy serving.

The nginx/postgrey process model: a master binds the listening sockets,
forks N workers that each run the single-loop asyncio daemon
(:class:`~repro.serve.server.PolicyServer`), and then does nothing but
supervise — reaping dead children, respawning crashed ones onto the
same accept queue, and fanning SIGTERM out for a coordinated drain.
Workers share one :class:`~repro.greylist.shm.SharedMemoryBackend`
segment (created by the master, attached by name in each child), so a
triplet greylisted by one worker is visible to the retry that lands on
another.

Socket strategy
---------------
Preferred: one ``SO_REUSEPORT`` listening socket per worker, all bound
to the same address before the first fork.  The kernel load-balances
incoming connects across the sockets' accept queues, and because the
*master* keeps every fd, a crashed worker's replacement inherits the
very same socket — connections queued to the dead worker are answered
by its successor, not dropped.  Where ``SO_REUSEPORT`` is unavailable
the supervisor falls back to a single shared socket inherited by every
worker (the classic accept-herd model: correct, just less evenly
balanced).

Drain protocol
--------------
SIGTERM (or SIGINT) to the master is forwarded to every live worker
inside the signal handler itself.  Forks happen with both signals
blocked, so the handler never runs between a fork and the new child's
entry in the fleet, and nothing is forked once a stop has arrived.
Each child starts with the signals still blocked and unblocks them
once its own handlers are in (see :data:`WorkerBody`), so a stop sent
while it boots waits for it instead of killing it.  Each worker's
``run_until_signalled`` path then stops accepting, answers every
buffered stanza, flushes its backend attachment and exits 0; the master
reaps them all and exits 0.  A worker that dies *unprompted* (crash,
SIGKILL) is respawned — up to ``restart_limit`` times, after which the
master drains the rest and exits 1 rather than flap forever.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import traceback
from typing import Callable, Dict, List, NoReturn, Optional, Tuple

from .server import STOP_SIGNALS

#: Listen backlog shared with :class:`~repro.serve.server.PolicyServer`.
LISTEN_BACKLOG = 8192

#: Unprompted worker deaths tolerated before the master gives up.
DEFAULT_RESTART_LIMIT = 16

#: Seconds between runs of the master's maintenance callback.
MAINTENANCE_INTERVAL = 30.0

#: A worker's body returns an exit status; it runs inside the forked
#: child and must never raise back into the supervisor's stack.  It
#: starts with SIGTERM and SIGINT blocked and unblocks them once it has
#: installed its own handlers.
WorkerBody = Callable[[int, socket.socket], int]


def bind_listening_sockets(
    host: str, port: int, count: int
) -> Tuple[List[socket.socket], str, int]:
    """Bind the listening sockets for ``count`` workers.

    Returns ``(sockets, host, port)`` with the actual bound address
    (meaningful when ``port`` was 0).  ``len(sockets)`` is ``count``
    when SO_REUSEPORT is available, else 1 (the shared-socket
    fallback); callers map worker *i* to socket ``i % len(sockets)``.
    """
    if count < 1:
        raise ValueError("need at least one worker socket")
    reuseport = hasattr(socket, "SO_REUSEPORT")
    sockets: List[socket.socket] = []
    bound_port = port
    for _ in range(count if reuseport else 1):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuseport:
                try:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                    )
                except OSError:
                    # Constant exists but the kernel refuses (old
                    # kernels): fall back to the single shared socket.
                    if sockets:
                        raise  # mixed support mid-bind: give up loudly
                    reuseport = False
            sock.bind((host, bound_port))
            if bound_port == 0:
                bound_port = sock.getsockname()[1]
            # Listen in the master, before any fork: connections racing
            # the workers' boot queue here instead of being refused.
            sock.listen(LISTEN_BACKLOG)
        except BaseException:
            sock.close()
            for other in sockets:
                other.close()
            raise
        sockets.append(sock)
    bound_host = sockets[0].getsockname()[0]
    return sockets, bound_host, bound_port


class PreforkSupervisor:
    """Fork, supervise and drain a fleet of policy workers.

    Parameters
    ----------
    worker_body:
        ``(worker_index, listening_socket) -> exit_status``, run inside
        each forked child.  The child never returns from the spawn call:
        it exits via ``os._exit`` with the body's status (or 1 if the
        body raised), skipping the master's atexit/finalizer state —
        in particular the shared segment's exit reaper, which only the
        creating master may run.
    sockets:
        Pre-bound listening sockets from :func:`bind_listening_sockets`.
        The master keeps every fd for respawns.
    workers:
        Number of worker processes to keep alive.
    restart_limit:
        Unprompted deaths tolerated before draining and exiting 1.
    maintenance:
        Optional callback run every :data:`MAINTENANCE_INTERVAL` seconds
        in a master-side daemon thread while supervising (the shm
        background-expiry sweep in live serving; replay-clock daemons
        skip it).
    """

    def __init__(
        self,
        worker_body: WorkerBody,
        sockets: List[socket.socket],
        workers: int,
        *,
        restart_limit: int = DEFAULT_RESTART_LIMIT,
        maintenance: Optional[Callable[[], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if not sockets:
            raise ValueError("need at least one listening socket")
        self._worker_body = worker_body
        self._sockets = sockets
        self._workers = workers
        self._restart_limit = restart_limit
        self._maintenance = maintenance
        self._children: Dict[int, int] = {}  # pid -> worker index
        self._stopping = False
        self._restarts = 0

    # ------------------------------------------------------------------
    # Master side
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Spawn the fleet and supervise until drained; returns status.

        0 when every worker exited cleanly after a signalled drain,
        1 when the restart limit was exhausted or a worker refused to
        drain cleanly.  The caller may block SIGTERM/SIGINT beforehand
        (the daemon does, before announcing itself): a stop held that
        way runs the handler once the whole fleet is forked.
        """
        previous = {
            signum: signal.signal(signum, self._on_signal)
            for signum in STOP_SIGNALS
        }
        stop_maintenance = threading.Event()
        failed = False
        try:
            # A stop that arrives while the fleet boots is handled once
            # every worker is known.  The maintenance thread inherits
            # the mask, so a stop always lands on this thread and
            # interrupts waitpid.
            signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
            for index in range(self._workers):
                self._spawn(index)
            if self._maintenance is not None:
                thread = threading.Thread(
                    target=self._maintenance_loop,
                    args=(stop_maintenance,),
                    name="prefork-maintenance",
                    daemon=True,
                )
                thread.start()
            signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)
            while self._children:
                try:
                    pid, status = os.waitpid(-1, 0)
                except ChildProcessError:  # pragma: no cover - defensive
                    break
                index = self._children.pop(pid, None)
                if index is None:  # pragma: no cover - foreign child
                    continue
                if self._stopping:
                    if not self._exited_cleanly(status):
                        failed = True
                    continue
                # Unprompted death — crash, SIGKILL, or a worker that
                # decided to exit on its own: respawn onto the same
                # socket so its queued connections are still answered.
                self._restarts += 1
                if self._restarts > self._restart_limit:
                    failed = True
                    self._stopping = True
                    self._signal_children(signal.SIGTERM)
                    continue
                self._spawn(index)
        finally:
            stop_maintenance.set()
            signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        return 1 if failed else 0

    def _spawn(self, index: int) -> None:
        """Fork worker ``index``, unless a stop has already arrived."""
        sock = self._sockets[index % len(self._sockets)]
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
        try:
            if self._stopping:
                return
            pid = os.fork()
            if pid == 0:
                self._run_child(index, sock)
            self._children[pid] = index
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _run_child(self, index: int, sock: socket.socket) -> NoReturn:
        status = 1
        try:
            # The stop signals are blocked here: drop the master's
            # handlers before the worker body installs its own and
            # unblocks them.
            for signum in STOP_SIGNALS:
                signal.signal(signum, signal.SIG_DFL)
            for other in self._sockets:
                if other is not sock:
                    other.close()
            status = self._worker_body(index, sock)
        except BaseException:  # repro: noqa EXC001 - child exits nonzero below; the crash IS the record
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            # Hard exit: the child must not run the master's inherited
            # atexit hooks / multiprocessing finalizers (segment reaper,
            # benchmark teardown, ...).
            os._exit(status)

    def _on_signal(self, signum: int, _frame: object) -> None:
        # Runs on the master's main thread between bytecodes; waitpid
        # resumes afterwards (PEP 475), sees the flag, and reaps.
        self._stopping = True
        self._signal_children(
            signal.SIGTERM if signum == signal.SIGINT else signum
        )

    def _signal_children(self, signum: int) -> None:
        for pid in tuple(self._children):
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def _maintenance_loop(self, stop: threading.Event) -> None:
        while not stop.wait(MAINTENANCE_INTERVAL):
            try:
                self._maintenance()  # type: ignore[misc]
            except Exception:  # repro: noqa EXC001 - printed + swallowed: sweep hiccups must not kill the fleet
                traceback.print_exc()

    @staticmethod
    def _exited_cleanly(status: int) -> bool:
        return os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    @property
    def worker_pids(self) -> Tuple[int, ...]:
        """Live worker pids (the crashed-worker restart test's probe)."""
        return tuple(self._children)
