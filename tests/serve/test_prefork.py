"""Prefork supervisor tests: sockets, supervision, and the live fleet.

Two layers:

* Unit tests drive :class:`PreforkSupervisor` directly with throwaway
  worker bodies (real forks, real signals, no asyncio) to pin down the
  supervision contract — clean drain returns 0, a crash-looping worker
  exhausts the restart budget and returns 1.
* End-to-end tests boot the real CLI daemon (``--workers 2`` over the
  shm backend) as a subprocess and check the operational story: state
  written through one worker is visible to the other, a SIGKILLed
  worker is replaced without dropping the service, and SIGTERM drains
  the whole fleet to exit 0.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.serve.prefork import (
    DEFAULT_RESTART_LIMIT,
    PreforkSupervisor,
    bind_listening_sockets,
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


class TestBindListeningSockets:
    def test_one_socket_per_worker_same_port(self):
        sockets, host, port = bind_listening_sockets("127.0.0.1", 0, 3)
        try:
            assert host == "127.0.0.1"
            assert port > 0
            # SO_REUSEPORT is available on this platform: one accept
            # queue per worker, all on the announced port.
            assert len(sockets) == 3
            for sock in sockets:
                assert sock.getsockname() == (host, port)
                assert (
                    sock.getsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT)
                    != 0
                )
        finally:
            for sock in sockets:
                sock.close()

    def test_sockets_listen_before_any_fork(self):
        sockets, host, port = bind_listening_sockets("127.0.0.1", 0, 2)
        try:
            # A connect succeeds even though no worker exists yet: the
            # master listens at bind time, so clients racing worker boot
            # queue instead of being refused.
            probe = socket.create_connection((host, port), timeout=5)
            probe.close()
        finally:
            for sock in sockets:
                sock.close()

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            bind_listening_sockets("127.0.0.1", 0, 0)


def _drain_body(index, sock):
    """Worker that serves nothing and drains cleanly on SIGTERM.

    Like every worker body it starts with the stop signals blocked and
    unblocks them once its handler is in.
    """
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGTERM, signal.SIGINT))
    stop.wait(timeout=30)
    return 0 if stop.is_set() else 1


def _crash_body(index, sock):
    """Worker that dies immediately (the crash-loop scenario)."""
    return 1


class TestPreforkSupervisor:
    def _sockets(self, count):
        sockets, _, _ = bind_listening_sockets("127.0.0.1", 0, count)
        return sockets

    def test_sigterm_drains_fleet_to_zero(self):
        sockets = self._sockets(2)
        supervisor = PreforkSupervisor(_drain_body, sockets, 2)
        timer = threading.Timer(
            0.3, os.kill, args=(os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            assert supervisor.run() == 0
        finally:
            timer.cancel()
            for sock in sockets:
                sock.close()
        assert supervisor.worker_pids == ()

    def test_crash_loop_exhausts_restart_budget(self):
        sockets = self._sockets(1)
        supervisor = PreforkSupervisor(
            _crash_body, sockets, 1, restart_limit=3
        )
        try:
            assert supervisor.run() == 1
        finally:
            for sock in sockets:
                sock.close()

    def test_restart_limit_default_is_generous(self):
        assert DEFAULT_RESTART_LIMIT >= 8

    def test_rejects_empty_configuration(self):
        sockets = self._sockets(1)
        try:
            with pytest.raises(ValueError):
                PreforkSupervisor(_drain_body, sockets, 0)
            with pytest.raises(ValueError):
                PreforkSupervisor(_drain_body, [], 1)
        finally:
            for sock in sockets:
                sock.close()


# ----------------------------------------------------------------------
# End-to-end: the real CLI daemon
# ----------------------------------------------------------------------
def boot_daemon(*extra_args, workers=2):
    """Start ``repro serve`` as a subprocess; returns (proc, host, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "--workers", str(workers),
            "--store-backend", "shm",
            *extra_args,
            "serve", "--clock", "replay",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("listening on "), line
    host, _, port = line.rpartition(" ")[2].partition(":")
    return proc, host, int(port)


def ask(host, port, client, stamp, sender="a@b.example"):
    """One request over a fresh connection (fresh = kernel re-balances)."""
    sock = socket.create_connection((host, port), timeout=10)
    try:
        sock.sendall(
            (
                "request=smtpd_access_policy\n"
                f"client_address={client}\n"
                f"sender={sender}\n"
                "recipient=victim@victim.example\n"
                f"stamp={stamp}\n\n"
            ).encode()
        )
        data = b""
        while b"\n\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
    finally:
        sock.close()
    return data.decode().split("=", 1)[1].split(" ", 1)[0].strip()


def worker_pids_of(master_pid):
    children = set()
    task_dir = f"/proc/{master_pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children") as handle:
                children.update(int(p) for p in handle.read().split())
        except OSError:
            pass
    workers = set()
    for pid in children:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ")
        except OSError:
            continue  # raced its exit
        # Forked workers share the master's command line; the children
        # CPython spawns for itself (the shared-memory resource
        # tracker) do not and must not count as fleet members.
        if b"repro" in cmdline and b"resource_tracker" not in cmdline:
            workers.add(pid)
    return workers


def wait_for_workers(master_pid, count, timeout=20.0, gone=()):
    """Poll until ``count`` workers are live, none of them in ``gone``.

    A SIGKILLed worker lingers in the children list as a zombie until
    the master reaps it, so the caller excludes it explicitly.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = worker_pids_of(master_pid)
        if len(pids) == count and not (pids & set(gone)):
            return pids
        time.sleep(0.05)
    raise AssertionError(
        f"never saw {count} workers under {master_pid}; "
        f"last: {worker_pids_of(master_pid)}"
    )


def stop_daemon(proc):
    proc.send_signal(signal.SIGTERM)
    status = proc.wait(timeout=30)
    output = proc.stdout.read()
    proc.stdout.close()
    return status, output


class TestPreforkDaemon:
    def test_workers_share_one_triplet_table(self):
        """A triplet greylisted through one worker passes through any.

        Every request uses a fresh connection, so the kernel spreads
        them across both workers' accept queues; if the state were
        process-private some retries would be re-greylisted as new.
        """
        proc, host, port = boot_daemon()
        try:
            wait_for_workers(proc.pid, 2)
            for i in range(8):
                verb = ask(host, port, f"10.9.0.{i + 1}", stamp=float(i))
                assert verb == "DEFER_IF_PERMIT"
            for i in range(8):
                verb = ask(
                    host, port, f"10.9.0.{i + 1}", stamp=400.0 + i
                )
                assert verb == "DUNNO", f"triplet {i} lost across workers"
        finally:
            status, output = stop_daemon(proc)
        assert status == 0, output
        # Both workers drained cleanly and reported their share.
        assert output.count("served") == 2, output

    def test_sigkilled_worker_is_replaced_in_flight(self):
        proc, host, port = boot_daemon()
        try:
            before = wait_for_workers(proc.pid, 2)
            assert ask(host, port, "10.9.1.1", stamp=0.0) == "DEFER_IF_PERMIT"
            victim = sorted(before)[0]
            os.kill(victim, signal.SIGKILL)
            after = wait_for_workers(proc.pid, 2, gone={victim})
            assert victim not in after
            assert len(after - before) == 1
            # The fleet still serves, and the shared table survived the
            # crash: the pre-crash triplet passes its retry.
            assert ask(host, port, "10.9.1.1", stamp=400.0) == "DUNNO"
        finally:
            status, output = stop_daemon(proc)
        assert status == 0, output

    def test_single_worker_requires_no_prefork(self):
        """--workers 1 stays on the classic single-process path."""
        proc, host, port = boot_daemon(workers=1)
        try:
            assert worker_pids_of(proc.pid) == set()
            assert ask(host, port, "10.9.2.1", stamp=0.0) == "DEFER_IF_PERMIT"
        finally:
            status, output = stop_daemon(proc)
        assert status == 0, output

    def test_multi_worker_rejects_private_backends(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro",
                "--workers", "4", "--store-backend", "memory", "serve",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "requires --store-backend shm" in proc.stderr
