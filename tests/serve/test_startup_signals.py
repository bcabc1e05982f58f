"""A stop signal sent the moment the daemon announces itself is honoured.

``repro serve`` prints ``listening on H:P`` once it accepts connections,
and operators (and the CI smoke job) may stop it at any point after
that line.  Each run here boots the real daemon in its own session,
sends SIGTERM as soon as the line is read, and requires a clean drain:
exit 0 within 10 s, no process left in the session, and no shared-memory
segment or lock file left behind.  The two-worker fleet used to miss
that signal while it forked its workers.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
RUNS = 5
EXIT_TIMEOUT_S = 10.0


def _shm_residue():
    """Shared-memory segments and their lock files that exist now."""
    segments = {
        name for name in os.listdir("/dev/shm") if name.startswith("psm_")
    }
    locks = {
        name
        for name in os.listdir(tempfile.gettempdir())
        if name.startswith("psm_") and name.endswith(".lock")
    }
    return segments | locks


def _session_members(sid):
    """Live processes of session ``sid`` (exited, unreaped ones aside)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # pid (comm) state ppid pgrp session ...
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def _wait_session_empty(sid, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _session_members(sid):
            return []
        time.sleep(0.05)
    return _session_members(sid)


def _stop_on_announcement(global_args):
    """Boot, SIGTERM on the announcement; (status, survivors, output)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", *global_args,
            "serve", "--clock", "replay", "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,
    )
    status = None
    survivors = []
    try:
        line = proc.stdout.readline()
        assert line.startswith("listening on "), line
        proc.send_signal(signal.SIGTERM)
        try:
            status = proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        survivors = _wait_session_empty(proc.pid)
    finally:
        # A survivor would hold the pipe open: clear the session before
        # reading the rest of the output.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        output = line + proc.stdout.read()
        proc.stdout.close()
    return status, survivors, output


@pytest.mark.parametrize(
    "global_args",
    [
        ["--store-backend", "shm"],
        ["--workers", "2", "--store-backend", "shm"],
    ],
    ids=["single", "two-workers"],
)
def test_sigterm_on_announcement_drains(global_args):
    before = _shm_residue()
    for run in range(RUNS):
        status, survivors, output = _stop_on_announcement(global_args)
        assert (status, survivors) == (0, []), (run, output)
    assert _shm_residue() - before == set()
