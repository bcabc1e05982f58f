"""Backend bit-for-bit equivalence (the determinism contract, enforced).

Every triplet-store backend must produce *identical* greylisting outcomes:
the same :class:`~repro.greylist.policy.GreylistEvent` stream, store sizes,
expiry counters and snapshot bytes for the same input stream — with and
without a mid-stream restart.  Crashes of the durable SQLite store are
covered at the end: a daemon killed without a drain.
"""

import pytest

from repro.greylist.backends import BACKEND_NAMES, create_backend
from repro.greylist.persistence import dump_store, load_store
from repro.greylist.policy import GreylistPolicy
from repro.greylist.store import DAY, TripletStore
from repro.net.address import IPv4Address
from repro.sim.clock import Clock
from repro.sim.rng import RandomStream

DURABLE_BACKENDS = tuple(n for n in BACKEND_NAMES if n != "memory")


# ----------------------------------------------------------------------
# A deterministic, adversarial event stream
# ----------------------------------------------------------------------
def drive_policy(policy, clock, events=400, seed=97, sweep_every=50):
    """Drive one policy through a fixed mixed workload.

    The stream interleaves fresh triplets, timely retries, too-early
    retries, reuses of confirmed triplets and long gaps that expire
    state, with periodic sweeps — every code path a backend implements.
    """
    rng = RandomStream(seed, "store-equivalence")
    clients = [IPv4Address.parse(f"198.51.100.{i}") for i in range(1, 9)]
    for step in range(events):
        client = clients[rng.randrange(len(clients))]
        sender = f"s{rng.randrange(12)}@x.example"
        recipient = f"r{rng.randrange(3)}@victim.example"
        policy.on_rcpt_to(client, sender, recipient)
        roll = rng.random()
        if roll < 0.05:
            clock.advance_by(3 * DAY)      # expires unconfirmed triplets
        elif roll < 0.30:
            clock.advance_by(400.0)        # past the delay threshold
        else:
            clock.advance_by(37.5)         # too early to pass
        if step % sweep_every == sweep_every - 1:
            policy.store.sweep()


def run_with_backend(name, path=None, **drive_kwargs):
    clock = Clock()
    store = TripletStore(clock, backend=create_backend(name, path))
    policy = GreylistPolicy(clock=clock, delay=300.0, store=store)
    drive_policy(policy, clock, **drive_kwargs)
    return policy


def observable_state(policy):
    store = policy.store
    return {
        "events": policy.events,
        "size": store.size,
        "confirmed": store.confirmed,
        "expired_unconfirmed": store.expired_unconfirmed,
        "expired_confirmed": store.expired_confirmed,
        "snapshot": dump_store(store),
    }


class TestBackendEquivalence:
    def test_identical_event_streams_and_state(self, tmp_path):
        reference = observable_state(run_with_backend("memory"))
        assert len(reference["events"]) == 400
        assert reference["size"] > 0
        assert reference["expired_unconfirmed"] > 0
        for name in DURABLE_BACKENDS:
            state = observable_state(
                run_with_backend(name, tmp_path / f"eq.{name}")
            )
            assert state == reference, name

    def test_volatile_backends_equivalent_too(self):
        # path=None: SQLite :memory:, a private shm segment.
        reference = observable_state(run_with_backend("memory"))
        for name in DURABLE_BACKENDS:
            assert observable_state(run_with_backend(name)) == reference

    def test_equivalence_across_restart(self, tmp_path):
        """Storage-fault leg: close + reopen mid-stream changes nothing.

        The durable run is split into two policy lifetimes over the same
        on-disk state; its concatenated event stream must equal the
        uninterrupted memory run's (counter state is per-lifetime, so the
        split runs' counters are compared as sums).
        """
        reference = run_with_backend("memory", events=400)

        for name in DURABLE_BACKENDS:
            path = tmp_path / f"restart.{name}"
            clock = Clock()
            first = TripletStore(clock, backend=create_backend(name, path))
            policy_a = GreylistPolicy(clock=clock, delay=300.0, store=first)
            drive_policy(policy_a, clock, events=200)
            first.close()

            second = TripletStore(clock, backend=create_backend(name, path))
            policy_b = GreylistPolicy(clock=clock, delay=300.0, store=second)
            _drive_second_half(policy_b, clock, events=400, split=200)

            merged_events = policy_a.events + policy_b.events
            assert merged_events == reference.events, name
            assert second.size == reference.store.size, name
            assert dump_store(second) == dump_store(reference.store), name
            expired_unconfirmed = (
                first.expired_unconfirmed + second.expired_unconfirmed
            )
            expired_confirmed = (
                first.expired_confirmed + second.expired_confirmed
            )
            assert expired_unconfirmed == reference.store.expired_unconfirmed
            assert expired_confirmed == reference.store.expired_confirmed
            second.close()

    def test_dump_load_dump_fixpoint_across_backends(self, tmp_path):
        """dump -> load -> dump is the identity, whatever backend loads it."""
        source = run_with_backend("memory")
        text = dump_store(source.store)
        for name in BACKEND_NAMES:
            restored = load_store(
                text,
                source.clock,
                backend=create_backend(name, tmp_path / f"fix.{name}"),
            )
            assert dump_store(restored) == text, name
            assert restored.size == source.store.size, name
            restored.close()

    def test_cross_backend_migration(self, tmp_path):
        """Snapshots move state between backends without loss."""
        source = run_with_backend("sqlite", tmp_path / "mig.db")
        text = dump_store(source.store)
        migrated = load_store(
            text,
            source.clock,
            backend=create_backend("shm", tmp_path / "mig.shm"),
        )
        assert dump_store(migrated) == text
        migrated.close()
        source.store.close()


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _drive_second_half(policy, clock, events, split, seed=97, sweep_every=50):
    """Replay `drive_policy`'s stream from `split` onward.

    The RNG draws for steps < split are consumed without touching the
    policy (the clock was already advanced by the first lifetime), so the
    resumed run sees exactly the draws the uninterrupted run would.
    """
    rng = RandomStream(seed, "store-equivalence")
    clients = [IPv4Address.parse(f"198.51.100.{i}") for i in range(1, 9)]
    for step in range(events):
        client = clients[rng.randrange(len(clients))]
        sender = f"s{rng.randrange(12)}@x.example"
        recipient = f"r{rng.randrange(3)}@victim.example"
        if step >= split:
            policy.on_rcpt_to(client, sender, recipient)
        roll = rng.random()
        if step >= split:
            if roll < 0.05:
                clock.advance_by(3 * DAY)
            elif roll < 0.30:
                clock.advance_by(400.0)
            else:
                clock.advance_by(37.5)
            if step % sweep_every == sweep_every - 1:
                policy.store.sweep()


# ----------------------------------------------------------------------
# Shared-memory backend: sequential consistency under real concurrency
# ----------------------------------------------------------------------
# POSIX record locks are per-process, so these tests fork real worker
# processes, each attaching its own backend instance to one segment —
# the exact topology of the prefork serving daemon.

def _worker_observe_all(segment, keys, now, barrier, out):
    """One 'policy worker': observe every triplet once at time ``now``."""
    from repro.greylist.shm import SharedMemoryBackend
    from repro.greylist.triplet import Triplet

    backend = SharedMemoryBackend(segment=segment)
    clock = Clock(start=now)
    store = TripletStore(clock, backend=backend)
    try:
        barrier.wait()
        attempts = 0
        for i in range(keys):
            entry = store.observe(
                Triplet(
                    IPv4Address.parse(f"198.51.101.{i + 1}"),
                    f"w{i}@x.example",
                    "r@victim.example",
                )
            )
            attempts += entry.attempts
        out.put((store.expired_unconfirmed, store.expired_confirmed))
    finally:
        store.close()


def _worker_lookup_all(segment, keys, now, barrier, out):
    """One worker racing lazy expiry through ``lookup``."""
    from repro.greylist.shm import SharedMemoryBackend
    from repro.greylist.triplet import Triplet

    backend = SharedMemoryBackend(segment=segment)
    clock = Clock(start=now)
    store = TripletStore(clock, backend=backend)
    try:
        barrier.wait()
        for i in range(keys):
            store.lookup(
                Triplet(
                    IPv4Address.parse(f"198.51.101.{i + 1}"),
                    f"w{i}@x.example",
                    "r@victim.example",
                )
            )
        out.put((store.expired_unconfirmed, store.expired_confirmed))
    finally:
        store.close()


class TestSharedMemoryConcurrency:
    """The 8-worker contract: no lost writes, no resurrection, counters sum."""

    WORKERS = 8
    KEYS = 24

    def _seed(self, backend, passed=False):
        from repro.greylist.store import TripletEntry
        from repro.greylist.triplet import Triplet

        for i in range(self.KEYS):
            backend.put(
                TripletEntry(
                    triplet=Triplet(
                        IPv4Address.parse(f"198.51.101.{i + 1}"),
                        f"w{i}@x.example",
                        "r@victim.example",
                    ),
                    first_seen=0.0,
                    last_seen=0.0,
                    attempts=3,
                    passed=passed,
                    passed_at=0.0 if passed else None,
                )
            )

    def _fan_out(self, target, segment, now):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(self.WORKERS)
        out = ctx.Queue()
        procs = [
            ctx.Process(
                target=target, args=(segment, self.KEYS, now, barrier, out)
            )
            for _ in range(self.WORKERS)
        ]
        for proc in procs:
            proc.start()
        counters = [out.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        return counters

    def test_observe_counters_conserved_and_no_resurrection(self):
        from repro.greylist.shm import SharedMemoryBackend

        backend = SharedMemoryBackend(capacity=2048)
        try:
            self._seed(backend, passed=False)
            now = 3 * DAY  # past retry_window: every seed is expired
            counters = self._fan_out(_worker_observe_all, backend.segment, now)
            # Each stale triplet's expiry was observed by exactly one
            # worker fleet-wide; everyone else saw the fresh entry.
            assert sum(u for u, _ in counters) == self.KEYS
            assert sum(c for _, c in counters) == 0
            entries = list(backend.scan())
            assert len(entries) == self.KEYS
            for entry in entries:
                assert entry.first_seen == now    # no resurrection
                assert not entry.passed
                assert entry.attempts == self.WORKERS  # no lost attempts
            assert backend.spill_count == 0
        finally:
            backend.close()

    def test_confirmed_expiry_counted_once(self):
        from repro.greylist.shm import SharedMemoryBackend

        backend = SharedMemoryBackend(capacity=2048)
        try:
            self._seed(backend, passed=True)
            now = 36 * DAY  # past whitelist_lifetime for confirmed seeds
            counters = self._fan_out(_worker_observe_all, backend.segment, now)
            assert sum(c for _, c in counters) == self.KEYS
            assert sum(u for u, _ in counters) == 0
            for entry in backend.scan():
                assert not entry.passed  # confirmation did not leak through
                assert entry.first_seen == now
        finally:
            backend.close()

    def test_lookup_expiry_counted_once_fleet_wide(self):
        from repro.greylist.shm import SharedMemoryBackend

        backend = SharedMemoryBackend(capacity=2048)
        try:
            self._seed(backend, passed=False)
            counters = self._fan_out(
                _worker_lookup_all, backend.segment, 3 * DAY
            )
            assert sum(u + c for u, c in counters) == self.KEYS
            assert len(backend) == 0  # lookup expires, never recreates
        finally:
            backend.close()


class TestSharedMemoryDrain:
    """SIGTERM to the prefork master loses no acknowledged write."""

    def test_zero_lost_acknowledged_writes_across_drain(self, tmp_path):
        import os
        import signal
        import socket as socket_module
        import subprocess
        import sys
        from pathlib import Path

        import repro

        store_path = tmp_path / "drain.shm"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(repro.__file__).resolve().parents[1])
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "--workers", "2",
                "--store-backend", "shm",
                "--store-path", str(store_path),
                "serve", "--clock", "replay",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        writes = 40
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("listening on "), line
            host, _, port = line.rpartition(" ")[2].partition(":")
            acknowledged = 0
            for i in range(writes):
                sock = socket_module.create_connection(
                    (host, int(port)), timeout=10
                )
                try:
                    sock.sendall(
                        (
                            "request=smtpd_access_policy\n"
                            f"client_address=198.51.102.{i + 1}\n"
                            f"sender=d{i}@x.example\n"
                            "recipient=r@victim.example\n"
                            f"stamp={float(i)}\n\n"
                        ).encode()
                    )
                    data = b""
                    while b"\n\n" not in data:
                        chunk = sock.recv(4096)
                        if not chunk:
                            break
                        data += chunk
                    if data.startswith(b"action="):
                        acknowledged += 1
                finally:
                    sock.close()
            assert acknowledged == writes
        finally:
            proc.send_signal(signal.SIGTERM)
            status = proc.wait(timeout=30)
            output = proc.stdout.read()
            proc.stdout.close()
        assert status == 0, output

        # Reattach the persisted segment cold: every acknowledged
        # decision's triplet write must still be there.
        from repro.greylist.shm import SharedMemoryBackend

        reopened = SharedMemoryBackend(store_path)
        try:
            assert len(list(reopened.scan())) == writes
        finally:
            reopened.unlink()


class TestSQLiteKill:
    """SIGKILL to a SQLite daemon, with no drain, loses no committed write."""

    def test_committed_writes_survive_sigkill(self, tmp_path):
        import os
        import socket as socket_module
        import sqlite3
        import subprocess
        import sys
        import time
        from pathlib import Path

        import repro
        from repro.greylist.backends import SQLiteBackend

        store_path = tmp_path / "kill.db"
        wal_path = Path(f"{store_path}-wal")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(repro.__file__).resolve().parents[1])
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "--store-backend", "sqlite",
                "--store-path", str(store_path),
                "serve", "--clock", "replay",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        writes = 50
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("listening on "), line
            host, _, port = line.rpartition(" ")[2].partition(":")
            stanzas = "".join(
                "request=smtpd_access_policy\n"
                f"client_address=198.51.103.{i + 1}\n"
                f"sender=k{i}@x.example\n"
                "recipient=r@victim.example\n"
                f"stamp={float(i)}\n\n"
                for i in range(writes)
            )
            with socket_module.create_connection(
                (host, int(port)), timeout=10
            ) as sock:
                sock.sendall(stanzas.encode())
                data = b""
                while data.count(b"\n\n") < writes:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            assert data.count(b"action=") == writes

            # The daemon batches more writes than this into one commit, so
            # only its 1 s flush loop commits them: wait until a second,
            # read-only connection sees every row.
            reader = sqlite3.connect(f"file:{store_path}?mode=ro", uri=True)
            try:
                deadline = time.monotonic() + 30
                while reader.execute(
                    "SELECT COUNT(*) FROM greylisting_tracking"
                ).fetchone()[0] < writes:
                    assert time.monotonic() < deadline, "no flush committed"
                    time.sleep(0.05)
            finally:
                reader.close()
            # The rows live in the WAL, not yet checkpointed into the
            # database file, when the daemon dies without a drain.
            assert wal_path.exists()
            proc.kill()
            assert proc.wait(timeout=30) != 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()

        reopened = SQLiteBackend(store_path)
        try:
            assert len(reopened) == writes
            check = reopened._conn.execute("PRAGMA integrity_check")
            assert check.fetchone()[0] == "ok"
        finally:
            reopened.close()
