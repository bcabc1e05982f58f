"""Microbenchmarks of the triplet-store backends at deployment scale.

A real greylisting deployment holds on the order of a million live
triplets (the paper's §VI database-growth numbers make spammers the ones
who decide that size).  These benches load one million triplets into each
backend and measure the two operations a serving policy performs:

* **Lookups** — point reads on the hot path of every RCPT decision.  The
  SQLite backend carries a hard floor of 100,000 lookups/sec: below that
  a single policy daemon could not keep up with a burst worth greylisting.
* **Expiry sweep** — the periodic Postgrey ``--max-age`` cleanup, with
  roughly half the database stale.  SQLite serves this from the
  ``(passed, last_seen)`` index; the dict backends pay a full scan.

Backends run volatile here (SQLite ``:memory:``, a private shm segment):
the statements and scan/expire code paths are identical to the
file-backed ones — covered for durability by the unit and equivalence
suites — and keeping the bench off the filesystem keeps the 1M-row
setup smoke-viable and the numbers free of container I/O noise.

The shared-memory table is fixed-capacity by design (it spills rather
than grows), so this bench sizes it explicitly for the 1M load at a
~25% load factor — the same ``--shm-capacity`` decision a deployment
makes — keeping bounded probing spill-free at this scale.

Both join the smoke-bench regression gate once baselined in BENCH_0.json.
"""

import pytest

from repro.greylist.backends import BACKEND_NAMES, create_backend
from repro.greylist.shm import SharedMemoryBackend
from repro.greylist.store import DAY, TripletEntry
from repro.greylist.triplet import Triplet
from repro.net.address import IPv4Address
from repro.sim.rng import RandomStream

from _util import emit

NUM_TRIPLETS = 1_000_000
NUM_LOOKUPS = 20_000
#: Hard floor on SQLite point-read throughput at 1M triplets.
SQLITE_LOOKUP_FLOOR = 100_000

RETRY_WINDOW = 2 * DAY
WHITELIST_LIFETIME = 35 * DAY


@pytest.fixture(scope="module")
def entries_1m():
    """One million triplet entries, ~half confirmed, ages spread out.

    ``last_seen`` spans [0, 35 days); sweeping at ``now = 37 days`` with
    the Postgrey windows expires every unconfirmed entry older than 2
    days and every confirmed one older than 35 — roughly half the table.
    """
    rng = RandomStream(23, "store-bench")
    entries = []
    for i in range(NUM_TRIPLETS):
        passed = i % 2 == 0
        last_seen = rng.uniform(0.0, 35 * DAY)
        entries.append(
            TripletEntry(
                triplet=Triplet(
                    IPv4Address((10 << 24) | i),
                    f"s{i % 4096}@x{i % 997}.example",
                    f"r{i % 64}@victim.example",
                ),
                first_seen=max(0.0, last_seen - 600.0),
                last_seen=last_seen,
                attempts=2 if passed else 1,
                passed=passed,
                passed_at=last_seen if passed else None,
            )
        )
    return entries


#: Slots in the shared-memory table for the 1M load (~25% load factor:
#: bounded 64-slot probing stays spill-free with this much headroom).
SHM_BENCH_CAPACITY = 4 * 1024 * 1024


def _loaded_backend(name, entries):
    if name == "shm":
        backend = SharedMemoryBackend(capacity=SHM_BENCH_CAPACITY)
    else:
        backend = create_backend(name, path=None)  # volatile: see module doc
    backend.bulk_load(entries)
    backend.flush()
    return backend


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_perf_store_lookup(benchmark, name, entries_1m):
    """Point reads against 1M stored triplets."""
    backend = _loaded_backend(name, entries_1m)
    probes = [
        entries_1m[i].triplet
        for i in range(0, NUM_TRIPLETS, NUM_TRIPLETS // NUM_LOOKUPS)
    ][:NUM_LOOKUPS]

    def lookups():
        get = backend.get
        hits = 0
        for probe in probes:
            if get(probe) is not None:
                hits += 1
        return hits

    hits = benchmark.pedantic(lookups, rounds=3, iterations=1)
    assert hits == NUM_LOOKUPS
    assert len(backend) == NUM_TRIPLETS

    per_sec = NUM_LOOKUPS / benchmark.stats.stats.min
    benchmark.extra_info["lookups_per_sec"] = round(per_sec)
    emit(
        f"Triplet lookups ({name})",
        f"{per_sec:,.0f} lookups/sec against {NUM_TRIPLETS:,} triplets",
    )
    if name == "sqlite":
        assert per_sec >= SQLITE_LOOKUP_FLOOR
    backend.close()


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_perf_store_sweep(benchmark, name, entries_1m):
    """One full expiry sweep over 1M triplets, ~half of them stale."""
    backend = _loaded_backend(name, entries_1m)
    now = 37 * DAY

    def sweep():
        return backend.expire(now, RETRY_WINDOW, WHITELIST_LIFETIME)

    unconfirmed, confirmed = benchmark.pedantic(sweep, rounds=1, iterations=1)
    removed = unconfirmed + confirmed
    assert removed > NUM_TRIPLETS // 4          # the sweep had real work
    assert len(backend) == NUM_TRIPLETS - removed

    seconds = benchmark.stats.stats.min
    benchmark.extra_info["entries_swept"] = removed
    benchmark.extra_info["entries_per_sec"] = round(NUM_TRIPLETS / seconds)
    emit(
        f"Expiry sweep ({name})",
        f"swept {NUM_TRIPLETS:,} triplets in {seconds:.3f}s "
        f"({removed:,} expired: {unconfirmed:,} unconfirmed, "
        f"{confirmed:,} confirmed)",
    )
    backend.close()
