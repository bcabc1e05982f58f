"""Seeded property test: ``EventScheduler`` against a sorted-list reference.

The reference keeps every queued event, tombstones included, in a list
sorted by ``(when, seq)`` and implements the scheduler's contract in the
most direct way: FIFO among same-instant events, cancelled events stay
as tombstones until they reach the head or the queue is compacted, and
compaction happens once the tombstones reach ``compact_min_tombstones``
and outnumber half the live events.  Random operation mixes drive both
and must yield the same fire order, return values, ``pending``,
``tombstones``, ``heap_size`` and ``events_processed`` after every
operation and inside every callback.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from typing import Callable, List, Optional

import pytest

from repro.sim.clock import Clock
from repro.sim.events import EventScheduler


class _RefHandle:
    def __init__(self, owner: "ReferenceScheduler", when: float, seq: int, callback) -> None:
        self.owner = owner
        self.when = when
        self.seq = seq
        self.callback = callback
        self.state = "pending"  # then "fired" or "cancelled"

    def key(self):
        return (self.when, self.seq)


class ReferenceScheduler:
    """The scheduler's contract over a sorted list; no heap, no cleverness."""

    def __init__(self, compact_min_tombstones: int) -> None:
        self.now = 0.0
        self.compact_min_tombstones = compact_min_tombstones
        self.queue: List[_RefHandle] = []
        self.seq = itertools.count()
        self.events_processed = 0

    @property
    def tombstones(self) -> int:
        return sum(1 for h in self.queue if h.state == "cancelled")

    @property
    def pending(self) -> int:
        return sum(1 for h in self.queue if h.state == "pending")

    @property
    def heap_size(self) -> int:
        return len(self.queue)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> _RefHandle:
        assert self.now <= when < math.inf
        handle = _RefHandle(self, when, next(self.seq), callback)
        keys = [h.key() for h in self.queue]
        self.queue.insert(bisect.bisect(keys, handle.key()), handle)
        return handle

    def cancel(self, handle: _RefHandle) -> bool:
        if handle.owner is not self or handle.state != "pending":
            return False
        handle.state = "cancelled"
        if (
            self.tombstones >= self.compact_min_tombstones
            and self.tombstones * 2 > self.pending
        ):
            self.queue = [h for h in self.queue if h.state == "pending"]
        return True

    def _fire(self, handle: _RefHandle) -> None:
        handle.state = "fired"
        self.now = handle.when
        self.events_processed += 1
        handle.callback()

    def step(self) -> bool:
        while self.queue:
            head = self.queue.pop(0)
            if head.state == "pending":
                self._fire(head)
                return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        processed = 0
        while self.queue and (max_events is None or processed < max_events):
            head = self.queue[0]
            if head.state == "cancelled":
                self.queue.pop(0)
                continue
            if until is not None and head.when > until:
                break
            self.queue.pop(0)
            processed += 1
            self._fire(head)
        if until is not None and self.now < until:
            next_time = self.next_event_time()
            if next_time is None or next_time > until:
                self.now = until
        return processed

    def next_event_time(self) -> Optional[float]:
        while self.queue and self.queue[0].state == "cancelled":
            self.queue.pop(0)
        return self.queue[0].when if self.queue else None


def _snapshot(sched) -> tuple:
    return (sched.now, sched.pending, sched.tombstones, sched.heap_size, sched.events_processed)


def _drive(sched, foreign, seed: int, ops: int) -> list:
    """Run one seeded operation mix on ``sched``; return everything observed.

    ``foreign`` is a second scheduler of the same kind: its handles are
    offered to ``sched.cancel``, which must refuse them.
    """
    rng = random.Random(seed)
    log: list = []
    handles: list = []

    def schedule(delay: float) -> None:
        eid = len(handles)
        handles.append(sched.schedule_at(sched.now + delay, lambda: fire(eid)))

    def cancel_some(count: int) -> None:
        for _ in range(count):
            if handles:
                eid = rng.randrange(len(handles))
                log.append(("cancel", eid, sched.cancel(handles[eid])))

    def fire(eid: int) -> None:
        log.append(("fire", eid) + _snapshot(sched))
        roll = rng.random()
        if roll < 0.35:
            for _ in range(rng.randint(1, 3)):
                schedule(rng.choice((0.0, 0.0, 1.0, 2.5, 7.0)))
        elif roll < 0.55:
            cancel_some(rng.randint(1, 4))
        elif roll < 0.6:
            # A burst that can push the tombstones past the compaction
            # threshold while run() is iterating the heap.
            cancel_some(rng.randint(10, 40))
        log.append(("after", eid) + _snapshot(sched))

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.35:
            for _ in range(rng.randint(1, 12)):
                schedule(float(rng.randint(0, 6)))
        elif roll < 0.5:
            cancel_some(rng.randint(1, 8))
        elif roll < 0.58:
            log.append(("run-until", sched.run(until=sched.now + rng.choice((0.0, 1.0, 3.5)))))
        elif roll < 0.66:
            log.append(("run-max", sched.run(max_events=rng.randint(0, 6))))
        elif roll < 0.72:
            log.append(("run-both", sched.run(until=sched.now + 2.0, max_events=rng.randint(1, 4))))
        elif roll < 0.8:
            log.append(("step", sched.step()))
        elif roll < 0.86:
            log.append(("next", sched.next_event_time()))
        elif roll < 0.92:
            other = foreign.schedule_at(foreign.now + rng.randint(0, 6), lambda: None)
            log.append(("foreign", sched.cancel(other)))
        else:
            log.append(("run", sched.run(max_events=200)))
        log.append(("state",) + _snapshot(sched))
    log.append(("drain", sched.run()))
    log.append(("state",) + _snapshot(sched))
    return log


@pytest.mark.parametrize("compact_min", [1, 4, 32])
@pytest.mark.parametrize("seed", range(12))
def test_matches_sorted_list_reference(seed, compact_min):
    real = _drive(
        EventScheduler(Clock(), compact_min_tombstones=compact_min),
        EventScheduler(Clock(), compact_min_tombstones=compact_min),
        seed,
        ops=150,
    )
    model = _drive(
        ReferenceScheduler(compact_min),
        ReferenceScheduler(compact_min),
        seed,
        ops=150,
    )
    assert real == model
    assert any(entry[0] == "fire" for entry in real)


def test_reference_mixes_compact_mid_run():
    # The seeded mixes above must actually exercise the case that needs
    # run() to re-read its heap: a cancel() inside a callback compacting
    # it, i.e. heap_size shrinking between "fire" and "after" (within a
    # callback nothing else can shrink it).
    compactions = 0
    for seed in range(12):
        log = _drive(
            EventScheduler(Clock(), compact_min_tombstones=4),
            EventScheduler(Clock(), compact_min_tombstones=4),
            seed,
            ops=150,
        )
        fired = {entry[1]: entry for entry in log if entry[0] == "fire"}
        for entry in log:
            if entry[0] == "after" and entry[5] < fired[entry[1]][5]:
                compactions += 1
    assert compactions > 0


def test_compaction_inside_callback_keeps_firing_in_order():
    sched = EventScheduler(Clock(), compact_min_tombstones=4)
    model = ReferenceScheduler(4)
    logs: dict = {"real": [], "model": []}
    for name, s in (("real", sched), ("model", model)):
        log = logs[name]
        doomed = [s.schedule_at(10.0 + i, lambda i=i, log=log: log.append(("doomed", i)))
                  for i in range(20)]
        for i in range(5):
            s.schedule_at(50.0 + i, lambda i=i, log=log, s=s: log.append(("late", i, s.now)))

        def purge(s=s, doomed=doomed, log=log) -> None:
            before = s.heap_size
            for handle in doomed:
                s.cancel(handle)
            log.append(("purged", before, s.heap_size, s.tombstones, s.pending))

        s.schedule_at(1.0, purge)
        log.append(("ran", s.run()))
    assert logs["real"] == logs["model"]
    # The purge compacted the heap mid-run, three times (at 9, 6 and 4
    # tombstones): 25 slots became the 5 live events plus the one
    # tombstone cancelled after the last compaction.
    assert ("purged", 25, 6, 1, 5) in logs["real"]
    assert [e[1] for e in logs["real"] if e[0] == "late"] == [0, 1, 2, 3, 4]
