"""Seeded property test: ``EventScheduler`` against a sorted-list reference.

The reference keeps every queued event in a list sorted by ``(when,
seq)`` and implements the scheduler's contract in the most direct way:
FIFO among same-instant events, ``until`` stops before the first event
due after it and then moves the clock to it, and ``max_events`` caps a
run.  Random operation mixes drive both and must yield the same fire
order, return values, ``pending`` and ``events_processed`` after every
operation and inside every callback.  Each mix draws its delays from one
of three regimes: whole seconds, mostly-tied instants that lean on FIFO
order, and sparse fractional times whose ``until`` horizons fall in idle
gaps.
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


class _RefEvent:
    def __init__(self, when: float, seq: int, callback) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback

    def key(self):
        return (self.when, self.seq)


class ReferenceScheduler:
    """The scheduler's contract over a sorted list; no heap, no cleverness."""

    def __init__(self) -> None:
        self.now = 0.0
        self.queue: List[_RefEvent] = []
        self.seq = itertools.count()
        self.events_processed = 0

    @property
    def pending(self) -> int:
        return len(self.queue)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> _RefEvent:
        assert self.now <= when < math.inf
        event = _RefEvent(when, next(self.seq), callback)
        keys = [e.key() for e in self.queue]
        self.queue.insert(bisect.bisect(keys, event.key()), event)
        return event

    def _fire(self, event: _RefEvent) -> None:
        self.now = event.when
        self.events_processed += 1
        event.callback()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        processed = 0
        while self.queue and (max_events is None or processed < max_events):
            if until is not None and self.queue[0].when > until:
                break
            processed += 1
            self._fire(self.queue.pop(0))
        if until is not None and self.now < until:
            next_time = self.next_event_time()
            if next_time is None or next_time > until:
                self.now = until
        return processed

    def next_event_time(self) -> Optional[float]:
        return self.queue[0].when if self.queue else None


def _snapshot(sched) -> tuple:
    return (sched.now, sched.pending, sched.events_processed)


#: Delay regimes: (delay of a top-level event, delay of one a callback
#: schedules), each drawn from the mix's RNG.
_MIXES = {
    "seconds": (
        lambda rng: float(rng.randint(0, 6)),
        lambda rng: rng.choice((0.0, 0.0, 1.0, 2.5, 7.0)),
    ),
    "ties": (
        lambda rng: float(rng.randint(0, 1)),
        lambda rng: 0.0,
    ),
    "sparse": (
        lambda rng: rng.uniform(0.0, 40.0),
        lambda rng: rng.uniform(0.5, 15.0),
    ),
}


def _drive(sched, seed: int, ops: int, mix: str = "seconds") -> list:
    """Run one seeded operation mix on ``sched``; return everything observed."""
    rng = random.Random(seed)
    top_delay, nested_delay = _MIXES[mix]
    log: list = []
    count = itertools.count()

    def schedule(delay: float) -> None:
        eid = next(count)
        sched.schedule_at(sched.now + delay, lambda: fire(eid))

    def fire(eid: int) -> None:
        log.append(("fire", eid) + _snapshot(sched))
        if rng.random() < 0.35:
            for _ in range(rng.randint(1, 3)):
                schedule(nested_delay(rng))
        log.append(("after", eid) + _snapshot(sched))

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.4:
            for _ in range(rng.randint(1, 12)):
                schedule(top_delay(rng))
        elif roll < 0.52:
            log.append(("run-until", sched.run(until=sched.now + rng.choice((0.0, 1.0, 3.5)))))
        elif roll < 0.64:
            log.append(("run-max", sched.run(max_events=rng.randint(0, 6))))
        elif roll < 0.74:
            log.append(("run-both", sched.run(until=sched.now + 2.0, max_events=rng.randint(1, 4))))
        elif roll < 0.84:
            log.append(("step", sched.run(max_events=1) == 1))
        elif roll < 0.92:
            log.append(("next", sched.next_event_time()))
        else:
            log.append(("run", sched.run(max_events=200)))
        log.append(("state",) + _snapshot(sched))
    log.append(("drain", sched.run()))
    log.append(("state",) + _snapshot(sched))
    return log


@pytest.mark.parametrize("mix", sorted(_MIXES))
@pytest.mark.parametrize("seed", range(12))
def test_matches_sorted_list_reference(seed, mix):
    real = _drive(EventScheduler(Clock()), seed, ops=150, mix=mix)
    model = _drive(ReferenceScheduler(), seed, ops=150, mix=mix)
    assert real == model
    assert any(entry[0] == "fire" for entry in real)
