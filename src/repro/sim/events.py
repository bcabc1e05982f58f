"""Discrete-event scheduler.

The scheduler owns the simulation :class:`~repro.sim.clock.Clock` and a
priority queue of timestamped callbacks.  Events scheduled for the same
instant fire in FIFO order (a monotonically increasing sequence number breaks
ties), which makes every run fully deterministic.

This is the backbone of every experiment in the reproduction: bots, MTAs,
webmail providers and scanners are all expressed as callbacks re-scheduling
themselves on this queue.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Optional

from .clock import Clock

EventCallback = Callable[[], Any]


class SchedulerError(Exception):
    """Raised on illegal scheduler operations."""


class EventHandle:
    """Opaque handle returned by :meth:`EventScheduler.schedule_at`.

    The handle *is* the scheduled event: the heap holds ``(when, seq,
    handle)`` tuples and never compares handles, so handles compare and
    hash by identity.  Holding one allows the caller to cancel the event
    before it fires.
    """

    __slots__ = ("when", "label", "callback", "_scheduler")

    def __init__(
        self, when: float, label: str, callback: EventCallback, scheduler: EventScheduler
    ) -> None:
        self.when = when
        self.label = label
        self.callback = callback
        # The scheduler it is pending in; None once it fired or was cancelled.
        self._scheduler: Optional[EventScheduler] = scheduler

    def __repr__(self) -> str:
        return f"EventHandle(when={self.when!r}, label={self.label!r})"


class EventScheduler:
    """A deterministic discrete-event loop.

    Parameters
    ----------
    clock:
        The simulation clock to drive.  A fresh one is created if omitted.
    compact_min_tombstones:
        Heap compaction is skipped while fewer than this many cancelled
        tombstones exist, so tiny heaps are not rebuilt on every
        cancellation.  Defaults to :data:`COMPACT_MIN_TOMBSTONES`; lower it
        for tighter memory bounds under schedule/cancel churn, raise it to
        amortize compaction over larger batches.

    Examples
    --------
    >>> sched = EventScheduler()
    >>> fired = []
    >>> _ = sched.schedule_in(5.0, lambda: fired.append(sched.clock.now))
    >>> sched.run()
    1
    >>> fired
    [5.0]
    """

    #: Default compaction threshold (see ``compact_min_tombstones``).
    COMPACT_MIN_TOMBSTONES = 32

    def __init__(
        self,
        clock: Optional[Clock] = None,
        compact_min_tombstones: Optional[int] = None,
    ) -> None:
        if compact_min_tombstones is None:
            compact_min_tombstones = self.COMPACT_MIN_TOMBSTONES
        if compact_min_tombstones < 1:
            raise SchedulerError(
                f"compact_min_tombstones must be >= 1, got "
                f"{compact_min_tombstones}"
            )
        self.clock = clock if clock is not None else Clock()
        self.compact_min_tombstones = int(compact_min_tombstones)
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._tombstones = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self, when: float, callback: EventCallback, label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` to run at absolute time ``when``."""
        if not self.clock.now <= when < inf:
            raise SchedulerError(
                f"cannot schedule event at {when}: the time must be finite "
                f"and not before the current time {self.clock.now}"
            )
        seq = next(self._seq)
        handle = EventHandle(when, label, callback, self)
        heappush(self._heap, (when, seq, handle))
        return handle

    def schedule_in(
        self, delay: float, callback: EventCallback, label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not 0 <= delay < inf:
            raise SchedulerError(
                f"delay must be finite and non-negative, got {delay}"
            )
        return self.schedule_at(self.clock.now + delay, callback, label)

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a pending event.

        Returns ``True`` if the event was pending in this scheduler and is
        now cancelled, ``False`` if it already fired, was already cancelled
        or belongs to another scheduler.
        """
        if handle._scheduler is not self:
            return False
        handle._scheduler = None
        self._tombstones += 1
        if (
            self._tombstones >= self.compact_min_tombstones
            and self._tombstones * 2 > self.pending
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        """Rebuild the heap without cancelled tombstones.

        Cancelled entries normally linger in the heap until popped; under a
        schedule/cancel churn workload (MTA retry timers that almost always
        get cancelled) they would otherwise accumulate without bound.
        """
        self._heap = [item for item in self._heap if item[2]._scheduler is not None]
        heapify(self._heap)
        self._tombstones = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next pending event.

        Returns ``True`` if an event fired, ``False`` if the queue is empty.
        This is ``run(max_events=1)``, so it is not re-entrant either.
        """
        return self.run(max_events=1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains (or limits are hit).

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time; the
            clock is then advanced to ``until`` so post-run reads see the full
            horizon (unless ``max_events`` stopped the run with an event
            still due by ``until``).
        max_events:
            Safety valve for runaway self-rescheduling loops.

        Returns the number of events processed by this call.
        """
        if self._running:
            raise SchedulerError("scheduler is not re-entrant")
        self._running = True
        horizon = inf if until is None else until
        limit = inf if max_events is None else max_events
        advance_to = self.clock.advance_to
        processed = 0
        try:
            while processed < limit:
                # Re-read every time: a cancel() inside the last callback
                # may have compacted, and so rebound, the heap.
                heap = self._heap
                if not heap:
                    break
                item = heappop(heap)
                when, _, handle = item
                if handle._scheduler is None:
                    self._tombstones -= 1
                    continue
                if when > horizon:
                    heappush(heap, item)
                    break
                handle._scheduler = None
                advance_to(when)
                self._events_processed += 1
                processed += 1
                handle.callback()
        finally:
            self._running = False
        if until is not None and self.clock.now < until < inf:
            # Not past an event that max_events left due before ``until``.
            next_time = self.next_event_time()
            if next_time is None or next_time > until:
                self.clock.advance_to(until)
        return processed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Shortcut for ``self.clock.now``."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of events still queued (excluding cancelled tombstones)."""
        return len(self._heap) - self._tombstones

    @property
    def events_processed(self) -> int:
        """Total events fired since construction."""
        return self._events_processed

    @property
    def tombstones(self) -> int:
        """Cancelled entries still occupying heap slots."""
        return self._tombstones

    @property
    def heap_size(self) -> int:
        """Heap slots in use, live entries plus tombstones.

        The churn benchmark asserts this stays bounded: without
        compaction, cancel-heavy workloads (retry timers that almost
        always get cancelled) grow the heap without limit.
        """
        return len(self._heap)

    def next_event_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when idle."""
        heap = self._heap
        while heap and heap[0][2]._scheduler is None:
            heappop(heap)
            self._tombstones -= 1
        return heap[0][0] if heap else None

    def __repr__(self) -> str:
        return (
            f"EventScheduler(now={self.clock.now:.3f}, pending={self.pending}, "
            f"processed={self._events_processed})"
        )
