"""Discrete-event scheduler.

The scheduler owns the simulation :class:`~repro.sim.clock.Clock` and a
priority queue of timestamped callbacks.  Events scheduled for the same
instant fire in FIFO order (a monotonically increasing sequence number breaks
ties), which makes every run fully deterministic.  A scheduled event always
fires once its time is reached: senders stop retrying by not rescheduling.

This is the backbone of every experiment in the reproduction: bots, MTAs,
webmail providers and scanners are all expressed as callbacks re-scheduling
themselves on this queue.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
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
    hash by identity.
    """

    __slots__ = ("when", "label", "callback")

    def __init__(self, when: float, label: str, callback: EventCallback) -> None:
        self.when = when
        self.label = label
        self.callback = callback

    def __repr__(self) -> str:
        return f"EventHandle(when={self.when!r}, label={self.label!r})"


class EventScheduler:
    """A deterministic discrete-event loop.

    Parameters
    ----------
    clock:
        The simulation clock to drive.  A fresh one is created if omitted.

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

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False

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
        handle = EventHandle(when, label, callback)
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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

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
        heap = self._heap
        advance_to = self.clock.advance_to
        processed = 0
        try:
            while heap and processed < limit:
                when = heap[0][0]
                if when > horizon:
                    break
                handle = heappop(heap)[2]
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
        """Number of events still queued."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total events fired since construction."""
        return self._events_processed

    def next_event_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when idle."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:
        return (
            f"EventScheduler(now={self.clock.now:.3f}, pending={self.pending}, "
            f"processed={self._events_processed})"
        )
