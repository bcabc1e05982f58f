"""Retry schedules for outbound mail queues.

A :class:`RetrySchedule` answers one question: given that attempt *n* has
just failed at queue age *t*, how long until attempt *n+1*?  It also carries
the *maximum queue lifetime* after which the MTA gives up and bounces
(RFC 5321 recommends at least 4–5 days; Table IV shows the defaults of the
popular MTAs ranging from 2 to 7 days).

Two shapes cover every Table IV default that :mod:`repro.mta.profiles`
models: fixed intervals (sendmail every 10 minutes, exchange every 15) and
fully explicit attempt tables (exim, postfix, qmail, courier), which either
repeat their last gap or stop once the table runs out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

DAY = 86400.0
MINUTE = 60.0


class RetrySchedule:
    """Interface for retry timing."""

    #: Give-up horizon in seconds (None = never give up).
    max_queue_time: Optional[float] = None

    def next_delay(self, attempt_number: int, queue_age: float) -> Optional[float]:
        """Seconds to wait before the next attempt.

        Parameters
        ----------
        attempt_number:
            The 1-based index of the attempt that just failed.
        queue_age:
            Seconds since the message entered the queue.

        Returns ``None`` when the sender gives up instead of retrying.
        """
        raise NotImplementedError

    def _expired(self, queue_age: float, delay: float) -> bool:
        return (
            self.max_queue_time is not None
            and queue_age + delay > self.max_queue_time
        )

    def attempt_times(self, horizon: float) -> List[float]:
        """Materialize the schedule: queue ages of every attempt <= horizon.

        The first attempt happens at age 0; subsequent ones follow
        :meth:`next_delay`.  Useful for tests and for regenerating Table IV.
        """
        times = [0.0]
        attempt = 1
        while True:
            delay = self.next_delay(attempt, times[-1])
            if delay is None:
                break
            nxt = times[-1] + delay
            if nxt > horizon:
                break
            times.append(nxt)
            attempt += 1
            if len(times) > 100000:  # pragma: no cover - runaway guard
                raise RuntimeError("schedule produced implausibly many attempts")
        return times


@dataclass
class FixedIntervalSchedule(RetrySchedule):
    """Retry every ``interval`` seconds (e.g. hotmail's 4-minute cadence)."""

    interval: float
    max_queue_time: Optional[float] = 5 * DAY

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")

    def next_delay(self, attempt_number: int, queue_age: float) -> Optional[float]:
        if self._expired(queue_age, self.interval):
            return None
        return self.interval


class TableSchedule(RetrySchedule):
    """A fully explicit schedule given as attempt queue-ages.

    ``ages`` lists the queue age (seconds) of attempts 2, 3, ... (attempt 1
    is always at age 0).  After the table runs out, either repeat the final
    gap (``repeat_last=True``, how qmail/exim-style schedules behave until
    the queue lifetime expires) or give up.
    """

    def __init__(
        self,
        ages: Sequence[float],
        max_queue_time: Optional[float] = 5 * DAY,
        repeat_last: bool = True,
    ) -> None:
        ages = [float(a) for a in ages]
        if any(a <= 0 for a in ages):
            raise ValueError("attempt ages must be positive")
        if sorted(ages) != ages or len(set(ages)) != len(ages):
            raise ValueError("attempt ages must be strictly increasing")
        self.ages = ages
        self.max_queue_time = max_queue_time
        self.repeat_last = repeat_last

    def next_delay(self, attempt_number: int, queue_age: float) -> Optional[float]:
        # attempt_number failed at queue_age; attempt_number+1 is next.
        # Table index: attempt k (k >= 2) happens at ages[k - 2].
        next_index = attempt_number - 1
        if next_index < len(self.ages):
            delay = self.ages[next_index] - queue_age
            if delay <= 0:
                # Caller drifted from nominal ages (e.g. greylist-imposed
                # jitter); fall back to the nominal gap.
                prev = self.ages[next_index - 1] if next_index > 0 else 0.0
                delay = max(self.ages[next_index] - prev, 1.0)
        elif self.repeat_last:
            if len(self.ages) >= 2:
                delay = self.ages[-1] - self.ages[-2]
            elif self.ages:
                delay = self.ages[0]
            else:
                return None
        else:
            return None
        if self._expired(queue_age, delay):
            return None
        return delay
