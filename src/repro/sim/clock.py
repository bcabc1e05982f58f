"""Virtual simulation clock.

All components of the simulator share a single :class:`Clock` instance and
read time exclusively through it.  Time is a float number of *seconds* since
the start of the simulation.  Only the event scheduler is allowed to advance
the clock; everything else treats it as read-only.

Using virtual time keeps every experiment deterministic and lets multi-month
measurement campaigns (e.g. the four-month university log of Figure 5) run in
milliseconds while preserving all relative delays exactly.
"""

from __future__ import annotations

from math import inf


class ClockError(Exception):
    """Raised on an illegal clock manipulation (e.g. moving time backwards)."""


class Clock:
    """A monotonically non-decreasing virtual clock.

    Parameters
    ----------
    start:
        Initial simulation time in seconds.  Defaults to ``0.0``.  A non-zero
        start is useful when replaying logs whose timestamps are absolute.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if not 0 <= start < inf:
            raise ClockError(f"clock must start at a finite, non-negative time, got {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises :class:`ClockError` if ``when`` lies in the past or is not
        finite; advancing to the current time is a no-op and is allowed
        (simultaneous events).
        """
        if not self._now <= when < inf:
            raise ClockError(
                f"cannot move clock from {self._now} to {when}: time must be "
                f"finite and must not move backwards"
            )
        self._now = float(when)

    def advance_by(self, delta: float) -> None:
        """Move the clock forward by ``delta`` seconds (finite, >= 0)."""
        if not 0 <= delta < inf:
            raise ClockError(f"clock delta must be finite and non-negative, got {delta}")
        self._now += float(delta)

    def __repr__(self) -> str:
        return f"Clock(now={self._now:.3f})"


def format_duration(seconds: float) -> str:
    """Render a duration as ``mm:ss`` (the format used by Table III).

    >>> format_duration(362)
    '6:02'
    >>> format_duration(21731)
    '362:11'
    """
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    total = int(round(seconds))
    minutes, secs = divmod(total, 60)
    return f"{minutes}:{secs:02d}"
