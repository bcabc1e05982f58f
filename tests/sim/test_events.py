"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.clock import Clock
from repro.sim.events import EventScheduler, SchedulerError


@pytest.fixture
def sched():
    return EventScheduler(Clock())


class TestScheduling:
    def test_schedule_at_and_run(self, sched):
        fired = []
        sched.schedule_at(5.0, lambda: fired.append(sched.now))
        sched.run()
        assert fired == [5.0]

    def test_schedule_in_relative(self, sched):
        sched.clock.advance_to(10.0)
        fired = []
        sched.schedule_in(2.5, lambda: fired.append(sched.now))
        sched.run()
        assert fired == [12.5]

    def test_schedule_in_past_rejected(self, sched):
        sched.clock.advance_to(10.0)
        with pytest.raises(SchedulerError):
            sched.schedule_at(9.0, lambda: None)
        with pytest.raises(SchedulerError):
            sched.schedule_in(-1.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, sched, bad):
        # A NaN event used to fire first, at clock.now == nan.
        sched.clock.advance_to(1.0)
        with pytest.raises(SchedulerError):
            sched.schedule_at(bad, lambda: None)
        with pytest.raises(SchedulerError):
            sched.schedule_in(bad, lambda: None)
        assert sched.heap_size == 0
        assert sched.run() == 0
        assert sched.now == 1.0

    def test_events_fire_in_time_order(self, sched):
        fired = []
        sched.schedule_at(3.0, lambda: fired.append("c"))
        sched.schedule_at(1.0, lambda: fired.append("a"))
        sched.schedule_at(2.0, lambda: fired.append("b"))
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self, sched):
        fired = []
        for name in "abcde":
            sched.schedule_at(1.0, lambda n=name: fired.append(n))
        sched.run()
        assert fired == list("abcde")

    def test_callback_can_reschedule(self, sched):
        fired = []

        def tick():
            fired.append(sched.now)
            if len(fired) < 3:
                sched.schedule_in(1.0, tick)

        sched.schedule_at(0.0, tick)
        sched.run()
        assert fired == [0.0, 1.0, 2.0]


class TestCancellation:
    def test_cancel_pending(self, sched):
        fired = []
        handle = sched.schedule_at(1.0, lambda: fired.append("x"))
        assert sched.cancel(handle) is True
        sched.run()
        assert fired == []

    def test_cancel_twice_returns_false(self, sched):
        handle = sched.schedule_at(1.0, lambda: None)
        assert sched.cancel(handle) is True
        assert sched.cancel(handle) is False

    def test_cancel_after_fire_returns_false(self, sched):
        handle = sched.schedule_at(1.0, lambda: None)
        sched.run()
        assert sched.cancel(handle) is False

    def test_foreign_handle_cancels_nothing(self, sched):
        # Both events are the first ever scheduled at 1.0, so they share
        # (when, seq); handles compare by identity, and only the owner's
        # handle may cancel each.
        other = EventScheduler(Clock())
        fired = []
        mine = sched.schedule_at(1.0, lambda: fired.append("mine"))
        theirs = other.schedule_at(1.0, lambda: fired.append("theirs"))
        assert mine != theirs and len({mine, theirs}) == 2
        assert sched.cancel(theirs) is False
        assert other.cancel(mine) is False
        assert (sched.pending, other.pending) == (1, 1)
        sched.run()
        other.run()
        assert fired == ["mine", "theirs"]

    def test_pending_excludes_cancelled(self, sched):
        handle = sched.schedule_at(1.0, lambda: None)
        sched.schedule_at(2.0, lambda: None)
        sched.cancel(handle)
        assert sched.pending == 1


class TestRunLimits:
    def test_run_until_stops_before_later_events(self, sched):
        fired = []
        sched.schedule_at(1.0, lambda: fired.append(1))
        sched.schedule_at(10.0, lambda: fired.append(10))
        sched.run(until=5.0)
        assert fired == [1]
        assert sched.clock.now == 5.0  # advanced to the horizon
        sched.run()
        assert fired == [1, 10]

    def test_run_until_includes_boundary(self, sched):
        fired = []
        sched.schedule_at(5.0, lambda: fired.append(5))
        sched.run(until=5.0)
        assert fired == [5]

    def test_run_until_with_max_events_keeps_due_events(self, sched):
        # max_events stops the run with an event still due before the
        # horizon: the clock must not jump past it (the next run used to
        # fail moving the clock backwards).
        fired = []
        for t in (1.0, 2.0, 9.0):
            sched.schedule_at(t, lambda t=t: fired.append(t))
        assert sched.run(until=5.0, max_events=1) == 1
        assert sched.now == 1.0
        assert sched.run(until=5.0) == 1
        assert (fired, sched.now) == ([1.0, 2.0], 5.0)

    def test_run_until_infinity_drains(self, sched):
        sched.schedule_at(3.0, lambda: None)
        assert sched.run(until=float("inf")) == 1
        assert sched.now == 3.0

    def test_max_events_bounds_runaway(self, sched):
        def loop():
            sched.schedule_in(1.0, loop)

        sched.schedule_at(0.0, loop)
        processed = sched.run(max_events=25)
        assert processed == 25

    def test_step_returns_false_when_empty(self, sched):
        assert sched.step() is False

    def test_events_processed_counter(self, sched):
        for t in (1.0, 2.0, 3.0):
            sched.schedule_at(t, lambda: None)
        sched.run()
        assert sched.events_processed == 3

    def test_next_event_time(self, sched):
        assert sched.next_event_time() is None
        sched.schedule_at(4.0, lambda: None)
        assert sched.next_event_time() == 4.0

    def test_not_reentrant(self, sched):
        def nested():
            sched.run()

        sched.schedule_at(1.0, nested)
        with pytest.raises(SchedulerError):
            sched.run()


class TestTombstoneCompaction:
    def test_heap_bounded_under_cancel_churn(self, sched):
        # Schedule/cancel churn (the MTA retry-timer pattern) must not
        # accumulate cancelled entries: the heap stays proportional to the
        # live event count, not to the total number of cancellations.
        live = [sched.schedule_at(1e9, lambda: None) for _ in range(10)]
        for round_ in range(200):
            handles = [
                sched.schedule_at(100.0 + round_, lambda: None)
                for _ in range(50)
            ]
            for handle in handles:
                sched.cancel(handle)
        assert sched.pending == len(live)
        assert len(sched._heap) <= sched.pending + sched.COMPACT_MIN_TOMBSTONES

    def test_small_heaps_not_compacted(self, sched):
        # Below the tombstone floor the heap is left alone (no rebuild
        # thrash for tiny schedules).
        handle = sched.schedule_at(5.0, lambda: None)
        sched.cancel(handle)
        assert sched.tombstones == 1

    def test_step_consumes_tombstones(self, sched):
        handles = [sched.schedule_at(float(i + 1), lambda: None) for i in range(5)]
        for handle in handles[:3]:
            sched.cancel(handle)
        assert sched.tombstones == 3
        sched.run()
        assert sched.tombstones == 0
        assert sched.events_processed == 2

    def test_custom_threshold_compacts_earlier(self):
        # A lower constructor threshold keeps the heap tighter under the
        # same churn: tombstones are swept as soon as 4 accumulate.
        sched = EventScheduler(Clock(), compact_min_tombstones=4)
        sched.schedule_at(1e9, lambda: None)
        for round_ in range(100):
            handles = [
                sched.schedule_at(100.0 + round_, lambda: None)
                for _ in range(50)
            ]
            for handle in handles:
                sched.cancel(handle)
            assert sched.heap_size <= sched.pending + 4

    def test_default_threshold_from_class_constant(self, sched):
        assert sched.compact_min_tombstones == EventScheduler.COMPACT_MIN_TOMBSTONES

    def test_threshold_below_one_rejected(self):
        with pytest.raises(SchedulerError):
            EventScheduler(Clock(), compact_min_tombstones=0)
        with pytest.raises(SchedulerError):
            EventScheduler(Clock(), compact_min_tombstones=-5)

    def test_heap_size_counts_live_plus_tombstones(self, sched):
        handles = [sched.schedule_at(float(i + 1), lambda: None) for i in range(5)]
        assert sched.heap_size == 5
        sched.cancel(handles[0])
        # Below the compaction floor the tombstone still occupies a slot.
        assert sched.heap_size == 5
        assert sched.pending == 4

    def test_cancel_correct_across_compaction(self, sched):
        fired = []
        keep = [
            sched.schedule_at(float(i + 1), lambda i=i: fired.append(i))
            for i in range(5)
        ]
        for round_ in range(100):
            handles = [
                sched.schedule_at(50.0 + round_, lambda: fired.append("x"))
                for _ in range(10)
            ]
            for handle in handles:
                assert sched.cancel(handle) is True
        sched.cancel(keep[2])
        sched.run()
        assert fired == [0, 1, 3, 4]
