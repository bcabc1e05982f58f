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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, sched, bad):
        # A NaN event used to fire first, at clock.now == nan.
        sched.clock.advance_to(1.0)
        with pytest.raises(SchedulerError):
            sched.schedule_at(bad, lambda: None)
        with pytest.raises(SchedulerError):
            sched.schedule_in(bad, lambda: None)
        assert sched.pending == 0
        assert sched.run() == 0
        assert sched.now == 1.0

    def test_schedule_at_current_instant_allowed(self, sched):
        sched.clock.advance_to(4.0)
        fired = []
        sched.schedule_at(4.0, lambda: fired.append(sched.now))
        sched.schedule_in(0.0, lambda: fired.append(sched.now))
        assert sched.run() == 2
        assert fired == [4.0, 4.0]

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

    def test_same_instant_event_from_callback_fires_after_queued_peers(self, sched):
        # An event a callback adds for the current instant queues behind
        # the events already due then, not ahead of them.
        fired = []

        def first():
            fired.append("first")
            sched.schedule_in(0.0, lambda: fired.append("child"))

        sched.schedule_at(1.0, first)
        sched.schedule_at(1.0, lambda: fired.append("peer"))
        sched.run()
        assert fired == ["first", "peer", "child"]

    def test_callback_can_reschedule(self, sched):
        fired = []

        def tick():
            fired.append(sched.now)
            if len(fired) < 3:
                sched.schedule_in(1.0, tick)

        sched.schedule_at(0.0, tick)
        sched.run()
        assert fired == [0.0, 1.0, 2.0]


class TestHandles:
    def test_handle_records_time_and_label(self, sched):
        sched.clock.advance_to(2.0)
        handle = sched.schedule_in(3.0, lambda: None, label="retry")
        assert (handle.when, handle.label) == (5.0, "retry")
        assert repr(handle) == "EventHandle(when=5.0, label='retry')"

    def test_handles_are_distinct_per_event(self, sched):
        # Same time, label and callback: still two events, two handles.
        def callback():
            pass

        a = sched.schedule_at(1.0, callback, label="x")
        b = sched.schedule_at(1.0, callback, label="x")
        assert a != b
        assert len({a, b}) == 2
        assert sched.run() == 2


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

    def test_run_until_on_idle_queue_advances_clock(self, sched):
        assert sched.run(until=30.0) == 0
        assert sched.now == 30.0

    def test_run_until_before_now_keeps_clock(self, sched):
        sched.clock.advance_to(10.0)
        sched.schedule_at(12.0, lambda: None)
        assert sched.run(until=5.0) == 0
        assert (sched.now, sched.pending) == (10.0, 1)

    def test_run_until_fires_events_callbacks_add_within_horizon(self, sched):
        fired = []

        def parent():
            fired.append(sched.now)
            sched.schedule_in(2.0, lambda: fired.append(sched.now))
            sched.schedule_in(9.0, lambda: fired.append(sched.now))

        sched.schedule_at(1.0, parent)
        assert sched.run(until=5.0) == 2
        assert fired == [1.0, 3.0]
        assert sched.next_event_time() == 10.0

    def test_max_events_zero_fires_nothing(self, sched):
        sched.schedule_at(1.0, lambda: None)
        assert sched.run(max_events=0) == 0
        assert (sched.now, sched.pending, sched.events_processed) == (0.0, 1, 0)

    def test_run_returns_count_of_this_call(self, sched):
        for t in (1.0, 2.0, 3.0):
            sched.schedule_at(t, lambda: None)
        assert sched.run(until=1.5) == 1
        assert sched.run() == 2
        assert sched.events_processed == 3

    def test_pending_tracks_queue(self, sched):
        assert sched.pending == 0
        for t in (1.0, 2.0):
            sched.schedule_at(t, lambda: None)
        assert sched.pending == 2
        sched.run(max_events=1)
        assert sched.pending == 1
        sched.run()
        assert sched.pending == 0

    def test_events_processed_counter(self, sched):
        for t in (1.0, 2.0, 3.0):
            sched.schedule_at(t, lambda: None)
        sched.run()
        assert sched.events_processed == 3

    def test_next_event_time(self, sched):
        assert sched.next_event_time() is None
        sched.schedule_at(4.0, lambda: None)
        assert sched.next_event_time() == 4.0

    def test_next_event_time_follows_the_earliest(self, sched):
        sched.schedule_at(4.0, lambda: None)
        sched.schedule_at(2.0, lambda: None)
        assert sched.next_event_time() == 2.0
        sched.run(max_events=1)
        assert sched.next_event_time() == 4.0
        sched.run(max_events=1)
        assert sched.next_event_time() is None

    def test_not_reentrant(self, sched):
        def nested():
            sched.run()

        sched.schedule_at(1.0, nested)
        with pytest.raises(SchedulerError):
            sched.run()

    def test_usable_after_callback_raises(self, sched):
        # The failing event is consumed and counted; the loop unlocks so
        # the rest of the queue still runs.
        def boom():
            raise RuntimeError("callback failed")

        fired = []
        sched.schedule_at(1.0, boom)
        sched.schedule_at(2.0, lambda: fired.append(sched.now))
        with pytest.raises(RuntimeError):
            sched.run()
        assert (sched.now, sched.pending, sched.events_processed) == (1.0, 1, 1)
        assert sched.run() == 1
        assert fired == [2.0]


class TestClock:
    def test_drives_the_given_clock(self):
        clock = Clock()
        sched = EventScheduler(clock)
        sched.schedule_at(7.0, lambda: None)
        sched.run()
        assert sched.clock is clock
        assert clock.now == 7.0

    def test_default_clock_starts_at_zero(self):
        sched = EventScheduler()
        assert sched.now == 0.0
        assert sched.now == sched.clock.now

    def test_repr_reports_state(self, sched):
        sched.schedule_at(1.0, lambda: None)
        sched.schedule_at(2.0, lambda: None)
        sched.run(max_events=1)
        assert repr(sched) == "EventScheduler(now=1.000, pending=1, processed=1)"
