import pytest

import openloop

ANSWER = b"action=DUNNO\n\n"


class FakeClock:
    """Virtual seconds; each read costs one microsecond of spinning."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        self.now += 1e-6
        return self.now


class EchoTransport:
    """Answers each complete request ``delay`` seconds after it was sent."""

    def __init__(self, clock, delay=0.002, answer=ANSWER):
        self.clock = clock
        self.delay = delay
        self.answer = answer
        self.pending = []  # ready-at times
        self.buffer = b""
        self.waits = []

    def send(self, data):
        self.buffer += data
        while b"\n\n" in self.buffer:
            _, self.buffer = self.buffer.split(b"\n\n", 1)
            self.pending.append(self.clock.now + self.delay)
        return len(data)

    def recv(self):
        ready = [t for t in self.pending if t <= self.clock.now]
        if not ready:
            return None
        self.pending = self.pending[len(ready):]
        return self.answer * len(ready)

    def wait(self, seconds):
        # poll() sleeps whole milliseconds, rounded down, or until readable
        self.waits.append(seconds)
        wake = self.clock.now + int(seconds * 1000) / 1000
        if self.pending:
            wake = min(wake, max(self.pending[0], self.clock.now))
        self.clock.now = wake


def run(due, start=0.0, delay=0.002, answer=ANSWER):
    clock = FakeClock(start)
    transport = EchoTransport(clock, delay, answer)
    loop = openloop.OpenLoop(transport, clock=clock)
    phase = loop.run([b"q=1\n\n"] * len(due), due, ANSWER)
    return phase, transport


def test_spin_tail_sends_on_time():
    due = [0.010, 0.020, 0.0305]
    phase, transport = run(due)
    assert phase.answered == 3 and phase.failed == 0
    # never early, and late only by the spin loop's own clock reads
    for lateness in phase.lateness_us():
        assert 0 <= lateness < 5
    # it slept in whole milliseconds, never into the last SPIN_S
    assert transport.waits and all(w >= 0.001 for w in transport.waits)


def test_lateness_counts_from_the_intended_time():
    # the generator starts 5 ms after the first two requests were due
    phase, _ = run([0.0, 0.0, 0.010], start=0.005)
    late = phase.lateness_us()
    assert late[0] == pytest.approx(5000, abs=5)
    assert late[1] == pytest.approx(5000, abs=5)
    assert 0 <= late[2] < 5


def test_latency_includes_generator_lateness():
    phase, _ = run([0.0, 0.010], start=0.005, delay=0.002)
    latencies = phase.latencies_ms()
    assert latencies[0] == pytest.approx(7.0, abs=0.01)
    assert latencies[1] == pytest.approx(2.0, abs=0.01)


def test_wrong_answers_are_failed_ops():
    phase, _ = run([0.0, 0.001], answer=b"action=REJECT\n\n")
    assert phase.answered == 2
    assert phase.wrong == 2
    assert phase.failed == 2


def test_requests_due_together_saturate_the_connection():
    # all due at 0: sent in one write, answered together 2 ms later
    phase, _ = run([0.0] * 50)
    assert phase.answered == 50 and phase.failed == 0
    assert max(phase.lateness_us()) < 5
    assert len(set(phase.done)) == 1


def test_schedule_is_evenly_spaced():
    assert openloop.schedule(1.0, 4.0, 3) == [1.0, 1.25, 1.5]
