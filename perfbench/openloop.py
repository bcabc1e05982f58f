"""Open-loop policy-request generator.

One pipelined connection carries every request.  Each request has an
*intended* send time fixed before the phase starts; the generator sleeps
until about :data:`SPIN_S` before the next one is due and spins the
rest of the way, because ``poll``/``epoll`` timeouts are whole
milliseconds and a sleep-only sender runs up to 1 ms late.  Responses
come back in request order, so the k-th response answers the k-th
request; its latency runs from the request's intended send time, which
charges a stall to every request queued behind it.

Every response is compared byte-for-byte with the one the traffic was
built to get.  A wrong answer, an unanswered request or a closed
connection is a failed op.  Giving every request the same intended
time makes a saturating phase: the generator writes as fast as the
socket takes the bytes, so the daemon is never idle.
"""

from __future__ import annotations

import gc
import select
import socket
import time
from array import array
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

#: Spin (rather than sleep) for this long before each due send.
SPIN_S = 0.0015

#: Give up on responses this long after the last one arrived.
STALL_TIMEOUT_S = 5.0


class SocketTransport:
    """Non-blocking TCP transport with a millisecond readiness wait."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.sock = sock
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)

    def send(self, data: bytes) -> int:
        try:
            return self.sock.send(data)
        except BlockingIOError:
            return 0

    def recv(self) -> Optional[bytes]:
        """Bytes read, ``b""`` at end of stream, ``None`` if none ready."""
        try:
            return self.sock.recv(262144)
        except BlockingIOError:
            return None

    def wait(self, seconds: float) -> None:
        """Block until readable or ``seconds`` pass (whole ms, floored)."""
        self._poll.poll(int(seconds * 1000))


@dataclass
class Phase:
    """Per-request record of one open-loop phase (times in seconds)."""

    due: array
    sent: array
    done: array
    answered: int = 0
    wrong: int = 0
    closed: bool = False

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def failed(self) -> int:
        return self.wrong + (len(self.due) - self.answered)

    def latencies_ms(self) -> List[float]:
        due, done = self.due, self.done
        return [(done[k] - due[k]) * 1e3 for k in range(self.answered)]

    def lateness_us(self) -> List[float]:
        due, sent = self.due, self.sent
        return [(sent[k] - due[k]) * 1e6 for k in range(len(due)) if sent[k]]


class OpenLoop:
    """Drives one transport with scheduled, pre-rendered requests."""

    def __init__(self, transport, clock: Callable[[], float] = time.perf_counter) -> None:
        self.transport = transport
        self.clock = clock

    def run(
        self, payloads: Sequence[bytes], due: Sequence[float], expected: bytes
    ) -> Phase:
        """Send ``payloads[k]`` at absolute time ``due[k]``; collect answers.

        ``due`` must be ascending.  Returns when every request has been
        answered, the peer closed, or no answer came for
        :data:`STALL_TIMEOUT_S`.  The generator's own garbage collector is
        paused meanwhile, so its pauses never land in the daemon's
        latencies.
        """
        gc.disable()
        try:
            return self._run(payloads, due, expected)
        finally:
            gc.enable()

    def _run(
        self, payloads: Sequence[bytes], due: Sequence[float], expected: bytes
    ) -> Phase:
        n = len(payloads)
        phase = Phase(
            due=array("d", due),
            sent=array("d", bytes(8 * n)),
            done=array("d", bytes(8 * n)),
        )
        sent, done, due_at = phase.sent, phase.done, phase.due
        clock, transport = self.clock, self.transport
        size = len(expected)
        out = bytearray()
        inbuf = bytearray()
        i = j = wrong = 0
        progress = clock()
        while j < n:
            now = clock()
            if i < n and due_at[i] <= now:
                while i < n and due_at[i] <= now:
                    out += payloads[i]
                    sent[i] = now
                    i += 1
            if out:
                del out[: transport.send(out)]
            data = transport.recv()
            if data:
                now = clock()
                progress = now
                inbuf += data
                start = 0
                while j < i:
                    end = inbuf.find(b"\n\n", start)
                    if end < 0:
                        break
                    end += 2
                    if end - start != size or not inbuf.startswith(expected, start):
                        wrong += 1
                    done[j] = now
                    j += 1
                    start = end
                if start:
                    del inbuf[:start]
                continue
            if data == b"":
                phase.closed = True
                break
            if out:
                continue
            if i < n:
                ahead = due_at[i] - clock() - SPIN_S
                if ahead >= 0.001:
                    transport.wait(ahead)
            elif clock() - progress > STALL_TIMEOUT_S:
                break
            else:
                transport.wait(0.05)
        phase.answered = j
        phase.wrong = wrong
        return phase


def schedule(start: float, rate: float, count: int) -> List[float]:
    """Evenly spaced intended send times: ``count`` at ``rate`` per second."""
    return [start + k / rate for k in range(count)]
