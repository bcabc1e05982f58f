"""How fast is this CPU right now?  A fixed reference workload says.

The benchmark runs on shared virtual CPUs whose speed swings between
about 1x and 2x within a second, each CPU on its own (likely another
tenant on the same physical core).  Raw timings taken minutes apart therefore
disagree by more than any regression worth catching.  So every timed
stretch is bracketed by readings of the CPU's *slowness*: the time a
fixed piece of plain interpreter work (:func:`_reference_work`, no
program code) takes on that CPU, over the time it takes at nominal
speed (:data:`NOMINAL_MS`).  Sim op times, serve burst latencies and
CPU times, and set-up times are reported at nominal speed,
``measured / slowness``, and saturated serve rates as
``measured * slowness``; raw values are printed beside them.  The
fixed offered rates are never scaled.

The reference runs in a helper process of its own (:class:`Probe`),
never in the measured process: its speed must not depend on the heap
the program left behind, or a change to the program would leak into
the yardstick.  The helper pins itself to the CPU it is asked about
while the asking process waits, so the two never compete.

    python3 perfbench/hostspeed.py     # the helper: reads CPU numbers,
                                       # answers reference times in ms
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import IO, Iterable, List, Sequence, Tuple

#: Reference-work time (ms) in a fresh helper on an uncontended CPU of
#: the box the bounds were set on.
NOMINAL_MS = 0.2

#: Reference runs per reading; their median is the reading.
REPEATS = 9


def _reference_work() -> int:
    table = {}
    total = 0
    for i in range(300):
        key = f"k{i % 97}.{i}"
        table[key] = (i, key)
        total += len(table.get(f"k{(i * 7) % 97}.{i // 2}", ()))
    ordered = sorted(table.items(), key=lambda item: item[1][0] % 13)
    return total + len(ordered)


def reference_ms() -> float:
    """Median time (ms) of the reference work on the calling thread's CPU."""
    times: List[float] = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _reference_work()
        times.append((time.perf_counter() - started) * 1e3)
    times.sort()
    return times[len(times) // 2]


class ProbeClient:
    """Asks a :class:`Probe` helper over two pipe descriptors."""

    def __init__(self, fds: Sequence[int]) -> None:
        self._ask: IO[str] = os.fdopen(fds[0], "w", buffering=1)
        self._answer: IO[str] = os.fdopen(fds[1], "r")

    def slowness(self, cpus: Iterable[int]) -> float:
        """Reference time on the lowest of ``cpus`` over the nominal time."""
        self._ask.write(f"{min(cpus)}\n")
        return float(self._answer.readline()) / NOMINAL_MS

    def fastest(self, cpus: Iterable[int]) -> Tuple[int, float]:
        """The one of ``cpus`` running fastest right now, and its slowness."""
        slow, cpu = min((self.slowness((cpu,)), cpu) for cpu in cpus)
        return cpu, slow

    def close(self) -> None:
        self._ask.close()
        self._answer.close()


class Probe(ProbeClient):
    """Starts the helper process; :attr:`child_fds` lend it to a child."""

    def __init__(self) -> None:
        ask_read, ask_write = os.pipe()
        answer_read, answer_write = os.pipe()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=ask_read, stdout=answer_write,
        )
        os.close(ask_read)
        os.close(answer_write)
        # Duplicates a child process can inherit and talk through.
        self.child_fds: Tuple[int, int] = (os.dup(ask_write), os.dup(answer_read))
        for fd in self.child_fds:
            os.set_inheritable(fd, True)
        super().__init__((ask_write, answer_read))

    def close(self) -> None:
        for fd in self.child_fds:
            os.close(fd)
        super().close()
        self.proc.wait(timeout=10)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def serve() -> None:
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)})
        print(reference_ms(), flush=True)


if __name__ == "__main__":
    serve()
