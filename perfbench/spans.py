"""In-memory span tracing for the traced benchmark runs.

A span is one call into a layer: its name, start, end and the span that
was open when it began (its parent).  Spans live in parallel arrays
while the traced process runs and are written to one file at exit;
the harness reads that file back and folds it into per-layer figures.

A layer's *self* time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Timestamps come
from ``time.perf_counter_ns``, which is ``CLOCK_MONOTONIC`` on Linux,
so spans written by the daemon and windows marked by the harness share
one time base.

Layers are instrumented from outside: :class:`Patcher` replaces a
public function or method on its module or class with a wrapper that
opens and closes a span, and restores the original afterwards.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_MISSING = object()


class Tracer:
    """Span recorder: one row per span across four parallel arrays."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._open: List[int] = []
        #: Timestamped point events (name, t_ns, value), e.g. GC pauses.
        self.events: List[Tuple[str, int, float]] = []
        #: Timestamped gauge snapshots (t_ns, {gauge: value}).
        self.marks: List[Tuple[int, Dict[str, float]]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> None:
        open_spans = self._open
        self.name_ids.append(nid)
        self.parents.append(open_spans[-1] if open_spans else -1)
        open_spans.append(len(self.starts))
        self.ends.append(0)
        self.starts.append(self.clock())

    def end(self) -> None:
        now = self.clock()
        self.ends[self._open.pop()] = now

    @property
    def depth(self) -> int:
        return len(self._open)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        begin = self.begin
        end = self.end

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def event(self, name: str, value: float) -> None:
        self.events.append((name, self.clock(), value))

    def mark(self, gauges: Dict[str, float]) -> None:
        self.marks.append((self.clock(), dict(gauges)))

    # ------------------------------------------------------------------
    # Persistence: a JSON header line, then the four arrays' raw bytes.
    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        header = {
            "names": self.names,
            "count": len(self.starts),
            "events": self.events,
            "marks": self.marks,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)


class SpanTable:
    """Spans read back from a :meth:`Tracer.dump` file (or a live tracer)."""

    def __init__(
        self,
        names: Sequence[str],
        name_ids: Sequence[int],
        parents: Sequence[int],
        starts: Sequence[int],
        ends: Sequence[int],
        events: Sequence[Tuple[str, int, float]] = (),
        marks: Sequence[Tuple[int, Dict[str, float]]] = (),
    ) -> None:
        self.names = list(names)
        self.name_ids = name_ids
        self.parents = parents
        self.starts = starts
        self.ends = ends
        self.events = [tuple(e) for e in events]
        self.marks = [(int(t), dict(g)) for t, g in marks]

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "SpanTable":
        return cls(
            tracer.names, tracer.name_ids, tracer.parents, tracer.starts,
            tracer.ends, tracer.events, tracer.marks,
        )

    @classmethod
    def load(cls, path: str) -> "SpanTable":
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            count = header["count"]
            columns = []
            for code in ("i", "i", "q", "q"):
                column = array(code)
                column.fromfile(handle, count)
                columns.append(column)
        return cls(header["names"], *columns, header["events"], header["marks"])


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Each span's duration minus the part its direct children cover.

    Children may overlap one another or poke outside their parent (a
    clock read on either side of a boundary); only the union of their
    intervals, clipped to the parent, is subtracted.
    """
    n = len(starts)
    order: Sequence[int] = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=starts.__getitem__)
    covered = [0] * n
    reach = list(starts)  # end of each parent's already-covered prefix
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class LayerTotals:
    """Per-name span count, self time and outermost inclusive time."""

    __slots__ = ("count", "self_ns", "inclusive_ns")

    def __init__(self) -> None:
        self.count = 0
        self.self_ns = 0
        self.inclusive_ns = 0


def aggregate(
    table: SpanTable, window: Optional[Tuple[int, int]] = None
) -> Dict[str, LayerTotals]:
    """Fold spans into :class:`LayerTotals` by name.

    ``window`` keeps only spans that start inside ``[lo, hi)``.  A span
    nested (at any depth) inside a span of the same name adds to the
    count and self time but not to the inclusive time, so recursion and
    re-entry never double-count.
    """
    own = self_times(table.starts, table.ends, table.parents)
    names = table.names
    name_ids = table.name_ids
    parents = table.parents
    starts = table.starts
    ends = table.ends
    totals: Dict[str, LayerTotals] = {name: LayerTotals() for name in names}
    for i in range(len(starts)):
        if window is not None and not window[0] <= starts[i] < window[1]:
            continue
        nid = name_ids[i]
        entry = totals[names[nid]]
        entry.count += 1
        entry.self_ns += own[i]
        p = parents[i]
        while p >= 0 and name_ids[p] != nid:
            p = parents[p]
        if p < 0:
            entry.inclusive_ns += ends[i] - starts[i]
    return totals


def gc_probe(tracer: Tracer) -> Callable[[str, Dict[str, Any]], None]:
    """A ``gc.callbacks`` entry that records each collection as an event.

    The event is named ``gc<generation>`` and carries the pause in ms.
    """
    started = [0]

    def probe(phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            started[0] = tracer.clock()
        else:
            tracer.event(f"gc{info['generation']}", (tracer.clock() - started[0]) / 1e6)

    return probe


def gc_metrics(
    events: Sequence[Tuple[str, int, float]], window: Tuple[int, int]
) -> Dict[str, Tuple[float, str]]:
    """Gen-2 collections and GC pause times recorded inside ``window``."""
    pauses = [(name, value) for name, t, value in events
              if name.startswith("gc") and window[0] <= t < window[1]]
    return {
        "runtime.gc_gen2_count": (sum(1 for name, _ in pauses if name == "gc2"), "count"),
        "runtime.gc_pause_ms_total": (sum(v for _, v in pauses), "ms"),
        "runtime.gc_pause_ms_max": (max((v for _, v in pauses), default=0.0), "ms"),
    }


class Patcher:
    """Swap module or class attributes for traced wrappers, then restore."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record every call of ``owner.attr`` as a span called ``name``."""
        self.replace(owner, attr, self.tracer.wrap(getattr(owner, attr), name))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self, install: Callable[["Patcher"], None]) -> Iterator[None]:
        install(self)
        try:
            yield
        finally:
            self.restore()
