import types

import spans


def test_self_time_subtracts_children():
    # parent [0, 100] with children [10, 30] and [40, 50]
    starts, ends, parents = [0, 10, 40], [100, 30, 50], [-1, 0, 0]
    assert spans.self_times(starts, ends, parents) == [70, 20, 10]


def test_self_time_counts_overlapping_children_once():
    # children [10, 30] and [20, 50] cover [10, 50]
    starts, ends, parents = [0, 10, 20], [100, 30, 50], [-1, 0, 0]
    assert spans.self_times(starts, ends, parents)[0] == 60


def test_self_time_clips_children_to_the_parent():
    # a child read its end clock after the parent closed: [90, 120]
    starts, ends, parents = [0, 90], [100, 120], [-1, 0]
    assert spans.self_times(starts, ends, parents)[0] == 90


def test_self_time_only_direct_children():
    # grandchild [20, 30] inside child [10, 40]: the parent loses 30, not 40
    starts, ends, parents = [0, 10, 20], [100, 40, 30], [-1, 0, 1]
    assert spans.self_times(starts, ends, parents) == [70, 20, 10]


def test_self_time_with_unsorted_input():
    starts, ends, parents = [40, 0, 10], [50, 100, 30], [1, -1, 1]
    assert spans.self_times(starts, ends, parents) == [10, 70, 20]


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


def test_tracer_records_nesting_and_aggregates():
    tracer = spans.Tracer(clock=FakeClock())
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("outer"):  # re-entry counts once inclusively
            pass
    table = spans.SpanTable.from_tracer(tracer)
    assert list(table.parents) == [-1, 0, 0]
    totals = spans.aggregate(table)
    assert totals["outer"].count == 2
    assert totals["inner"].count == 1
    # outer [10, 60], inner [20, 30], nested outer [40, 50]
    assert totals["outer"].inclusive_ns == 50
    assert totals["outer"].self_ns == (50 - 20) + 10
    assert totals["inner"].self_ns == 10


def test_aggregate_window_keeps_spans_starting_inside():
    tracer = spans.Tracer(clock=FakeClock())
    for _ in range(3):
        with tracer.span("op"):
            pass
    table = spans.SpanTable.from_tracer(tracer)
    assert spans.aggregate(table, (25, 1000))["op"].count == 2


def test_dump_and_load_round_trip(tmp_path):
    tracer = spans.Tracer(clock=FakeClock())
    with tracer.span("a"):
        tracer.event("gc2", 1.5)
    tracer.mark({"hits": 3})
    path = str(tmp_path / "t.spans")
    tracer.dump(path)
    table = spans.SpanTable.load(path)
    assert table.names == ["a"]
    assert list(table.starts) == [10] and list(table.ends) == [30]
    assert table.events == [("gc2", 20, 1.5)]
    assert table.marks == [(40, {"hits": 3})]


def test_patcher_wraps_and_restores():
    module = types.SimpleNamespace(double=lambda x: 2 * x)

    class Thing:
        def value(self):
            return 5

    class Child(Thing):
        pass

    original = module.double
    tracer = spans.Tracer(clock=FakeClock())
    patcher = spans.Patcher(tracer)

    def install(p):
        p.wrap(module, "double", "m.double")
        p.wrap(Child, "value", "thing.value")

    with patcher.installed(install):
        assert module.double(4) == 8
        assert Child().value() == 5
    assert module.double is original
    assert "value" not in vars(Child)  # inherited again, not copied down
    totals = spans.aggregate(spans.SpanTable.from_tracer(tracer))
    assert totals["m.double"].count == 1
    assert totals["thing.value"].count == 1
