"""BENCHMARK.json and the harness's metric catalogue must agree."""

import json
import os

import pytest

import metrics
import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_names_and_units_agree(bench):
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_bounds_within_contract(bench):
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_complete_fills_missing_layers_with_zero():
    out = metrics.complete({"trace.overhead_pct": (3.0, "%")}, trace=True)
    assert list(out) == list(metrics.PER_LAYER)
    assert out["trace.overhead_pct"] == {"value": 3.0, "unit": "%"}
    assert out["sim.events.events_per_op"]["value"] == 0.0


def test_complete_rejects_unknown_or_missing_metrics():
    with pytest.raises(ValueError):
        metrics.complete({"bogus": (1.0, "ms")}, trace=True)
    with pytest.raises(ValueError):
        metrics.complete({"p50_ms": (1.0, "ms")}, trace=False)
