"""Unit tests for the process-pool task runner."""

import os
from pathlib import Path

import pytest

from repro.runner.cache import ResultCache
from repro.runner.pool import TaskFailure, effective_workers, run_tasks


def square_task(payload):
    return payload["x"] * payload["x"]


def flaky_task(payload):
    """Fails the first time it sees its flag file missing, then succeeds.

    The flag lives on disk so the failure is visible across the process
    boundary: a pool worker's failed attempt primes the coordinator's
    inline retry.
    """
    flag = Path(payload["flag"])
    if not flag.exists():
        flag.write_text("tripped", encoding="utf-8")
        raise ValueError("transient task failure")
    return payload["x"] * 10


def always_failing_task(payload):
    raise RuntimeError("deterministically broken")


def crashing_task(payload):
    """Hard-kills its worker process once (no exception, no cleanup)."""
    flag = Path(payload["flag"])
    if payload.get("crash") and not flag.exists():
        flag.write_text("crashed", encoding="utf-8")
        os._exit(1)
    return payload["x"] + 100


class TestEffectiveWorkers:
    def test_explicit_count_passes_through(self):
        assert effective_workers(3) == 3

    def test_none_and_zero_mean_cpu_count(self):
        assert effective_workers(None) >= 1
        assert effective_workers(0) == effective_workers(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            effective_workers(-1)


class TestRunTasks:
    def test_results_in_payload_order(self):
        payloads = [{"x": x} for x in (5, 3, 1, 4)]
        assert run_tasks(square_task, payloads, workers=1) == [25, 9, 1, 16]

    def test_pool_matches_inline(self):
        payloads = [{"x": x} for x in range(7)]
        serial = run_tasks(square_task, payloads, workers=1)
        parallel = run_tasks(square_task, payloads, workers=3)
        assert parallel == serial

    def test_empty_payloads(self):
        assert run_tasks(square_task, [], workers=4) == []

    def test_cache_requires_experiment_name(self):
        with pytest.raises(ValueError):
            run_tasks(
                square_task, [{"x": 1}], cache=ResultCache(root="/tmp/x")
            )

    def test_cached_payloads_skipped(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        payloads = [{"x": x} for x in range(4)]
        first = run_tasks(
            square_task, payloads, workers=1, cache=cache, experiment="sq"
        )
        assert cache.stores == 4
        second = run_tasks(
            square_task, payloads, workers=1, cache=cache, experiment="sq"
        )
        assert second == first
        assert cache.hits == 4
        assert cache.stores == 4  # nothing recomputed, nothing re-stored

    def test_partial_cache_fills_gaps(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        run_tasks(
            square_task, [{"x": 2}], workers=1, cache=cache, experiment="sq"
        )
        results = run_tasks(
            square_task,
            [{"x": x} for x in (1, 2, 3)],
            workers=1,
            cache=cache,
            experiment="sq",
        )
        assert results == [1, 4, 9]


class TestFailureHandling:
    def test_flaky_payload_retried_inline(self, tmp_path):
        payloads = [{"x": 1, "flag": str(tmp_path / "f1")}]
        assert run_tasks(flaky_task, payloads, workers=1) == [10]
        assert (tmp_path / "f1").exists()

    def test_flaky_payload_retried_after_pool_failure(self, tmp_path):
        payloads = [
            {"x": x, "flag": str(tmp_path / f"f{x}")} for x in range(4)
        ]
        (tmp_path / "f0").write_text("ok", encoding="utf-8")
        (tmp_path / "f2").write_text("ok", encoding="utf-8")
        results = run_tasks(flaky_task, payloads, workers=2)
        assert results == [0, 10, 20, 30]

    def test_persistent_failure_names_payload_index(self):
        payloads = [{"x": 0}, {"x": 1}, {"x": 2}]
        with pytest.raises(TaskFailure) as excinfo:
            run_tasks(always_failing_task, payloads, workers=1)
        assert excinfo.value.index == 0
        assert "payload 0" in str(excinfo.value)

    def test_persistent_failure_in_pool_names_payload_index(self, tmp_path):
        payloads = [{"x": 0}, {"x": 1}, {"x": 2}]
        with pytest.raises(TaskFailure) as excinfo:
            run_tasks(always_failing_task, payloads, workers=2)
        assert "payload" in str(excinfo.value)

    def test_worker_crash_does_not_abort_the_sweep(self, tmp_path):
        # One payload hard-kills its worker (os._exit): the pool breaks,
        # every in-flight future fails, and the coordinator must still
        # return a result for every payload by re-running inline.
        payloads = [
            {"x": x, "flag": str(tmp_path / "crash"), "crash": x == 1}
            for x in range(5)
        ]
        results = run_tasks(crashing_task, payloads, workers=2)
        assert results == [100, 101, 102, 103, 104]

    def test_results_cached_after_recovery(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        payloads = [{"x": 7, "flag": str(tmp_path / "f7")}]
        results = run_tasks(
            flaky_task, payloads, workers=1, cache=cache, experiment="flaky"
        )
        assert results == [70]
        assert cache.stores == 1
