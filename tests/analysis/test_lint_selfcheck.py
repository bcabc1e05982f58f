"""The shipped tree must satisfy its own whole-program analyzer.

This is the executable form of the determinism contract in
``docs/ARCHITECTURE.md``: if a change reintroduces ambient randomness,
wall-clock reads, hash-order dependence, or — via the call-graph phase —
a nondeterministic sink reachable from an engine entry point, this test
fails with the exact rule and location.
"""

import time
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import analyze_paths, lint_paths, render_human

#: Whole-program analysis over the full tree must stay comfortably
#: inside CI's interactive budget.
TIME_BUDGET_SECONDS = 30.0


def _package_root() -> Path:
    return Path(repro.__file__).resolve().parent


def _repo_trees() -> list:
    """``src/repro`` plus the tests/benchmarks/scripts trees when present."""
    paths = [_package_root()]
    repo_root = _package_root().parent.parent
    for name in ("tests", "benchmarks", "scripts"):
        candidate = repo_root / name
        if candidate.is_dir():
            paths.append(candidate)
    return paths


def test_src_repro_is_lint_clean():
    result = lint_paths([_package_root()])
    assert result.findings == [], "\n" + render_human(
        result.findings, files_checked=result.files_checked
    )


def test_whole_program_analysis_is_clean():
    # Both phases, zero un-baselined findings — the acceptance bar.  No
    # baseline is passed: the tree must be *actually* clean, and the
    # committed .repro-lint-baseline.json empty.
    started = time.perf_counter()
    result = analyze_paths(_repo_trees())
    elapsed = time.perf_counter() - started
    assert result.findings == [], "\n" + render_human(
        result.findings, files_checked=result.files_checked
    )
    assert elapsed < TIME_BUDGET_SECONDS, (
        f"whole-program analysis took {elapsed:.1f}s, "
        f"budget is {TIME_BUDGET_SECONDS:.0f}s"
    )


def test_analyzer_actually_ran_both_phases():
    result = analyze_paths(_repo_trees())
    # Guard against a silent no-op (e.g. a broken file iterator): the
    # package has dozens of modules and at least one inline suppression.
    assert result.files_checked > 50
    assert result.suppressed >= 1
    # The graph phase really built a project over the tree.
    project = result.project
    assert project is not None
    assert len(project.modules) == result.files_checked
    assert len(project.functions) > 500
    assert sum(len(node.calls) for node in project.nodes.values()) > 1000


def test_entry_points_resolved_on_real_tree():
    from repro.analysis.lint.graph.rules import iter_entry_points

    result = analyze_paths([_package_root()])
    assert result.project is not None
    entries = {fn.qualname for fn in iter_entry_points(result.project)}
    # The engine entry points the taint rule starts from must keep
    # resolving as the tree grows; a rename here silently disables DET001.
    assert "run_adoption_experiment" in entries
    assert "columnar_adoption_shard" in entries
    assert "batched_adoption_shard" in entries
    # Every TripletBackend implementation's methods are entries too.
    assert any(name.startswith("SQLiteBackend.") for name in entries)
    assert any(name.startswith("SharedMemoryBackend.") for name in entries)


def test_dead_symbol_report_is_empty_on_real_tree():
    result = analyze_paths(_repo_trees())
    assert result.project is not None
    report = result.project.api_report()
    assert report["dead_symbols"] == []


#: Public names, methods and properties in ``src/repro`` that only tests
#: reach, each kept for a reason given here.  Anything else only tests
#: reach is to be deleted.
TEST_ONLY_API = {
    # The store-backend equivalence suite reads snapshots back through it
    # in its restart and migration cases.
    ("greylist/persistence.py", "load_store"),
    # They back the seed-sensitivity claim in EXPERIMENTS.md.
    ("core/sensitivity.py", "adoption_sensitivity"),
    ("core/sensitivity.py", "deployment_sensitivity"),
    ("core/sensitivity.py", "verdicts_seed_invariant"),
    # It backs ARCHITECTURE.md's two-scan-under-faults result.
    ("scan/detect.py", "summarize_single_scan"),
    # Gauges ROADMAP's observability item exposes: scheduler throughput
    # and shm table health.
    ("sim/events.py", "EventScheduler.events_processed"),
    ("greylist/shm.py", "SharedMemoryBackend.spill_count"),
    ("greylist/shm.py", "SharedMemoryBackend.tombstone_count"),
    # The crash-restart test's only probe of live workers.
    ("serve/prefork.py", "PreforkSupervisor.worker_pids"),
}


def test_only_the_kept_names_are_test_only_api():
    # Every tree but the tests: a name none of them reaches is test-only.
    # perfbench counts as a reader; its own findings are not checked here.
    package = _package_root()
    repo_root = package.parent.parent
    trees = [package] + [
        repo_root / name for name in ("benchmarks", "scripts", "examples", "perfbench")
    ]
    result = analyze_paths(trees)
    assert result.project is not None
    dead = {
        (entry["module"], entry["symbol"])
        for entry in result.project.api_report()["dead_symbols"]
        if (package / entry["module"]).is_file()
    }
    assert dead == TEST_ONLY_API


@pytest.mark.parametrize("where", ["repo root", "elsewhere"])
def test_report_names_no_module_outside_the_package(where, tmp_path, monkeypatch):
    # Only a file under a ``repro`` directory gets a ``repro.*`` name, so
    # perfbench never joins the report, whichever directory it runs from.
    package = _package_root()
    repo_root = package.parent.parent
    perfbench = repo_root / "perfbench"
    if not perfbench.is_dir():
        pytest.skip("perfbench is not shipped with this tree")
    monkeypatch.chdir(repo_root if where == "repo root" else tmp_path)
    result = analyze_paths([package, perfbench])
    assert result.project is not None
    outside = [
        entry["module"]
        for entry in result.project.api_report()["dead_symbols"]
        if not (package / entry["module"]).is_file()
    ]
    assert outside == []
