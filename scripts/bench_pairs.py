#!/usr/bin/env python
"""Alternating parent/change pairs of one perfbench workload, with verdicts.

Usage::

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload sim-greylist \\
        --seeds 201-210 --claim p50_ms

There is one pair per seed of ``--seeds``.  The parent side runs in a
temporary checkout of ``--parent`` (``git archive`` into a temporary
directory, removed on exit, so the repository's own metadata is never
touched); the change side runs in this working tree.  Each side runs
through its own checkout's ``perfbench/spread.run_once``, for
``BENCHMARK.json``'s ``run_seconds``.  Pair ``i`` runs both sides at the
``i``-th seed, and the side that runs first alternates from pair to
pair.  No file under ``perfbench/`` is edited.

For every end-to-end metric in ``BENCHMARK.json`` it prints both sides'
median and quartiles (``statistics.quantiles(values, n=4)``, as
``perfbench/stats.quartile_spread`` takes them), the change's wins and
ties, the parent's interquartile range (IQR) and a verdict:

* a metric named by ``--claim`` is a ``gain`` when there are at least
  ten pairs, the change wins at least nine tenths of them (ties count
  for neither side) and its median beats the parent's by more than the
  parent's IQR, and ``not met`` otherwise;
* any other metric is a ``regression`` when the change's median is worse
  than the parent's by more than the metric's bound, ``unresolved`` when
  either side's IQR is wider than the bound (unless every change run
  beats every parent run), and ``ok`` otherwise.

Exit status 1 if a run failed, a claim was not met or a metric
regressed; 0 otherwise.  Stdlib only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from types import ModuleType
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fewest pairs a claimed gain may rest on.
MIN_CLAIM_PAIRS = 10


class Comparison(NamedTuple):
    """Both sides of one metric over the pairs, and its verdict."""

    parent: Tuple[float, float, float]  # (q1, median, q3)
    change: Tuple[float, float, float]
    wins: int
    ties: int
    pairs: int
    parent_iqr: float
    verdict: str


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` by ``statistics.quantiles``' default method."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q1, median, q3)


def compare(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    claimed: bool,
) -> Comparison:
    """Judge one metric from its paired runs (``parent[i]`` with ``change[i]``).

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the relative
    worsening ``BENCHMARK.json`` allows.  See the module docstring for
    the rule.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    ties = sum(1 for p, c in zip(parent, change) if p == c)
    p_q1, p_median, p_q3 = parent_q = quartiles(parent)
    c_q1, c_median, c_q3 = change_q = quartiles(change)
    parent_iqr = p_q3 - p_q1
    gain = sign * (p_median - c_median)  # > 0: the change is better
    if claimed:
        met = (
            len(parent) >= MIN_CLAIM_PAIRS
            and wins * 10 >= 9 * len(parent)
            and gain > parent_iqr
        )
        verdict = "gain" if met else "not met"
    else:
        allowed = bound * abs(p_median)
        # Every change run beats every parent run.
        separated = (
            max(change) < min(parent) if better == "lower"
            else min(change) > max(parent)
        )
        if -gain > allowed:
            verdict = "regression"
        elif max(parent_iqr, c_q3 - c_q1) > allowed and not separated:
            verdict = "unresolved"
        else:
            verdict = "ok"
    return Comparison(
        parent_q, change_q, wins, ties, len(parent), parent_iqr, verdict
    )


def load_spread(root: str, name: str) -> ModuleType:
    """Checkout ``root``'s ``perfbench/spread.py``; its ``run_once`` runs there.

    ``spread.py`` imports its sibling ``stats``, so the caller puts a
    ``perfbench`` directory on ``sys.path`` first.
    """
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "perfbench", "spread.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(rev: str, into: str) -> None:
    """Extract the committed tree of ``rev`` into directory ``into``."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def report(
    comparisons: Dict[str, Comparison], units: Dict[str, str]
) -> List[str]:
    """The table :func:`main` prints, one line per metric."""
    rows = [[
        "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
        "wins", "ties", "parent IQR", "verdict",
    ]]
    for name, result in comparisons.items():
        p_q1, p_med, p_q3 = result.parent
        c_q1, c_med, c_q3 = result.change
        rows.append([
            name,
            units[name],
            f"{_fmt(p_med)} [{_fmt(p_q1)}, {_fmt(p_q3)}]",
            f"{_fmt(c_med)} [{_fmt(c_q1)}, {_fmt(c_q3)}]",
            f"{result.wins}/{result.pairs}",
            str(result.ties),
            _fmt(result.parent_iqr),
            result.verdict,
        ])
    widths = [max(len(row[column]) for row in rows) for column in range(8)]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    spread = load_spread(ROOT, "change_spread")
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seeds", required=True, type=spread.seeds_arg,
        help="A-B (inclusive): one pair per seed",
    )
    parser.add_argument(
        "--claim", action="append", default=[],
        help="an end-to-end metric this change claims to improve (repeatable)",
    )
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    unknown = [name for name in args.claim if name not in metrics]
    if unknown:
        parser.error(f"--claim names no end-to-end metric: {', '.join(unknown)}")
    seeds: List[int] = args.seeds
    if not seeds:
        parser.error("--seeds names no seed")
    seconds = benchmark["run_seconds"]

    runs: Dict[str, List[Dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as parent_root:
        checkout(args.parent, parent_root)
        runners = {
            "parent": load_spread(parent_root, "parent_spread"),
            "change": spread,
        }
        for index, seed in enumerate(seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                result = runners[side].run_once(args.workload, seed, seconds)
                runs[side].append(result)
                print(
                    f"pair {index + 1}/{len(seeds)} seed {seed} {side}: "
                    + " ".join(
                        f"{name}={_fmt(result['metrics'][name]['value'])}"
                        for name in metrics
                    ),
                    file=sys.stderr, flush=True,
                )

    failed = [
        (side, seed)
        for side, results in runs.items()
        for seed, result in zip(seeds, results)
        if not result["correct"] or result["failed"]
    ]
    comparisons = {
        name: compare(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
            metric["better"],
            metric["bound"],
            name in args.claim,
        )
        for name, metric in metrics.items()
    }
    print(
        f"{args.workload}: {len(seeds)} pairs of {seconds:g} s, seeds "
        f"{seeds[0]}-{seeds[-1]}, parent {args.parent} vs the working tree"
    )
    for line in report(comparisons, {n: m["unit"] for n, m in metrics.items()}):
        print(line)
    for side, seed in failed:
        print(f"FAILED: {side} run at seed {seed} was incorrect or failed ops")
    bad = {"regression", "not met"}
    return 1 if failed or any(c.verdict in bad for c in comparisons.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
