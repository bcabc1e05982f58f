"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sim-greylist --seeds 1-10 \\
        --out perfbench/evidence/set-a.json

The runs are untraced.  For every ``workload/metric`` pair it prints
the median of the runs and
the distance between their first and third quartiles as a share of
that median (``statistics.quantiles(values, n=4)``), beside the
metric's bound from ``BENCHMARK.json``.  ``--compare`` takes an earlier
``--out`` file and also prints how far each median moved.  Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as handle:
            earlier = json.load(handle)["medians"]

    runs: Dict[str, List[Dict]] = {}
    medians: Dict[str, float] = {}
    spreads: Dict[str, float] = {}
    for workload in args.workload:
        runs[workload] = []
        for seed in args.seeds:
            result = run_once(workload, seed, bench["run_seconds"])
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']} wall={result['wall_s']:.1f}s", flush=True)
        names = runs[workload][0]["metrics"]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            key = f"{workload}/{name}"
            if len(values) >= 2 and min(values) > 0:
                median, spread = stats.quartile_spread(values)
            else:
                median, spread = values[0], 0.0
            medians[key], spreads[key] = median, spread
            bound = bounds.get(name)
            line = f"{key}: median {median:.6g} spread {spread:.4f}"
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "FAIL")
                line += f" (bound {bound}, {verdict})"
            if key in earlier and earlier[key]:
                line += f" moved {(median / earlier[key] - 1) * 100:+.2f}%"
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"medians": medians, "spreads": spreads, "runs": runs},
                      handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
