"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload serve-known --seed 1 --seconds 20 --trace 0

Run from the repository root.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (each metric a value with its
unit).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  See ``perfbench/NOTES.md``
for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("serve-known", "serve-newflood", "sim-greylist", "sim-adoption")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out_dir = os.path.join(ROOT, ".perfbench-out", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)

    import metrics as catalogue

    if args.workload.startswith("serve-"):
        import serve_bench as bench
    else:
        import sim_bench as bench  # type: ignore[no-redef]
    try:
        result = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT, out_dir
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass
    metrics = catalogue.complete(result["metrics"], bool(args.trace))
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
