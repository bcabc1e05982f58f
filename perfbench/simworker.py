"""Child process of the simulator workloads: set up, then run timed ops.

    python3 perfbench/simworker.py --workload sim-greylist --seed 1 --seconds 20

Started by ``sim_bench.py`` once per set-up.  It imports the program,
runs ``WARMUP_OPS`` untimed ops, prints ``ready`` and waits for one
line on standard input: ``quit`` ends it there (a set-up-only launch),
``go`` runs ops until ``--seconds`` have passed and prints one JSON
line: a ``[wall_s, cpu_s, slowness]`` row per op (the CPU's slowness
read through the ``--probe-fds`` helper around the op, see
``hostspeed.py``), peak RSS at the end of the timed ops, and failures.

With ``--trace 1`` every seed runs twice, once with the layer spans
installed and once without (alternating which goes first), and the
spans are written to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

import hostspeed
import procinfo
import spans

#: Untimed ops run before ``ready``.
WARMUP_OPS = 1

#: Op sizes: Figures 3-4 at 100 messages, Figure 5 at 2000 messages,
#: Figure 2 at the scorecard's 5000 domains.
KELIHOS_MESSAGES = 100
DEPLOYMENT_MESSAGES = 2000
ADOPTION_DOMAINS = 5000

#: The CPUs an op may be pinned to.
CPUS = sorted(os.sched_getaffinity(0))


def op_seed(seed: int, index: int) -> int:
    """The experiment seed of op ``index`` (warm-up ops are negative)."""
    return (seed * 1_000_003 + index) % (1 << 31)


# ----------------------------------------------------------------------
# sim-greylist
# ----------------------------------------------------------------------
def greylist_op(exp_seed: int) -> Tuple[Any, Any]:
    from repro.core import deployment, greylist_experiment

    sweep = greylist_experiment.run_kelihos_threshold_sweep(
        num_messages=KELIHOS_MESSAGES, seed=exp_seed
    )
    deployed = deployment.run_deployment_experiment(
        num_messages=DEPLOYMENT_MESSAGES, seed=exp_seed
    )
    return sweep, deployed


def greylist_check(output: Tuple[Any, Any]) -> List[str]:
    """Accounting invariants every op's artefacts must satisfy."""
    sweep, deployed = output
    problems = []
    if [r.threshold for r in sweep] != [5.0, 300.0, 21600.0]:
        problems.append("sweep thresholds")
    for r in sweep:
        if r.num_messages != KELIHOS_MESSAGES:
            problems.append(f"{r.threshold}s: {r.num_messages} messages")
        if len(r.delivery_delays) != r.delivered or r.delivered > r.num_messages:
            problems.append(f"{r.threshold}s: delays/delivered mismatch")
        if r.blocked != (r.delivered == 0):
            problems.append(f"{r.threshold}s: blocked flag")
        if len({p.task_index for p in r.attempt_points}) != r.num_messages:
            problems.append(f"{r.threshold}s: a task with no attempt")
    if deployed.num_messages != DEPLOYMENT_MESSAGES:
        problems.append(f"deployment: {deployed.num_messages} messages")
    if deployed.delivered + deployed.lost != deployed.num_messages:
        problems.append("deployment: delivered + lost != messages")
    if len(deployed.delays) != deployed.delivered or min(deployed.delays, default=0) < 0:
        problems.append("deployment: delay sample")
    return problems


def greylist_digest(output: Tuple[Any, Any]) -> Any:
    sweep, deployed = output
    return (
        [(r.delivered, r.delivery_delays, len(r.attempt_points)) for r in sweep],
        (deployed.delivered, deployed.lost, deployed.delays),
    )


# ----------------------------------------------------------------------
# sim-adoption
# ----------------------------------------------------------------------
def adoption_op(exp_seed: int, engine: str = "columnar") -> Any:
    from repro.core import adoption

    return adoption.run_adoption_experiment(
        num_domains=ADOPTION_DOMAINS, seed=exp_seed, engine=engine, workers=1
    )


def adoption_check(result: Any) -> List[str]:
    problems = []
    summary = result.summary
    if summary.total_domains != ADOPTION_DOMAINS:
        problems.append(f"{summary.total_domains} domains scanned")
    if sum(summary.counts.values()) != summary.total_domains:
        problems.append("class counts do not sum to the total")
    if sum(result.confusion.values()) != summary.total_domains:
        problems.append("confusion does not cover every domain")
    if sum(result.ground_truth.values()) != ADOPTION_DOMAINS:
        problems.append("ground truth does not cover every domain")
    return problems


# ----------------------------------------------------------------------
# Layer instrumentation
# ----------------------------------------------------------------------
def install_greylist_layers(patcher: spans.Patcher) -> None:
    from repro.core import deployment
    from repro.dns.resolver import StubResolver
    from repro.greylist.policy import GreylistPolicy
    from repro.greylist.store import TripletStore
    from repro.maillog.university import UniversityDeployment
    from repro.net.network import VirtualInternet
    from repro.sim.events import EventScheduler
    from repro.smtp.server import SMTPServer, SMTPSession

    tracer = patcher.tracer
    patcher.wrap(EventScheduler, "run", "sim.events.run")
    callback_id = tracer.name_id("sim.events.callback")
    begin, end = tracer.begin, tracer.end
    schedule_at = EventScheduler.schedule_at

    def traced_schedule_at(self, when, callback, label=""):
        def traced_callback():
            begin(callback_id)
            try:
                return callback()
            finally:
                end()

        return schedule_at(self, when, traced_callback, label)

    patcher.replace(EventScheduler, "schedule_at", traced_schedule_at)
    patcher.wrap(VirtualInternet, "connect", "net.connect")
    patcher.wrap(SMTPServer, "session_factory", "smtp.session_factory")
    for method in ("helo", "ehlo", "mail_from", "rcpt_to", "data", "rset", "quit", "abort"):
        patcher.wrap(SMTPSession, method, "smtp.session")
    patcher.wrap(StubResolver, "resolve_mx", "dns.resolve")
    patcher.wrap(StubResolver, "resolve_a", "dns.resolve")
    patcher.wrap(GreylistPolicy, "on_rcpt_to", "greylist.policy")
    patcher.wrap(TripletStore, "observe", "greylist.store.observe")
    patcher.wrap(TripletStore, "mark_passed", "greylist.store.mark_passed")
    patcher.wrap(UniversityDeployment, "run", "maillog.deployment")
    patcher.wrap(deployment, "dump_logs", "maillog.roundtrip")
    patcher.wrap(deployment, "parse_logs", "maillog.roundtrip")


def install_adoption_layers(patcher: spans.Patcher) -> None:
    from repro.core import adoption
    from repro.runner import shards
    from repro.scan import batch, columnar, detect
    from repro.scan.population import PopulationPlan

    patcher.wrap(adoption, "run_adoption_experiment", "core.adoption")
    patcher.wrap(adoption, "run_tasks", "runner.pool")
    patcher.wrap(shards, "adoption_shard_task", "runner.shard")
    patcher.wrap(PopulationPlan, "__init__", "scan.population.plan")
    patcher.wrap(columnar, "columnar_adoption_shard", "scan.columnar.shard")
    patcher.wrap(columnar, "build_columnar_chunk", "scan.columnar.chunk")
    patcher.wrap(batch, "batched_adoption_shard", "scan.batch")
    classify = patcher.tracer.wrap(detect.classify_two_scans, "scan.detect.classify")
    patcher.replace(detect, "classify_two_scans", classify)
    patcher.replace(batch, "classify_two_scans", classify)


WORKLOADS: Dict[str, Dict[str, Any]] = {
    "sim-greylist": {
        "op": greylist_op,
        "check": greylist_check,
        "install": install_greylist_layers,
    },
    "sim-adoption": {
        "op": adoption_op,
        "check": adoption_check,
        "install": install_adoption_layers,
    },
}


def timed(
    op: Callable[[int], Any], exp_seed: int, probe: hostspeed.ProbeClient
) -> Tuple[Any, float, float, float]:
    """Run one op from a collected heap, as a fresh artefact run starts.

    The op runs pinned to whichever CPU is fastest just before it: each
    CPU's speed swings on its own, so this halves the typical slowdown.
    Its own collections stay inside its time.  Returns the output, wall
    and CPU seconds, and that CPU's slowness read just before and after.
    """
    gc.collect()
    cpu, before = probe.fastest(CPUS)
    os.sched_setaffinity(0, {cpu})
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    output = op(exp_seed)
    wall = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    return output, wall, cpu_s, (before + probe.slowness((cpu,))) / 2


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--probe-fds", required=True, help="ask,answer pipe fds")
    args = parser.parse_args(argv)
    probe = hostspeed.ProbeClient([int(fd) for fd in args.probe_fds.split(",")])
    spec = WORKLOADS[args.workload]
    op, check = spec["op"], spec["check"]

    for k in range(WARMUP_OPS):
        op(op_seed(args.seed, -1 - k))
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = spans.Tracer()
    patcher = spans.Patcher(tracer)
    # One [wall_s, cpu_s, slowness] row per op, plain and traced apart.
    plain: List[Tuple[float, float, float]] = []
    traced_ops: List[Tuple[float, float, float]] = []
    op_windows: List[Tuple[int, int]] = []
    problems: List[str] = []
    failed = 0
    first_output = None
    gc_probe = spans.gc_probe(tracer)

    def run_traced(exp_seed: int) -> Any:
        lo = time.perf_counter_ns()
        gc.callbacks.append(gc_probe)
        try:
            with patcher.installed(spec["install"]):
                output, *row = timed(op, exp_seed, probe)
        finally:
            gc.callbacks.remove(gc_probe)
        op_windows.append((lo, time.perf_counter_ns()))
        traced_ops.append(tuple(row))
        return output

    def run_plain(exp_seed: int) -> Any:
        output, *row = timed(op, exp_seed, probe)
        plain.append(tuple(row))
        return output

    deadline = time.perf_counter() + args.seconds
    index = 0
    while time.perf_counter() < deadline:
        exp_seed = op_seed(args.seed, index)
        if args.trace:
            # Same seed both ways, alternating which goes first.
            order = (run_traced, run_plain) if index % 2 else (run_plain, run_traced)
            for runner in order:
                output = runner(exp_seed)
        else:
            output = run_plain(exp_seed)
        op_problems = check(output)
        if op_problems:
            failed += 1
            problems.extend(f"op {index}: {p}" for p in op_problems)
        if index == 0:
            first_output = output
        index += 1
    # Before the checks below, so it belongs to the timed ops alone.
    peak = procinfo.peak_rss_mib()

    # Once per run, outside timing: the first op against a reference.
    if args.workload == "sim-adoption":
        oracle = adoption_op(op_seed(args.seed, 0), engine="object")
        if oracle != first_output:
            failed += 1
            problems.append("columnar result differs from the object oracle")
    else:
        again = greylist_op(op_seed(args.seed, 0))
        if greylist_digest(again) != greylist_digest(first_output):
            failed += 1
            problems.append("re-running seed 0 gave a different result")

    if args.trace:
        tracer.dump(args.trace_out)
    json.dump(
        {
            "plain": plain,
            "traced": traced_ops,
            "op_windows": op_windows,
            "ops": index,
            "failed": failed,
            "problems": problems[:20],
            "peak_rss_mib": peak,
        },
        sys.stdout,
    )
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
