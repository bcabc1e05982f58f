"""Command-line interface: ``python -m repro <command>``.

One subcommand per experiment, each printing the reproduced artefact.
The CLI is a thin veneer over :mod:`repro.core`; everything it can do is
also available as a library call.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, List, Optional

from .analysis.tables import format_percent, format_seconds, render_table


def _count_arg(noun: str, minimum: int = 1) -> Callable[[str], int]:
    """An argparse type for a count of at least ``minimum`` ``noun``s."""

    # argparse names the function in its error for a non-integer value.
    def integer(value: str) -> int:
        count = int(value)
        if count < minimum:
            raise argparse.ArgumentTypeError(
                f"{noun} count must be >= {minimum}, got {count}"
            )
        return count

    return integer


_domains_arg = _count_arg("domain")
_messages_arg = _count_arg("message")


def _port_arg(value: str) -> int:
    port = int(value)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"port must lie in [0, 65535], got {port}"
        )
    return port


def _shm_capacity_arg(value: str) -> int:
    # Imported on use: commands that do not serve never load the backend.
    from .greylist.shm import PROBE_WINDOW

    return _count_arg("record", PROBE_WINDOW)(value)


def _threshold_arg(value: str) -> float:
    seconds = float(value)
    if not 0.0 <= seconds < math.inf:
        raise argparse.ArgumentTypeError(
            f"threshold must be finite and >= 0 seconds, got {seconds}"
        )
    return seconds


def _positive_arg(noun: str) -> Callable[[str], float]:
    """An argparse type for a finite ``noun`` above zero."""

    def number(value: str) -> float:
        parsed = float(value)
        if not 0.0 < parsed < math.inf:
            raise argparse.ArgumentTypeError(
                f"{noun} must be finite and > 0, got {parsed}"
            )
        return parsed

    return number


def _fault_rate_arg(value: str) -> float:
    rate = float(value)
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(
            f"fault rate must lie in [0, 1], got {rate}"
        )
    return rate


def _cmd_adoption(args: argparse.Namespace) -> int:
    from .core.adoption import run_adoption_experiment
    from .core.reports import figure2_text

    cache = None
    if args.cache:
        from .runner.cache import ResultCache

        cache = ResultCache()
    config = None
    if args.mix_profile != "figure2":
        from .scan.profiles import profile_config

        config = profile_config(args.mix_profile, num_domains=args.domains)
    result = run_adoption_experiment(
        num_domains=args.domains,
        seed=args.seed,
        workers=args.workers,
        cache=cache,
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
        engine=args.engine,
        config=config,
    )
    print(figure2_text(result))
    return 0


def _cmd_internet_scale(args: argparse.Namespace) -> int:
    from .core.internet_scale import sweep_deployment_rates

    cache = None
    if args.cache:
        from .runner.cache import ResultCache

        cache = ResultCache()
    results = sweep_deployment_rates(
        messages=args.messages,
        seed=args.seed,
        workers=args.workers,
        cache=cache,
        num_domains=args.domains,
        engine=args.engine,
        store_backend=args.store_backend,
    )
    print(
        render_table(
            headers=(
                "Greylisting",
                "Nolisting",
                "Blocked",
                "Predicted",
            ),
            rows=[
                (
                    format_percent(r.greylisting_rate),
                    format_percent(r.nolisting_rate),
                    format_percent(r.block_rate),
                    format_percent(r.predicted_block_rate),
                )
                for r in results
            ],
            title=f"Spam blocked as deployment grows ({args.domains} domains)",
        )
    )
    return 0


def _cmd_defenses(args: argparse.Namespace) -> int:
    from .core.coverage import build_coverage_report
    from .core.defense_matrix import build_defense_matrix
    from .core.reports import table2_text

    matrix = build_defense_matrix(seed=args.seed, recipients=args.recipients)
    print(table2_text(matrix))
    report = build_coverage_report(matrix)
    print()
    print(f"greylisting alone : {format_percent(report.greylisting_share)} "
          "of global spam blocked")
    print(f"nolisting alone   : {format_percent(report.nolisting_share)}")
    print(f"both combined     : {format_percent(report.combined_share)}")
    return 0


def _cmd_webmail(args: argparse.Namespace) -> int:
    from .core.reports import table3_text
    from .core.webmail_experiment import run_webmail_experiment

    rows = run_webmail_experiment(threshold=args.threshold)
    print(table3_text(rows))
    return 0


def _cmd_mta_survey(args: argparse.Namespace) -> int:
    from .core.mta_survey import run_mta_survey
    from .core.reports import table4_text

    print(table4_text(run_mta_survey()))
    return 0


def _cmd_kelihos(args: argparse.Namespace) -> int:
    from .botnet.families import KELIHOS
    from .core.greylist_experiment import run_greylist_experiment
    from .core.reports import figure3_text, figure4_text

    result = run_greylist_experiment(
        KELIHOS,
        args.threshold,
        num_messages=args.messages,
        seed=args.seed,
        store_backend=args.store_backend,
        store_path=args.store_path,
    )
    if args.threshold >= 21600:
        print(figure4_text(result))
    else:
        print(figure3_text(result))
    return 0


def _cmd_deployment(args: argparse.Namespace) -> int:
    from .core.deployment import run_deployment_experiment
    from .core.reports import figure5_text

    result = run_deployment_experiment(
        threshold=args.threshold,
        num_messages=args.messages,
        seed=args.seed,
    )
    print(figure5_text(result.delay_cdf(), result.threshold))
    print(f"\ndelivered {result.delivered}, lost {result.lost} "
          f"({format_percent(result.loss_rate)})")
    return 0


def _cmd_synergy(args: argparse.Namespace) -> int:
    from .core.synergy import run_synergy_comparison, sweep_greylist_delay

    results = run_synergy_comparison(seed=args.seed)
    print(
        render_table(
            headers=("Configuration", "Delivered", "DNSBL rejections"),
            rows=[
                (r.configuration, f"{r.delivered}/{r.num_messages}", r.dnsbl_rejections)
                for r in results
            ],
            title="Greylisting x blacklisting vs Kelihos (fast telemetry)",
        )
    )
    print()
    sweep = sweep_greylist_delay(
        seed=args.seed, store_backend=args.store_backend
    )
    print(
        render_table(
            headers=("Greylist delay", "Delivery rate"),
            rows=[
                (format_seconds(r.greylist_delay), f"{r.delivery_rate:.2f}")
                for r in sweep
            ],
            title="Threshold needed to buy the blacklist time (rate 60/h)",
        )
    )
    return 0


def _cmd_adaptation(args: argparse.Namespace) -> int:
    from .core.adaptation import obsolescence_level, sweep_adaptation

    points = sweep_adaptation()
    print(
        render_table(
            headers=("Adapted fraction", "Greylisting", "Nolisting", "Combined"),
            rows=[
                (
                    f"{p.adaptation:.2f}",
                    format_percent(p.greylisting_coverage),
                    format_percent(p.nolisting_coverage),
                    format_percent(p.combined_coverage),
                )
                for p in points
            ],
            title="Coverage as malware adapts (Results Validity sweep)",
        )
    )
    level = obsolescence_level(points)
    print(f"\ncombined coverage drops below 50% once {level:.0%} of spam "
          "output is fully adapted")
    return 0


def _cmd_dialects(args: argparse.Namespace) -> int:
    from .core.dialect_survey import run_dialect_survey

    result = run_dialect_survey(num_sessions=args.sessions, seed=args.seed)
    print(
        render_table(
            headers=("Metric", "Value"),
            rows=[
                ("sessions", result.sessions),
                ("dialect attribution", format_percent(result.attribution_accuracy)),
                ("bot precision", format_percent(result.precision)),
                ("bot recall", format_percent(result.recall)),
            ],
            title="Passive SMTP-dialect fingerprinting",
        )
    )
    return 0


def _cmd_variants(args: argparse.Namespace) -> int:
    from .core.variants import compare_variants

    results = compare_variants()
    print(
        render_table(
            headers=(
                "Key strategy",
                "Rotating spam delivered",
                "Farm delay",
                "DB entries",
            ),
            rows=[
                (
                    r.strategy.value,
                    f"{r.rotating_spam_delivered}/20",
                    "never"
                    if math.isinf(r.farm_delivery_delay)
                    else format_seconds(r.farm_delivery_delay),
                    r.db_entries_under_rotation,
                )
                for r in results
            ],
            title="Greylisting keying variants",
        )
    )
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    from .core.filter_comparison import compare_filtering

    results = compare_filtering(seed=args.seed)
    print(
        render_table(
            headers=(
                "Configuration",
                "Spam blocked",
                "Benign delay",
                "Spam bytes",
            ),
            rows=[
                (
                    r.configuration,
                    f"{r.spam_block_rate:.0%}",
                    format_seconds(r.benign_mean_delay),
                    r.spam_bytes_received,
                )
                for r in results
            ],
            title="Pre-acceptance (greylist) vs post-acceptance (content)",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.daemon import serve

    return serve(args)


def _cmd_serve_load(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.daemon import raise_fd_limit
    from .serve.loadgen import capture_bot_trace, replay_trace, run_load, tile_requests

    raise_fd_limit()
    trace = capture_bot_trace(
        threshold=args.delay, num_messages=args.messages, seed=args.seed
    )
    try:
        if args.check:
            report = asyncio.run(replay_trace(args.host, args.port, trace.requests))
        else:
            per_connection = max(1, math.ceil(args.requests / args.connections))
            slices = tile_requests(trace.requests, args.connections, per_connection)
            stats = asyncio.run(run_load(args.host, args.port, slices))
    except OSError as exc:
        reason = os.strerror(exc.errno) if exc.errno else exc
        print(f"error: cannot reach {args.host}:{args.port}: {reason}", file=sys.stderr)
        return 1
    if args.check:
        print(
            f"replayed {report.total} simulated decisions: "
            f"{len(report.mismatches)} mismatches"
        )
        for index, expected, got in report.mismatches[:10]:
            print(f"  request {index}: expected {expected}, got {got}")
        return 0 if report.ok else 1
    tail = stats.latency_summary_ms
    print(
        f"{stats.decisions} decisions over {stats.connections} connections "
        f"in {stats.elapsed:.2f}s: {stats.decisions_per_sec:,.0f}/sec "
        f"(p50 {tail['latency_p50_ms']:.2f} ms, "
        f"p95 {tail['latency_p95_ms']:.2f} ms, "
        f"p99 {tail['latency_p99_ms']:.2f} ms)"
    )
    for verb in sorted(stats.verbs):
        print(f"  {verb}: {stats.verbs[verb]}")
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from .core.scorecard import build_scorecard, render_scorecard

    rows = build_scorecard(
        seed=args.seed, scale=args.scale, workers=args.workers
    )
    print(render_scorecard(rows))
    return 0 if all(row.holds for row in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Measuring the Role of Greylisting and "
            "Nolisting in Fighting Spam' (DSN 2016)"
        ),
    )
    parser.add_argument("--seed", type=int, default=42, help="experiment seed")
    parser.add_argument(
        "--workers",
        type=_count_arg("worker", 0),
        default=1,
        help=(
            "worker processes for sharded experiments and the serve "
            "daemon (0 = one per CPU); experiment results are identical "
            "for any value, serve >1 requires --store-backend shm"
        ),
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help=(
            "memoize completed experiment shards on disk "
            "($REPRO_CACHE_DIR or ~/.cache/repro-greylisting)"
        ),
    )
    parser.add_argument(
        "--fault-rate",
        type=_fault_rate_arg,
        default=0.0,
        help=(
            "inject measurement-infrastructure faults (host outages, "
            "port-25 flaps, DNS SERVFAIL/timeouts) at this per-entity "
            "rate in [0, 1]; 0 disables injection"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for fault draws (default: --seed)",
    )
    from .greylist.backends import BACKEND_NAMES

    parser.add_argument(
        "--store-backend",
        choices=BACKEND_NAMES,
        default="memory",
        help=(
            "triplet-store backend for greylisting policies (results are "
            "bit-for-bit identical; sqlite/journal survive restarts)"
        ),
    )
    parser.add_argument(
        "--store-path",
        metavar="PATH",
        default=None,
        help=(
            "on-disk location for a durable triplet store, for kelihos "
            "and serve with a backend other than memory "
            "(default: volatile, even for sqlite/journal)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run the command under cProfile and print the top 25 "
            "functions by cumulative time to stderr"
        ),
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help=(
            "also dump raw cProfile stats to FILE for offline analysis "
            "(pstats/snakeviz); implies --profile"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("adoption", help="Figure 2: nolisting adoption scan")
    p.add_argument("--domains", type=_domains_arg, default=20000)
    p.add_argument(
        "--engine",
        choices=("object", "columnar"),
        default="columnar",
        help=(
            "shard implementation: columnar engine (one classification "
            "per distinct outcome), or the per-object simulation it is "
            "checked against"
        ),
    )
    p.add_argument(
        "--mix-profile",
        choices=("figure2", "provider-consolidated", "dns-abuse"),
        default="figure2",
        help=(
            "generator profile for the synthetic population: the paper's "
            "Figure 2 mix, provider-consolidated MX pools, or an "
            "abuse-shaped registration mix"
        ),
    )
    p.set_defaults(func=_cmd_adoption)

    p = sub.add_parser(
        "internet-scale",
        help="what-if deployment sweep at internet scale",
    )
    p.add_argument("--domains", type=_domains_arg, default=50000)
    p.add_argument("--messages", type=_messages_arg, default=400)
    p.add_argument(
        "--engine",
        choices=("object", "columnar"),
        default="columnar",
        help=(
            "streaming columnar engine (fixed memory budget at any scale), "
            "or the per-object simulation it is checked against"
        ),
    )
    p.set_defaults(func=_cmd_internet_scale)

    p = sub.add_parser("defenses", help="Table II + coverage headline")
    p.add_argument("--recipients", type=_count_arg("recipient"), default=3)
    p.set_defaults(func=_cmd_defenses)

    p = sub.add_parser("webmail", help="Table III: webmail retry behaviour")
    p.add_argument("--threshold", type=_threshold_arg, default=21600.0)
    p.set_defaults(func=_cmd_webmail)

    p = sub.add_parser("mta-survey", help="Table IV: MTA retry schedules")
    p.set_defaults(func=_cmd_mta_survey)

    p = sub.add_parser("kelihos", help="Figures 3-4: Kelihos vs greylisting")
    p.add_argument("--threshold", type=_threshold_arg, default=300.0)
    p.add_argument("--messages", type=_messages_arg, default=100)
    p.set_defaults(func=_cmd_kelihos)

    p = sub.add_parser("deployment", help="Figure 5: benign delivery delays")
    p.add_argument("--threshold", type=_threshold_arg, default=300.0)
    p.add_argument("--messages", type=_messages_arg, default=2000)
    p.set_defaults(func=_cmd_deployment)

    p = sub.add_parser("synergy", help="greylisting x blacklisting synergy")
    p.set_defaults(func=_cmd_synergy)

    p = sub.add_parser("adaptation", help="obsolescence sweep")
    p.set_defaults(func=_cmd_adaptation)

    p = sub.add_parser("dialects", help="SMTP-dialect fingerprinting survey")
    p.add_argument("--sessions", type=_count_arg("session"), default=400)
    p.set_defaults(func=_cmd_dialects)

    p = sub.add_parser("variants", help="greylisting keying variants")
    p.set_defaults(func=_cmd_variants)

    p = sub.add_parser("filter", help="pre- vs post-acceptance comparison")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser(
        "serve",
        help=(
            "run the live Postfix policy daemon (greylisting engine "
            "behind check_policy_service)"
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=_port_arg,
        default=0,
        help="listen port (0 binds an ephemeral port, announced on stdout)",
    )
    p.add_argument(
        "--clock",
        choices=("wall", "replay"),
        default="wall",
        help=(
            "wall: live serving on host time; replay: virtual clock "
            "driven by the load generator's stamp attributes (for "
            "equivalence checks against the simulator)"
        ),
    )
    p.add_argument(
        "--delay",
        type=_threshold_arg,
        default=300.0,
        help="greylisting threshold in seconds",
    )
    p.add_argument(
        "--throttle-max",
        type=_count_arg("throttle message", 0),
        default=0,
        help=(
            "enable the throttle plugin: defer a client exceeding this "
            "many messages per period (0 disables)"
        ),
    )
    p.add_argument(
        "--throttle-period",
        type=_positive_arg("throttle period"),
        default=60.0,
        help="throttle sliding-window length in seconds",
    )
    p.add_argument(
        "--shm-capacity",
        type=_shm_capacity_arg,
        default=None,
        metavar="RECORDS",
        help=(
            "record capacity of the shared-memory triplet table "
            "(shm backend only; default 16384 — the table spills to "
            "fail-safe deferral when full, it never corrupts)"
        ),
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "serve-load",
        help=(
            "drive a running policy daemon with the synthetic internet's "
            "bot traffic (throughput, or --check for decision correctness)"
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port_arg, required=True)
    p.add_argument(
        "--check",
        action="store_true",
        help=(
            "sequential correctness replay: every served action must "
            "match the simulated ground truth (daemon must run --clock "
            "replay with matching --delay and a fresh store)"
        ),
    )
    p.add_argument(
        "--connections",
        type=_count_arg("connection"),
        default=100,
        help="concurrent connections for the load phase",
    )
    p.add_argument(
        "--requests",
        type=_count_arg("request"),
        default=10000,
        help="total decisions to request across all connections",
    )
    p.add_argument(
        "--messages",
        type=_messages_arg,
        default=200,
        help="campaign size of the captured bot-traffic trace",
    )
    p.add_argument(
        "--delay",
        type=_threshold_arg,
        default=300.0,
        help="greylisting threshold the trace is captured against",
    )
    p.set_defaults(func=_cmd_serve_load)

    p = sub.add_parser(
        "scorecard",
        help="run every experiment and print paper-vs-measured verdicts",
    )
    p.add_argument("--scale", type=_positive_arg("scale"), default=1.0)
    p.set_defaults(func=_cmd_scorecard)

    return parser


def _run_profiled(args: argparse.Namespace) -> int:
    """Run the selected command under cProfile.

    The report goes to stderr so the experiment artefact on stdout stays
    clean (and diffable against unprofiled runs).
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    status = profiler.runcall(args.func, args)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(25)
    sys.stderr.write(buffer.getvalue())
    if args.profile_out is not None:
        stats.dump_stats(args.profile_out)
        sys.stderr.write(f"raw profile written to {args.profile_out}\n")
    return int(status)


def _check_combinations(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Usage errors that no single flag's type can see."""
    if args.store_path is not None and (
        args.command not in ("kelihos", "serve") or args.store_backend == "memory"
    ):
        parser.error(
            "--store-path applies only to kelihos and serve, with a "
            "--store-backend other than memory"
        )
    if args.command == "adoption":
        # How many domains fit depends on the profile's address space.
        from .scan.profiles import profile_config

        try:
            profile_config(args.mix_profile, num_domains=args.domains)
        except ValueError as error:
            parser.error(str(error))
    if args.command == "serve":
        args.workers = args.workers or os.cpu_count() or 1
        if args.workers > 1 and args.store_backend != "shm":
            parser.error(
                "--workers > 1 requires --store-backend shm (workers share "
                "one memory segment; the other backends are process-private "
                "or single-writer)"
            )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_combinations(parser, args)
    if args.profile or args.profile_out is not None:
        return _run_profiled(args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
