#!/usr/bin/env python3
"""University deployment log replay: the Figure 5 analysis end to end.

Simulates four months of benign traffic through a 300 s greylisting policy
(the paper's university deployment), dumps the anonymized attempt log to a
file in the paper's "timestamps only" spirit, parses it back, and renders
the delivery-delay CDF — demonstrating that the whole Figure 5 analysis
runs off the log artefact alone.

Run:  python examples/university_log_replay.py [logfile]
"""

import os
import sys
import tempfile

from repro.analysis.cdf import EmpiricalCDF
from repro.core.reports import figure5_text
from repro.maillog.records import delivery_delays, dump_logs, parse_logs
from repro.maillog.university import DeploymentConfig, UniversityDeployment


def main() -> None:
    if len(sys.argv) > 1:
        replay(sys.argv[1])
        return
    with tempfile.TemporaryDirectory(prefix="repro-greylist-") as tmp:
        replay(os.path.join(tmp, "greylist.log"))


def replay(log_path: str) -> None:
    config = DeploymentConfig(
        threshold=300.0, duration_days=120.0, num_messages=2000
    )
    print("simulating 4 months of benign traffic through greylisting "
          f"(threshold {config.threshold:g}s, {config.num_messages} "
          "messages) ...")
    result = UniversityDeployment(config, seed=5).run()

    # Dump the anonymized log (timestamps only, hashed keys).
    with open(log_path, "w") as handle:
        handle.write(dump_logs(result.logs))
    print(f"anonymized log written to {log_path}")

    # The analysis below uses ONLY the log file.
    with open(log_path) as handle:
        logs = parse_logs(handle.read())
    delays = delivery_delays(logs)
    delivered = sum(1 for log in logs if log.delivered)
    lost = len(logs) - delivered

    print(f"\nparsed {len(logs)} greylisted messages: "
          f"{delivered} delivered, {lost} never retried (lost)")

    cdf = EmpiricalCDF.from_samples(delays)
    print()
    print(figure5_text(cdf, config.threshold))

    print("\nsender-kind mix of the simulation (ground truth, not in the log):")
    for kind, count in sorted(result.kind_counts.items()):
        print(f"  {kind:<22} {count}")

    print(
        "\npaper's reading of this curve: 'only half of the messages get\n"
        "delivered in less than 10 minutes ... some are delivered with over\n"
        "50 minutes of delay, and some even beyond that.'"
    )


if __name__ == "__main__":
    main()
