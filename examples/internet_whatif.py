#!/usr/bin/env python3
"""Internet-scale what-if: archive scans, detect offline, then raise adoption.

Workflow echoing the real study's file-based datasets:

1. generate a synthetic internet and run the two zmap-style scans;
2. archive the captures to plain-text files (the scans.io shape) in a
   temporary directory, removed when the detection has read them;
3. run the nolisting detection pipeline purely from the archived files;
4. then ask the what-if question the paper's discussion raises: how much
   spam would higher deployment rates block?  A live spam wave (Table I
   family mix) answers it, checked against the analytic model.

Run:  python examples/internet_whatif.py
"""

import tempfile
from pathlib import Path

from repro.analysis.tables import format_percent, render_table
from repro.core.internet_scale import sweep_deployment_rates
from repro.scan.detect import NolistingDetector
from repro.scan.population import PopulationConfig, SyntheticInternet
from repro.scan.scanner import DNSScanner, SMTPScanner
from repro.scan.serialize import (
    dump_dns_scan,
    dump_smtp_scan,
    load_dns_scan,
    load_smtp_scan,
)


def main(seed: int = 42) -> None:
    # --- 1-2: scan and archive --------------------------------------------
    internet = SyntheticInternet(PopulationConfig(num_domains=5000), seed=seed)
    dns_scanner = DNSScanner(internet, glue_elision_rate=0.1, seed=seed)
    smtp_scanner = SMTPScanner(internet)
    with tempfile.TemporaryDirectory(prefix="repro-scans-") as tmp:
        archive = Path(tmp)
        for index in (0, 1):
            dns = dns_scanner.scan(index)
            dns_scanner.parallel_resolve(dns)
            (archive / f"dns-{index}.txt").write_text(dump_dns_scan(dns))
            smtp = smtp_scanner.scan(index)
            (archive / f"smtp-{index}.txt").write_text(dump_smtp_scan(smtp))
        print(f"archived 2 DNS + 2 SMTP captures under {archive}")

        # --- 3: offline detection -----------------------------------------
        detector = NolistingDetector(
            load_dns_scan((archive / "dns-0.txt").read_text()),
            load_smtp_scan((archive / "smtp-0.txt").read_text()),
            load_dns_scan((archive / "dns-1.txt").read_text()),
            load_smtp_scan((archive / "smtp-1.txt").read_text()),
        )
        summary = detector.summarize()
    print("\noffline detection over the archived files:")
    for klass, count in sorted(
        summary.counts.items(), key=lambda kv: kv[1], reverse=True
    ):
        print(f"  {klass.value:<14} {count:>5} "
              f"({format_percent(count / summary.total_domains)})")

    # --- 4: the what-if sweep ----------------------------------------------
    print("\nwhat if deployment grew?  spam wave (Table I mix) vs adoption:")
    sweep = sweep_deployment_rates(
        rates=[(0.0, 0.0), (0.2, 0.05), (0.5, 0.1), (0.8, 0.2)],
        messages=400,
        seed=seed,
    )
    print(
        render_table(
            headers=("Greylisting", "Nolisting", "Blocked (measured)",
                     "Blocked (model)"),
            rows=[
                (
                    format_percent(r.greylisting_rate),
                    format_percent(r.nolisting_rate),
                    format_percent(r.block_rate),
                    format_percent(r.predicted_block_rate),
                )
                for r in sweep
            ],
            title="Deployment levels vs spam blocked",
        )
    )
    print(
        "\nreading: today's ~0.5% nolisting adoption blocks almost nothing\n"
        "globally despite being effective per-domain — the techniques' value\n"
        "is to the deploying domain, and grows linearly with adoption."
    )


if __name__ == "__main__":
    main()
