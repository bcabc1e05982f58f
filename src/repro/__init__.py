"""repro — reproduction of "Measuring the Role of Greylisting and Nolisting
in Fighting Spam" (Pagani et al., DSN 2016).

The package is layered bottom-up:

* :mod:`repro.sim` — deterministic discrete-event kernel (clock, scheduler,
  splittable RNG streams);
* :mod:`repro.net` — virtual IPv4 internet (addresses, hosts, ports);
* :mod:`repro.faults` — seed-derived fault injection for the Figure 2
  scans (host outages, port-25 flaps, DNS failures);
* :mod:`repro.dns` — zones, resolver, MX handling, nolisting setup;
* :mod:`repro.smtp` — RFC 5321 server state machine and compliant client;
* :mod:`repro.greylist` — Postgrey-compatible triplet greylisting;
* :mod:`repro.blacklist` — reactive DNSBL, telemetry feed and SMTP policy;
* :mod:`repro.filter` — post-acceptance content filtering (naive Bayes);
* :mod:`repro.mta` — benign MTA retry schedules (Table IV profiles);
* :mod:`repro.botnet` — the four spam-family behaviour models (Table I);
* :mod:`repro.webmail` — the ten webmail provider models (Table III);
* :mod:`repro.scan` — internet-scale scanning and nolisting detection;
* :mod:`repro.maillog` — anonymized greylist logs + university deployment;
* :mod:`repro.analysis` — CDFs, statistics, table rendering;
* :mod:`repro.core` — the paper's experiments, one callable per
  table/figure;
* :mod:`repro.runner` — parallel sharded experiment runner (process pool,
  deterministic merge, on-disk result cache);
* :mod:`repro.serve` — the live Postfix policy daemon over the same
  greylisting policy, and its load generator.

Packages do not re-export: import each name from the module that
defines it.

Quick start::

    from repro.core.defense_matrix import build_defense_matrix
    from repro.core.reports import table2_text

    matrix = build_defense_matrix()
    print(table2_text(matrix))
"""

__version__ = "1.3.0"
