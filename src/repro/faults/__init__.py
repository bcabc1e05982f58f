"""Seed-derived fault injection for the Figure 2 measurement scans.

:mod:`repro.faults.model` holds :class:`FaultConfig` (rates + seed) and
:class:`FaultPlan` (deterministic per-entity, per-scan fault draws).

Consumers: :class:`~repro.dns.resolver.StubResolver` (SERVFAIL/timeout
bursts, lame delegation) under the :class:`~repro.scan.scanner.DNSScanner`,
the :class:`~repro.scan.scanner.SMTPScanner` (host downtime and port-25
flaps), and the columnar engine's faulted-shard replay in
:mod:`repro.scan.batch`.  Each scan draws independently: these are the
transient outages the paper's two-scan protocol filters.
"""
