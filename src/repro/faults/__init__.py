"""Seed-derived fault injection for the synthetic internet.

* :mod:`repro.faults.model` — :class:`FaultConfig` (rates + seed) and
  :class:`FaultPlan` (deterministic per-entity, per-epoch fault draws);
* :mod:`repro.faults.session` — :class:`ResettingSession`, the proxy that
  turns an established SMTP session into one that dies mid-dialogue.

Consumers: :class:`~repro.net.network.VirtualInternet` (host downtime,
port-25 flaps, connection resets), :class:`~repro.dns.resolver.StubResolver`
(SERVFAIL/timeout bursts, lame delegation) and the Figure 2 scanners
(per-scan transient outages the two-scan protocol filters).
"""
