"""Deterministic fault model for the Figure 2 measurement scans.

The paper's world-wide adoption measurement repeats its DNS + SMTP scan
two months apart precisely because the internet is flaky: hosts sit in
maintenance windows, port 25 flaps, resolvers SERVFAIL or time out in
bursts, and delegations go lame.  This module gives the resolver and the
scanners a shared, seed-derived source of exactly those faults so the
measurement pipeline's transient-outage filtering becomes testable.

Every fault decision is a pure function of ``(fault seed, entity label,
epoch)``: one keyed draw (:func:`repro.sim.rng.keyed_words`) per query,
with no generator state.  Asking whether ``host-x`` is down during epoch
3 yields the same answer in any process, in any order, any number of
times.  That property is what keeps the parallel experiment runner's
workers-1/2/4 bit-for-bit determinism intact with faults enabled.

The epoch is the scan index: each scan sees an independent fault draw,
the situation the paper's two-scan protocol is built to filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..sim.rng import keyed_words

#: Fault kinds counted by :class:`FaultPlan` (observability, not results).
FAULT_KINDS = (
    "host_down",
    "port_flap",
    "dns_servfail",
    "dns_timeout",
    "lame_delegation",
)


@dataclass(frozen=True)
class FaultConfig:
    """Rates and identity of the injected faults.

    All rates are per-(entity, epoch) Bernoulli probabilities except
    ``lame_delegation_rate``, which is per-zone and *persistent* — a lame
    delegation stays lame in every epoch, which is why the two-scan filter
    cannot (and should not) recover it.
    """

    seed: int = 0
    #: Probability a host is inside a downtime window during an epoch.
    host_outage_rate: float = 0.0
    #: Probability a host's port 25 flaps (refuses) during an epoch.
    port_flap_rate: float = 0.0
    #: Probability an authoritative DNS query SERVFAILs during an epoch.
    dns_servfail_rate: float = 0.0
    #: Probability an authoritative DNS query times out during an epoch.
    dns_timeout_rate: float = 0.0
    #: Probability a zone's delegation is (persistently) lame.
    lame_delegation_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "host_outage_rate",
            "port_flap_rate",
            "dns_servfail_rate",
            "dns_timeout_rate",
            "lame_delegation_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        if self.dns_servfail_rate + self.dns_timeout_rate > 1.0:
            raise ValueError("dns_servfail_rate + dns_timeout_rate > 1")

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultConfig":
        """One-knob constructor: every transient fault kind at ``rate``.

        This is what the CLI's ``--fault-rate`` builds.  Lame delegations
        stay off — they are persistent faults that no amount of re-scanning
        filters out, so they are opted into explicitly.
        """
        return cls(
            seed=seed,
            host_outage_rate=rate,
            port_flap_rate=rate,
            dns_servfail_rate=rate,
            dns_timeout_rate=rate / 2.0,
        )


def fault_params(config: FaultConfig) -> Dict[str, Any]:
    """Canonical, JSON-able description of a fault config (cache keys)."""
    return {
        "seed": config.seed,
        "host_outage_rate": config.host_outage_rate,
        "port_flap_rate": config.port_flap_rate,
        "dns_servfail_rate": config.dns_servfail_rate,
        "dns_timeout_rate": config.dns_timeout_rate,
        "lame_delegation_rate": config.lame_delegation_rate,
    }


def fault_from_params(params: Dict[str, Any]) -> FaultConfig:
    """Inverse of :func:`fault_params`."""
    return FaultConfig(
        seed=int(params["seed"]),
        host_outage_rate=float(params["host_outage_rate"]),
        port_flap_rate=float(params["port_flap_rate"]),
        dns_servfail_rate=float(params["dns_servfail_rate"]),
        dns_timeout_rate=float(params["dns_timeout_rate"]),
        lame_delegation_rate=float(params["lame_delegation_rate"]),
    )


class FaultPlan:
    """Answers "is this entity faulted right now?" deterministically.

    Each query reads word 0 of the keyed draw for ``(config.seed,
    "faults:<kind>:<epoch>:<entity>")`` as one uniform, so the answers are
    independent of query order and of which other entities were ever
    asked about.  The plan also counts the faults it injects
    (:attr:`events`) for observability; counters never feed back into any
    decision.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.events: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    # ------------------------------------------------------------------
    # Draw plumbing
    # ------------------------------------------------------------------
    def _uniform(self, label: str) -> float:
        return (keyed_words(self.config.seed, f"faults:{label}")[0] >> 11) / 2**53

    def _hit(self, label: str, rate: float, kind: str) -> bool:
        if rate <= 0.0:
            return False
        if self._uniform(label) < rate:
            self.events[kind] += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Host / port faults
    # ------------------------------------------------------------------
    def host_down(self, host: str, epoch: int) -> bool:
        """Whole-host downtime window (SYNs go unanswered)."""
        return self._hit(
            f"host:{epoch}:{host}", self.config.host_outage_rate, "host_down"
        )

    def port_closed(self, host: str, epoch: int) -> bool:
        """Port-25 flap: the host is up but its MTA is not listening."""
        return self._hit(
            f"port:{epoch}:{host}", self.config.port_flap_rate, "port_flap"
        )

    def smtp_down(self, host: str, epoch: int) -> bool:
        """Either failure mode a TCP/25 probe cannot tell apart."""
        return self.host_down(host, epoch) or self.port_closed(host, epoch)

    # ------------------------------------------------------------------
    # DNS faults
    # ------------------------------------------------------------------
    def dns_fault(self, name: str, epoch: int) -> Optional[str]:
        """``"servfail"``, ``"timeout"`` or ``None`` for one query name.

        A single draw splits the unit interval into servfail / timeout /
        healthy bands so the two failure kinds stay mutually exclusive.
        """
        servfail = self.config.dns_servfail_rate
        timeout = self.config.dns_timeout_rate
        if servfail <= 0.0 and timeout <= 0.0:
            return None
        draw = self._uniform(f"dns:{epoch}:{name}")
        if draw < servfail:
            self.events["dns_servfail"] += 1
            return "servfail"
        if draw < servfail + timeout:
            self.events["dns_timeout"] += 1
            return "timeout"
        return None

    def zone_lame(self, apex: str) -> bool:
        """Persistently lame delegation for a zone (epoch-independent)."""
        return self._hit(
            f"lame:{apex}", self.config.lame_delegation_rate, "lame_delegation"
        )

    def __repr__(self) -> str:
        injected = {k: v for k, v in self.events.items() if v}
        return f"FaultPlan(seed={self.config.seed}, events={injected})"
