"""Unit tests for the deterministic fault-injection layer."""

import json

import pytest

from repro.dns.resolver import DNSTimeout, ServFail, StubResolver
from repro.dns.zone import ZoneStore
from repro.faults.model import (
    FAULT_KINDS,
    FaultConfig,
    FaultPlan,
    fault_from_params,
    fault_params,
)
from repro.net.address import IPv4Address


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(host_outage_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(port_flap_rate=1.5)

    def test_dns_bands_must_fit_unit_interval(self):
        with pytest.raises(ValueError):
            FaultConfig(dns_servfail_rate=0.7, dns_timeout_rate=0.5)

    def test_uniform_sets_transient_rates_only(self):
        config = FaultConfig.uniform(0.1, seed=5)
        assert config.seed == 5
        assert config.host_outage_rate == 0.1
        assert config.port_flap_rate == 0.1
        assert config.dns_servfail_rate == 0.1
        assert config.dns_timeout_rate == 0.05
        assert config.lame_delegation_rate == 0.0

    def test_params_roundtrip_and_json(self):
        config = FaultConfig.uniform(0.02, seed=9)
        params = fault_params(config)
        assert fault_from_params(json.loads(json.dumps(params))) == config


class TestFaultPlan:
    def test_draws_deterministic_across_plans(self):
        config = FaultConfig(seed=3, host_outage_rate=0.5)
        a = FaultPlan(config)
        b = FaultPlan(config)
        hosts = [f"mx{i}.example" for i in range(50)]
        assert [a.host_down(h, 0) for h in hosts] == [
            b.host_down(h, 0) for h in hosts
        ]

    def test_draws_independent_of_query_order(self):
        config = FaultConfig(seed=3, dns_servfail_rate=0.3, dns_timeout_rate=0.3)
        forward = FaultPlan(config)
        backward = FaultPlan(config)
        names = [f"d{i}.example" for i in range(40)]
        want = {n: forward.dns_fault(n, 1) for n in names}
        got = {n: backward.dns_fault(n, 1) for n in reversed(names)}
        assert got == want

    def test_epochs_draw_independently(self):
        plan = FaultPlan(FaultConfig(seed=0, host_outage_rate=0.5))
        hosts = [f"h{i}" for i in range(100)]
        epoch0 = [plan.host_down(h, 0) for h in hosts]
        epoch1 = [plan.host_down(h, 1) for h in hosts]
        assert epoch0 != epoch1  # independent windows, not a sticky outage

    def test_zero_rates_never_fire(self):
        plan = FaultPlan(FaultConfig(seed=1))
        assert not plan.smtp_down("mx.example", 0)
        assert plan.dns_fault("d.example", 0) is None
        assert not plan.zone_lame("d.example")
        assert all(count == 0 for count in plan.events.values())

    def test_certain_rates_always_fire(self):
        plan = FaultPlan(FaultConfig(seed=1, host_outage_rate=1.0))
        assert all(plan.host_down(f"h{i}", 0) for i in range(10))
        assert plan.events["host_down"] == 10

    def test_dns_fault_kinds_mutually_exclusive(self):
        plan = FaultPlan(
            FaultConfig(seed=2, dns_servfail_rate=0.5, dns_timeout_rate=0.5)
        )
        outcomes = {plan.dns_fault(f"d{i}.example", 0) for i in range(60)}
        assert outcomes == {"servfail", "timeout"}

    def test_lame_delegation_is_persistent(self):
        plan = FaultPlan(FaultConfig(seed=4, lame_delegation_rate=0.5))
        zones = [f"z{i}.example" for i in range(30)]
        first = [plan.zone_lame(z) for z in zones]
        again = [plan.zone_lame(z) for z in zones]
        assert first == again
        assert any(first) and not all(first)

    def test_event_counter_keys(self):
        assert set(FaultPlan(FaultConfig()).events) == set(FAULT_KINDS)

    def test_uniform_rates_calibrated(self):
        # Each kind fires at its configured rate, within four binomial
        # standard deviations over 20,000 entities.
        config = FaultConfig.uniform(0.05, seed=11)
        plan = FaultPlan(config)
        queries = 20_000
        hosts = [f"10.0.{i >> 8}.{i & 255}" for i in range(queries)]
        host_down = sum(plan.host_down(host, 0) for host in hosts)
        port_flap = sum(plan.port_closed(host, 0) for host in hosts)
        answers = [plan.dns_fault(f"dom{i:07d}.example", 1) for i in range(queries)]
        for hits, rate in (
            (host_down, config.host_outage_rate),
            (port_flap, config.port_flap_rate),
            (answers.count("servfail"), config.dns_servfail_rate),
            (answers.count("timeout"), config.dns_timeout_rate),
        ):
            sd = (queries * rate * (1 - rate)) ** 0.5
            assert abs(hits - queries * rate) <= 4 * sd, (hits, rate)
        # One draw per query: a query gets at most one DNS fault kind.
        assert plan.events["dns_servfail"] + plan.events["dns_timeout"] == sum(
            answer is not None for answer in answers
        )


def _zone_store():
    store = ZoneStore()
    zone = store.get_or_create("example.com")
    zone.add_mx(10, "mx1.example.com")
    zone.add_a("mx1.example.com", IPv4Address.parse("10.0.0.2"))
    return store


class TestResolverFaults:
    def test_servfail_injection(self):
        resolver = StubResolver(
            _zone_store(),
            faults=FaultPlan(FaultConfig(dns_servfail_rate=1.0)),
        )
        with pytest.raises(ServFail):
            resolver.resolve_mx("example.com")
        assert ("MX", "example.com", "SERVFAIL") in resolver.query_log

    def test_timeout_injection(self):
        resolver = StubResolver(
            _zone_store(),
            faults=FaultPlan(FaultConfig(dns_timeout_rate=1.0)),
        )
        with pytest.raises(DNSTimeout):
            resolver.resolve_a("mx1.example.com")
        assert ("A", "mx1.example.com", "TIMEOUT") in resolver.query_log

    def test_timeout_is_a_dns_error_subclass(self):
        from repro.dns.resolver import DNSError

        assert issubclass(DNSTimeout, DNSError)

    def test_lame_delegation_servfails_the_zone(self):
        resolver = StubResolver(
            _zone_store(),
            faults=FaultPlan(FaultConfig(lame_delegation_rate=1.0)),
        )
        with pytest.raises(ServFail):
            resolver.resolve_mx("example.com")
        assert ("MX", "example.com", "SERVFAIL (lame)") in resolver.query_log

    def test_cached_answers_never_touch_the_flaky_server(self):
        config = FaultConfig(seed=6, dns_servfail_rate=0.5)
        probe = FaultPlan(config)
        names = ("example.com", "mx1.example.com")
        healthy = next(
            e
            for e in range(40)
            if all(probe.dns_fault(name, e) is None for name in names)
        )
        faulty = next(
            e
            for e in range(40)
            if probe.dns_fault("example.com", e) is not None
        )
        draws = []

        class CountingPlan(FaultPlan):
            def dns_fault(self, name, epoch):
                draws.append((name, epoch))
                return super().dns_fault(name, epoch)

        resolver = StubResolver(
            _zone_store(), faults=CountingPlan(config), fault_epoch=healthy
        )
        resolver.resolve_mx("example.com")
        assert resolver.queries == 2  # the MX query and its glue A query
        assert draws == [(name, healthy) for name in names]
        # The cached answer costs no authoritative query and no fault draw.
        resolver.resolve_mx("example.com")
        assert resolver.queries == 2
        assert resolver.cache_hits == 2
        assert len(draws) == 2
        # The same lookup on a cold cache in a faulty epoch fails.
        fresh = StubResolver(
            _zone_store(), faults=FaultPlan(config), fault_epoch=faulty
        )
        with pytest.raises((ServFail, DNSTimeout)):
            fresh.resolve_mx("example.com")

    def test_no_faults_resolves_normally(self):
        resolver = StubResolver(_zone_store(), faults=None)
        answer = resolver.resolve_mx("example.com")
        assert [r.exchange for r in answer.records] == ["mx1.example.com"]
