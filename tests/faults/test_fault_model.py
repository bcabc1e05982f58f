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
from repro.faults.session import ResettingSession
from repro.net.address import IPv4Address
from repro.net.host import (
    SMTP_PORT,
    ConnectionRefused,
    ConnectionReset,
    HostUnreachable,
    VirtualHost,
)
from repro.net.network import VirtualInternet
from repro.sim.clock import Clock
from repro.smtp.client import AttemptOutcome, SMTPClient
from repro.smtp.message import Message
from repro.smtp.server import SMTPServer


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(host_outage_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(port_flap_rate=1.5)

    def test_dns_bands_must_fit_unit_interval(self):
        with pytest.raises(ValueError):
            FaultConfig(dns_servfail_rate=0.7, dns_timeout_rate=0.5)

    def test_epoch_length_positive(self):
        with pytest.raises(ValueError):
            FaultConfig(epoch_length=0.0)

    def test_uniform_sets_transient_rates_only(self):
        config = FaultConfig.uniform(0.1, seed=5)
        assert config.seed == 5
        assert config.host_outage_rate == 0.1
        assert config.port_flap_rate == 0.1
        assert config.dns_servfail_rate == 0.1
        assert config.dns_timeout_rate == 0.05
        assert config.connection_reset_rate == 0.1
        assert config.lame_delegation_rate == 0.0

    def test_any_enabled(self):
        assert not FaultConfig().any_enabled
        assert FaultConfig(dns_timeout_rate=0.01).any_enabled

    def test_epoch_for_quantizes(self):
        config = FaultConfig(epoch_length=3600.0)
        assert config.epoch_for(0.0) == 0
        assert config.epoch_for(3599.9) == 0
        assert config.epoch_for(3600.0) == 1

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
        assert plan.session_reset_after("c1") is None
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

    def test_reset_budget_range(self):
        plan = FaultPlan(FaultConfig(seed=5, connection_reset_rate=1.0))
        budgets = {plan.session_reset_after(f"c{i}") for i in range(40)}
        assert budgets <= {1, 2, 3, 4}
        assert len(budgets) > 1

    def test_event_counter_keys(self):
        assert set(FaultPlan(FaultConfig()).events) == set(FAULT_KINDS)


class FakeSession:
    def __init__(self):
        self.calls = []
        self.aborted = False
        self.banner = "220 ready"

    def helo(self, name):
        self.calls.append(("helo", name))
        return "250 ok"

    def abort(self):
        self.aborted = True


class TestResettingSession:
    def test_budget_exhaustion_raises_and_aborts(self):
        inner = FakeSession()
        session = ResettingSession(inner, commands_before_reset=2)
        assert session.helo("a") == "250 ok"
        assert session.helo("b") == "250 ok"
        with pytest.raises(ConnectionReset):
            session.helo("c")
        assert inner.aborted
        assert inner.calls == [("helo", "a"), ("helo", "b")]

    def test_attribute_reads_are_free(self):
        session = ResettingSession(FakeSession(), commands_before_reset=1)
        for _ in range(10):
            assert session.banner == "220 ready"
        assert session.helo("a") == "250 ok"

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ResettingSession(FakeSession(), commands_before_reset=0)

    def test_wrapped_exposes_inner(self):
        inner = FakeSession()
        assert ResettingSession(inner, 1).wrapped is inner


def _one_host_internet():
    internet = VirtualInternet()
    address = IPv4Address.parse("10.0.0.2")
    host = VirtualHost("mx1.example.com", [address])
    host.listen(SMTP_PORT, lambda client: FakeSession())
    internet.register(host)
    return internet, address


class TestVirtualInternetFaults:
    SRC = IPv4Address.parse("10.0.0.9")

    def test_host_downtime_window_unreachable(self):
        internet, address = _one_host_internet()
        internet.install_faults(FaultPlan(FaultConfig(host_outage_rate=1.0)))
        with pytest.raises(HostUnreachable):
            internet.connect(self.SRC, address, SMTP_PORT)
        assert not internet.syn_probe(address, SMTP_PORT)

    def test_port_flap_refuses_smtp_only(self):
        internet, address = _one_host_internet()
        other_port = 8025
        internet.host_at(address).listen(
            other_port, lambda client: FakeSession()
        )
        internet.install_faults(FaultPlan(FaultConfig(port_flap_rate=1.0)))
        with pytest.raises(ConnectionRefused):
            internet.connect(self.SRC, address, SMTP_PORT)
        assert internet.connections_refused == 1
        assert not internet.syn_probe(address, SMTP_PORT)
        # Only TCP/25 flaps; other services on the host stay reachable.
        internet.connect(self.SRC, address, other_port)
        assert internet.syn_probe(address, other_port)

    def test_detaching_faults_restores_health(self):
        internet, address = _one_host_internet()
        internet.install_faults(FaultPlan(FaultConfig(host_outage_rate=1.0)))
        internet.install_faults(None)
        internet.connect(self.SRC, address, SMTP_PORT)
        assert internet.syn_probe(address, SMTP_PORT)

    def test_reset_budget_wraps_session(self):
        internet, address = _one_host_internet()
        internet.install_faults(
            FaultPlan(FaultConfig(connection_reset_rate=1.0))
        )
        connection = internet.connect(self.SRC, address, SMTP_PORT)
        assert isinstance(connection.session, ResettingSession)
        assert internet.connections_reset_scheduled == 1

    def test_callable_epoch_consulted_per_connection(self):
        internet, address = _one_host_internet()
        clock = Clock()
        config = FaultConfig(seed=11, host_outage_rate=0.5)
        plan = FaultPlan(config)
        internet.install_faults(
            plan, epoch=lambda: config.epoch_for(clock.now)
        )
        probe = FaultPlan(config)
        down_epochs = [
            e for e in range(20) if probe.host_down("mx1.example.com", e)
        ]
        up_epochs = [
            e
            for e in range(20)
            if not probe.host_down("mx1.example.com", e)
        ]
        assert down_epochs and up_epochs
        clock.advance_to(down_epochs[0] * config.epoch_length)
        assert not internet.syn_probe(address, SMTP_PORT)
        clock.advance_to(up_epochs[-1] * config.epoch_length)
        assert internet.syn_probe(address, SMTP_PORT)


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
        clock = Clock()
        config = FaultConfig(seed=6, dns_servfail_rate=0.5)
        resolver = StubResolver(
            _zone_store(),
            clock=clock,
            faults=FaultPlan(config),
            fault_epoch=lambda: config.epoch_for(clock.now),
        )
        probe = FaultPlan(config)
        healthy = next(
            e for e in range(20) if probe.dns_fault("example.com", e) is None
        )
        faulty = next(
            e
            for e in range(20)
            if probe.dns_fault("example.com", e) is not None
        )
        clock.advance_to(healthy * config.epoch_length)
        resolver.resolve_mx("example.com")
        clock.advance_to(healthy * config.epoch_length + 1.0)
        # Within TTL: the cached answer is served even in a faulty epoch's
        # future — but a fresh query in the faulty epoch fails.
        resolver.resolve_mx("example.com")
        fresh = StubResolver(
            _zone_store(),
            clock=clock,
            faults=FaultPlan(config),
            fault_epoch=faulty,
        )
        with pytest.raises((ServFail, DNSTimeout)):
            fresh.resolve_mx("example.com")

    def test_no_faults_resolves_normally(self):
        resolver = StubResolver(_zone_store(), faults=None)
        answer = resolver.resolve_mx("example.com")
        assert [r.exchange for r in answer.records] == ["mx1.example.com"]


class TestClientUnderResets:
    def _delivery_world(self, reset_rate):
        clock = Clock()
        internet = VirtualInternet()
        address = IPv4Address.parse("10.0.0.2")
        server = SMTPServer(
            "mx1.example.com", clock, local_domains=["example.com"]
        )
        host = VirtualHost("mx1.example.com", [address])
        host.listen(SMTP_PORT, server.session_factory)
        internet.register(host)
        internet.install_faults(
            FaultPlan(FaultConfig(connection_reset_rate=reset_rate))
        )
        store = _zone_store()
        client = SMTPClient(
            internet, StubResolver(store), IPv4Address.parse("10.0.0.9")
        )
        return client, server

    def test_reset_outcome_is_retryable(self):
        client, server = self._delivery_world(reset_rate=1.0)
        message = Message(sender="a@b.net", recipients=["u@example.com"])
        result = client.send(message, "u@example.com")
        assert result.outcome is AttemptOutcome.CONNECTION_RESET
        assert result.should_retry
        assert any("ConnectionReset" in line for line in result.attempts_log)
        assert server.stats.sessions_aborted == 1

    def test_no_resets_delivers(self):
        client, server = self._delivery_world(reset_rate=0.0)
        message = Message(sender="a@b.net", recipients=["u@example.com"])
        result = client.send(message, "u@example.com")
        assert result.outcome is AttemptOutcome.DELIVERED
        assert server.stats.sessions_aborted == 0
