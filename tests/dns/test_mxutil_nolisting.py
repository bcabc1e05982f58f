"""Unit tests for MX ordering/resolution and the nolisting zone builders."""

import pytest

from repro.dns.mxutil import implicit_mx, resolve_exchangers, sort_mx
from repro.dns.nolisting import setup_nolisting, setup_single_mx
from repro.dns.records import MXRecord
from repro.dns.resolver import StubResolver
from repro.dns.zone import ZoneStore
from repro.net.address import IPv4Address, pool_for
from repro.net.host import SMTP_PORT
from repro.net.network import VirtualInternet


def addr(text):
    return IPv4Address.parse(text)


class TestSortMX:
    def test_orders_by_preference(self):
        records = [
            MXRecord("foo.net", 15, "smtp1.foo.net"),
            MXRecord("foo.net", 0, "smtp.foo.net"),
        ]
        assert [r.exchange for r in sort_mx(records)] == [
            "smtp.foo.net",
            "smtp1.foo.net",
        ]

    def test_name_tiebreak(self):
        records = [
            MXRecord("foo.net", 10, "b.foo.net"),
            MXRecord("foo.net", 10, "a.foo.net"),
        ]
        assert [r.exchange for r in sort_mx(records)] == [
            "a.foo.net",
            "b.foo.net",
        ]


class TestResolveExchangers:
    @pytest.fixture
    def zones(self):
        store = ZoneStore()
        zone = store.create("foo.net")
        zone.add_a("smtp.foo.net", addr("1.2.3.4"))
        zone.add_a("smtp1.foo.net", addr("1.2.3.5"))
        zone.add_mx(0, "smtp.foo.net")
        zone.add_mx(15, "smtp1.foo.net")
        return store

    def test_resolves_in_priority_order(self, zones):
        resolver = StubResolver(zones)
        exchangers = resolve_exchangers(resolver, "foo.net")
        assert [e.hostname for e in exchangers] == [
            "smtp.foo.net",
            "smtp1.foo.net",
        ]
        assert all(e.resolvable for e in exchangers)

    def test_dangling_exchange_kept_unresolvable(self, zones):
        zones.zone_for("foo.net").add_mx(20, "ghost.foo.net")
        resolver = StubResolver(zones)
        exchangers = resolve_exchangers(resolver, "foo.net")
        ghost = [e for e in exchangers if e.hostname == "ghost.foo.net"]
        assert ghost and not ghost[0].resolvable

    def test_implicit_mx_fallback(self, zones):
        zones.zone_for("foo.net").add_a("bar.foo.net", addr("9.9.9.9"))
        resolver = StubResolver(zones)
        implicit = implicit_mx(resolver, "bar.foo.net")
        assert implicit is not None
        assert implicit.address == addr("9.9.9.9")

    def test_implicit_mx_none_without_a(self, zones):
        resolver = StubResolver(zones)
        assert implicit_mx(resolver, "foo.net") is None


class TestDomainSetups:
    def _fixture(self):
        return VirtualInternet(), ZoneStore(), pool_for("10.0.0.0/24")

    def test_single_mx(self):
        internet, zones, pool = self._fixture()
        setup = setup_single_mx(
            internet, zones, pool, "foo.net", lambda client: "session"
        )
        assert len(setup.hosts) == 1
        assert setup.hosts[0].is_listening(SMTP_PORT)
        assert len(zones.zone_for("foo.net").mx_records()) == 1

    def test_nolisting_primary_closed_secondary_open(self):
        internet, zones, pool = self._fixture()
        setup = setup_nolisting(
            internet, zones, pool, "foo.net", lambda client: "session"
        )
        primary, secondary = setup.hosts
        assert not primary.is_listening(SMTP_PORT)
        assert secondary.is_listening(SMTP_PORT)
        # Primary still has a proper A record (Figure 1's requirement).
        resolver = StubResolver(zones)
        exchangers = resolve_exchangers(resolver, "foo.net")
        assert exchangers[0].hostname.startswith("smtp.")
        assert exchangers[0].resolvable
        assert exchangers[0].preference < exchangers[1].preference

    def test_nolisting_preferences_are_configurable(self):
        internet, zones, pool = self._fixture()
        setup_nolisting(
            internet,
            zones,
            pool,
            "foo.net",
            lambda client: "session",
            primary_preference=5,
            secondary_preference=50,
        )
        exchangers = resolve_exchangers(StubResolver(zones), "foo.net")
        assert [(e.preference, e.hostname) for e in exchangers] == [
            (5, "smtp.foo.net"),
            (50, "smtp1.foo.net"),
        ]

    def test_exchangers_lead_to_the_registered_hosts(self):
        internet, zones, pool = self._fixture()
        single = setup_single_mx(
            internet, zones, pool, "one.net", lambda client: "session"
        )
        nolisted = setup_nolisting(
            internet, zones, pool, "two.net", lambda client: "session"
        )
        resolver = StubResolver(zones)
        for setup in (single, nolisted):
            exchangers = resolve_exchangers(resolver, setup.domain)
            assert [e.hostname for e in exchangers] == setup.mx_hostnames
            assert [e.address for e in exchangers] == [
                host.primary_address for host in setup.hosts
            ]
