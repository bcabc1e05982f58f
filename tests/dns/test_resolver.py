"""Unit tests for the stub resolver: caching, errors and glue."""

import pytest

from repro.dns.resolver import NXDomain, StubResolver
from repro.dns.zone import ZoneStore
from repro.net.address import IPv4Address
from repro.sim.clock import Clock


def addr(text):
    return IPv4Address.parse(text)


@pytest.fixture
def zones():
    store = ZoneStore()
    zone = store.create("foo.net")
    zone.add_a("smtp.foo.net", addr("1.2.3.4"))
    zone.add_a("smtp1.foo.net", addr("1.2.3.5"))
    zone.add_mx(0, "smtp.foo.net")
    zone.add_mx(15, "smtp1.foo.net")
    return store


class TestAQueries:
    def test_resolve_a(self, zones):
        resolver = StubResolver(zones)
        records = resolver.resolve_a("smtp.foo.net")
        assert records[0].address == addr("1.2.3.4")

    def test_resolve_address_shortcut(self, zones):
        resolver = StubResolver(zones)
        assert resolver.resolve_address("smtp.foo.net") == addr("1.2.3.4")

    def test_nxdomain_for_unknown_zone(self, zones):
        resolver = StubResolver(zones)
        with pytest.raises(NXDomain):
            resolver.resolve_a("smtp.bar.net")

    def test_nxdomain_for_unknown_name_in_zone(self, zones):
        resolver = StubResolver(zones)
        with pytest.raises(NXDomain):
            resolver.resolve_a("ghost.foo.net")

    def test_nodata_for_apex_without_a(self, zones):
        resolver = StubResolver(zones)
        assert resolver.resolve_a("foo.net") == []

    def test_resolve_address_raises_on_nodata(self, zones):
        resolver = StubResolver(zones)
        with pytest.raises(NXDomain):
            resolver.resolve_address("foo.net")


class TestMXQueries:
    def test_resolve_mx_with_glue(self, zones):
        resolver = StubResolver(zones)
        answer = resolver.resolve_mx("foo.net")
        assert len(answer.records) == 2
        assert answer.additional["smtp.foo.net"] == addr("1.2.3.4")
        assert answer.additional["smtp1.foo.net"] == addr("1.2.3.5")

    def test_mx_for_unknown_domain(self, zones):
        resolver = StubResolver(zones)
        with pytest.raises(NXDomain):
            resolver.resolve_mx("bar.net")

    def test_dangling_exchange_omitted_from_additional(self, zones):
        zones.zone_for("foo.net").add_mx(20, "ghost.foo.net")
        resolver = StubResolver(zones)
        answer = resolver.resolve_mx("foo.net")
        assert "ghost.foo.net" not in answer.additional
        assert len(answer.records) == 3


class TestCache:
    def test_cache_hit_counted(self, zones):
        resolver = StubResolver(zones, clock=Clock())
        resolver.resolve_a("smtp.foo.net")
        resolver.resolve_a("smtp.foo.net")
        assert resolver.cache_hits == 1
        assert resolver.queries == 1

    def test_cache_expires_with_ttl(self, zones):
        clock = Clock()
        resolver = StubResolver(zones, clock=clock)
        resolver.resolve_a("smtp.foo.net")
        clock.advance_by(3601)
        resolver.resolve_a("smtp.foo.net")
        assert resolver.queries == 2

    def test_cache_without_clock_never_expires(self, zones):
        resolver = StubResolver(zones)
        resolver.resolve_a("smtp.foo.net")
        resolver.resolve_a("smtp.foo.net")
        assert resolver.queries == 1


    def test_answer_cached_for_its_shortest_ttl(self, zones):
        zone = zones.zone_for("foo.net")
        zone.add_a("pool.foo.net", addr("1.2.3.6"), ttl=60)
        zone.add_a("pool.foo.net", addr("1.2.3.7"), ttl=3600)
        clock = Clock()
        resolver = StubResolver(zones, clock=clock)
        resolver.resolve_a("pool.foo.net")
        clock.advance_by(59)
        assert len(resolver.resolve_a("pool.foo.net")) == 2
        assert resolver.queries == 1
        clock.advance_by(1)
        resolver.resolve_a("pool.foo.net")
        assert resolver.queries == 2

    def test_mx_answer_and_its_glue_served_from_cache(self, zones):
        resolver = StubResolver(zones, clock=Clock())
        first = resolver.resolve_mx("foo.net")
        assert resolver.queries == 3  # the MX query and two glue A queries
        second = resolver.resolve_mx("FOO.net.")
        assert resolver.queries == 3
        assert resolver.cache_hits == 3
        assert second.additional == first.additional
        assert repr(resolver) == "StubResolver(queries=3, cache_hits=3)"

    def test_negative_answers_are_not_cached(self, zones):
        resolver = StubResolver(zones, clock=Clock())
        for _ in range(2):
            assert resolver.resolve_a("foo.net") == []
            with pytest.raises(NXDomain):
                resolver.resolve_a("ghost.foo.net")
        assert resolver.queries == 4
        assert resolver.cache_hits == 0


class TestQueryLog:
    def test_mx_query_traced_with_its_glue(self, zones):
        resolver = StubResolver(zones)
        resolver.resolve_mx("foo.net")
        assert resolver.query_log == [
            ("MX", "foo.net", "MX 0 smtp.foo.net; MX 15 smtp1.foo.net"),
            ("A", "smtp.foo.net", "1.2.3.4"),
            ("A", "smtp1.foo.net", "1.2.3.5"),
        ]

    def test_negative_answers_traced(self, zones):
        zones.create("bare.net")
        resolver = StubResolver(zones)
        assert resolver.resolve_mx("bare.net").records == []
        assert resolver.resolve_a("foo.net") == []
        with pytest.raises(NXDomain):
            resolver.resolve_mx("ghost.net")
        assert resolver.query_log == [
            ("MX", "bare.net", "NODATA"),
            ("A", "foo.net", "NODATA"),
            ("MX", "ghost.net", "NXDOMAIN"),
        ]
