"""Unit tests for DNS records and zone storage."""

import pytest

from repro.dns.records import (
    ARecord,
    DNSRecordError,
    MXRecord,
    normalize_name,
)
from repro.dns.zone import Zone, ZoneStore
from repro.net.address import IPv4Address


def addr(text):
    return IPv4Address.parse(text)


class TestNormalizeName:
    def test_lowercases_and_strips_dot(self):
        assert normalize_name("Foo.NET.") == "foo.net"

    def test_rejects_empty(self):
        with pytest.raises(DNSRecordError):
            normalize_name("")

    def test_rejects_empty_label(self):
        with pytest.raises(DNSRecordError):
            normalize_name("foo..net")

    def test_rejects_oversized_label(self):
        with pytest.raises(DNSRecordError):
            normalize_name("x" * 64 + ".net")

    def test_rejects_oversized_name(self):
        with pytest.raises(DNSRecordError):
            normalize_name(".".join(["abcdef"] * 40))


class TestRecords:
    def test_a_record(self):
        record = ARecord("SMTP.foo.net", addr("1.2.3.4"))
        assert record.name == "smtp.foo.net"
        assert "1.2.3.4" in str(record)

    def test_mx_record(self):
        record = MXRecord("foo.net", 10, "smtp.FOO.net")
        assert record.exchange == "smtp.foo.net"
        assert "MX 10" in str(record)

    def test_mx_preference_bounds(self):
        with pytest.raises(DNSRecordError):
            MXRecord("foo.net", -1, "smtp.foo.net")
        with pytest.raises(DNSRecordError):
            MXRecord("foo.net", 65536, "smtp.foo.net")

    def test_negative_ttl_rejected(self):
        with pytest.raises(DNSRecordError):
            ARecord("foo.net", addr("1.2.3.4"), ttl=-1)


class TestZone:
    def test_add_and_lookup(self):
        zone = Zone("foo.net")
        zone.add_a("smtp.foo.net", addr("1.2.3.4"))
        zone.add_mx(10, "smtp.foo.net")
        assert zone.a_records("smtp.foo.net")[0].address == addr("1.2.3.4")
        assert zone.mx_records()[0].preference == 10

    def test_rejects_out_of_zone_names(self):
        zone = Zone("foo.net")
        with pytest.raises(DNSRecordError):
            zone.add_a("smtp.bar.net", addr("1.2.3.4"))

    def test_apex_records_allowed(self):
        zone = Zone("foo.net")
        zone.add_a("foo.net", addr("1.2.3.4"))
        assert zone.a_records("foo.net")

    def test_multiple_mx_records(self):
        zone = Zone("foo.net")
        zone.add_mx(0, "smtp.foo.net")
        zone.add_mx(15, "smtp1.foo.net")
        assert len(zone.mx_records()) == 2

    def test_names_lists_owners(self):
        zone = Zone("foo.net")
        zone.add_a("smtp.foo.net", addr("1.2.3.4"))
        zone.add_mx(10, "smtp.foo.net")
        assert "smtp.foo.net" in zone.names()
        assert "foo.net" in zone.names()


class TestZoneStore:
    def test_create_and_contains(self):
        store = ZoneStore()
        store.create("foo.net")
        assert "foo.net" in store
        assert "FOO.NET." in store

    def test_duplicate_create_rejected(self):
        store = ZoneStore()
        store.create("foo.net")
        with pytest.raises(DNSRecordError):
            store.create("foo.net")

    def test_get_or_create_idempotent(self):
        store = ZoneStore()
        a = store.get_or_create("foo.net")
        b = store.get_or_create("foo.net")
        assert a is b

    def test_zone_for_walks_suffixes(self):
        store = ZoneStore()
        zone = store.create("foo.net")
        assert store.zone_for("smtp.mail.foo.net") is zone
        assert store.zone_for("foo.net") is zone
        assert store.zone_for("bar.net") is None

    def test_most_specific_zone_wins(self):
        store = ZoneStore()
        parent = store.create("foo.net")
        child = store.create("sub.foo.net")
        assert store.zone_for("a.sub.foo.net") is child
        assert store.zone_for("b.foo.net") is parent

    def test_delete(self):
        store = ZoneStore()
        store.create("foo.net")
        store.delete("foo.net")
        assert "foo.net" not in store
