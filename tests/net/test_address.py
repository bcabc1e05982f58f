"""Unit tests for IPv4 addresses, networks and pools."""

import pytest

from repro.net.address import (
    AddressError,
    AddressPool,
    IPv4Address,
    IPv4Network,
    pool_for,
)


class TestIPv4Address:
    def test_parse_and_str_roundtrip(self):
        for text in ("0.0.0.0", "1.2.3.4", "255.255.255.255", "10.0.0.1"):
            assert str(IPv4Address.parse(text)) == text

    def test_parse_value(self):
        assert IPv4Address.parse("1.2.3.4").value == 0x01020304

    @pytest.mark.parametrize(
        "bad",
        ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1.2.3.04", "", "1..2.3"],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            IPv4Address.parse(bad)

    def test_value_range_enforced(self):
        with pytest.raises(AddressError):
            IPv4Address(-1)
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)

    def test_ordering_follows_value(self):
        low = IPv4Address.parse("10.0.0.1")
        high = IPv4Address.parse("10.0.0.2")
        assert low < high

    def test_hashable_and_equal(self):
        a = IPv4Address.parse("10.0.0.1")
        b = IPv4Address.parse("10.0.0.1")
        assert a == b
        assert len({a, b}) == 1


class TestIPv4Network:
    def test_parse(self):
        network = IPv4Network.parse("10.0.0.0/8")
        assert network.prefix == 8
        assert network.num_addresses == 1 << 24

    def test_contains(self):
        network = IPv4Network.parse("192.168.1.0/24")
        assert IPv4Address.parse("192.168.1.77") in network
        assert IPv4Address.parse("192.168.2.1") not in network

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            IPv4Network.parse("192.168.1.5/24")

    def test_bad_prefix_rejected(self):
        with pytest.raises(AddressError):
            IPv4Network.parse("10.0.0.0/33")
        with pytest.raises(AddressError):
            IPv4Network.parse("10.0.0.0")
        with pytest.raises(AddressError):
            IPv4Network.parse("10.0.0.0/eight")
        with pytest.raises(AddressError):
            IPv4Network.parse("10.0.0.0/")

    @pytest.mark.parametrize("probe", ["10.1.2.3", 167838211, None])
    def test_only_addresses_are_members(self, probe):
        # Regression: membership of a non-address returned NotImplemented,
        # which ``in`` read as true (with a DeprecationWarning).
        assert probe not in IPv4Network.parse("10.0.0.0/8")

    def test_slash_zero_contains_everything(self):
        everything = IPv4Network.parse("0.0.0.0/0")
        assert IPv4Address.parse("255.255.255.255") in everything


class TestAddressPool:
    def test_sequential_allocation(self):
        pool = pool_for("10.0.0.0/24")
        first = pool.allocate()
        second = pool.allocate()
        assert str(first) == "10.0.0.0"
        assert str(second) == "10.0.0.1"
        assert pool.allocated == 2

    def test_allocate_many(self):
        pool = pool_for("10.0.0.0/30")
        addresses = pool.allocate_many(4)
        assert len(set(addresses)) == 4

    def test_exhaustion(self):
        pool = pool_for("10.0.0.0/31")
        pool.allocate_many(2)
        with pytest.raises(AddressError):
            pool.allocate()

    def test_allocate_many_negative_rejected(self):
        with pytest.raises(AddressError):
            pool_for("10.0.0.0/24").allocate_many(-1)

    def test_allocations_stay_in_network(self):
        pool = AddressPool(IPv4Network.parse("172.16.0.0/16"))
        network = pool.network
        for _ in range(100):
            assert pool.allocate() in network
