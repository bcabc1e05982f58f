"""Unit tests for virtual hosts, connections and the virtual internet."""

import pytest

from repro.net.address import IPv4Address
from repro.net.host import (
    SMTP_PORT,
    ConnectionRefused,
    HostUnreachable,
    NetError,
    VirtualHost,
)
from repro.net.network import VirtualInternet


def addr(text):
    return IPv4Address.parse(text)


class TestVirtualHost:
    def test_requires_address(self):
        with pytest.raises(NetError):
            VirtualHost("empty", [])

    def test_listen_and_accept(self):
        host = VirtualHost("mail", [addr("10.0.0.1")])
        host.listen(25, lambda client: f"session-for-{client}")
        session = host.accept(25, addr("10.0.0.9"))
        assert "10.0.0.9" in session

    def test_closed_port_refuses(self):
        host = VirtualHost("nolisted", [addr("10.0.0.1")])
        with pytest.raises(ConnectionRefused):
            host.accept(SMTP_PORT, addr("10.0.0.9"))

    def test_invalid_port_rejected(self):
        host = VirtualHost("mail", [addr("10.0.0.1")])
        with pytest.raises(NetError):
            host.listen(0, lambda c: "s")
        with pytest.raises(NetError):
            host.listen(70000, lambda c: "s")


class TestVirtualInternet:
    def _internet_with_server(self):
        internet = VirtualInternet()
        server = VirtualHost("mail", [addr("10.0.0.1")])
        server.listen(25, lambda client: {"client": str(client)})
        internet.register(server)
        return internet, server

    def test_connect_established(self):
        internet, _ = self._internet_with_server()
        connection = internet.connect(addr("10.9.9.9"), addr("10.0.0.1"), 25)
        assert connection.session["client"] == "10.9.9.9"
        assert internet.connections_established == 1

    def test_connect_refused_counted(self):
        internet = VirtualInternet()
        internet.register(VirtualHost("dead", [addr("10.0.0.2")]))
        with pytest.raises(ConnectionRefused):
            internet.connect(addr("10.9.9.9"), addr("10.0.0.2"), 25)
        assert internet.connections_refused == 1

    def test_connect_unreachable(self):
        internet = VirtualInternet()
        with pytest.raises(HostUnreachable):
            internet.connect(addr("10.9.9.9"), addr("10.0.0.3"), 25)

    def test_duplicate_name_rejected(self):
        internet = VirtualInternet()
        internet.register(VirtualHost("a", [addr("10.0.0.1")]))
        with pytest.raises(NetError):
            internet.register(VirtualHost("a", [addr("10.0.0.2")]))

    def test_duplicate_address_rejected(self):
        internet = VirtualInternet()
        internet.register(VirtualHost("a", [addr("10.0.0.1")]))
        with pytest.raises(NetError):
            internet.register(VirtualHost("b", [addr("10.0.0.1")]))

    def test_multihomed_host(self):
        internet = VirtualInternet()
        host = VirtualHost("farm", [addr("10.0.0.1"), addr("10.0.0.2")])
        host.listen(25, lambda c: f"session-for-{c}")
        internet.register(host)
        for address in ("10.0.0.1", "10.0.0.2"):
            connection = internet.connect(addr("10.9.9.9"), addr(address), 25)
            assert connection.session == "session-for-10.9.9.9"

    def test_counters_and_repr(self):
        internet, _ = self._internet_with_server()
        internet.connect(addr("10.9.9.9"), addr("10.0.0.1"), 25)
        with pytest.raises(ConnectionRefused):
            internet.connect(addr("10.9.9.9"), addr("10.0.0.1"), 587)
        assert (internet.connections_established, internet.connections_refused) == (1, 1)
        assert repr(internet) == "VirtualInternet(hosts=1, established=1, refused=1)"

    def test_host_registry(self):
        internet = VirtualInternet()
        host = VirtualHost("a", [addr("10.0.0.1")])
        assert internet.register(host) is host
        internet.register(VirtualHost("b", [addr("10.0.0.2")]))
        assert internet.num_hosts == 2
