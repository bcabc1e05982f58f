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

    def test_close_port_removes_listener(self):
        host = VirtualHost("mail", [addr("10.0.0.1")])
        host.listen(25, lambda c: "s")
        host.close_port(25)
        assert not host.is_listening(25)

    def test_down_host_unreachable(self):
        host = VirtualHost("mail", [addr("10.0.0.1")])
        host.listen(25, lambda c: "s")
        host.up = False
        assert not host.is_listening(25)
        with pytest.raises(HostUnreachable):
            host.accept(25, addr("10.0.0.9"))

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
        assert connection.is_open
        connection.close()
        assert not connection.is_open
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

    def test_unregister_frees_address(self):
        internet = VirtualInternet()
        host = VirtualHost("a", [addr("10.0.0.1")])
        internet.register(host)
        internet.unregister(host)
        internet.register(VirtualHost("b", [addr("10.0.0.1")]))
        assert internet.host_named("b") is not None

    def test_multihomed_host(self):
        internet = VirtualInternet()
        host = VirtualHost("farm", [addr("10.0.0.1"), addr("10.0.0.2")])
        host.listen(25, lambda c: "s")
        internet.register(host)
        assert internet.host_at(addr("10.0.0.2")) is host

    def test_down_host_unreachable(self):
        internet, server = self._internet_with_server()
        server.up = False
        with pytest.raises(HostUnreachable):
            internet.connect(addr("10.9.9.9"), addr("10.0.0.1"), 25)
        assert internet.connections_refused == 0
        server.up = True
        assert internet.connect(addr("10.9.9.9"), addr("10.0.0.1"), 25).is_open

    def test_unregistered_host_unreachable(self):
        internet, server = self._internet_with_server()
        internet.unregister(server)
        with pytest.raises(HostUnreachable):
            internet.connect(addr("10.9.9.9"), addr("10.0.0.1"), 25)
        assert internet.host_named("mail") is None
        assert internet.num_hosts == 0

    def test_counters_and_repr(self):
        internet, _ = self._internet_with_server()
        internet.connect(addr("10.9.9.9"), addr("10.0.0.1"), 25)
        with pytest.raises(ConnectionRefused):
            internet.connect(addr("10.9.9.9"), addr("10.0.0.1"), 587)
        assert (internet.connections_established, internet.connections_refused) == (1, 1)
        assert repr(internet) == "VirtualInternet(hosts=1, established=1, refused=1)"

    def test_host_registry(self):
        internet = VirtualInternet()
        a = internet.register(VirtualHost("a", [addr("10.0.0.1")]))
        b = internet.register(VirtualHost("b", [addr("10.0.0.2")]))
        assert internet.num_hosts == 2
        assert set(internet.hosts) == {a, b}
        assert internet.host_named("b") is b
        assert internet.host_at(addr("10.0.0.3")) is None
