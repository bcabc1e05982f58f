"""The virtual internet: address routing and connections.

:class:`VirtualInternet` is a registry mapping IPv4 addresses to
:class:`~repro.net.host.VirtualHost` instances.  It offers the primitive
the rest of the system needs: ``connect(src, dst, port)``, a TCP-style
connect yielding a :class:`~repro.net.host.Connection` or raising
:class:`~repro.net.host.ConnectionRefused` / ``HostUnreachable``.
Connections are instantaneous: the delays the experiments measure run
from minutes to days, so round-trip times are not modelled.
"""

from __future__ import annotations

from typing import Dict

from .address import IPv4Address
from .host import (
    Connection,
    ConnectionRefused,
    HostUnreachable,
    NetError,
    VirtualHost,
)


class VirtualInternet:
    """Routes connections between registered hosts."""

    def __init__(self) -> None:
        self._hosts_by_address: Dict[IPv4Address, VirtualHost] = {}
        self._hosts_by_name: Dict[str, VirtualHost] = {}
        self.connections_established = 0
        self.connections_refused = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, host: VirtualHost) -> VirtualHost:
        """Attach a host; all of its addresses become routable."""
        if host.name in self._hosts_by_name:
            raise NetError(f"duplicate host name {host.name!r}")
        for address in host.addresses:
            if address in self._hosts_by_address:
                owner = self._hosts_by_address[address].name
                raise NetError(
                    f"address {address} already owned by host {owner!r}"
                )
        self._hosts_by_name[host.name] = host
        for address in host.addresses:
            self._hosts_by_address[address] = host
        return host

    @property
    def num_hosts(self) -> int:
        return len(self._hosts_by_name)

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connect(
        self, source: IPv4Address, destination: IPv4Address, port: int
    ) -> Connection:
        """Open a connection; raises on refusal/unreachability."""
        host = self._hosts_by_address.get(destination)
        if host is None:
            raise HostUnreachable(f"no route to {destination}")
        try:
            session = host.accept(port, source)
        except ConnectionRefused:
            self.connections_refused += 1
            raise
        self.connections_established += 1
        return Connection(source, destination, port, session)

    def __repr__(self) -> str:
        return (
            f"VirtualInternet(hosts={self.num_hosts}, "
            f"established={self.connections_established}, "
            f"refused={self.connections_refused})"
        )
