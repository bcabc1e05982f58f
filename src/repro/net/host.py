"""Virtual hosts and TCP-style port listeners.

A :class:`VirtualHost` owns one or more IPv4 addresses and a table of port
listeners.  Connecting to a host/port either yields a :class:`Connection`
(the listener's ``accept`` produces an application-level session object) or a
:class:`ConnectionRefused` — which is exactly the distinction nolisting is
built on: the primary MX resolves to a host with port 25 closed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from .address import IPv4Address

SMTP_PORT = 25


class NetError(Exception):
    """Base class for network-level failures."""


class ConnectionRefused(NetError):
    """TCP RST: the target host is up but nothing listens on the port."""


class HostUnreachable(NetError):
    """No host owns the target address."""


class Connection:
    """A established bidirectional channel to an application session.

    The ``session`` attribute is whatever the listener's factory returned —
    for SMTP it is a server-side protocol state machine the client drives
    synchronously: a session takes no simulated time.
    """

    __slots__ = ("local_address", "remote_address", "port", "session")

    def __init__(
        self,
        local_address: IPv4Address,
        remote_address: IPv4Address,
        port: int,
        session: Any,
    ) -> None:
        self.local_address = local_address
        self.remote_address = remote_address
        self.port = port
        self.session = session

    def __repr__(self) -> str:
        return (
            f"Connection({self.local_address} -> {self.remote_address}:"
            f"{self.port})"
        )


# A listener factory receives the client address and returns a session object.
ListenerFactory = Callable[[IPv4Address], Any]


class VirtualHost:
    """A machine on the virtual internet.

    Parameters
    ----------
    name:
        Debug label (e.g. ``"smtp1.foo.net"`` or ``"bot-17"``).
    addresses:
        The IPv4 addresses the host answers on.  A host with an address but
        *no* listener on port 25 models the nolisting primary-MX machine: SYNs
        to port 25 get refused rather than timing out.
    """

    def __init__(self, name: str, addresses: List[IPv4Address]) -> None:
        if not addresses:
            raise NetError(f"host {name!r} needs at least one address")
        self.name = name
        self.addresses = list(addresses)
        self._listeners: Dict[int, ListenerFactory] = {}

    @property
    def primary_address(self) -> IPv4Address:
        return self.addresses[0]

    def listen(self, port: int, factory: ListenerFactory) -> None:
        """Install a listener; replaces any existing listener on the port."""
        if not 0 < port <= 65535:
            raise NetError(f"invalid port {port}")
        self._listeners[port] = factory

    def is_listening(self, port: int) -> bool:
        return port in self._listeners

    def accept(self, port: int, client_address: IPv4Address) -> Any:
        """Produce an application session for an incoming connection."""
        factory = self._listeners.get(port)
        if factory is None:
            raise ConnectionRefused(
                f"{self.name} ({self.primary_address}) refused port {port}"
            )
        return factory(client_address)

    def __repr__(self) -> str:
        ports = sorted(self._listeners)
        return f"VirtualHost({self.name!r}, {self.primary_address}, ports={ports})"
