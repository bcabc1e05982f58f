"""IPv4 addresses, networks and allocation pools.

We implement a small, dependency-free IPv4 model rather than using
:mod:`ipaddress` so the simulator controls hashing, ordering and allocation
semantics precisely (the scan datasets hold tens of thousands of addresses
and are hashed constantly; a plain ``int`` core keeps that cheap).
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_IPV4 = (1 << 32) - 1


class AddressError(ValueError):
    """Raised for malformed addresses, networks or exhausted pools."""


@dataclass(frozen=True, order=True, slots=True)
class IPv4Address:
    """A single IPv4 address backed by its 32-bit integer value.

    Scan datasets hold and hash hundreds of thousands of these; ``slots``
    keeps each instance to a single boxed int.
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= MAX_IPV4:
            raise AddressError(f"IPv4 value out of range: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad notation.

        >>> IPv4Address.parse("1.2.3.4").value
        16909060
        """
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4 address {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
                raise AddressError(f"malformed IPv4 octet {part!r} in {text!r}")
            octet = int(part)
            if octet > 255:
                raise AddressError(f"IPv4 octet out of range in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"


@dataclass(frozen=True, slots=True)
class IPv4Network:
    """A CIDR network (``base/prefix``)."""

    base: IPv4Address
    prefix: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix <= 32:
            raise AddressError(f"invalid prefix length {self.prefix}")
        if self.base.value & ~self.netmask_value():
            raise AddressError(
                f"host bits set in network base {self.base}/{self.prefix}"
            )

    @classmethod
    def parse(cls, text: str) -> "IPv4Network":
        """Parse ``a.b.c.d/p`` notation."""
        if "/" not in text:
            raise AddressError(f"missing prefix in network {text!r}")
        addr, _, prefix = text.partition("/")
        if not prefix.isdigit():
            raise AddressError(f"malformed prefix in {text!r}")
        return cls(IPv4Address.parse(addr), int(prefix))

    def netmask_value(self) -> int:
        if self.prefix == 0:
            return 0
        return (MAX_IPV4 << (32 - self.prefix)) & MAX_IPV4

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.prefix)

    def __contains__(self, addr: object) -> bool:
        if not isinstance(addr, IPv4Address):
            return False
        return (addr.value & self.netmask_value()) == self.base.value

    def __str__(self) -> str:
        return f"{self.base}/{self.prefix}"


class AddressPool:
    """Sequential allocator of unique addresses out of a network.

    The synthetic internet hands each simulated mail server / bot its own
    address from a dedicated pool, guaranteeing no accidental collisions
    between components.
    """

    def __init__(self, network: IPv4Network) -> None:
        self.network = network
        self._next = network.base.value
        self._end = network.base.value + network.num_addresses

    def allocate(self) -> IPv4Address:
        """Return the next unused address; raises when exhausted."""
        if self._next >= self._end:
            raise AddressError(f"address pool {self.network} exhausted")
        addr = IPv4Address(self._next)
        self._next += 1
        return addr

    def allocate_many(self, count: int) -> list:
        """Allocate ``count`` consecutive addresses."""
        if count < 0:
            raise AddressError("count must be non-negative")
        return [self.allocate() for _ in range(count)]

    @property
    def allocated(self) -> int:
        return self._next - self.network.base.value

    def __repr__(self) -> str:
        return f"AddressPool({self.network}, allocated={self.allocated})"


def pool_for(cidr: str) -> AddressPool:
    """Shorthand: ``pool_for('10.0.0.0/8')``."""
    return AddressPool(IPv4Network.parse(cidr))
