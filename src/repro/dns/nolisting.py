"""Nolisting zone construction.

Nolisting registers a *non-functional* primary MX (an address with port 25
closed) ahead of the real mail server.  RFC-compliant senders fall through to
the secondary; primary-only bots fail.  This module builds the DNS + host
configuration for a nolisted domain in one call, and the plain single-MX
configuration used as the control.  The population generator
(:mod:`repro.scan.population`) builds multi-MX and misconfigured domains
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..net.address import AddressPool, IPv4Address
from ..net.host import SMTP_PORT, VirtualHost
from ..net.network import VirtualInternet
from .zone import Zone, ZoneStore

# A factory producing the SMTP listener session for a working mail host.
SMTPFactory = Callable[[IPv4Address], object]


@dataclass
class MailDomainSetup:
    """Everything created for one mail domain."""

    domain: str
    zone: Zone
    hosts: List[VirtualHost]
    mx_hostnames: List[str]


def _register_mail_host(
    internet: VirtualInternet,
    hostname: str,
    address: IPv4Address,
    listening: bool,
    factory: Optional[SMTPFactory],
) -> VirtualHost:
    host = VirtualHost(hostname, [address])
    if listening:
        if factory is None:
            raise ValueError(f"host {hostname} should listen but has no factory")
        host.listen(SMTP_PORT, factory)
    internet.register(host)
    return host


def setup_single_mx(
    internet: VirtualInternet,
    zones: ZoneStore,
    pool: AddressPool,
    domain: str,
    factory: SMTPFactory,
    preference: int = 10,
) -> MailDomainSetup:
    """A plain domain with one working MX (the 47.7 % majority in Figure 2)."""
    zone = zones.get_or_create(domain)
    mx_name = f"smtp.{domain}"
    address = pool.allocate()
    zone.add_a(mx_name, address)
    zone.add_mx(preference, mx_name)
    host = _register_mail_host(internet, mx_name, address, True, factory)
    return MailDomainSetup(domain, zone, [host], [mx_name])


def setup_nolisting(
    internet: VirtualInternet,
    zones: ZoneStore,
    pool: AddressPool,
    domain: str,
    factory: SMTPFactory,
    primary_preference: int = 0,
    secondary_preference: int = 15,
) -> MailDomainSetup:
    """A nolisted domain, mirroring Figure 1 of the paper.

    The primary MX (``smtp.domain``, preference 0) resolves to a real host
    whose port 25 is **closed** — connections are actively refused, exactly
    as the technique's authors recommend (a proper A record pointing at a
    machine that RSTs, indistinguishable from a malfunctioning server).  The
    secondary MX (``smtp1.domain``) runs the actual mail service.
    """
    zone = zones.get_or_create(domain)
    primary_name = f"smtp.{domain}"
    secondary_name = f"smtp1.{domain}"
    primary_address = pool.allocate()
    secondary_address = pool.allocate()
    zone.add_a(primary_name, primary_address)
    zone.add_a(secondary_name, secondary_address)
    zone.add_mx(primary_preference, primary_name)
    zone.add_mx(secondary_preference, secondary_name)
    primary = _register_mail_host(
        internet, primary_name, primary_address, False, None
    )
    secondary = _register_mail_host(
        internet, secondary_name, secondary_address, True, factory
    )
    return MailDomainSetup(
        domain, zone, [primary, secondary], [primary_name, secondary_name]
    )
