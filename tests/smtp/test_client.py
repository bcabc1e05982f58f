"""Unit tests for the RFC-compliant SMTP client's delivery flow."""

import pytest

from repro.dns.nolisting import setup_nolisting, setup_single_mx
from repro.dns.resolver import StubResolver
from repro.dns.zone import ZoneStore
from repro.net.address import IPv4Address, pool_for
from repro.net.host import ConnectionRefused
from repro.net.network import VirtualInternet
from repro.sim.clock import Clock
from repro.smtp import replies
from repro.smtp.client import AttemptOutcome, SMTPClient
from repro.smtp.message import Message
from repro.smtp.server import ConnectionPolicy, PolicyDecision, SMTPServer

SOURCE = IPv4Address.parse("203.0.113.10")


@pytest.fixture
def world():
    internet = VirtualInternet()
    zones = ZoneStore()
    pool = pool_for("192.0.2.0/24")
    clock = Clock()
    server = SMTPServer(hostname="smtp.foo.net", clock=clock)
    return internet, zones, pool, clock, server


def make_client(internet, zones):
    return SMTPClient(
        internet=internet,
        resolver=StubResolver(zones),
        source_address=SOURCE,
        helo_name="mta.sender.example",
    )


def make_message(recipient="user@foo.net"):
    return Message(sender="alice@sender.example", recipients=[recipient])


class TestDelivery:
    def test_delivers_to_single_mx(self, world):
        internet, zones, pool, _, server = world
        setup_single_mx(internet, zones, pool, "foo.net", server.session_factory)
        client = make_client(internet, zones)
        result = client.send(make_message(), "user@foo.net")
        assert result.outcome is AttemptOutcome.DELIVERED
        assert server.stats.messages_accepted == 1
        assert result.exchanger.hostname == "smtp.foo.net"

    def test_walks_past_dead_primary(self, world):
        internet, zones, pool, _, server = world
        setup_nolisting(internet, zones, pool, "foo.net", server.session_factory)
        client = make_client(internet, zones)
        result = client.send(make_message(), "user@foo.net")
        assert result.outcome is AttemptOutcome.DELIVERED
        # Delivered via the secondary, after the primary refused.
        assert result.exchanger.hostname == "smtp1.foo.net"
        assert internet.connections_refused == 1

    def test_no_route_when_all_mx_dead(self, world):
        internet, zones, pool, _, _ = world

        def refuse(client):
            raise ConnectionRefused("port 25 closed")

        # The primary never listens; the secondary refuses as well.
        setup_nolisting(internet, zones, pool, "foo.net", refuse)
        client = make_client(internet, zones)
        result = client.send(make_message(), "user@foo.net")
        assert result.outcome is AttemptOutcome.NO_ROUTE
        assert internet.connections_refused == 2

    def test_dns_failure_for_unknown_domain(self, world):
        internet, zones, _, _, _ = world
        client = make_client(internet, zones)
        result = client.send(make_message("user@ghost.net"), "user@ghost.net")
        assert result.outcome is AttemptOutcome.DNS_FAILURE

    def test_implicit_mx_fallback(self, world):
        internet, zones, pool, clock, server = world
        # Domain with no MX but an A record on the apex: RFC 5321 implicit MX.
        zone = zones.create("bare.net")
        address = pool.allocate()
        zone.add_a("bare.net", address)
        from repro.net.host import VirtualHost

        host = VirtualHost("bare.net", [address])
        host.listen(25, server.session_factory)
        internet.register(host)
        client = make_client(internet, zones)
        result = client.send(make_message("user@bare.net"), "user@bare.net")
        assert result.outcome is AttemptOutcome.DELIVERED


class TestRejections:
    def test_greylist_deferral_reported_transient(self, world):
        internet, zones, pool, _, _ = world

        class Grey(ConnectionPolicy):
            def on_rcpt_to(self, client, sender, recipient):
                return PolicyDecision.reject(replies.greylisted(300))

        server = SMTPServer(hostname="smtp.foo.net", clock=Clock(), policy=Grey())
        setup_single_mx(internet, zones, pool, "foo.net", server.session_factory)
        client = make_client(internet, zones)
        result = client.send(make_message(), "user@foo.net")
        assert result.outcome is AttemptOutcome.DEFERRED
        assert result.reply.code == 450

    def test_permanent_rejection_bounces(self, world):
        internet, zones, pool, _, _ = world
        server = SMTPServer(
            hostname="smtp.foo.net",
            clock=Clock(),
            local_domains=["elsewhere.example"],  # relaying denied -> 551
        )
        setup_single_mx(internet, zones, pool, "foo.net", server.session_factory)
        client = make_client(internet, zones)
        result = client.send(make_message(), "user@foo.net")
        assert result.outcome is AttemptOutcome.BOUNCED
        assert result.reply.code == 551

    def test_smtp_rejection_does_not_walk_to_secondary(self, world):
        # A server that answered speaks for the domain: 4yz/5yz must not
        # cause a fallback to lower-priority exchangers.
        internet, zones, pool, _, _ = world

        class Defer(ConnectionPolicy):
            def on_rcpt_to(self, client, sender, recipient):
                return PolicyDecision.reject(replies.greylisted(300))

        primary = SMTPServer(hostname="smtp.foo.net", clock=Clock(), policy=Defer())
        secondary = SMTPServer(hostname="smtp1.foo.net", clock=Clock())
        zone = zones.create("foo.net")
        a1, a2 = pool.allocate(), pool.allocate()
        zone.add_a("smtp.foo.net", a1)
        zone.add_a("smtp1.foo.net", a2)
        zone.add_mx(0, "smtp.foo.net")
        zone.add_mx(15, "smtp1.foo.net")
        from repro.net.host import VirtualHost

        h1 = VirtualHost("smtp.foo.net", [a1])
        h1.listen(25, primary.session_factory)
        h2 = VirtualHost("smtp1.foo.net", [a2])
        h2.listen(25, secondary.session_factory)
        internet.register(h1)
        internet.register(h2)

        client = make_client(internet, zones)
        result = client.send(make_message(), "user@foo.net")
        assert result.outcome is AttemptOutcome.DEFERRED
        assert secondary.stats.connections == 0

    @pytest.mark.parametrize(
        "code, outcome",
        [(421, AttemptOutcome.DEFERRED), (554, AttemptOutcome.BOUNCED)],
    )
    def test_refused_banner_ends_the_attempt(self, world, code, outcome):
        internet, zones, pool, _, _ = world

        class RefuseAtConnect(ConnectionPolicy):
            def on_connect(self, client):
                return PolicyDecision.reject(replies.Reply(code, "go away"))

        server = SMTPServer(
            hostname="smtp.foo.net", clock=Clock(), policy=RefuseAtConnect()
        )
        setup_single_mx(internet, zones, pool, "foo.net", server.session_factory)
        client = make_client(internet, zones)
        result = client.send(make_message(), "user@foo.net")
        assert result.outcome is outcome
        assert result.reply.code == code
        assert result.exchanger.hostname == "smtp.foo.net"
        assert server.log == []

    def test_content_rejection_at_data_bounces(self, world):
        internet, zones, pool, _, _ = world

        class RejectContent(ConnectionPolicy):
            def on_message(self, client, envelope, message):
                return PolicyDecision.reject(
                    replies.Reply(554, "5.7.1 message content rejected")
                )

        server = SMTPServer(
            hostname="smtp.foo.net", clock=Clock(), policy=RejectContent()
        )
        setup_single_mx(internet, zones, pool, "foo.net", server.session_factory)
        client = make_client(internet, zones)
        result = client.send(make_message(), "user@foo.net")
        assert result.outcome is AttemptOutcome.BOUNCED
        assert result.reply.code == replies.CODE_TRANSACTION_FAILED
        assert [(r.stage, r.accepted, r.reply_code) for r in server.log] == [
            ("data", False, 554)
        ]
        assert server.stats.messages_accepted == 0

    def test_deferral_at_data_defers(self, world):
        internet, zones, pool, _, _ = world

        class DeferContent(ConnectionPolicy):
            def on_message(self, client, envelope, message):
                return PolicyDecision.reject(
                    replies.Reply(451, "4.7.1 content check unavailable")
                )

        server = SMTPServer(
            hostname="smtp.foo.net", clock=Clock(), policy=DeferContent()
        )
        setup_single_mx(internet, zones, pool, "foo.net", server.session_factory)
        client = make_client(internet, zones)
        result = client.send(make_message(), "user@foo.net")
        assert result.outcome is AttemptOutcome.DEFERRED
        assert result.reply.code == 451
        assert [(r.stage, r.accepted, r.reply_code) for r in server.log] == [
            ("data", False, 451)
        ]
