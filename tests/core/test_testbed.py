"""Unit tests for the instrumented testbed and the exempting policy."""

from repro.core.testbed import (
    Defense,
    ExemptingPolicy,
    Testbed,
    TestbedConfig,
)
from repro.dns.mxutil import resolve_exchangers
from repro.greylist.policy import GreylistPolicy
from repro.net.address import IPv4Address
from repro.net.host import SMTP_PORT
from repro.sim.clock import Clock
from repro.smtp.message import Message
from repro.smtp.server import ConnectionPolicy, PolicyDecision

CLIENT = IPv4Address.parse("198.51.100.7")


class TestTestbedConstruction:
    def test_plain_testbed_single_working_mx(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        assert len(testbed.domain_setup.hosts) == 1
        assert testbed.domain_setup.hosts[0].is_listening(SMTP_PORT)
        assert testbed.greylist is None

    def test_nolisting_testbed_dead_primary(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NOLISTING))
        primary, secondary = testbed.domain_setup.hosts
        assert not primary.is_listening(SMTP_PORT)
        assert secondary.is_listening(SMTP_PORT)
        exchangers = resolve_exchangers(testbed.resolver, "victim.example")
        assert len(exchangers) == 2

    def test_greylisting_testbed_has_policy(self):
        testbed = Testbed(
            TestbedConfig(defense=Defense.GREYLISTING, greylist_delay=42.0)
        )
        assert testbed.greylist is not None
        assert testbed.greylist.delay == 42.0

    def test_both_defenses(self):
        testbed = Testbed(TestbedConfig(defense=Defense.BOTH))
        assert testbed.greylist is not None
        primary, secondary = testbed.domain_setup.hosts
        assert not primary.is_listening(SMTP_PORT)

    def test_bot_addresses_disjoint_from_server_addresses(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        bot_address = testbed.allocate_bot_address()
        server_addresses = {
            address
            for host in testbed.domain_setup.hosts
            for address in host.addresses
        }
        assert bot_address not in server_addresses


class TestMailboxQueries:
    def test_protected_vs_unprotected_counting(self):
        config = TestbedConfig(
            defense=Defense.GREYLISTING,
            unprotected_recipients={"postmaster@victim.example"},
        )
        testbed = Testbed(config)
        session = testbed.server.session_factory(CLIENT)
        message = Message(
            sender="a@x.example",
            recipients=["postmaster@victim.example"],
            campaign_id="c1",
        )
        session.ehlo("c")
        session.mail_from(message.sender)
        session.rcpt_to("postmaster@victim.example")
        session.data(message)
        assert testbed.spam_delivered_to_unprotected() == 1
        assert testbed.spam_delivered_to_protected() == 0
        assert testbed.campaign_ids_seen() == {"c1"}


class TestExemptingPolicy:
    def test_exempt_recipient_bypasses_inner_policy(self):
        clock = Clock()
        inner = GreylistPolicy(clock=clock, delay=300)
        policy = ExemptingPolicy(inner, exempt={"postmaster@victim.example"})
        decision = policy.on_rcpt_to(
            CLIENT, "a@x.example", "postmaster@victim.example"
        )
        assert decision.accept
        # Protected recipients still greylisted.
        decision = policy.on_rcpt_to(CLIENT, "a@x.example", "u@victim.example")
        assert not decision.accept

    def test_exemption_case_insensitive(self):
        inner = GreylistPolicy(clock=Clock(), delay=300)
        policy = ExemptingPolicy(inner, exempt={"PostMaster@victim.example"})
        assert policy.on_rcpt_to(
            CLIENT, "a@x.example", "postmaster@victim.example"
        ).accept

    def test_other_hooks_delegate(self):
        class Rejecting(ConnectionPolicy):
            def on_helo(self, client, helo_name):
                return PolicyDecision.reject(None)

        policy = ExemptingPolicy(Rejecting(), exempt=set())
        assert not policy.on_helo(CLIENT, "x").accept
        assert policy.on_connect(CLIENT).accept
