"""Unit tests for the WebmailDelivery driver itself."""

from repro.core.testbed import Defense, Testbed, TestbedConfig
from repro.dns.resolver import StubResolver
from repro.net.address import AddressPool, IPv4Network
from repro.smtp.client import SMTPClient
from repro.smtp.message import Message
from repro.webmail.provider import ProviderSpec, WebmailDelivery


def build(spec, defense=Defense.GREYLISTING, delay=300.0):
    testbed = Testbed(
        TestbedConfig(defense=defense, greylist_delay=delay)
    )
    pool = AddressPool(IPv4Network.parse("203.0.113.0/24"))
    client = SMTPClient(
        internet=testbed.internet,
        resolver=StubResolver(testbed.zones, clock=testbed.clock),
        source_address=pool.allocate(),
        helo_name=f"out.{spec.name}",
    )
    delivery = WebmailDelivery(
        spec=spec,
        scheduler=testbed.scheduler,
        client=client,
        address_pool=pool,
    )
    return testbed, delivery


def send(testbed, delivery, horizon=86400.0):
    message = Message(
        sender=f"u@{delivery.spec.name}",
        recipients=["user@victim.example"],
    )
    outcome = delivery.deliver(message, "user@victim.example")
    testbed.run(horizon=horizon)
    return outcome


class TestWebmailDelivery:
    def test_single_ip_passes_on_first_eligible_retry(self):
        spec = ProviderSpec(name="fast.example", retry_ages=[100, 400, 900])
        testbed, delivery = build(spec)
        outcome = send(testbed, delivery)
        assert outcome.delivered
        # 100 s retry is below the 300 s threshold; 400 s passes.
        assert outcome.attempts == 3
        assert outcome.delivery_age == 400.0
        assert outcome.attempt_ages == [0.0, 100.0, 400.0]
        assert outcome.distinct_ips_used == 1

    def test_stops_retrying_after_success(self):
        spec = ProviderSpec(
            name="eager.example",
            retry_ages=[400],
            continuation_interval=100.0,
            max_attempts=50,
        )
        testbed, delivery = build(spec)
        outcome = send(testbed, delivery)
        assert outcome.delivered
        assert outcome.attempts == 2  # no attempts after acceptance

    def test_gives_up_when_schedule_exhausts(self):
        spec = ProviderSpec(
            name="quitter.example",
            retry_ages=[50, 100],
            continuation_interval=None,
            max_attempts=3,
        )
        testbed, delivery = build(spec)
        outcome = send(testbed, delivery)
        assert not outcome.delivered
        assert outcome.attempts == 3
        assert outcome.delivery_age is None
        assert outcome.retry_ages == [50.0, 100.0]

    def test_pool_rotation_restarts_triplets(self):
        spec = ProviderSpec(
            name="farm.example",
            retry_ages=[400, 800, 1200, 1600],
            ip_pool_size=2,
        )
        testbed, delivery = build(spec)
        outcome = send(testbed, delivery)
        assert outcome.delivered
        # Attempt 3 (age 800, IP 0 again, triplet age 800 >= 300) passes.
        assert outcome.attempts == 3
        assert outcome.distinct_ips_used == 2

    def test_open_server_accepts_first_attempt(self):
        spec = ProviderSpec(name="any.example", retry_ages=[100])
        testbed, delivery = build(spec, defense=Defense.NONE)
        outcome = send(testbed, delivery)
        assert outcome.delivered
        assert outcome.attempts == 1
        assert outcome.delivery_age == 0.0

    def test_permanent_rejection_stops_immediately(self):
        spec = ProviderSpec(
            name="bounce.example",
            retry_ages=[100, 200],
            continuation_interval=60.0,
        )
        testbed, delivery = build(spec, defense=Defense.NONE)
        testbed.server.local_domains = ["elsewhere.example"]  # relaying denied
        outcome = send(testbed, delivery)
        assert not outcome.delivered
        assert outcome.attempts == 1
