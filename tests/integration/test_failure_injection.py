"""Failure-injection integration tests.

Distributed systems are defined by how they fail; these tests inject DNS
outages, host flaps and mid-experiment breakage into the substrates and
check the system degrades the way the components promise.
"""


from repro.botnet.families import DARKMAILER, KELIHOS
from repro.core.testbed import Defense, Testbed, TestbedConfig
from repro.dns.resolver import StubResolver
from repro.faults.model import FaultConfig, FaultPlan
from repro.mta.profiles import PROFILES
from repro.mta.queue import QueueEntryState, QueueManager
from repro.net.address import pool_for
from repro.net.host import SMTP_PORT, ConnectionRefused
from repro.sim.rng import RandomStream
from repro.smtp.client import AttemptOutcome, SMTPClient
from repro.smtp.message import Message


def make_client(testbed, pool, resolver=None):
    return SMTPClient(
        internet=testbed.internet,
        resolver=resolver or StubResolver(testbed.zones, clock=testbed.clock),
        source_address=pool.allocate(),
    )


def outage_resolver(testbed):
    """A resolver whose every authoritative query SERVFAILs."""
    plan = FaultPlan(FaultConfig(dns_servfail_rate=1.0))
    return StubResolver(testbed.zones, clock=testbed.clock, faults=plan)


class FlappingListener:
    """Wraps a host's port-25 listener; refuses while ``down`` is set."""

    def __init__(self, host, factory):
        self.down = False
        self._factory = factory
        host.listen(SMTP_PORT, self)

    def __call__(self, client):
        if self.down:
            raise ConnectionRefused("port 25 flapped")
        return self._factory(client)


class TestDNSOutages:
    def test_servfail_defers_then_recovers(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        pool = pool_for("203.0.113.0/24")
        client = make_client(testbed, pool, outage_resolver(testbed))
        queue = QueueManager(
            testbed.scheduler, client, PROFILES["postfix"].schedule
        )
        queue.submit(
            Message(
                sender="a@x.example", recipients=["user@victim.example"]
            )
        )
        # Repair DNS after two failed attempts (~10 minutes in).
        healthy = StubResolver(testbed.zones, clock=testbed.clock)
        testbed.scheduler.schedule_at(
            700.0, lambda: setattr(client, "resolver", healthy)
        )
        testbed.run(horizon=7200.0)
        entry = queue.entries[0]
        assert entry.state is QueueEntryState.DELIVERED
        assert entry.attempt_count >= 2  # DNS failures consumed retries
        assert entry.attempts[0].outcome is AttemptOutcome.DNS_FAILURE

    def test_persistent_dns_outage_expires_the_message(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        pool = pool_for("203.0.113.0/24")
        client = make_client(testbed, pool, outage_resolver(testbed))
        queue = QueueManager(
            testbed.scheduler, client, PROFILES["exchange"].schedule
        )
        queue.submit(
            Message(sender="a@x.example", recipients=["user@victim.example"])
        )
        testbed.run(horizon=3 * 86400.0)  # beyond exchange's 2-day lifetime
        assert queue.entries[0].state is QueueEntryState.EXPIRED

    def test_bot_gives_up_on_dns_outage(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        bot = DARKMAILER.build_bot(
            internet=testbed.internet,
            resolver=outage_resolver(testbed),
            scheduler=testbed.scheduler,
            source_address=testbed.allocate_bot_address(),
            rng=RandomStream(1, "bot"),
        )
        bot.assign(
            Message(sender="s@bot.example", recipients=["u@victim.example"])
        )
        testbed.run(horizon=3600.0)
        assert bot.tasks[0].abandoned


class TestHostFlaps:
    def test_server_down_then_up_mid_delivery(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        pool = pool_for("203.0.113.0/24")
        client = make_client(testbed, pool)
        listener = FlappingListener(
            testbed.domain_setup.hosts[0], testbed.server.session_factory
        )
        listener.down = True
        queue = QueueManager(
            testbed.scheduler, client, PROFILES["postfix"].schedule
        )
        queue.submit(
            Message(sender="a@x.example", recipients=["user@victim.example"])
        )
        testbed.scheduler.schedule_at(
            400.0, lambda: setattr(listener, "down", False)
        )
        testbed.run(horizon=7200.0)
        entry = queue.entries[0]
        assert entry.state is QueueEntryState.DELIVERED
        assert entry.attempts[0].outcome is AttemptOutcome.NO_ROUTE

    def test_kelihos_survives_greylist_server_flap(self):
        # The bot's retry machinery tolerates the victim being briefly
        # unreachable between greylist rounds.
        testbed = Testbed(
            TestbedConfig(defense=Defense.GREYLISTING, greylist_delay=300.0)
        )
        bot = KELIHOS.build_bot(
            internet=testbed.internet,
            resolver=testbed.resolver,
            scheduler=testbed.scheduler,
            source_address=testbed.allocate_bot_address(),
            rng=RandomStream(2, "kelihos"),
        )
        bot.assign(
            Message(sender="s@bot.example", recipients=["u@victim.example"])
        )
        listener = FlappingListener(
            testbed.domain_setup.hosts[0], testbed.server.session_factory
        )
        testbed.scheduler.schedule_at(
            100.0, lambda: setattr(listener, "down", True)
        )
        testbed.scheduler.schedule_at(
            250.0, lambda: setattr(listener, "down", False)
        )
        testbed.run(horizon=200000.0)
        assert bot.tasks[0].delivered

    def test_greylist_state_survives_server_restart_via_snapshot(self):
        from repro.greylist.persistence import dump_store, load_store
        from repro.greylist.policy import GreylistPolicy

        testbed = Testbed(
            TestbedConfig(defense=Defense.GREYLISTING, greylist_delay=300.0)
        )
        pool = pool_for("203.0.113.0/24")
        client = make_client(testbed, pool)
        message = Message(
            sender="a@x.example", recipients=["user@victim.example"]
        )
        result = client.send(message, "user@victim.example")
        assert result.outcome is AttemptOutcome.DEFERRED

        # "Restart" the policy from a snapshot; history must carry over.
        snapshot = dump_store(testbed.greylist.store)
        restored = load_store(snapshot, testbed.clock)
        testbed.server.policy = GreylistPolicy(
            clock=testbed.clock, delay=300.0, store=restored
        )
        testbed.clock.advance_by(301.0)
        result = client.send(message, "user@victim.example")
        assert result.outcome is AttemptOutcome.DELIVERED
