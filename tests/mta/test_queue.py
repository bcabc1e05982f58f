"""Unit tests for the outbound queue manager driving retries."""

from repro.dns.nolisting import setup_single_mx
from repro.dns.resolver import StubResolver
from repro.dns.zone import ZoneStore
from repro.greylist.policy import GreylistPolicy
from repro.mta.queue import QueueEntryState, QueueManager
from repro.mta.schedule import FixedIntervalSchedule, TableSchedule
from repro.net.address import IPv4Address, pool_for
from repro.net.network import VirtualInternet
from repro.sim.clock import Clock
from repro.sim.events import EventScheduler
from repro.smtp.client import AttemptOutcome, SMTPClient
from repro.smtp.message import Message
from repro.smtp.server import SMTPServer

SOURCE = IPv4Address.parse("203.0.113.10")


def build_world(policy=None, local_domains=None):
    scheduler = EventScheduler(Clock())
    internet = VirtualInternet()
    zones = ZoneStore()
    pool = pool_for("192.0.2.0/24")
    server = SMTPServer(
        hostname="smtp.foo.net",
        clock=scheduler.clock,
        policy=policy,
        local_domains=local_domains,
    )
    setup_single_mx(internet, zones, pool, "foo.net", server.session_factory)
    client = SMTPClient(
        internet=internet,
        resolver=StubResolver(zones, clock=scheduler.clock),
        source_address=SOURCE,
    )
    return scheduler, server, client


def make_message(recipients=("user@foo.net",)):
    return Message(sender="alice@sender.example", recipients=list(recipients))


class TestImmediateDelivery:
    def test_delivers_on_first_attempt(self):
        scheduler, server, client = build_world()
        queue = QueueManager(scheduler, client, FixedIntervalSchedule(600))
        entries = queue.submit(make_message())
        scheduler.run()
        assert entries[0].state is QueueEntryState.DELIVERED
        assert entries[0].attempt_count == 1
        assert entries[0].delivery_delay == 0.0
        assert server.stats.messages_accepted == 1

    def test_one_entry_per_recipient(self):
        scheduler, _, client = build_world()
        queue = QueueManager(scheduler, client, FixedIntervalSchedule(600))
        entries = queue.submit(
            make_message(["a@foo.net", "b@foo.net", "c@foo.net"])
        )
        scheduler.run()
        assert len(entries) == 3
        assert all(e.state is QueueEntryState.DELIVERED for e in entries)


class TestRetryOnDeferral:
    def test_retries_through_greylisting(self):
        scheduler, server, client = build_world()
        greylist = GreylistPolicy(clock=scheduler.clock, delay=300)
        server.policy = greylist
        queue = QueueManager(scheduler, client, FixedIntervalSchedule(400))
        entries = queue.submit(make_message())
        scheduler.run()
        entry = entries[0]
        assert entry.state is QueueEntryState.DELIVERED
        assert entry.attempt_count == 2
        assert entry.delivery_delay == 400.0
        assert [a.timestamp for a in entry.attempts] == [0.0, 400.0]

    def test_attempt_journal_records_outcomes_and_codes(self):
        scheduler, server, client = build_world()
        server.policy = GreylistPolicy(clock=scheduler.clock, delay=300)
        queue = QueueManager(scheduler, client, FixedIntervalSchedule(400))
        entry = queue.submit(make_message())[0]
        scheduler.run()
        assert [
            (a.attempt_number, a.outcome, a.reply_code) for a in entry.attempts
        ] == [
            (1, AttemptOutcome.DEFERRED, 450),
            (2, AttemptOutcome.DELIVERED, 250),
        ]
        assert entry.finished_at == 400.0

    def test_dns_failure_is_retried_until_the_queue_expires(self):
        scheduler, _, client = build_world()
        schedule = FixedIntervalSchedule(interval=600, max_queue_time=1200)
        queue = QueueManager(scheduler, client, schedule)
        entry = queue.submit(make_message(["user@ghost.net"]))[0]
        scheduler.run()
        assert entry.state is QueueEntryState.EXPIRED
        assert [(a.timestamp, a.outcome, a.reply_code) for a in entry.attempts] == [
            (0.0, AttemptOutcome.DNS_FAILURE, None),
            (600.0, AttemptOutcome.DNS_FAILURE, None),
            (1200.0, AttemptOutcome.DNS_FAILURE, None),
        ]
        assert entry.delivery_delay is None

    def test_retry_below_threshold_takes_extra_round(self):
        scheduler, server, client = build_world()
        server.policy = GreylistPolicy(clock=scheduler.clock, delay=900)
        queue = QueueManager(scheduler, client, FixedIntervalSchedule(400))
        entries = queue.submit(make_message())
        scheduler.run()
        entry = entries[0]
        assert entry.state is QueueEntryState.DELIVERED
        # Attempts at 0, 400 (early), 800 (early), 1200 (passes).
        assert entry.attempt_count == 4
        assert entry.delivery_delay == 1200.0

    def test_no_retry_schedule_abandons(self):
        scheduler, server, client = build_world()
        server.policy = GreylistPolicy(clock=scheduler.clock, delay=300)
        queue = QueueManager(
            scheduler, client, TableSchedule(ages=[], repeat_last=False)
        )
        entries = queue.submit(make_message())
        scheduler.run()
        assert entries[0].state is QueueEntryState.ABANDONED
        assert server.stats.messages_accepted == 0

    def test_queue_lifetime_expiry(self):
        scheduler, server, client = build_world()
        server.policy = GreylistPolicy(clock=scheduler.clock, delay=10 ** 9)
        schedule = FixedIntervalSchedule(interval=600, max_queue_time=1800)
        queue = QueueManager(scheduler, client, schedule)
        entries = queue.submit(make_message())
        scheduler.run()
        entry = entries[0]
        assert entry.state is QueueEntryState.EXPIRED
        assert entry.attempt_count == 4  # 0, 600, 1200, 1800


class TestBounce:
    def test_permanent_rejection_bounces_immediately(self):
        # The server serves another domain only: relaying denied, 551.
        scheduler, _, client = build_world(local_domains=["elsewhere.example"])
        queue = QueueManager(scheduler, client, FixedIntervalSchedule(600))
        entries = queue.submit(make_message())
        scheduler.run()
        assert entries[0].state is QueueEntryState.BOUNCED
        assert entries[0].attempt_count == 1

    def test_bounce_is_journalled_without_a_delivery_delay(self):
        scheduler, _, client = build_world(local_domains=["elsewhere.example"])
        queue = QueueManager(scheduler, client, FixedIntervalSchedule(600))
        entries = queue.submit(make_message())
        scheduler.run()
        entry = entries[0]
        assert [(a.outcome, a.reply_code) for a in entry.attempts] == [
            (AttemptOutcome.BOUNCED, 551)
        ]
        assert entry.finished_at == 0.0
        assert entry.delivery_delay is None
        assert queue.entries_in_state(QueueEntryState.BOUNCED) == entries
        assert queue.delivered == [] and queue.pending == []


class TestCompletionHook:
    def test_introspection_properties(self):
        scheduler, _, client = build_world()
        queue = QueueManager(scheduler, client, FixedIntervalSchedule(600))
        queue.submit(make_message())
        assert len(queue.pending) == 1
        scheduler.run()
        assert len(queue.delivered) == 1
        assert queue.pending == []
