"""Misconfiguration pitfalls: settings that silently lose mail.

Greylisting's parameters interact with sender retry schedules; these tests
pin down the failure modes an operator must avoid.
"""


from repro.core.testbed import Defense, Testbed, TestbedConfig
from repro.dns.resolver import StubResolver
from repro.greylist.policy import GreylistPolicy
from repro.greylist.store import TripletStore
from repro.mta.profiles import PROFILES
from repro.mta.queue import QueueEntryState, QueueManager
from repro.mta.schedule import TableSchedule
from repro.net.address import pool_for
from repro.smtp.client import SMTPClient
from repro.smtp.message import Message


def greylisted_testbed(delay=300.0, retry_window=None):
    testbed = Testbed(
        TestbedConfig(defense=Defense.GREYLISTING, greylist_delay=delay)
    )
    if retry_window is not None:
        store = TripletStore(testbed.clock, retry_window=retry_window)
        testbed.greylist = GreylistPolicy(
            clock=testbed.clock, delay=delay, store=store
        )
        testbed.server.policy = testbed.greylist
    return testbed


def sender(testbed, schedule):
    client = SMTPClient(
        internet=testbed.internet,
        resolver=StubResolver(testbed.zones, clock=testbed.clock),
        source_address=pool_for("203.0.113.0/24").allocate(),
    )
    return QueueManager(testbed.scheduler, client, schedule)


def submit(queue):
    return queue.submit(
        Message(sender="a@x.example", recipients=["user@victim.example"])
    )[0]


class TestRetryWindowTooShort:
    def test_sparse_retrier_never_passes(self):
        # Greylist retry window 600 s, but the sender's first retry comes
        # at 900 s: by then the triplet is forgotten, every attempt looks
        # new, and the message dies at queue expiry.  A silent mail-loss
        # misconfiguration.
        testbed = greylisted_testbed(delay=300.0, retry_window=600.0)
        schedule = TableSchedule(
            ages=[900.0, 1800.0, 3600.0],
            max_queue_time=7200.0,
            repeat_last=False,
        )
        queue = sender(testbed, schedule)
        entry = submit(queue)
        testbed.run(horizon=86400.0)
        assert entry.state is not QueueEntryState.DELIVERED
        # Every attempt hit a fresh-looking triplet.
        from repro.greylist.policy import GreylistAction

        actions = {e.action for e in testbed.greylist.events}
        assert actions == {GreylistAction.GREYLISTED_NEW}

    def test_adequate_window_delivers(self):
        testbed = greylisted_testbed(delay=300.0, retry_window=3600.0)
        schedule = TableSchedule(
            ages=[900.0, 1800.0], max_queue_time=7200.0, repeat_last=False
        )
        queue = sender(testbed, schedule)
        entry = submit(queue)
        testbed.run(horizon=86400.0)
        assert entry.state is QueueEntryState.DELIVERED
        assert entry.delivery_delay == 900.0


class TestThresholdVsGiveUp:
    def test_threshold_beyond_giveup_loses_mail(self):
        # An aol-style sender that abandons after ~30 minutes (5 attempts)
        # meets a 1-hour threshold: guaranteed loss.
        testbed = greylisted_testbed(delay=3600.0)
        schedule = TableSchedule(ages=[300.0, 600.0, 1200.0, 1800.0],
                                 max_queue_time=None, repeat_last=False)
        queue = sender(testbed, schedule)
        entry = submit(queue)
        testbed.run(horizon=86400.0)
        assert entry.state is QueueEntryState.ABANDONED
        assert entry.attempt_count == 5

    def test_every_stock_mta_survives_default_threshold(self):
        # The converse guarantee: Postgrey's 300 s default is safe for all
        # surveyed MTA defaults.
        for name, profile in sorted(PROFILES.items()):
            testbed = greylisted_testbed(delay=300.0)
            queue = sender(testbed, profile.schedule)
            entry = submit(queue)
            testbed.run(horizon=2 * 86400.0)
            assert entry.state is QueueEntryState.DELIVERED, name


class TestZeroAndHugeDelays:
    def test_zero_delay_still_two_attempts(self):
        testbed = greylisted_testbed(delay=0.0)
        queue = sender(testbed, PROFILES["postfix"].schedule)
        entry = submit(queue)
        testbed.run(horizon=7200.0)
        assert entry.state is QueueEntryState.DELIVERED
        assert entry.attempt_count == 2

    def test_threshold_beyond_queue_lifetime_loses_everything(self):
        # delay = 3 days vs exchange's 2-day queue: structural mail loss.
        testbed = greylisted_testbed(delay=3 * 86400.0)
        queue = sender(testbed, PROFILES["exchange"].schedule)
        entry = submit(queue)
        testbed.run(horizon=7 * 86400.0)
        assert entry.state is QueueEntryState.EXPIRED
