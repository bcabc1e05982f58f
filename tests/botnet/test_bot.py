"""Unit tests for the spam-bot engine against live and defended servers."""

import pytest

from repro.botnet.behavior import MXBehavior
from repro.botnet.bot import BotAttemptOutcome, SpamBot, drive_dialogue
from repro.botnet.retry import EmpiricalRetryModel, FireAndForget, RetryMode
from repro.core.testbed import Defense, Testbed, TestbedConfig
from repro.sim.rng import RandomStream
from repro.smtp.message import Message
from repro.smtp.replies import Reply


def make_bot(testbed, behavior, retry_model=None, walks=True, seed=1):
    return SpamBot(
        internet=testbed.internet,
        resolver=testbed.resolver,
        scheduler=testbed.scheduler,
        source_address=testbed.allocate_bot_address(),
        mx_behavior=behavior,
        retry_model=retry_model,
        rng=RandomStream(seed, "test-bot"),
        walks_mx_on_failure=walks,
    )


def spam(recipient="victim1@victim.example"):
    return Message(
        sender="spam@botnet.example",
        recipients=[recipient],
        campaign_id="test-campaign",
    )


class RecordingSession:
    """A fake server session: records each command, answers 250 unless told.

    ``codes`` maps ``"banner"``, ``"helo"``, ``"mail"``, ``"rcpt"`` or
    ``"data"`` to the reply code that step gets instead.
    """

    def __init__(self, **codes):
        self.codes = codes
        self.banner = Reply(codes.get("banner", 220))
        self.sent = []

    def _answer(self, command):
        self.sent.append(command)
        return Reply(self.codes.get(command, 250))

    def helo(self, name):
        return self._answer("helo")

    def mail_from(self, sender):
        return self._answer("mail")

    def rcpt_to(self, recipient):
        return self._answer("rcpt")

    def data(self, message):
        return self._answer("data")


class TestDialogue:
    """The bot sends no command after the first negative reply."""

    @pytest.mark.parametrize(
        "codes, sent, outcome, code",
        [
            ({"helo": 554}, ["helo"], BotAttemptOutcome.REJECTED, 554),
            ({"mail": 450}, ["helo", "mail"], BotAttemptOutcome.DEFERRED, 450),
            ({"banner": 554}, [], BotAttemptOutcome.REJECTED, 554),
            ({}, ["helo", "mail", "rcpt", "data"], BotAttemptOutcome.DELIVERED, 250),
            ({"banner": 421}, [], BotAttemptOutcome.DEFERRED, 421),
            ({"helo": 421}, ["helo"], BotAttemptOutcome.DEFERRED, 421),
            ({"mail": 550}, ["helo", "mail"], BotAttemptOutcome.REJECTED, 550),
            (
                {"rcpt": 450},
                ["helo", "mail", "rcpt"],
                BotAttemptOutcome.DEFERRED,
                450,
            ),
            (
                {"rcpt": 550},
                ["helo", "mail", "rcpt"],
                BotAttemptOutcome.REJECTED,
                550,
            ),
            (
                {"data": 451},
                ["helo", "mail", "rcpt", "data"],
                BotAttemptOutcome.DEFERRED,
                451,
            ),
            (
                {"data": 554},
                ["helo", "mail", "rcpt", "data"],
                BotAttemptOutcome.REJECTED,
                554,
            ),
            (
                {"mail": 450, "rcpt": 550},
                ["helo", "mail"],
                BotAttemptOutcome.DEFERRED,
                450,
            ),
        ],
        ids=[
            "helo-554",
            "mail-450",
            "banner-554",
            "delivered",
            "banner-421",
            "helo-421",
            "mail-550",
            "rcpt-450",
            "rcpt-550",
            "data-451",
            "data-554",
            "first-negative-reply-decides",
        ],
    )
    def test_stops_at_the_first_negative_reply(self, codes, sent, outcome, code):
        session = RecordingSession(**codes)
        message = spam()
        assert drive_dialogue(
            session, message, message.recipients[0], "bot.example"
        ) == (outcome, code)
        assert session.sent == sent


class TestAgainstOpenServer:
    def test_delivers_immediately(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        bot = make_bot(testbed, MXBehavior.PRIMARY_ONLY)
        bot.assign(spam())
        testbed.run(horizon=60)
        assert len(bot.delivered_tasks) == 1
        assert testbed.server.stats.messages_accepted == 1
        task = bot.tasks[0]
        assert task.attempts[0].outcome is BotAttemptOutcome.DELIVERED
        assert task.delivery_delay == 0.0

    def test_one_task_per_recipient(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        bot = make_bot(testbed, MXBehavior.PRIMARY_ONLY)
        message = Message(
            sender="spam@botnet.example",
            recipients=["a@victim.example", "b@victim.example"],
        )
        bot.assign(message)
        testbed.run(horizon=60)
        assert len(bot.tasks) == 2
        assert all(t.delivered for t in bot.tasks)


class TestAgainstNolisting:
    def test_primary_only_bot_blocked(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NOLISTING))
        bot = make_bot(testbed, MXBehavior.PRIMARY_ONLY, walks=False)
        bot.assign(spam())
        testbed.run(horizon=3600)
        assert bot.delivered_tasks == []
        assert bot.abandoned_tasks == bot.tasks
        assert testbed.server.stats.messages_accepted == 0
        outcome = bot.tasks[0].attempts[0].outcome
        assert outcome is BotAttemptOutcome.CONNECTION_FAILED

    def test_secondary_only_bot_passes(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NOLISTING))
        bot = make_bot(testbed, MXBehavior.SECONDARY_ONLY, walks=False)
        bot.assign(spam())
        testbed.run(horizon=3600)
        assert len(bot.delivered_tasks) == 1
        # It never even touched the primary.
        targets = {a.target for a in bot.all_attempts()}
        assert targets == {"smtp1.victim.example"}

    def test_rfc_compliant_bot_passes_via_secondary(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NOLISTING))
        bot = make_bot(testbed, MXBehavior.RFC_COMPLIANT, walks=True)
        bot.assign(spam())
        testbed.run(horizon=3600)
        assert len(bot.delivered_tasks) == 1
        targets = [a.target for a in bot.tasks[0].attempts]
        assert targets == ["smtp.victim.example", "smtp1.victim.example"]

    def test_primary_only_retrier_still_blocked(self):
        # Retrying does not help when you keep knocking on a closed port.
        testbed = Testbed(TestbedConfig(defense=Defense.NOLISTING))
        model = EmpiricalRetryModel(
            modes=[RetryMode(10.0, 20.0, 1.0)], min_delay=10, max_attempts=5
        )
        bot = make_bot(
            testbed, MXBehavior.PRIMARY_ONLY, retry_model=model, walks=False
        )
        bot.assign(spam())
        testbed.run(horizon=3600)
        assert bot.delivered_tasks == []
        assert bot.tasks[0].attempt_count == 5


class TestAgainstGreylisting:
    def _greylisted(self, delay=300.0):
        return Testbed(
            TestbedConfig(defense=Defense.GREYLISTING, greylist_delay=delay)
        )

    def test_fire_and_forget_blocked(self):
        testbed = self._greylisted()
        bot = make_bot(testbed, MXBehavior.PRIMARY_ONLY, FireAndForget())
        bot.assign(spam())
        testbed.run(horizon=86400)
        assert bot.delivered_tasks == []
        assert bot.tasks[0].attempts[0].outcome is BotAttemptOutcome.DEFERRED
        assert bot.tasks[0].attempts[0].reply_code == 450

    def test_retrier_passes_after_threshold(self):
        testbed = self._greylisted(delay=300.0)
        model = EmpiricalRetryModel(
            modes=[RetryMode(300.0, 600.0, 1.0)],
            min_delay=300,
            max_attempts=10,
            escalate=False,
        )
        bot = make_bot(testbed, MXBehavior.PRIMARY_ONLY, model)
        bot.assign(spam())
        testbed.run(horizon=86400)
        assert len(bot.delivered_tasks) == 1
        task = bot.tasks[0]
        assert task.attempt_count == 2
        assert 300.0 <= task.delivery_delay <= 600.0

    def test_retrier_blocked_by_huge_threshold_until_late(self):
        testbed = self._greylisted(delay=21600.0)
        model = EmpiricalRetryModel(
            modes=[RetryMode(5000.0, 6000.0, 1.0)],
            min_delay=300,
            max_attempts=10,
            escalate=False,
        )
        bot = make_bot(testbed, MXBehavior.PRIMARY_ONLY, model)
        bot.assign(spam())
        testbed.run(horizon=10 ** 6)
        task = bot.tasks[0]
        assert task.delivered
        # Needs enough 5-6 ks retries to accumulate 21600 s of triplet age.
        assert task.delivery_delay >= 21600.0
        assert task.attempt_count >= 5

    def test_permanent_rejection_abandons(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        testbed.server.local_domains = ["elsewhere.example"]  # relaying denied
        bot = make_bot(testbed, MXBehavior.PRIMARY_ONLY)
        bot.assign(spam())
        testbed.run(horizon=60)
        assert bot.tasks[0].abandoned
        assert bot.tasks[0].attempts[0].outcome is BotAttemptOutcome.REJECTED


class TestDNSFailure:
    def test_unresolvable_domain_dns_failed(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        bot = make_bot(testbed, MXBehavior.PRIMARY_ONLY)
        bot.assign(spam("victim@nonexistent.example"))
        testbed.run(horizon=60)
        task = bot.tasks[0]
        assert task.attempts[0].outcome is BotAttemptOutcome.DNS_FAILED
        assert task.abandoned
