"""Cross-module integration tests exercising whole-system flows."""

import pytest

from repro.botnet.campaign import SpamCampaign, make_recipient_list
from repro.botnet.families import CUTWAIL, DARKMAILER, KELIHOS
from repro.core.testbed import Defense, Testbed, TestbedConfig
from repro.dns.resolver import StubResolver
from repro.greylist.whitelist import default_provider_whitelist
from repro.mta.profiles import PROFILES
from repro.mta.queue import QueueEntryState, QueueManager
from repro.net.address import pool_for
from repro.sim.rng import RandomStream
from repro.smtp.client import AttemptOutcome, SMTPClient
from repro.smtp.message import Message


class TestBenignMailThroughGreylisting:
    """A real MTA profile delivering through the greylisted testbed."""

    @pytest.mark.parametrize("mta_name", sorted(PROFILES))
    def test_every_mta_profile_survives_300s_greylisting(self, mta_name):
        testbed = Testbed(
            TestbedConfig(defense=Defense.GREYLISTING, greylist_delay=300.0)
        )
        pool = pool_for("203.0.113.0/24")
        client = SMTPClient(
            internet=testbed.internet,
            resolver=StubResolver(testbed.zones, clock=testbed.clock),
            source_address=pool.allocate(),
        )
        queue = QueueManager(
            testbed.scheduler, client, PROFILES[mta_name].schedule
        )
        message = Message(
            sender="person@company.example",
            recipients=["user@victim.example"],
        )
        queue.submit(message)
        testbed.run(horizon=86400.0)
        entry = queue.entries[0]
        assert entry.state is QueueEntryState.DELIVERED, mta_name
        assert entry.delivery_delay >= 300.0

    def test_mta_delivery_delays_ordered_by_first_retry(self):
        # postfix (5 min) must beat exim/exchange (15 min) through the
        # same greylisting policy.
        delays = {}
        for name in ("postfix", "exim", "exchange"):
            testbed = Testbed(
                TestbedConfig(defense=Defense.GREYLISTING, greylist_delay=300.0)
            )
            client = SMTPClient(
                internet=testbed.internet,
                resolver=StubResolver(testbed.zones, clock=testbed.clock),
                source_address=pool_for("203.0.113.0/24").allocate(),
            )
            queue = QueueManager(testbed.scheduler, client, PROFILES[name].schedule)
            queue.submit(
                Message(
                    sender="p@company.example",
                    recipients=["user@victim.example"],
                )
            )
            testbed.run(horizon=86400.0)
            delays[name] = queue.entries[0].delivery_delay
        assert delays["postfix"] < delays["exim"]
        assert delays["postfix"] < delays["exchange"]


class TestBotnetFleetAgainstDefenses:
    def test_mixed_fleet_against_both_defenses(self):
        testbed = Testbed(
            TestbedConfig(defense=Defense.BOTH, greylist_delay=300.0)
        )
        rng = RandomStream(99, "fleet")
        bots = [
            family.build_bot(
                internet=testbed.internet,
                resolver=testbed.resolver,
                scheduler=testbed.scheduler,
                source_address=testbed.allocate_bot_address(),
                rng=rng.split(family.name),
            )
            for family in (CUTWAIL, KELIHOS, DARKMAILER)
        ]
        campaign = SpamCampaign(
            sender="spam@botnet.example",
            recipients=make_recipient_list("victim.example", 30),
        )
        for index, job in enumerate(campaign.single_recipient_jobs()):
            bots[index % len(bots)].assign(job)
        testbed.run(horizon=400000.0)
        # §VI: the combination stops everything these families send.
        assert testbed.spam_delivered_to_protected() == 0
        assert testbed.server.stats.messages_accepted == 0
        # Bots did try: connection refusals and greylist deferrals observed.
        assert testbed.internet.connections_refused > 0

    def test_greylist_only_leaks_kelihos_but_not_others(self):
        testbed = Testbed(
            TestbedConfig(defense=Defense.GREYLISTING, greylist_delay=300.0)
        )
        rng = RandomStream(5, "fleet2")
        kelihos_bot = KELIHOS.build_bot(
            internet=testbed.internet,
            resolver=testbed.resolver,
            scheduler=testbed.scheduler,
            source_address=testbed.allocate_bot_address(),
            rng=rng.split("kelihos"),
        )
        cutwail_bot = CUTWAIL.build_bot(
            internet=testbed.internet,
            resolver=testbed.resolver,
            scheduler=testbed.scheduler,
            source_address=testbed.allocate_bot_address(),
            rng=rng.split("cutwail"),
        )
        campaign = SpamCampaign(
            sender="spam@botnet.example",
            recipients=make_recipient_list("victim.example", 4),
        )
        jobs = campaign.single_recipient_jobs()
        for job in jobs[:2]:
            kelihos_bot.assign(job)
        for job in jobs[2:]:
            cutwail_bot.assign(job)
        testbed.run(horizon=200000.0)
        assert len(kelihos_bot.delivered_tasks) == 2
        assert cutwail_bot.delivered_tasks == []


class TestWhitelistedProviderSkipsGreylisting:
    def test_whitelisted_sender_accepted_first_try(self):
        testbed = Testbed(
            TestbedConfig(
                defense=Defense.GREYLISTING,
                greylist_delay=21600.0,
                greylist_whitelist=default_provider_whitelist(),
            )
        )
        client = SMTPClient(
            internet=testbed.internet,
            resolver=StubResolver(testbed.zones, clock=testbed.clock),
            source_address=pool_for("203.0.113.0/24").allocate(),
        )
        message = Message(
            sender="someone@gmail.com", recipients=["user@victim.example"]
        )
        result = client.send(message, "user@victim.example")
        assert result.succeeded

    def test_non_whitelisted_sender_still_greylisted(self):
        testbed = Testbed(
            TestbedConfig(
                defense=Defense.GREYLISTING,
                greylist_delay=21600.0,
                greylist_whitelist=default_provider_whitelist(),
            )
        )
        client = SMTPClient(
            internet=testbed.internet,
            resolver=StubResolver(testbed.zones, clock=testbed.clock),
            source_address=pool_for("203.0.113.0/24").allocate(),
        )
        message = Message(
            sender="someone@smallbiz.example",
            recipients=["user@victim.example"],
        )
        result = client.send(message, "user@victim.example")
        assert result.outcome is AttemptOutcome.DEFERRED


class TestGreylistStateAcrossCampaigns:
    def test_second_campaign_same_triplet_rides_the_whitelist(self):
        # The §V.A confound: once a spammer's triplet passes, later campaigns
        # with the same sender/recipient sail through.
        testbed = Testbed(
            TestbedConfig(defense=Defense.GREYLISTING, greylist_delay=300.0)
        )
        bot = KELIHOS.build_bot(
            internet=testbed.internet,
            resolver=testbed.resolver,
            scheduler=testbed.scheduler,
            source_address=testbed.allocate_bot_address(),
            rng=RandomStream(1, "kelihos"),
        )
        first = Message(
            sender="spam@botnet.example",
            recipients=["user@victim.example"],
            campaign_id="first",
        )
        bot.assign(first)
        testbed.run(horizon=100000.0)
        assert len(bot.delivered_tasks) == 1

        second = Message(
            sender="spam@botnet.example",
            recipients=["user@victim.example"],
            campaign_id="second",
        )
        bot.assign(second)
        testbed.run(horizon=testbed.clock.now + 10.0)
        # Delivered instantly: greylisting does not track message content.
        assert len(bot.delivered_tasks) == 2
        assert testbed.campaign_ids_seen() == {"first", "second"}
