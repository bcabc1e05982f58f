"""Unit tests for the family profiles, sample registry and campaigns."""

import pytest

from repro.botnet.behavior import MXBehavior
from repro.botnet.campaign import SpamCampaign, make_recipient_list
from repro.botnet.families import (
    BOTNET_FRACTION_OF_GLOBAL_SPAM,
    CUTWAIL,
    DARKMAILER,
    DARKMAILER_V3,
    FAMILIES,
    FAMILY_BY_NAME,
    KELIHOS,
    TOTAL_BOTNET_SPAM_SHARE,
    TOTAL_GLOBAL_SPAM_SHARE,
    global_spam_share,
)
from repro.botnet.retry import FireAndForget
from repro.botnet.samples import (
    TOTAL_SAMPLE_COUNT,
    collect_samples,
    samples_of,
)
from repro.core.testbed import Defense, Testbed, TestbedConfig
from repro.sim.rng import RandomStream
from repro.smtp.message import AddressSyntaxError


class TestFamilyProfiles:
    def test_table1_shares(self):
        assert CUTWAIL.botnet_spam_share == pytest.approx(0.4690)
        assert KELIHOS.botnet_spam_share == pytest.approx(0.3633)
        assert DARKMAILER.botnet_spam_share == pytest.approx(0.0721)
        assert DARKMAILER_V3.botnet_spam_share == pytest.approx(0.0258)

    def test_table1_totals(self):
        assert TOTAL_BOTNET_SPAM_SHARE == pytest.approx(0.9302)
        assert TOTAL_GLOBAL_SPAM_SHARE == pytest.approx(0.7069)
        # Global share == botnet share x botnet fraction of global spam.
        assert TOTAL_BOTNET_SPAM_SHARE * BOTNET_FRACTION_OF_GLOBAL_SPAM == (
            pytest.approx(TOTAL_GLOBAL_SPAM_SHARE, abs=0.0005)
        )

    def test_mx_behaviors_match_paper(self):
        assert KELIHOS.mx_behavior is MXBehavior.PRIMARY_ONLY
        assert CUTWAIL.mx_behavior is MXBehavior.SECONDARY_ONLY
        assert DARKMAILER.mx_behavior is MXBehavior.RFC_COMPLIANT
        assert DARKMAILER_V3.mx_behavior is MXBehavior.RFC_COMPLIANT

    def test_retry_traits(self):
        assert KELIHOS.retries
        assert not CUTWAIL.retries
        assert not DARKMAILER.retries
        assert not DARKMAILER_V3.retries
        assert isinstance(CUTWAIL.retry_factory(), FireAndForget)

    def test_family_lookup(self):
        assert FAMILY_BY_NAME["Kelihos"] is KELIHOS
        assert len(FAMILIES) == 4

    def test_global_spam_share(self):
        assert global_spam_share(KELIHOS) == pytest.approx(0.3633 * 0.76)

    def test_build_bot_wires_family_traits(self):
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        bot = KELIHOS.build_bot(
            internet=testbed.internet,
            resolver=testbed.resolver,
            scheduler=testbed.scheduler,
            source_address=testbed.allocate_bot_address(),
            rng=RandomStream(1),
        )
        assert bot.mx_behavior is MXBehavior.PRIMARY_ONLY
        assert not isinstance(bot.retry_model, FireAndForget)


class TestSampleRegistry:
    def test_eleven_samples_total(self):
        samples = collect_samples()
        assert len(samples) == 11
        assert TOTAL_SAMPLE_COUNT == 11

    def test_per_family_counts_match_table1(self):
        assert len(samples_of("Cutwail")) == 3
        assert len(samples_of("Kelihos")) == 6
        assert len(samples_of("Darkmailer")) == 1
        assert len(samples_of("Darkmailer(v3)")) == 1

    def test_hashes_unique_and_stable(self):
        hashes = [s.sha256 for s in collect_samples()]
        assert len(set(hashes)) == 11
        again = [s.sha256 for s in collect_samples()]
        assert hashes == again

    def test_labels(self):
        labels = [s.label for s in collect_samples()]
        assert "Kelihos/sample6" in labels
        assert "Cutwail/sample1" in labels


class TestCampaigns:
    def test_recipient_list(self):
        recipients = make_recipient_list("victim.example", 3)
        assert recipients == [
            "victim1@victim.example",
            "victim2@victim.example",
            "victim3@victim.example",
        ]

    def test_recipient_list_validation(self):
        with pytest.raises(ValueError):
            make_recipient_list("victim.example", 0)

    def test_campaign_jobs_tagged(self):
        campaign = SpamCampaign(
            sender="spam@bot.example",
            recipients=make_recipient_list("victim.example", 3),
        )
        jobs = campaign.single_recipient_jobs()
        assert len(jobs) == 3
        assert all(j.campaign_id == campaign.campaign_id for j in jobs)
        assert all(len(j.recipients) == 1 for j in jobs)

    def test_jobs_copy_the_template_in_recipient_order(self):
        campaign = SpamCampaign(
            sender="spam@bot.example",
            recipients=make_recipient_list("victim.example", 3),
            subject="s",
            body="b",
        )
        jobs = campaign.single_recipient_jobs()
        assert [job.recipients for job in jobs] == [[r] for r in campaign.recipients]
        assert {(job.sender, job.subject, job.body) for job in jobs} == {
            ("spam@bot.example", "s", "b")
        }
        assert len({job.message_id for job in jobs}) == 3

    def test_jobs_dealt_round_robin_over_bots(self):
        # How the experiments drive a fleet: one job per recipient, dealt
        # out in turn; each bot makes one task per job it is given.
        testbed = Testbed(TestbedConfig(defense=Defense.NONE))
        bots = [
            CUTWAIL.build_bot(
                internet=testbed.internet,
                resolver=testbed.resolver,
                scheduler=testbed.scheduler,
                source_address=testbed.allocate_bot_address(),
                rng=RandomStream(seed),
            )
            for seed in range(3)
        ]
        campaign = SpamCampaign(
            sender="spam@bot.example",
            recipients=make_recipient_list("victim.example", 7),
        )
        for index, job in enumerate(campaign.single_recipient_jobs()):
            bots[index % len(bots)].assign(job)
        assert [len(bot.tasks) for bot in bots] == [3, 2, 2]
        assert [task.recipient for task in bots[0].tasks] == [
            "victim1@victim.example",
            "victim4@victim.example",
            "victim7@victim.example",
        ]
        dealt = sorted(task.recipient for bot in bots for task in bot.tasks)
        assert dealt == sorted(campaign.recipients)

    def test_campaign_canonicalizes_its_addresses(self):
        campaign = SpamCampaign(
            sender="Spam@Bot.EXAMPLE", recipients=["Victim1@Victim.Example"]
        )
        assert campaign.sender == "Spam@bot.example"
        assert campaign.recipients == ["Victim1@victim.example"]
        with pytest.raises(AddressSyntaxError):
            SpamCampaign(sender="spam@bot.example", recipients=["no-domain"])

    def test_campaign_ids_unique(self):
        a = SpamCampaign(sender="s@x.example", recipients=["r@y.example"])
        b = SpamCampaign(sender="s@x.example", recipients=["r@y.example"])
        assert a.campaign_id != b.campaign_id

    def test_campaign_needs_recipients(self):
        with pytest.raises(ValueError):
            SpamCampaign(sender="s@x.example", recipients=[])
