"""Unit tests for the Postgrey-compatible greylisting policy."""

import pytest

from repro.greylist.keying import KeyStrategy
from repro.greylist.policy import GreylistAction, GreylistPolicy
from repro.greylist.whitelist import Whitelist, default_provider_whitelist
from repro.net.address import IPv4Address
from repro.sim.clock import Clock

CLIENT = IPv4Address.parse("198.51.100.7")
OTHER = IPv4Address.parse("198.51.100.8")
SENDER = "alice@sender.example"
RCPT = "user@victim.example"


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def policy(clock):
    return GreylistPolicy(clock=clock, delay=300.0)


class TestCoreSemantics:
    def test_first_attempt_deferred(self, policy):
        decision = policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        assert not decision.accept
        assert decision.reply.code == 450
        assert policy.events[-1].action is GreylistAction.GREYLISTED_NEW

    def test_retry_before_threshold_deferred(self, clock, policy):
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(100)
        decision = policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        assert not decision.accept
        assert policy.events[-1].action is GreylistAction.GREYLISTED_EARLY

    def test_retry_after_threshold_passes(self, clock, policy):
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(301)
        decision = policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        assert decision.accept
        assert policy.events[-1].action is GreylistAction.PASSED

    def test_early_retry_reply_names_the_remaining_wait(self, clock, policy):
        first = policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        assert first.reply.text.endswith("retry in 300s")
        clock.advance_by(120)
        early = policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        assert early.reply.code == 450
        assert early.reply.text.endswith("retry in 180s")

    def test_exact_threshold_passes(self, clock, policy):
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(300)
        assert policy.on_rcpt_to(CLIENT, SENDER, RCPT).accept

    def test_passed_triplet_stays_whitelisted(self, clock, policy):
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(301)
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(10)
        decision = policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        assert decision.accept
        assert policy.events[-1].action is GreylistAction.PASSED_KNOWN

    def test_zero_delay_still_requires_second_attempt(self, clock):
        policy = GreylistPolicy(clock=clock, delay=0.0)
        assert not policy.on_rcpt_to(CLIENT, SENDER, RCPT).accept
        clock.advance_by(1)
        assert policy.on_rcpt_to(CLIENT, SENDER, RCPT).accept

    def test_different_ip_restarts_triplet(self, clock, policy):
        # The Table III failure mode: provider farms rotating IPs.
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(301)
        decision = policy.on_rcpt_to(OTHER, SENDER, RCPT)
        assert not decision.accept
        assert policy.events[-1].action is GreylistAction.GREYLISTED_NEW

    def test_different_sender_restarts_triplet(self, clock, policy):
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(301)
        assert not policy.on_rcpt_to(CLIENT, "other@sender.example", RCPT).accept

    def test_message_content_is_irrelevant(self, clock, policy):
        # Same triplet, conceptually different messages: passes (the §V.A
        # confound the paper had to rule out).
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(301)
        assert policy.on_rcpt_to(CLIENT, SENDER, RCPT).accept

    def test_negative_delay_rejected(self, clock):
        with pytest.raises(ValueError):
            GreylistPolicy(clock=clock, delay=-1)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, clock, delay):
        # These used to pass, then die at the first deferral.
        with pytest.raises(ValueError, match="delay must be finite and non-negative"):
            GreylistPolicy(clock=clock, delay=delay)


class TestWhitelisting:
    def test_static_whitelist_bypasses(self, clock):
        whitelist = Whitelist(["sender.example"])
        policy = GreylistPolicy(clock=clock, delay=300, whitelist=whitelist)
        decision = policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        assert decision.accept
        assert policy.events[-1].action is GreylistAction.WHITELISTED

    def test_whitelisted_attempts_leave_the_store_untouched(self, clock):
        policy = GreylistPolicy(
            clock=clock, delay=300, whitelist=Whitelist(["sender.example"])
        )
        for _ in range(3):
            assert policy.on_rcpt_to(CLIENT, SENDER, RCPT).accept
        assert policy.store.size == 0
        assert [(e.attempt_number, e.triplet_age) for e in policy.events] == [
            (0, 0.0)
        ] * 3
        assert policy.deferrals() == []
        assert policy.passes() == []

    def test_sender_domain_whitelist(self, clock):
        policy = GreylistPolicy(
            clock=clock, delay=300, whitelist=default_provider_whitelist()
        )
        assert policy.on_rcpt_to(CLIENT, "someone@gmail.com", RCPT).accept

    def test_passed_triplets_do_not_whitelist_the_client(self, clock, policy):
        for index in range(5):
            sender = f"s{index}@x.example"
            policy.on_rcpt_to(CLIENT, sender, RCPT)
            clock.advance_by(301)
            policy.on_rcpt_to(CLIENT, sender, RCPT)
        assert not policy.on_rcpt_to(CLIENT, "fresh@x.example", RCPT).accept


class TestNetworkPrefixKeying:
    def test_slash24_keying_tolerates_pool_rotation(self, clock):
        policy = GreylistPolicy(
            clock=clock, delay=300, key_strategy=KeyStrategy.CLIENT_NET_TRIPLET
        )
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(301)
        # Different IP in the same /24 matches the same entry.
        assert policy.on_rcpt_to(OTHER, SENDER, RCPT).accept

    def test_slash24_keying_still_blocks_other_networks(self, clock):
        policy = GreylistPolicy(
            clock=clock, delay=300, key_strategy=KeyStrategy.CLIENT_NET_TRIPLET
        )
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(301)
        far = IPv4Address.parse("203.0.113.1")
        assert not policy.on_rcpt_to(far, SENDER, RCPT).accept


class TestFingerprint:
    def test_names_every_reply_knob(self, clock):
        base = GreylistPolicy(clock=clock, delay=300.0)
        assert base.fingerprint() == ("greylist", 300.0, "full-triplet")
        assert GreylistPolicy(clock=Clock(), delay=300.0).fingerprint() == (
            base.fingerprint()
        )
        variants = [
            GreylistPolicy(clock=clock, delay=600.0),
            GreylistPolicy(
                clock=clock,
                delay=300.0,
                key_strategy=KeyStrategy.CLIENT_NET_TRIPLET,
            ),
        ]
        for variant in variants:
            assert variant.fingerprint() != base.fingerprint()

    def test_distinct_per_key_strategy(self, clock):
        fingerprints = {
            GreylistPolicy(clock=clock, key_strategy=strategy).fingerprint()
            for strategy in KeyStrategy
        }
        assert len(fingerprints) == len(KeyStrategy)

    def test_store_contents_leave_it_unchanged(self, clock, policy):
        before = policy.fingerprint()
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(301)
        assert policy.on_rcpt_to(CLIENT, SENDER, RCPT).accept
        assert policy.fingerprint() == before


class TestIntrospection:
    def test_deferrals_and_passes(self, clock, policy):
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        clock.advance_by(301)
        policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        assert len(policy.deferrals()) == 1
        assert len(policy.passes()) == 1

    def test_events_log_attempt_number_and_triplet_age(self, clock, policy):
        for step in (0, 100, 250, 50):
            clock.advance_by(step)
            policy.on_rcpt_to(CLIENT, SENDER, RCPT)
        assert [
            (e.timestamp, e.action, e.attempt_number, e.triplet_age)
            for e in policy.events
        ] == [
            (0.0, GreylistAction.GREYLISTED_NEW, 1, 0.0),
            (100.0, GreylistAction.GREYLISTED_EARLY, 2, 100.0),
            (350.0, GreylistAction.PASSED, 3, 350.0),
            (400.0, GreylistAction.PASSED_KNOWN, 4, 400.0),
        ]
        assert [e.deferred for e in policy.events] == [True, True, False, False]
        assert repr(policy) == "GreylistPolicy(delay=300.0, events=4, store=1)"
