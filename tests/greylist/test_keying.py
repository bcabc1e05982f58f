"""Unit tests for greylisting key strategies."""

import pytest

from repro.greylist.keying import KeyStrategy, derive_key
from repro.greylist.policy import GreylistPolicy
from repro.net.address import IPv4Address
from repro.sim.clock import Clock

CLIENT = IPv4Address.parse("198.51.100.7")
NEIGHBOR = IPv4Address.parse("198.51.100.200")
FAR = IPv4Address.parse("203.0.113.1")


class TestDeriveKey:
    def test_full_triplet_distinguishes_everything(self):
        a = derive_key(KeyStrategy.FULL_TRIPLET, CLIENT, "s@x.net", "r@y.net")
        assert a != derive_key(
            KeyStrategy.FULL_TRIPLET, CLIENT, "s2@x.net", "r@y.net"
        )
        assert a != derive_key(
            KeyStrategy.FULL_TRIPLET, NEIGHBOR, "s@x.net", "r@y.net"
        )

    def test_client_net_merges_neighbors(self):
        a = derive_key(
            KeyStrategy.CLIENT_NET_TRIPLET, CLIENT, "s@x.net", "r@y.net"
        )
        b = derive_key(
            KeyStrategy.CLIENT_NET_TRIPLET, NEIGHBOR, "s@x.net", "r@y.net"
        )
        assert a == b
        assert a != derive_key(
            KeyStrategy.CLIENT_NET_TRIPLET, FAR, "s@x.net", "r@y.net"
        )

    def test_client_net_keys_on_the_slash24(self):
        def key(text):
            return derive_key(
                KeyStrategy.CLIENT_NET_TRIPLET,
                IPv4Address.parse(text),
                "s@x.net",
                "r@y.net",
            )

        assert key("198.51.100.0") == key("198.51.100.255")
        assert key("198.51.100.255") != key("198.51.101.0")
        assert key("198.51.100.7").client == IPv4Address.parse("198.51.100.0")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            derive_key("full-triplet", CLIENT, "s@x.net", "r@y.net")

    def test_sender_domain_merges_localparts(self):
        a = derive_key(KeyStrategy.SENDER_DOMAIN, CLIENT, "s1@x.net", "r@y.net")
        b = derive_key(KeyStrategy.SENDER_DOMAIN, CLIENT, "s2@x.net", "r@y.net")
        assert a == b
        assert a != derive_key(
            KeyStrategy.SENDER_DOMAIN, CLIENT, "s1@other.net", "r@y.net"
        )

    def test_client_only_merges_everything_but_ip(self):
        a = derive_key(KeyStrategy.CLIENT_ONLY, CLIENT, "s1@x.net", "r1@y.net")
        b = derive_key(KeyStrategy.CLIENT_ONLY, CLIENT, "s2@z.net", "r2@w.net")
        assert a == b
        assert a != derive_key(
            KeyStrategy.CLIENT_ONLY, NEIGHBOR, "s1@x.net", "r1@y.net"
        )


class TestPolicyWithStrategies:
    def test_sender_domain_policy_passes_rotated_localparts(self):
        clock = Clock()
        policy = GreylistPolicy(
            clock=clock, delay=300, key_strategy=KeyStrategy.SENDER_DOMAIN
        )
        assert not policy.on_rcpt_to(CLIENT, "a@list.net", "r@y.net").accept
        clock.advance_by(301)
        # Different localpart, same domain: matches the history.
        assert policy.on_rcpt_to(CLIENT, "b@list.net", "r@y.net").accept

    def test_client_only_policy_whitelists_the_ip(self):
        clock = Clock()
        policy = GreylistPolicy(
            clock=clock, delay=300, key_strategy=KeyStrategy.CLIENT_ONLY
        )
        policy.on_rcpt_to(CLIENT, "a@x.net", "r@y.net")
        clock.advance_by(301)
        assert policy.on_rcpt_to(CLIENT, "b@z.net", "q@w.net").accept
        # A third, totally unrelated message from the same IP: instant.
        assert policy.on_rcpt_to(CLIENT, "c@v.net", "p@u.net").accept


def retry_after_delay(strategy, first, retry):
    """Whether ``retry`` passes when it comes after ``first`` was deferred.

    Each is ``(client, sender, recipient)``; the retry comes once the
    delay has elapsed, as a compliant MTA's would.
    """
    clock = Clock()
    policy = GreylistPolicy(clock=clock, delay=300, key_strategy=strategy)
    assert not policy.on_rcpt_to(*first).accept
    clock.advance_by(301)
    return policy.on_rcpt_to(*retry).accept


class TestEvasionByStrategy:
    """Which rotations a bot may make between tries and still get through."""

    @pytest.mark.parametrize(
        "strategy, passes",
        [
            (KeyStrategy.FULL_TRIPLET, False),
            (KeyStrategy.CLIENT_NET_TRIPLET, False),
            (KeyStrategy.SENDER_DOMAIN, True),
            (KeyStrategy.CLIENT_ONLY, True),
        ],
    )
    def test_sender_localpart_rotation(self, strategy, passes):
        # A new localpart per try, as spam tools do: only strategies that
        # ignore the localpart let the second try through.
        assert retry_after_delay(
            strategy,
            (CLIENT, "s1@x.net", "r@y.net"),
            (CLIENT, "s2@x.net", "r@y.net"),
        ) is passes

    @pytest.mark.parametrize(
        "strategy, passes",
        [
            (KeyStrategy.FULL_TRIPLET, False),
            (KeyStrategy.CLIENT_NET_TRIPLET, True),
            (KeyStrategy.SENDER_DOMAIN, False),
            (KeyStrategy.CLIENT_ONLY, False),
        ],
    )
    def test_retry_from_a_neighbouring_address(self, strategy, passes):
        # A sender farm retrying from another address in the same /24:
        # only the /24 key treats it as the same client.
        assert retry_after_delay(
            strategy,
            (CLIENT, "s@x.net", "r@y.net"),
            (NEIGHBOR, "s@x.net", "r@y.net"),
        ) is passes
