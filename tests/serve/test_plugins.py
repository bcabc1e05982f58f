"""Plugin-chain tests: caching, greylisting mapping, throttle."""

import pytest

from repro.greylist.policy import GreylistAction, GreylistPolicy
from repro.greylist.whitelist import Whitelist
from repro.net.address import IPv4Address, IPv4Network
from repro.serve.plugins import (
    MISS,
    CachedWhitelist,
    DecisionCache,
    GreylistingPlugin,
    PluginChain,
    PolicyPlugin,
    ThrottlePlugin,
)
from repro.serve.protocol import (
    ACTION_DUNNO,
    ACTION_OK,
    PolicyRequest,
)
from repro.sim.clock import Clock


def rcpt_request(
    client="10.1.2.3",
    sender="spam@bot.example",
    recipient="victim@victim.example",
    **extra,
):
    attrs = {
        "request": "smtpd_access_policy",
        "protocol_state": "RCPT",
        "client_address": client,
        "sender": sender,
        "recipient": recipient,
    }
    attrs.update(extra)
    return PolicyRequest(attrs)


class TestDecisionCache:
    def test_get_miss_then_hit(self):
        cache = DecisionCache(maxsize=4)
        key = ("k",)
        assert cache.get(key) is MISS
        cache.put(key, "verdict")
        assert cache.get(key) == "verdict"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_evicts_oldest(self):
        cache = DecisionCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))  # refresh a
        cache.put(("c",), 3)  # evicts b
        assert cache.get(("b",)) is MISS
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3

    def test_none_is_a_cacheable_verdict(self):
        cache = DecisionCache()
        cache.put(("k",), None)
        assert cache.get(("k",)) is None

    def test_size_validation(self):
        with pytest.raises(ValueError):
            DecisionCache(maxsize=0)


class TestCachedWhitelist:
    def test_memoizes_matches(self):
        inner = Whitelist()
        inner.add_cidr("10.0.0.0/8")
        cached = CachedWhitelist(inner, DecisionCache(), ("fp",))
        client = IPv4Address.parse("10.1.2.3")
        assert cached.matches(client, "a@b.example") is True
        assert cached.matches(client, "a@b.example") is True
        assert cached.cache.hits == 1
        assert cached.cache.misses == 1

    def test_helo_probes_bypass_cache(self):
        inner = Whitelist()
        cached = CachedWhitelist(inner, DecisionCache(), ("fp",))
        client = IPv4Address.parse("10.1.2.3")
        cached.matches(client, "a@b.example", "helo.example")
        assert cached.cache.hits == 0
        assert cached.cache.misses == 0

    def test_distinct_fingerprints_do_not_share_verdicts(self):
        permissive = Whitelist()
        permissive.add_cidr("10.0.0.0/8")
        strict = Whitelist()
        shared = DecisionCache()
        a = CachedWhitelist(permissive, shared, ("a",))
        b = CachedWhitelist(strict, shared, ("b",))
        client = IPv4Address.parse("10.1.2.3")
        assert a.matches(client, "x@y.example") is True
        assert b.matches(client, "x@y.example") is False

    def test_attribute_fallthrough(self):
        inner = Whitelist()
        cached = CachedWhitelist(inner, DecisionCache(), ())
        assert cached.add_cidr == inner.add_cidr

    def test_update_invalidates_cached_negative_verdict(self):
        """The shared-state regression guard: whitelisting a client that
        already has a cached "not whitelisted" verdict must take effect
        on the very next probe, not whenever the LRU happens to evict."""
        inner = Whitelist()
        cached = CachedWhitelist(inner, DecisionCache(), ("fp",))
        client = IPv4Address.parse("10.1.2.3")
        assert cached.matches(client, "a@b.example") is False
        assert cached.matches(client, "a@b.example") is False  # cached
        inner.add_cidr("10.0.0.0/8")
        assert cached.matches(client, "a@b.example") is True

    def test_update_invalidates_cached_positive_verdict(self):
        # The counter also advances when entries are merged *in*, so a
        # stale True can never outlive the list it was derived from.
        inner = Whitelist()
        inner.add_sender_domain("b.example")
        cached = CachedWhitelist(inner, DecisionCache(), ("fp",))
        client = IPv4Address.parse("10.1.2.3")
        assert cached.matches(client, "a@b.example") is True
        fresh = Whitelist()
        fresh.add_cidr("192.0.2.0/24")
        generation_before = inner.generation
        inner.update(fresh)
        assert inner.generation > generation_before
        # Same verdict, but re-derived from the merged list (a miss).
        misses_before = cached.cache.misses
        assert cached.matches(client, "a@b.example") is True
        assert cached.cache.misses == misses_before + 1

    def test_every_mutator_bumps_generation(self):
        inner = Whitelist()
        observed = [inner.generation]
        inner.add_address(IPv4Address.parse("10.1.2.3"))
        observed.append(inner.generation)
        inner.add_network(IPv4Network.parse("10.0.0.0/8"))
        observed.append(inner.generation)
        inner.add_cidr("192.0.2.0/24")
        observed.append(inner.generation)
        inner.add_sender_domain("b.example")
        observed.append(inner.generation)
        inner.add_helo_suffix("mail.example")
        observed.append(inner.generation)
        inner.update(Whitelist())
        observed.append(inner.generation)
        assert observed == sorted(set(observed)), observed


class TestGreylistingPlugin:
    def make(self, cache=None):
        clock = Clock()
        policy = GreylistPolicy(clock=clock, delay=300.0)
        return clock, policy, GreylistingPlugin(policy, cache=cache)

    def test_new_triplet_defers_with_postgrey_reply(self):
        _, _, plugin = self.make()
        action = plugin.check(rcpt_request())
        assert action.startswith("DEFER_IF_PERMIT 450 ")

    def test_retry_after_delay_is_dunno(self):
        clock, _, plugin = self.make()
        plugin.check(rcpt_request())
        clock.advance_by(301.0)
        assert plugin.check(rcpt_request()) == ACTION_DUNNO

    def test_event_stream_records_served_decisions(self):
        clock, policy, plugin = self.make()
        plugin.check(rcpt_request())
        clock.advance_by(301.0)
        plugin.check(rcpt_request())
        assert [e.action for e in policy.events] == [
            GreylistAction.GREYLISTED_NEW,
            GreylistAction.PASSED,
        ]

    def test_missing_client_fails_open(self):
        _, _, plugin = self.make()
        assert plugin.check(rcpt_request(client="")) == ACTION_DUNNO
        assert plugin.ignored == 1

    def test_unparseable_sender_fails_open(self):
        _, _, plugin = self.make()
        assert plugin.check(rcpt_request(sender="no-at-sign")) == ACTION_DUNNO
        assert plugin.ignored == 1

    def test_whitelisted_client_is_dunno_and_cached(self):
        clock = Clock()
        whitelist = Whitelist()
        whitelist.add_cidr("10.0.0.0/8")
        policy = GreylistPolicy(clock=clock, delay=300.0, whitelist=whitelist)
        cache = DecisionCache()
        plugin = GreylistingPlugin(policy, cache=cache)
        assert plugin.check(rcpt_request()) == ACTION_DUNNO
        assert plugin.check(rcpt_request()) == ACTION_DUNNO
        assert cache.hits == 1
        # Cached whitelist verdicts still log their events — caching is
        # invisible in the stream the equivalence suite compares.
        assert [e.action for e in policy.events] == [
            GreylistAction.WHITELISTED,
            GreylistAction.WHITELISTED,
        ]


class TestThrottlePlugin:
    def test_defers_excess_within_window(self):
        clock = Clock()
        plugin = ThrottlePlugin(clock, max_messages=2, period=60.0)
        assert plugin.check(rcpt_request()) == ACTION_DUNNO
        assert plugin.check(rcpt_request()) == ACTION_DUNNO
        assert plugin.check(rcpt_request()).startswith("DEFER_IF_PERMIT 450")
        assert plugin.throttled == 1

    def test_window_slides(self):
        clock = Clock()
        plugin = ThrottlePlugin(clock, max_messages=2, period=60.0)
        plugin.check(rcpt_request())
        plugin.check(rcpt_request())
        clock.advance_by(61.0)
        assert plugin.check(rcpt_request()) == ACTION_DUNNO

    def test_clients_throttle_independently(self):
        clock = Clock()
        plugin = ThrottlePlugin(clock, max_messages=1, period=60.0)
        assert plugin.check(rcpt_request(client="10.0.0.1")) == ACTION_DUNNO
        assert plugin.check(rcpt_request(client="10.0.0.2")) == ACTION_DUNNO

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ThrottlePlugin(Clock(), max_messages=0)
        with pytest.raises(ValueError):
            ThrottlePlugin(Clock(), period=0.0)


class _Recorder(PolicyPlugin):
    name = "recorder"

    def __init__(self, action):
        self.action = action
        self.calls = 0

    def check(self, request):
        self.calls += 1
        return self.action


class TestPluginChain:
    def test_first_non_dunno_wins(self):
        first = _Recorder(ACTION_DUNNO)
        second = _Recorder("REJECT 554 no")
        third = _Recorder(ACTION_OK)
        chain = PluginChain([first, second, third])
        assert chain.decide(rcpt_request()) == "REJECT 554 no"
        assert (first.calls, second.calls, third.calls) == (1, 1, 0)

    def test_all_dunno_ends_dunno(self):
        chain = PluginChain([_Recorder(ACTION_DUNNO)])
        assert chain.decide(rcpt_request()) == ACTION_DUNNO

    def test_non_access_policy_request_short_circuits(self):
        plugin = _Recorder(ACTION_OK)
        chain = PluginChain([plugin])
        request = rcpt_request()
        request.attrs["request"] = "junk"
        assert chain.decide(request) == ACTION_DUNNO
        assert plugin.calls == 0

    def test_non_rcpt_state_short_circuits(self):
        plugin = _Recorder(ACTION_OK)
        chain = PluginChain([plugin])
        assert (
            chain.decide(rcpt_request(protocol_state="DATA")) == ACTION_DUNNO
        )
        assert plugin.calls == 0

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            PluginChain([])

    def test_fingerprint_concatenates_plugins(self):
        chain = PluginChain([_Recorder(ACTION_DUNNO)])
        assert chain.fingerprint() == (("recorder",),)
