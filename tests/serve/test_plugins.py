"""Plugin-chain tests: caching, greylisting mapping, throttle."""

import pytest

from repro.greylist.policy import GreylistAction, GreylistPolicy
from repro.greylist.whitelist import Whitelist
from repro.net.address import IPv4Address
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

    def test_len_counts_live_entries(self):
        cache = DecisionCache(maxsize=2)
        assert len(cache) == 0
        for key in ("a", "b", "c"):
            cache.put((key,), key)
        assert len(cache) == 2


class TestCachedWhitelist:
    def test_memoizes_matches(self):
        inner = Whitelist(["b.example"])
        cached = CachedWhitelist(inner, DecisionCache(), ("fp",))
        client = IPv4Address.parse("10.1.2.3")
        assert cached.matches(client, "a@b.example") is True
        assert cached.matches(client, "a@b.example") is True
        assert cached.cache.hits == 1
        assert cached.cache.misses == 1

    def test_distinct_fingerprints_do_not_share_verdicts(self):
        permissive = Whitelist(["y.example"])
        strict = Whitelist()
        shared = DecisionCache()
        a = CachedWhitelist(permissive, shared, ("a",))
        b = CachedWhitelist(strict, shared, ("b",))
        client = IPv4Address.parse("10.1.2.3")
        assert a.matches(client, "x@y.example") is True
        assert b.matches(client, "x@y.example") is False

    def test_verdicts_are_keyed_by_client_and_sender(self):
        cached = CachedWhitelist(Whitelist(["b.example"]), DecisionCache(), ("fp",))
        first = IPv4Address.parse("10.1.2.3")
        second = IPv4Address.parse("10.1.2.4")
        assert cached.matches(first, "a@b.example") is True
        assert cached.matches(second, "a@b.example") is True
        assert cached.matches(first, "a@c.example") is False
        assert (cached.cache.hits, cached.cache.misses) == (0, 3)
        assert cached.matches(first, "a@c.example") is False
        assert cached.cache.hits == 1


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

    @pytest.mark.parametrize("missing", ["sender", "recipient"])
    def test_missing_envelope_address_fails_open(self, missing):
        # Postfix sends an empty sender for bounces (the null reverse
        # path); without a full triplet the plugin holds no opinion.
        _, policy, plugin = self.make()
        assert plugin.check(rcpt_request(**{missing: ""})) == ACTION_DUNNO
        assert plugin.ignored == 1
        assert policy.events == []
        assert policy.store.size == 0

    def test_whitelist_is_memoized_only_with_a_cache(self):
        _, policy, _ = self.make()
        assert type(policy.whitelist) is Whitelist
        _, policy, _ = self.make(cache=DecisionCache())
        assert isinstance(policy.whitelist, CachedWhitelist)
        assert policy.whitelist.matches(
            IPv4Address.parse("10.1.2.3"), "spam@bot.example"
        ) is False

    def test_whitelisted_sender_is_dunno_and_cached(self):
        clock = Clock()
        whitelist = Whitelist(["bot.example"])
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

    def test_unparseable_client_is_never_throttled(self):
        plugin = ThrottlePlugin(Clock(), max_messages=1, period=60.0)
        for _ in range(3):
            assert plugin.check(rcpt_request(client="unknown")) == ACTION_DUNNO
        assert plugin.throttled == 0

    def test_deferral_names_the_limit(self):
        plugin = ThrottlePlugin(Clock(), max_messages=1, period=90.0)
        plugin.check(rcpt_request())
        assert plugin.check(rcpt_request()) == (
            "DEFER_IF_PERMIT 450 4.7.1 Rate limit of 1 messages per 90s "
            "exceeded, retry later"
        )
        assert plugin.fingerprint() == ("throttle", 1, 90.0)


class _Recorder(PolicyPlugin):
    name = "recorder"

    def __init__(self, action):
        self.action = action
        self.calls = 0

    def check(self, request):
        self.calls += 1
        return self.action


class TestPolicyPlugin:
    def test_check_must_be_overridden(self):
        with pytest.raises(NotImplementedError):
            PolicyPlugin().check(rcpt_request())

    def test_close_flushes_by_default(self):
        class Buffered(PolicyPlugin):
            flushes = 0

            def flush(self):
                self.flushes += 1

        plugin = Buffered()
        plugin.close()
        assert plugin.flushes == 1
        assert plugin.fingerprint() == ("abstract",)


def test_client_address_memo_is_bounded(monkeypatch):
    from repro.serve import plugins

    memo = {}
    monkeypatch.setattr(plugins, "_CLIENT_PARSE_CACHE", memo)
    monkeypatch.setattr(plugins, "_CLIENT_PARSE_CACHE_MAX", 2)
    chain = PluginChain([ThrottlePlugin(Clock(), max_messages=5)])
    for client in ("10.0.0.1", "10.0.0.2", "bogus"):
        chain.decide(rcpt_request(client=client))
    # The third distinct address found the memo full and reset it.
    assert memo == {"bogus": None}
    chain.decide(rcpt_request(client="10.0.0.1"))
    assert memo == {"bogus": None, "10.0.0.1": IPv4Address.parse("10.0.0.1")}


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
