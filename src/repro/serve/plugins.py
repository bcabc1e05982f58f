"""Pluggable policy chain for the serving daemon (iRedAPD's shape).

iRedAPD answers each Postfix policy request by walking an ordered list
of plugins (``wblist``, ``throttle``, ``greylisting``, ...); the first
plugin returning anything other than ``DUNNO`` decides, and a chain
that stays silent ends in ``DUNNO`` (Postfix then applies its own
restrictions).  This module reproduces that architecture on top of the
*simulator's* policy core: :class:`GreylistingPlugin` wraps the very
:class:`~repro.greylist.policy.GreylistPolicy` the experiments run, so
the served and simulated paths share one decision function (the
equivalence suite replays identical bot traffic through both and
asserts identical :class:`~repro.greylist.policy.GreylistEvent`
streams and triplet-store state).

Hot-path caching: whitelist verdicts are *stable for the lifetime of a
serving process* (a whitelist never changes once a policy holds it),
so :class:`DecisionCache` memoizes them in an LRU keyed by the owning
policy's fingerprint plus the (client, sender) pair.  The policy never
probes an empty whitelist, so a daemon with none makes no cache lookups
at all.  Greylisting decisions are deliberately never cached — they
depend on triplet state and virtual time — and a cached whitelist
verdict still logs its ``GreylistEvent``, so caching is invisible in the
event stream.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from ..greylist.policy import GreylistPolicy
from ..greylist.whitelist import Whitelist
from ..net.address import IPv4Address
from ..sim.clock import Clock
from ..smtp.message import validate_address
from .protocol import (
    ACTION_DEFER_IF_PERMIT,
    ACTION_DUNNO,
    SMTPD_ACCESS_POLICY,
    PolicyRequest,
)

#: Default size of the serving decision LRU (entries, not bytes).
DECISION_CACHE_SIZE = 65536


class DecisionCache:
    """LRU of stable per-(client, sender) verdicts.

    Keys are ``(policy fingerprint, client, sender)`` so two plugins (or
    a reconfigured plugin) can share one cache without ever serving each
    other's verdicts.  Only verdicts that cannot change while the daemon
    runs may be stored here — the caller guarantees that.
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries")

    def __init__(self, maxsize: int = DECISION_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("cache size must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[Hashable, ...], object]" = (
            OrderedDict()
        )

    def get(self, key: Tuple[Hashable, ...]) -> object:
        """Return the cached verdict or the sentinel :data:`MISS`."""
        entry = self._entries.get(key, MISS)
        if entry is MISS:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Tuple[Hashable, ...], verdict: object) -> None:
        entries = self._entries
        entries[key] = verdict
        entries.move_to_end(key)
        if len(entries) > self.maxsize:
            entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


#: Cache-miss sentinel (``None`` is a legal verdict).
MISS = object()


class CachedWhitelist:
    """Memoizing façade over a :class:`Whitelist`.

    Same ``empty`` and ``matches`` interface the greylist policy reads,
    but the (client, sender) verdict is served from the
    :class:`DecisionCache` after the first lookup.  A whitelist is frozen
    once built, so a cached verdict never goes stale.
    """

    __slots__ = ("inner", "cache", "_fingerprint")

    def __init__(
        self,
        inner: Whitelist,
        cache: DecisionCache,
        fingerprint: Tuple[Hashable, ...],
    ) -> None:
        self.inner = inner
        self.cache = cache
        self._fingerprint = ("whitelist",) + fingerprint

    @property
    def empty(self) -> bool:
        """Whether the wrapped whitelist lists nothing (then the policy
        never asks, and the cache sees no lookup)."""
        return self.inner.empty

    def matches(self, client: IPv4Address, sender: str) -> bool:
        key = self._fingerprint + (client.value, sender)
        verdict = self.cache.get(key)
        if verdict is MISS:
            verdict = self.inner.matches(client, sender)
            self.cache.put(key, verdict)
        return bool(verdict)


class PolicyPlugin:
    """One link of the serving chain.

    ``check`` returns a Postfix action string; :data:`ACTION_DUNNO`
    means "no opinion, ask the next plugin".
    """

    name = "abstract"

    def check(self, request: PolicyRequest) -> str:
        raise NotImplementedError

    def fingerprint(self) -> Tuple[Hashable, ...]:
        """Decision-function identity (cache keys, bench labels)."""
        return (self.name,)

    def flush(self) -> None:
        """Make buffered state durable (called off the hot path)."""

    def close(self) -> None:
        self.flush()


#: Memo of parsed client addresses (text -> address).  Real MTAs retry
#: from the same addresses all day; parsing dotted-quad text is ~10x a
#: dict hit.  Bounded by wholesale reset — eviction order is irrelevant
#: for a pure function's memo, and reset keeps the hot path branch-free.
_CLIENT_PARSE_CACHE: Dict[str, Optional[IPv4Address]] = {}  # repro: noqa SHM001 - pure-function memo; per-process divergence is harmless
_CLIENT_PARSE_CACHE_MAX = 65536


def _parse_client(request: PolicyRequest) -> Optional[IPv4Address]:
    text = request.client_address
    try:
        return _CLIENT_PARSE_CACHE[text]
    except KeyError:
        pass
    try:
        client: Optional[IPv4Address] = IPv4Address.parse(text)
    except ValueError:
        client = None
    if len(_CLIENT_PARSE_CACHE) >= _CLIENT_PARSE_CACHE_MAX:
        _CLIENT_PARSE_CACHE.clear()
    _CLIENT_PARSE_CACHE[text] = client
    return client


class GreylistingPlugin(PolicyPlugin):
    """The greylisting link: the simulator's policy core, served live.

    Decision mapping (iRedAPD convention): an *accepted* attempt returns
    ``DUNNO`` so later plugins may still reject; a greylisted attempt
    returns ``DEFER_IF_PERMIT`` carrying the Postgrey 450 reply text.
    Requests missing the triplet (no client/sender/recipient, or a
    non-RCPT protocol state we were not asked about) fail open with
    ``DUNNO`` — a policy daemon must degrade to "no opinion", never
    block mail on its own malfunction.  This is where served envelope
    addresses enter the program, so they are validated here, once.
    """

    name = "greylisting"

    def __init__(
        self,
        policy: GreylistPolicy,
        cache: Optional[DecisionCache] = None,
    ) -> None:
        self.policy = policy
        self.ignored = 0
        if cache is not None and policy.whitelist is not None:
            policy.whitelist = CachedWhitelist(  # type: ignore[assignment]
                policy.whitelist, cache, self.fingerprint()
            )

    def fingerprint(self) -> Tuple[Hashable, ...]:
        return self.policy.fingerprint()

    def check(self, request: PolicyRequest) -> str:
        client = _parse_client(request)
        if client is None:
            self.ignored += 1
            return ACTION_DUNNO
        try:
            decision = self.policy.on_rcpt_to(
                client,
                validate_address(request.sender),
                validate_address(request.recipient),
            )
        except ValueError:
            # A missing or unparseable envelope address, or one a durable
            # backend cannot encode: no opinion (see class doc).
            self.ignored += 1
            return ACTION_DUNNO
        if decision.accept:
            return ACTION_DUNNO
        reply = decision.reply
        assert reply is not None
        return f"{ACTION_DEFER_IF_PERMIT} {reply.code} {reply.text}"

    def flush(self) -> None:
        self.policy.store.flush()

    def close(self) -> None:
        self.policy.store.close()


class ThrottlePlugin(PolicyPlugin):
    """Per-client message-rate throttle (iRedAPD ``throttle``'s shape).

    A sliding window: more than ``max_messages`` requests from one
    client address within ``period`` seconds defers the excess with a
    4.7.1 reply.  Time comes from the shared serving clock, so replayed
    traffic throttles identically to live traffic.

    A client whose newest request is a period old has a window that
    decides nothing: its next request would empty it first.  Such windows
    are dropped in a sweep that runs, at most once a period, when a new
    client arrives, so one-shot clients (the paper's bots) leave no
    state behind.  Sweeps are a period apart, so a window outlives one
    only if a request touched it since the sweep before: each request
    pays for at most one visit, and each window for one deletion.
    """

    name = "throttle"

    def __init__(
        self,
        clock: Clock,
        max_messages: int = 60,
        period: float = 60.0,
    ) -> None:
        if max_messages < 1:
            raise ValueError("max_messages must be >= 1")
        if period <= 0:
            raise ValueError("period must be positive")
        self.clock = clock
        self.max_messages = max_messages
        self.period = float(period)
        self.throttled = 0
        self._windows: Dict[int, Deque[float]] = {}
        self._next_sweep = clock.now + self.period

    def fingerprint(self) -> Tuple[Hashable, ...]:
        return (self.name, self.max_messages, self.period)

    def check(self, request: PolicyRequest) -> str:
        client = _parse_client(request)
        if client is None:
            return ACTION_DUNNO
        now = self.clock.now
        horizon = now - self.period
        window = self._windows.get(client.value)
        if window is None:
            if now >= self._next_sweep:
                self._drop_idle_windows(horizon)
                self._next_sweep = now + self.period
            window = deque()
            self._windows[client.value] = window
        while window and window[0] <= horizon:
            window.popleft()
        if len(window) >= self.max_messages:
            self.throttled += 1
            return (
                f"{ACTION_DEFER_IF_PERMIT} 450 4.7.1 Rate limit of "
                f"{self.max_messages} messages per {self.period:.0f}s "
                "exceeded, retry later"
            )
        window.append(now)
        return ACTION_DUNNO

    def _drop_idle_windows(self, horizon: float) -> None:
        """Forget every client whose newest request is at or before
        ``horizon``.  Windows are never empty between requests: each
        request either appends or is throttled by a full window."""
        windows = self._windows
        idle = [
            client for client, window in windows.items()
            if window[-1] <= horizon
        ]
        for client in idle:
            del windows[client]


class PluginChain:
    """Ordered plugin walk with first-non-DUNNO-wins semantics."""

    def __init__(self, plugins: List[PolicyPlugin]) -> None:
        if not plugins:
            raise ValueError("a policy chain needs at least one plugin")
        self.plugins = list(plugins)

    def fingerprint(self) -> Tuple[Hashable, ...]:
        return tuple(plugin.fingerprint() for plugin in self.plugins)

    def decide(self, request: PolicyRequest) -> str:
        """Answer one request.

        Non-``smtpd_access_policy`` requests and non-RCPT protocol
        states get ``DUNNO`` without consulting any plugin (Postfix can
        be configured to ask at several states; this daemon only holds
        opinions at RCPT, like postgrey).
        """
        if request.request != SMTPD_ACCESS_POLICY:
            return ACTION_DUNNO
        state = request.protocol_state
        if state and state != "RCPT":
            return ACTION_DUNNO
        # The pre-annotation types the loop variable for the call-graph
        # analyzer: plugin.check() dispatches to every PolicyPlugin
        # subclass, which is how ASY001 audits the full decision path
        # behind the daemon's coroutines.
        plugin: PolicyPlugin
        for plugin in self.plugins:
            action = plugin.check(request)
            if action != ACTION_DUNNO:
                return action
        return ACTION_DUNNO

    def flush(self) -> None:
        plugin: PolicyPlugin
        for plugin in self.plugins:
            plugin.flush()

    def close(self) -> None:
        plugin: PolicyPlugin
        for plugin in self.plugins:
            plugin.close()
