"""Postfix policy-delegation protocol (`SMTPD_POLICY_README`).

Postfix delegates an SMTP-time decision by writing one *stanza* of
``name=value`` attribute lines followed by an empty line, and expects a
single ``action=...`` line (plus empty line) back::

    request=smtpd_access_policy
    protocol_state=RCPT
    client_address=198.51.100.7
    sender=spam@kelihos.example
    recipient=victim1@victim.example

    action=DEFER_IF_PERMIT 450 4.2.0 Greylisted

The daemon keeps the connection open and pipelines further stanzas, so
parsing must be *incremental*: :class:`StanzaParser` accumulates bytes
and yields complete requests as they arrive, without re-scanning or
copying already-seen bytes (the buffer is compacted at most once per
``feed``, and the terminator search resumes where the last one stopped).

Tolerances follow Postfix semantics:

* unknown attributes are preserved verbatim (Postfix adds new ones
  between releases; iRedAPD ignores what it does not know);
* ``=`` may appear in values (split on the first one only);
* a trailing ``\\r`` per line is stripped, so CRLF transcripts parse;
* duplicate attributes keep the last value.

Hard errors (:class:`ProtocolError`): an attribute line with no ``=`` at
all, and a stanza that exceeds ``max_request_bytes`` before its
terminating empty line arrives (a runaway or malicious peer must not
grow the buffer unboundedly).

The ``stamp`` attribute is this repo's extension: the load generator and
the replay/equivalence harness attach the *virtual-time* timestamp of
each simulated delivery attempt, so a daemon running a
:class:`~repro.serve.server.ReplayClock` reproduces the simulator's
decisions bit-for-bit.  Real Postfix never sends it; live daemons ignore
it.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterator, List, Optional, Sequence

#: Stanza terminator: an empty line.  Postfix sends bare LF; the CRLF
#: alternative keeps recorded transcripts and manual netcat sessions
#: parseable (the per-line trailing ``\r`` is stripped during parsing).
_TERMINATOR = re.compile(rb"\n\r?\n")

#: The only request type Postfix currently defines.
SMTPD_ACCESS_POLICY = "smtpd_access_policy"

#: Default cap on a single stanza (Postfix sends well under 2 KiB).
MAX_REQUEST_BYTES = 16384

#: Actions the built-in plugins emit (any Postfix access(5) action is
#: legal on the wire; these are the vocabulary of this daemon).
ACTION_DUNNO = "DUNNO"
ACTION_OK = "OK"
ACTION_DEFER_IF_PERMIT = "DEFER_IF_PERMIT"
ACTION_REJECT = "REJECT"


class ProtocolError(ValueError):
    """Raised on a malformed or oversized policy stanza.

    ``requests`` holds the well-formed requests the same read completed
    ahead of the bad stanza, in order: they were pipelined before it and
    are still owed their answers.
    """

    def __init__(
        self, message: str, requests: Sequence[PolicyRequest] = ()
    ) -> None:
        super().__init__(message)
        self.requests = list(requests)


class PolicyRequest:
    """One parsed policy stanza (attribute map plus typed accessors)."""

    __slots__ = ("attrs",)

    def __init__(self, attrs: Dict[str, str]) -> None:
        self.attrs = attrs

    def get(self, name: str, default: str = "") -> str:
        return self.attrs.get(name, default)

    @property
    def request(self) -> str:
        return self.attrs.get("request", "")

    @property
    def protocol_state(self) -> str:
        return self.attrs.get("protocol_state", "")

    @property
    def client_address(self) -> str:
        return self.attrs.get("client_address", "")

    @property
    def sender(self) -> str:
        return self.attrs.get("sender", "")

    @property
    def recipient(self) -> str:
        return self.attrs.get("recipient", "")

    @property
    def helo_name(self) -> str:
        return self.attrs.get("helo_name", "")

    @property
    def stamp(self) -> Optional[float]:
        """Virtual-time stamp (replay extension); ``None`` when absent.

        A stamp that is not a finite number counts as absent: the clock
        it drives rejects non-finite time.
        """
        raw = self.attrs.get("stamp")
        if raw is None:
            return None
        try:
            stamp = float(raw)
        except ValueError:
            return None
        return stamp if math.isfinite(stamp) else None

    def __repr__(self) -> str:
        return (
            f"PolicyRequest(state={self.protocol_state!r}, "
            f"client={self.client_address!r}, sender={self.sender!r}, "
            f"recipient={self.recipient!r})"
        )


class StanzaParser:
    """Incremental parser for a stream of policy stanzas.

    Feed raw socket bytes in; complete :class:`PolicyRequest` objects
    come out.  State between feeds is one ``bytearray`` and the offset
    the terminator search should resume from, so pipelined bursts parse
    in one pass and a stanza split across TCP segments costs nothing
    extra.
    """

    __slots__ = ("max_request_bytes", "_buffer", "_scan")

    def __init__(self, max_request_bytes: int = MAX_REQUEST_BYTES) -> None:
        if max_request_bytes < 64:
            raise ValueError("max_request_bytes must be >= 64")
        self.max_request_bytes = max_request_bytes
        self._buffer = bytearray()
        self._scan = 0

    @property
    def pending(self) -> int:
        """Bytes of an incomplete stanza still buffered (EOF => truncated)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[PolicyRequest]:
        """Consume ``data``; return every request it completed.

        A bad stanza raises :class:`ProtocolError` carrying the requests
        completed ahead of it.
        """
        buffer = self._buffer
        buffer += data
        requests: List[PolicyRequest] = []
        start = 0
        # Resume scanning a couple of bytes before the previous end so a
        # terminator straddling two feeds is still found.
        scan = self._scan
        while True:
            match = _TERMINATOR.search(buffer, scan)
            if match is None:
                break
            end = match.start()
            if end - start > self.max_request_bytes:
                raise ProtocolError(
                    f"policy request exceeds {self.max_request_bytes} bytes",
                    requests,
                )
            try:
                requests.append(self._parse(bytes(buffer[start:end])))
            except ProtocolError as error:
                error.requests = requests
                raise
            start = match.end()
            scan = start
        if start:
            del buffer[:start]
        if len(buffer) > self.max_request_bytes:
            raise ProtocolError(
                f"policy request exceeds {self.max_request_bytes} bytes "
                "without a terminating empty line",
                requests,
            )
        self._scan = max(0, len(buffer) - 2)
        return requests

    @staticmethod
    def _parse(stanza: bytes) -> PolicyRequest:
        # One decode per stanza; attributes are ASCII per the protocol,
        # surrogateescape keeps odd bytes representable without raising.
        text = stanza.decode("ascii", "surrogateescape")
        attrs: Dict[str, str] = {}
        for line in text.split("\n"):
            if line.endswith("\r"):
                line = line[:-1]
            if not line:
                continue
            name, sep, value = line.partition("=")
            if not sep or not name:
                raise ProtocolError(
                    f"malformed policy attribute line {line!r}"
                )
            attrs[name] = value
        return PolicyRequest(attrs)


# ----------------------------------------------------------------------
# Wire formatting
# ----------------------------------------------------------------------

#: Response bytes for the handful of actions a serving chain emits are
#: rendered once; arbitrary action strings fall through to a fresh encode.
_RESPONSE_CACHE: Dict[str, bytes] = {}  # repro: noqa SHM001 - pure-function memo; per-process divergence is harmless
_RESPONSE_CACHE_MAX = 256


def format_response(action: str) -> bytes:
    """Render ``action=...`` + stanza terminator as wire bytes."""
    cached = _RESPONSE_CACHE.get(action)
    if cached is None:
        cached = f"action={action}\n\n".encode("ascii", "surrogateescape")
        if len(_RESPONSE_CACHE) < _RESPONSE_CACHE_MAX:
            _RESPONSE_CACHE[action] = cached
    return cached


def format_request(attrs: Dict[str, str]) -> bytes:
    """Render one request stanza (client side: loadgen, tests)."""
    lines = [f"{name}={value}" for name, value in attrs.items()]
    lines.append("")
    lines.append("")
    return "\n".join(lines).encode("ascii", "surrogateescape")


def parse_response(stanza: bytes) -> str:
    """Extract the action from one response stanza (terminator optional)."""
    text = stanza.decode("ascii", "surrogateescape").strip()
    for line in text.split("\n"):
        name, sep, value = line.partition("=")
        if sep and name == "action":
            return value.strip()
    raise ProtocolError(f"no action attribute in response {stanza!r}")


def iter_response_actions(buffer: bytearray) -> Iterator[str]:
    """Yield actions from complete response stanzas, consuming them.

    Client-side mirror of :class:`StanzaParser` for the simple
    ``action=...`` responses; leftover bytes stay in ``buffer``.
    """
    while True:
        end = buffer.find(b"\n\n")
        if end < 0:
            return
        stanza = bytes(buffer[:end])
        del buffer[: end + 2]
        yield parse_response(stanza)
