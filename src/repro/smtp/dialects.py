"""SMTP dialects and dialect fingerprinting.

Stringhini et al. (B@bel, USENIX Security 2012) — cited by the paper as
the experimental confirmation that bots implement the delivery protocol
"in custom ways, not compliant with the RFCs" — showed that the *details*
of how a client speaks SMTP fingerprint botnets.  This module provides:

* :class:`DialectProfile` — a parameterized way of speaking SMTP (greeting
  verb, HELO-name shape, path bracketing, QUIT discipline, ...);
* canned profiles for compliant MTAs and for each of the paper's families;
* :class:`DialectFingerprinter` — classifies a session transcript as
  MTA-like or bot-like from its protocol features, and attributes bot
  transcripts to a known dialect.

The fingerprinting operates purely on :class:`~repro.smtp.wire.SessionTranscript`
objects, i.e. on what a passive observer at the server sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .wire import (
    SessionTranscript,
    render_mail_from,
    render_rcpt_to,
)


@dataclass(frozen=True)
class DialectProfile:
    """How one sender species speaks SMTP."""

    name: str
    greeting_verb: str = "EHLO"          # EHLO (ESMTP) vs HELO (old/bots)
    helo_is_fqdn: bool = True            # bots often send bare words/IPs
    brackets_paths: bool = True          # <a@b.c> vs bare a@b.c
    sends_quit: bool = True              # bots typically drop the socket
    resets_between_messages: bool = True
    pipelines: bool = False

    def greeting_line(self, helo_name: str) -> str:
        name = helo_name if self.helo_is_fqdn else helo_name.split(".")[0]
        return f"{self.greeting_verb} {name}"

    def mail_line(self, sender: str) -> str:
        return render_mail_from(sender, bracketed=self.brackets_paths)

    def rcpt_line(self, recipient: str) -> str:
        return render_rcpt_to(recipient, bracketed=self.brackets_paths)

    def session_script(
        self, helo_name: str, sender: str, recipient: str
    ) -> List[str]:
        """The command lines of one single-message delivery."""
        lines = [
            self.greeting_line(helo_name),
            self.mail_line(sender),
            self.rcpt_line(recipient),
            "DATA",
        ]
        if self.sends_quit:
            lines.append("QUIT")
        return lines


#: A well-behaved MTA (postfix-like).
COMPLIANT_MTA = DialectProfile(name="compliant-mta")

#: The bot dialects, shaped after the families' observed sloppiness.
CUTWAIL_DIALECT = DialectProfile(
    name="cutwail",
    greeting_verb="HELO",
    helo_is_fqdn=False,
    brackets_paths=False,
    sends_quit=False,
    resets_between_messages=False,
)

KELIHOS_DIALECT = DialectProfile(
    name="kelihos",
    greeting_verb="HELO",
    helo_is_fqdn=True,
    brackets_paths=True,
    sends_quit=False,
    resets_between_messages=False,
)

DARKMAILER_DIALECT = DialectProfile(
    name="darkmailer",
    greeting_verb="EHLO",
    # Mass-mailer software; speaks ESMTP but announces a bare word HELO
    # name, which is what separates it from a clean MTA on the wire.
    helo_is_fqdn=False,
    brackets_paths=True,
    sends_quit=True,
    resets_between_messages=False,
    pipelines=True,
)

KNOWN_DIALECTS: Tuple[DialectProfile, ...] = (
    COMPLIANT_MTA,
    CUTWAIL_DIALECT,
    KELIHOS_DIALECT,
    DARKMAILER_DIALECT,
)

DIALECT_BY_NAME: Dict[str, DialectProfile] = {d.name: d for d in KNOWN_DIALECTS}


@dataclass
class DialectFeatures:
    """Protocol features extracted from one transcript."""

    used_ehlo: bool
    helo_name_is_fqdn: bool
    bracketed_paths: bool
    quit_before_close: bool
    malformed_lines: int

    def as_tuple(self) -> Tuple[bool, bool, bool, bool]:
        return (
            self.used_ehlo,
            self.helo_name_is_fqdn,
            self.bracketed_paths,
            self.quit_before_close,
        )


def extract_features(transcript: SessionTranscript) -> DialectFeatures:
    """Pull the fingerprint features out of a wire transcript."""
    commands = transcript.client_commands()
    used_ehlo = any(c.verb == "EHLO" for c in commands)
    helo_name = next(
        (c.argument for c in commands if c.verb in ("HELO", "EHLO")), ""
    )
    helo_fqdn = "." in helo_name
    bracketed = True
    for raw in transcript.client_lines():
        upper = raw.upper()
        if upper.startswith("MAIL FROM:") or upper.startswith("RCPT TO:"):
            payload = raw.split(":", 1)[1].strip().split(" ")[0]
            if not (payload.startswith("<") and payload.endswith(">")):
                bracketed = False
    malformed = sum(1 for c in commands if c.verb == "MALFORMED")
    return DialectFeatures(
        used_ehlo=used_ehlo,
        helo_name_is_fqdn=helo_fqdn,
        bracketed_paths=bracketed,
        quit_before_close=transcript.ended_with_quit(),
        malformed_lines=malformed,
    )


def _profile_features(profile: DialectProfile) -> Tuple[bool, bool, bool, bool]:
    return (
        profile.greeting_verb == "EHLO",
        profile.helo_is_fqdn,
        profile.brackets_paths,
        profile.sends_quit,
    )


@dataclass
class FingerprintResult:
    """Outcome of classifying one transcript."""

    dialect: Optional[str]          # best-matching known dialect
    score: int                      # matching features (out of 4)
    bot_likelihood: float           # 0.0 (clean MTA) .. 1.0 (very bot-like)
    features: DialectFeatures = field(repr=False, default=None)

    @property
    def looks_like_bot(self) -> bool:
        return self.bot_likelihood >= 0.5


class DialectFingerprinter:
    """Attributes transcripts to dialects and scores bot-likeness."""

    def __init__(self, dialects: Sequence[DialectProfile] = KNOWN_DIALECTS):
        if not dialects:
            raise ValueError("need at least one dialect")
        self.dialects = tuple(dialects)

    def classify(self, transcript: SessionTranscript) -> FingerprintResult:
        features = extract_features(transcript)
        observed = features.as_tuple()
        best_name: Optional[str] = None
        best_score = -1
        for profile in self.dialects:
            score = sum(
                1
                for a, b in zip(observed, _profile_features(profile))
                if a == b
            )
            if score > best_score:
                best_score = score
                best_name = profile.name
        # Bot-likeness: count deviations from clean-MTA behaviour.
        deviations = sum(
            (
                not features.used_ehlo,
                not features.helo_name_is_fqdn,
                not features.bracketed_paths,
                not features.quit_before_close,
            )
        ) + min(features.malformed_lines, 2)
        bot_likelihood = min(1.0, deviations / 4.0)
        return FingerprintResult(
            dialect=best_name,
            score=best_score,
            bot_likelihood=bot_likelihood,
            features=features,
        )


def play_dialect(
    profile: DialectProfile,
    server,
    clock,
    client_address,
    message,
    recipient: str,
    helo_name: str = "mail.sender.example",
) -> SessionTranscript:
    """Run one delivery in the given dialect and return the wire transcript.

    Convenience for experiments: opens a session on ``server`` (an
    :class:`~repro.smtp.server.SMTPServer`), speaks the profile's command
    script through a :class:`~repro.smtp.wire.TranscribingSession`, and
    hands back the transcript for fingerprinting.
    """
    from .wire import TranscribingSession

    session = server.session_factory(client_address)
    wire = TranscribingSession(session, clock)
    for line in profile.session_script(helo_name, message.sender, recipient):
        reply = wire.execute(line, message=message)
        if reply.is_permanent_failure and not line.upper().startswith("QUIT"):
            break
        if reply.is_transient_failure:
            break  # deferred: the dialect decides elsewhere whether to retry
    return wire.transcript
