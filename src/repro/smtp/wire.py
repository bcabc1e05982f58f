"""SMTP wire format: command parsing and session transcripts.

The high-level session objects in :mod:`repro.smtp.server` are driven by
method calls; this module supplies the text layer underneath — parsing
command lines as they appear on the wire ("MAIL FROM:<a@b.c> SIZE=1024")
and recording full session transcripts.  The transcript is what the
dialect-fingerprinting analysis of :mod:`repro.smtp.dialects` consumes:
Stringhini et al. showed that *how* a client speaks SMTP (argument
formats, command order, whether it bothers to QUIT) fingerprints botnets,
and the paper builds on that observation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .replies import Reply

#: Verbs the parser understands (everything else parses as UNKNOWN).
KNOWN_VERBS = (
    "HELO",
    "EHLO",
    "MAIL",
    "RCPT",
    "DATA",
    "RSET",
    "NOOP",
    "QUIT",
    "VRFY",
    "STARTTLS",
)


class CommandSyntaxError(ValueError):
    """Raised for command lines the parser cannot make sense of."""


@dataclass(frozen=True, slots=True)
class Command:
    """One parsed SMTP command line."""

    verb: str
    argument: str = ""
    #: ESMTP parameters after the argument (e.g. SIZE=1024, BODY=8BITMIME).
    parameters: Tuple[Tuple[str, Optional[str]], ...] = ()
    raw: str = ""

    def __str__(self) -> str:
        return self.raw or f"{self.verb} {self.argument}".rstrip()


_PATH_RE = re.compile(r"^<(?P<path>[^<>\s]*)>$")


def _parse_path(text: str, keyword: str) -> Tuple[str, str]:
    """Split ``FROM:<path> param...`` into (path, rest)."""
    if not text.upper().startswith(keyword + ":"):
        raise CommandSyntaxError(f"expected '{keyword}:' in {text!r}")
    rest = text[len(keyword) + 1:].lstrip()
    if not rest:
        raise CommandSyntaxError(f"missing path after {keyword}:")
    head, _, tail = rest.partition(" ")
    match = _PATH_RE.match(head)
    if match is None:
        # Tolerate the bare-address dialect ("MAIL FROM:user@host") but
        # record it: real MTAs bracket the path, many bots do not.
        if "@" in head or head == "":
            return head, tail
        raise CommandSyntaxError(f"malformed path {head!r}")
    return match.group("path"), tail


def _parse_parameters(text: str) -> Tuple[Tuple[str, Optional[str]], ...]:
    parameters = []
    for token in text.split():
        key, sep, value = token.partition("=")
        parameters.append((key.upper(), value if sep else None))
    return tuple(parameters)


def parse_command(line: str) -> Command:
    """Parse one SMTP command line.

    >>> cmd = parse_command("MAIL FROM:<a@b.net> SIZE=1024")
    >>> cmd.verb, cmd.argument, cmd.parameters
    ('MAIL', 'a@b.net', (('SIZE', '1024'),))
    """
    raw = line.rstrip("\r\n")
    stripped = raw.strip()
    if not stripped:
        raise CommandSyntaxError("empty command line")
    head, _, tail = stripped.partition(" ")
    verb = head.upper()
    tail = tail.strip()
    if verb not in KNOWN_VERBS:
        return Command(verb="UNKNOWN", argument=stripped, raw=raw)
    if verb in ("HELO", "EHLO"):
        return Command(verb=verb, argument=tail, raw=raw)
    if verb == "MAIL":
        path, rest = _parse_path(tail, "FROM")
        return Command(
            verb=verb,
            argument=path,
            parameters=_parse_parameters(rest),
            raw=raw,
        )
    if verb == "RCPT":
        path, rest = _parse_path(tail, "TO")
        return Command(
            verb=verb,
            argument=path,
            parameters=_parse_parameters(rest),
            raw=raw,
        )
    # Argument-less (or argument-optional) verbs.
    return Command(verb=verb, argument=tail, raw=raw)


def render_mail_from(sender: str, bracketed: bool = True) -> str:
    """Render a MAIL command in the compliant or bare-address dialect."""
    path = f"<{sender}>" if bracketed else sender
    return f"MAIL FROM:{path}"


def render_rcpt_to(recipient: str, bracketed: bool = True) -> str:
    path = f"<{recipient}>" if bracketed else recipient
    return f"RCPT TO:{path}"


@dataclass(slots=True)
class TranscriptEntry:
    """One exchange in a session transcript."""

    timestamp: float
    direction: str            # "C" (client->server) or "S" (server->client)
    line: str

    def __str__(self) -> str:
        return f"{self.timestamp:10.3f} {self.direction}: {self.line}"


@dataclass(slots=True)
class SessionTranscript:
    """Full wire record of one SMTP session.

    Collected by :class:`TranscribingSession`; consumed by the dialect
    fingerprinting in :mod:`repro.smtp.dialects`.
    """

    client: str
    entries: List[TranscriptEntry] = field(default_factory=list)

    def record_client(self, timestamp: float, line: str) -> None:
        self.entries.append(TranscriptEntry(timestamp, "C", line))

    def record_server(self, timestamp: float, reply: Reply) -> None:
        self.entries.append(TranscriptEntry(timestamp, "S", str(reply)))

    def client_lines(self) -> List[str]:
        return [e.line for e in self.entries if e.direction == "C"]

    def client_commands(self) -> List[Command]:
        commands = []
        for line in self.client_lines():
            try:
                commands.append(parse_command(line))
            except CommandSyntaxError:
                commands.append(Command(verb="MALFORMED", argument=line, raw=line))
        return commands

    def verbs(self) -> List[str]:
        return [c.verb for c in self.client_commands()]

    def ended_with_quit(self) -> bool:
        verbs = self.verbs()
        return bool(verbs) and verbs[-1] == "QUIT"

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.entries)


class TranscribingSession:
    """Wraps an :class:`~repro.smtp.server.SMTPSession` with a wire log.

    Drives the underlying session from raw command lines, recording both
    directions.  ``DATA`` content is carried out-of-band (the simulator's
    message object) — only the command/reply dialogue is transcribed, which
    is all the fingerprinting needs.
    """

    def __init__(self, session, clock) -> None:
        self.session = session
        self.clock = clock
        self.transcript = SessionTranscript(client=str(session.client))
        self.transcript.record_server(clock.now, session.banner)

    def execute(self, line: str, message=None) -> Reply:
        """Feed one raw command line to the session."""
        self.transcript.record_client(self.clock.now, line)
        try:
            command = parse_command(line)
        except CommandSyntaxError:
            reply = Reply(500, "5.5.2 syntax error")
            self.transcript.record_server(self.clock.now, reply)
            return reply
        reply = self._dispatch(command, message)
        self.transcript.record_server(self.clock.now, reply)
        return reply

    def _dispatch(self, command: Command, message) -> Reply:
        if command.verb == "HELO":
            return self.session.helo(command.argument)
        if command.verb == "EHLO":
            return self.session.ehlo(command.argument)
        if command.verb == "MAIL":
            return self.session.mail_from(command.argument)
        if command.verb == "RCPT":
            return self.session.rcpt_to(command.argument)
        if command.verb == "DATA":
            if message is None:
                return Reply(554, "no message supplied to simulator")
            return self.session.data(message)
        if command.verb == "RSET":
            return self.session.rset()
        if command.verb == "QUIT":
            return self.session.quit()
        if command.verb == "NOOP":
            return Reply(250, "2.0.0 OK")
        return Reply(502, "5.5.1 command not implemented")
