"""SMTP reply codes and reply objects (RFC 5321 §4.2).

Only the codes the simulation actually emits are enumerated, but arbitrary
codes can be wrapped in :class:`Reply` for testing odd servers.
"""

from __future__ import annotations

from dataclasses import dataclass


# Positive completion
CODE_READY = 220
CODE_CLOSING = 221
CODE_OK = 250
# Transient negative completion (4yz) — the class greylisting lives in
CODE_SERVICE_UNAVAILABLE = 421
CODE_MAILBOX_BUSY = 450
CODE_LOCAL_ERROR = 451
CODE_INSUFFICIENT_STORAGE = 452
# Permanent negative completion (5yz)
CODE_SYNTAX_ERROR = 500
CODE_PARAM_SYNTAX_ERROR = 501
CODE_NOT_IMPLEMENTED = 502
CODE_BAD_SEQUENCE = 503
CODE_MAILBOX_UNAVAILABLE = 550
CODE_USER_NOT_LOCAL = 551
CODE_TRANSACTION_FAILED = 554


@dataclass(frozen=True)
class Reply:
    """A single SMTP reply line."""

    code: int
    text: str = ""

    def __post_init__(self) -> None:
        if not 200 <= self.code <= 599:
            raise ValueError(f"implausible SMTP reply code {self.code}")

    @property
    def is_positive(self) -> bool:
        """2yz or 3yz — the command was accepted."""
        return self.code < 400

    @property
    def is_transient_failure(self) -> bool:
        """4yz — try again later (greylisting uses 450)."""
        return 400 <= self.code < 500

    @property
    def is_permanent_failure(self) -> bool:
        """5yz — do not retry."""
        return self.code >= 500

    def __str__(self) -> str:
        return f"{self.code} {self.text}".rstrip()


def ready(hostname: str) -> Reply:
    return Reply(CODE_READY, f"{hostname} ESMTP service ready")


def ok(text: str = "OK") -> Reply:
    return Reply(CODE_OK, text)


def closing(hostname: str) -> Reply:
    return Reply(CODE_CLOSING, f"{hostname} closing connection")


def greylisted(retry_after: float) -> Reply:
    """The canonical Postgrey deferral reply."""
    return Reply(
        CODE_MAILBOX_BUSY,
        f"4.2.0 Greylisted, see http://postgrey.schweikert.ch/help ; "
        f"retry in {int(retry_after)}s",
    )


def bad_sequence(expected: str) -> Reply:
    return Reply(CODE_BAD_SEQUENCE, f"Bad sequence of commands; expected {expected}")
