"""Anonymized greylist log records.

The university dataset the paper analysed "contains, for each greylisted
message, the time of each attempted delivery from the client", anonymized
to timestamps only.  We model the same artefact: a
:class:`GreylistedMessageLog` per message, serializable to/from a plain
text format so the analysis code exercises a parse step just like the
authors' did.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, List, Optional


def anonymize(sender: str, recipient: str, client: str, salt: str = "") -> str:
    """Hash identifying fields into an opaque message key."""
    payload = f"{salt}|{sender}|{recipient}|{client}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class GreylistedMessageLog:
    """All attempt timestamps for one greylisted message."""

    message_key: str
    attempt_times: List[float] = field(default_factory=list)
    delivered: bool = False
    #: optional ground-truth tag retained for validation (never serialized)
    sender_kind: Optional[str] = None

    def __post_init__(self) -> None:
        if sorted(self.attempt_times) != self.attempt_times:
            raise ValueError("attempt times must be non-decreasing")

    @property
    def attempts(self) -> int:
        return len(self.attempt_times)

    @property
    def delivery_delay(self) -> Optional[float]:
        """Delay from first attempt to the accepting attempt.

        This is the quantity Figure 5 plots.  ``None`` when the message was
        never delivered (the sender gave up while greylisted).
        """
        if not self.delivered or len(self.attempt_times) < 1:
            return None
        return self.attempt_times[-1] - self.attempt_times[0]


# ----------------------------------------------------------------------
# Plain-text serialization ("the anonymized log entries of the mail server")
# ----------------------------------------------------------------------

def dump_logs(logs: Iterable[GreylistedMessageLog]) -> str:
    """Serialize logs to the line format ``key status t1 t2 ...``."""
    lines = []
    for log in logs:
        status = "delivered" if log.delivered else "dropped"
        stamps = " ".join(f"{t:.3f}" for t in log.attempt_times)
        lines.append(f"{log.message_key} {status} {stamps}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def parse_logs(text: str) -> List[GreylistedMessageLog]:
    """Parse the :func:`dump_logs` format back into records."""
    logs: List[GreylistedMessageLog] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"malformed log line {line_number}: {line!r}")
        key, status, *stamps = parts
        if status not in ("delivered", "dropped"):
            raise ValueError(
                f"unknown status {status!r} on log line {line_number}"
            )
        logs.append(
            GreylistedMessageLog(
                message_key=key,
                attempt_times=[float(s) for s in stamps],
                delivered=(status == "delivered"),
            )
        )
    return logs


def delivery_delays(logs: Iterable[GreylistedMessageLog]) -> List[float]:
    """Extract the Figure 5 sample: delays of delivered greylisted messages."""
    return [
        log.delivery_delay
        for log in logs
        if log.delivery_delay is not None
    ]
