"""Spam campaigns.

A :class:`SpamCampaign` is the bot master's job: one message template and a
recipient list, handed to bots as concrete :class:`~repro.smtp.message.Message`
jobs.  Every experiment deals :meth:`SpamCampaign.single_recipient_jobs` out
over its own bots.

The single-campaign discipline matters experimentally: the paper ruled out
the "second spam task re-using greylisted triplets" confound by checking
(via unprotected addresses) that all attempts carried the same campaign.
Tagging every generated message with the campaign id makes the equivalent
check a one-liner here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Sequence

from ..smtp.message import Message, validate_address

_campaign_ids = itertools.count(1)


@dataclass
class SpamCampaign:
    """A bot master's spam job."""

    sender: str
    recipients: List[str]
    subject: str = "You won!!!"
    body: str = "Click here for your prize: http://spam.invalid/x"
    campaign_id: str = field(
        default_factory=lambda: f"campaign-{next(_campaign_ids)}"
    )

    def __post_init__(self) -> None:
        self.sender = validate_address(self.sender)
        if not self.recipients:
            raise ValueError("campaign needs at least one recipient")
        self.recipients = [validate_address(r) for r in self.recipients]

    def message_for(self, recipients: Sequence[str]) -> Message:
        """Materialize a job message for a subset of recipients."""
        return Message(
            sender=self.sender,
            recipients=list(recipients),
            subject=self.subject,
            body=self.body,
            campaign_id=self.campaign_id,
        )

    def single_recipient_jobs(self) -> List[Message]:
        """One message per recipient — how the experiments drive bots."""
        return [self.message_for([r]) for r in self.recipients]


def make_recipient_list(
    domain: str, count: int, prefix: str = "victim"
) -> List[str]:
    """Generate ``count`` distinct recipient addresses at ``domain``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [f"{prefix}{i}@{domain}" for i in range(1, count + 1)]
