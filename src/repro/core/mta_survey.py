"""The MTA default-configuration survey (paper Table IV).

Regenerates the retransmission-time table by *running* each MTA profile's
schedule (not by transcribing constants): the schedule object emits its
attempt times over the first ten hours, and the queue-lifetime column is
checked against the RFC's 4-5 day guidance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..mta.profiles import (
    PROFILE_ORDER,
    PROFILES,
    MTAProfile,
    rfc_compliant_lifetime,
)

TEN_HOURS = 36000.0


@dataclass
class MTARow:
    """One reproduced row of Table IV."""

    mta: str
    retransmission_minutes: List[float]
    max_queue_days: float
    rfc_compliant_lifetime: bool


def survey_mta(profile: MTAProfile, horizon: float = TEN_HOURS) -> MTARow:
    return MTARow(
        mta=profile.name,
        retransmission_minutes=[
            round(m, 2) for m in profile.retransmission_minutes(horizon)
        ],
        max_queue_days=profile.max_queue_days,
        rfc_compliant_lifetime=rfc_compliant_lifetime(profile),
    )


def run_mta_survey(
    order: Sequence[str] = PROFILE_ORDER, horizon: float = TEN_HOURS
) -> List[MTARow]:
    """Reproduce all of Table IV."""
    return [survey_mta(PROFILES[name], horizon) for name in order]
