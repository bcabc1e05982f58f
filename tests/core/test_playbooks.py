"""Unit tests for the class sessions the internet-scale engine drives."""

import pytest

from repro.botnet.bot import BotAttemptOutcome
from repro.botnet.families import FAMILIES
from repro.core.playbooks import build_playbook


@pytest.mark.parametrize(
    "phase, outcome",
    [
        ("open", BotAttemptOutcome.DELIVERED),
        ("new", BotAttemptOutcome.DEFERRED),
        ("early", BotAttemptOutcome.DEFERRED),
        # Aged by exactly the delay: the engine counts a retry at
        # ``t >= greylist_delay`` as passed, so the policy must let it in.
        ("passed", BotAttemptOutcome.DELIVERED),
    ],
)
def test_every_family_meets_the_phase_outcome(phase, outcome):
    for family in FAMILIES:
        assert build_playbook(family.helo_name, phase, 300.0) is outcome


def test_unknown_phase_rejected():
    with pytest.raises(ValueError, match="unknown session phase 'late'"):
        build_playbook("bot.example", "late", 300.0)


def test_early_phase_needs_a_positive_delay():
    with pytest.raises(ValueError, match="positive greylist delay"):
        build_playbook("bot.example", "early", 0.0)
