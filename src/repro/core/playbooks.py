"""Class sessions: one *real* SMTP dialogue per outcome class.

The internet-scale engine — :func:`repro.core.internet_scale.
run_internet_scale` on its default ``engine="columnar"`` — replaces
per-message SMTP dialogues with one session per class.  Each is driven
here through the real server-side state machine
(:class:`~repro.smtp.server.SMTPSession` with a real greylisting policy)
and the exact dialogue a bot speaks
(:func:`repro.botnet.bot.drive_dialogue`); the caller applies the class
cardinality arithmetically.

Within one run, a class is ``(bot dialect, phase)``:

* the *dialect* is the family's HELO name — the only bot-side input the
  server dialogue depends on;
* the *phase* is ``"open"`` for a server without greylisting, or the
  triplet's greylist age class when the attempt arrives (``"new"`` /
  ``"early"`` / ``"passed"``).

The rest of the server's decision function, the greylist threshold, is
fixed for a run, so the caller memoizes sessions per run over these keys.
That is sound because two sessions agreeing on dialect and phase are
identical state machines fed identical inputs.  Anything else — retry
timing, triplet identity, which draw produced the client — provably does
not reach a policy decision (triplets are keyed per message, and the
policy consults only the inputs encoded here).
"""

from __future__ import annotations

from typing import Optional

from ..botnet.bot import BotAttemptOutcome, drive_dialogue
from ..greylist.policy import GreylistPolicy
from ..net.address import IPv4Address
from ..sim.clock import Clock
from ..smtp.message import Message
from ..smtp.server import SMTPServer

#: The phases a class session can be driven in.  ``"open"`` meets no
#: greylisting; the others are the greylist age classes a triplet can be
#: in when an attempt arrives.
SESSION_PHASES = ("open", "new", "early", "passed")

#: Representative endpoints for class dialogues.  Their concrete values
#: never reach a policy decision (greylist triplets are controlled via the
#: phase), so one fixed pair serves every class.
_CLIENT = IPv4Address(0xC6336464)  # 198.51.100.100
_RECIPIENT = "user@class.example"
_SENDER = "representative@botnet.example"


def build_playbook(
    helo_name: str, phase: str, greylist_delay: float
) -> BotAttemptOutcome:
    """Drive one real session of a class and return its outcome.

    In the ``"open"`` phase the server runs no policy and
    ``greylist_delay`` is unused.  Otherwise the server greylists with
    that threshold, and the dialogue arrives with its triplet in
    ``phase``.
    """
    if phase not in SESSION_PHASES:
        raise ValueError(f"unknown session phase {phase!r}")
    clock = Clock()
    policy: Optional[GreylistPolicy] = None
    if phase != "open":
        policy = GreylistPolicy(clock=clock, delay=greylist_delay)
    server = SMTPServer(
        hostname="smtp.class.example",
        clock=clock,
        policy=policy,
        local_domains=["class.example"],
    )
    message = Message(sender=_SENDER, recipients=[_RECIPIENT])

    def drive() -> BotAttemptOutcome:
        session = server.session_factory(_CLIENT)
        outcome, _ = drive_dialogue(session, message, _RECIPIENT, helo_name)
        return outcome

    if phase in ("early", "passed"):
        # Plant the triplet at t=0, then age it into the requested phase.
        drive()
        if phase == "passed":
            clock.advance_by(greylist_delay)
        else:
            if greylist_delay <= 0:
                raise ValueError(
                    "an 'early' phase needs a positive greylist delay"
                )
            clock.advance_by(greylist_delay / 2)
    return drive()
