"""Session playbooks: one *real* SMTP dialogue per outcome class.

The equivalence-class engine — :func:`repro.core.internet_scale.
run_internet_scale` on its default ``engine="columnar"`` — replaces
per-message SMTP dialogues with :class:`~repro.sim.batch.SessionPlaybook`
lookups.  Each playbook is
produced here by driving the real server-side state machine
(:class:`~repro.smtp.server.SMTPSession` with real policy objects) through
the exact dialogue a bot speaks (:func:`repro.botnet.bot.drive_dialogue`)
— once per class, with the class cardinality applied arithmetically by the
caller.

A playbook cache key is ``(bot dialect, server policy fingerprint,
phase)``:

* the *dialect* is the family's HELO name — the only bot-side input the
  server dialogue depends on;
* the *policy fingerprint*
  (:meth:`repro.smtp.server.ConnectionPolicy.fingerprint`) pins the
  server's decision function, including the greylist threshold bucket;
* the *phase* captures the time-dependent part a fingerprint cannot:
  the triplet's greylist age class (``"new"`` / ``"early"`` /
  ``"passed"``).

Memoization over these keys is sound because every component is an outcome
determinant: two sessions agreeing on dialect, fingerprint and phase are
identical state machines fed identical inputs, so the first transcript is
every transcript.  Anything else — retry timing, triplet identity, which
draw produced the client — provably does not reach a policy decision
(triplets are keyed per message, and the policies consult only the inputs
encoded here).
"""

from __future__ import annotations

from typing import Optional

from ..botnet.bot import drive_dialogue
from ..greylist.policy import GreylistPolicy
from ..net.address import IPv4Address
from ..sim.batch import SessionPlaybook
from ..sim.clock import Clock
from ..smtp.message import Message
from ..smtp.server import SMTPServer

#: Greylist age classes a triplet can be in when an attempt arrives.
GREYLIST_PHASES = ("new", "early", "passed")

#: Representative endpoints for class dialogues.  Their concrete values
#: never reach a policy decision (greylist triplets are controlled via the
#: phase), so one fixed pair serves every class.
_CLIENT = IPv4Address(0xC6336464)  # 198.51.100.100
_RECIPIENT = "user@class.example"
_SENDER = "representative@botnet.example"


def build_playbook(
    helo_name: str,
    greylist_delay: Optional[float] = None,
    greylist_phase: str = "new",
    store_backend: str = "memory",
) -> SessionPlaybook:
    """Drive one real session for a class and freeze it as a playbook.

    ``greylist_delay=None`` means no greylisting policy; otherwise the
    server greylists with that threshold and the dialogue arrives with its
    triplet in ``greylist_phase``.  ``store_backend`` selects the greylist
    policy's triplet-store backend (:mod:`repro.greylist.backends`);
    backends are bit-for-bit equivalent, so it is deliberately absent
    from playbook cache keys.
    """
    if greylist_phase not in GREYLIST_PHASES:
        raise ValueError(f"unknown greylist phase {greylist_phase!r}")
    clock = Clock()
    policy: Optional[GreylistPolicy] = None
    if greylist_delay is not None:
        policy = GreylistPolicy(
            clock=clock, delay=greylist_delay, store_backend=store_backend
        )
    server = SMTPServer(
        hostname="smtp.class.example",
        clock=clock,
        policy=policy,
        local_domains=["class.example"],
    )
    message = Message(sender=_SENDER, recipients=[_RECIPIENT])

    def drive() -> tuple:
        session = server.session_factory(_CLIENT)
        return drive_dialogue(session, message, _RECIPIENT, helo_name)

    if greylist_delay is not None and greylist_phase != "new":
        # Plant the triplet at t=0, then age it into the requested phase.
        drive()
        if greylist_phase == "passed":
            clock.advance_by(greylist_delay)
        else:
            if greylist_delay <= 0:
                raise ValueError(
                    "an 'early' phase needs a positive greylist delay"
                )
            clock.advance_by(greylist_delay / 2)

    outcome, reply_code, transcript = drive()
    return SessionPlaybook.make(
        outcome=outcome.value, reply_code=reply_code, transcript=transcript
    )
