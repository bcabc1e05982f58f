"""Session playbooks: one *real* SMTP dialogue per outcome class.

The equivalence-class engines — :func:`repro.core.internet_scale.
run_internet_scale` on its default ``engine="columnar"`` and
:func:`repro.core.synergy.run_synergy_experiment` with ``engine="batch"``
— replace per-message SMTP dialogues with
:class:`~repro.sim.batch.SessionPlaybook` lookups.  Each playbook is
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
* the *phase* captures the time/state-dependent part a fingerprint cannot:
  the triplet's greylist age class (``"new"`` / ``"early"`` / ``"passed"``)
  and, when a DNSBL is stacked in front, whether the client is currently
  ``"listed"`` or ``"unlisted"``.

Memoization over these keys is sound because every component is an outcome
determinant: two sessions agreeing on dialect, fingerprint and phase are
identical state machines fed identical inputs, so the first transcript is
every transcript.  Anything else — retry timing, triplet identity, which
draw produced the client — provably does not reach a policy decision
(triplets are keyed per message, and the policies consult only the inputs
encoded here).
"""

from __future__ import annotations

from typing import List, Optional

from ..blacklist.dnsbl import ReactiveBlacklist
from ..blacklist.policy import DNSBLPolicy
from ..botnet.bot import drive_dialogue
from ..greylist.policy import GreylistPolicy
from ..net.address import IPv4Address
from ..sim.batch import SessionPlaybook
from ..sim.clock import Clock
from ..smtp.message import Message
from ..smtp.server import CompositePolicy, ConnectionPolicy, SMTPServer

#: Greylist age classes a triplet can be in when an attempt arrives.
GREYLIST_PHASES = ("new", "early", "passed")

#: Representative endpoints for class dialogues.  Their concrete values
#: never reach a policy decision (greylist triplets are controlled via the
#: phase, the DNSBL via the ``listed`` flag), so one fixed pair serves
#: every class.
_CLIENT = IPv4Address(0xC6336464)  # 198.51.100.100
_RECIPIENT = "user@class.example"
_SENDER = "representative@botnet.example"


def build_playbook(
    helo_name: str,
    greylist_delay: Optional[float] = None,
    dnsbl: bool = False,
    listed: bool = False,
    greylist_phase: str = "new",
    store_backend: str = "memory",
) -> SessionPlaybook:
    """Drive one real session for a class and freeze it as a playbook.

    ``greylist_delay=None`` means no greylisting policy; otherwise the
    server greylists with that threshold and the dialogue arrives with its
    triplet in ``greylist_phase``.  ``dnsbl`` stacks a DNSBL policy in
    front (the synergy ordering), with the client pre-``listed`` or not.
    ``store_backend`` selects the greylist policy's triplet-store backend
    (:mod:`repro.greylist.backends`); backends are bit-for-bit
    equivalent, so it is deliberately absent from playbook cache keys.
    """
    if greylist_phase not in GREYLIST_PHASES:
        raise ValueError(f"unknown greylist phase {greylist_phase!r}")
    clock = Clock()
    policies: List[ConnectionPolicy] = []
    blacklist: Optional[ReactiveBlacklist] = None
    if dnsbl:
        # Threshold 1 / zero processing delay lets one report flip the
        # representative client to "listed" instantly; neither knob is
        # part of the DNSBL policy fingerprint.
        blacklist = ReactiveBlacklist(
            clock, detection_threshold=1, processing_delay=0.0
        )
        policies.append(DNSBLPolicy(blacklist, report_attempts=False))
    if greylist_delay is not None:
        policies.append(
            GreylistPolicy(
                clock=clock, delay=greylist_delay, store_backend=store_backend
            )
        )
    policy: Optional[ConnectionPolicy] = None
    if len(policies) == 1:
        policy = policies[0]
    elif policies:
        policy = CompositePolicy(policies)
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
    if listed:
        if blacklist is None:
            raise ValueError("listed phase needs dnsbl=True")
        blacklist.report(_CLIENT)

    outcome, reply_code, transcript = drive()
    return SessionPlaybook.make(
        outcome=outcome.value, reply_code=reply_code, transcript=transcript
    )
