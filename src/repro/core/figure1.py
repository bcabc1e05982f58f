"""Figure 1: the DNS + SMTP message sequence of a nolisting delivery.

The paper's Figure 1 is a sequence diagram — MTA queries DNS, gets two MX
records, resolves the primary's A record, fails to connect, falls through
to the secondary and completes the HELO exchange.  Here the diagram is
*generated from a live run*: a compliant client delivering through the
nolisted testbed, with the resolver's query log and the server-side wire
transcript stitched into the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..dns.mxutil import resolve_exchangers
from ..net.host import SMTP_PORT, ConnectionRefused
from ..smtp.message import Message
from ..smtp.wire import TranscribingSession
from .testbed import Defense, Testbed, TestbedConfig


@dataclass
class SequenceStep:
    """One arrow of the sequence diagram."""

    actor: str        # "MTA->DNS", "DNS->MTA", "MTA->primary", ...
    text: str

    def __str__(self) -> str:
        return f"{self.actor:<16} {self.text}"


@dataclass
class Figure1Trace:
    """The full generated sequence."""

    steps: List[SequenceStep]
    delivered: bool

    def __str__(self) -> str:
        return "\n".join(str(step) for step in self.steps)


def run_figure1(domain: str = "foo.net") -> Figure1Trace:
    """Deliver one message through a nolisted domain, recording every hop."""
    testbed = Testbed(
        TestbedConfig(defense=Defense.NOLISTING, victim_domain=domain)
    )
    client_address = testbed.allocate_bot_address()
    steps: List[SequenceStep] = []

    # --- DNS phase -------------------------------------------------------
    steps.append(SequenceStep("MTA->DNS", f"MX QUERY for {domain}"))
    exchangers = resolve_exchangers(testbed.resolver, domain)
    mx_answer = next(
        answer for (qtype, _, answer) in testbed.resolver.query_log
        if qtype == "MX"
    )
    steps.append(SequenceStep("DNS->MTA", mx_answer))
    primary, secondary = exchangers[0], exchangers[1]
    steps.append(
        SequenceStep("MTA->DNS", f"A QUERY for {primary.hostname}")
    )
    steps.append(SequenceStep("DNS->MTA", str(primary.address)))

    # --- primary MX: connection refused (the nolisting trick) ------------
    steps.append(
        SequenceStep("MTA->primary", f"SYN to {primary.address}:{SMTP_PORT}")
    )
    try:
        testbed.internet.connect(client_address, primary.address, SMTP_PORT)
        steps.append(SequenceStep("primary->MTA", "accepted (?!)"))
    except ConnectionRefused:
        steps.append(SequenceStep("primary->MTA", "RST (connection refused)"))

    # --- secondary MX: full HELO exchange ---------------------------------
    steps.append(
        SequenceStep(
            "MTA->secondary", f"SYN to {secondary.address}:{SMTP_PORT}"
        )
    )
    connection = testbed.internet.connect(
        client_address, secondary.address, SMTP_PORT
    )
    wire = TranscribingSession(connection.session, testbed.clock)
    steps.append(
        SequenceStep("secondary->MTA", wire.transcript.entries[-1].line)
    )
    message = Message(
        sender="alice@local.domain.name",
        recipients=[f"user@{domain}"],
    )
    delivered = False
    for line in (
        "HELO local.domain.name",
        f"MAIL FROM:<{message.sender}>",
        f"RCPT TO:<user@{domain}>",
        "DATA",
        "QUIT",
    ):
        steps.append(SequenceStep("MTA->secondary", line))
        reply = wire.execute(line, message=message)
        steps.append(SequenceStep("secondary->MTA", str(reply)))
        if line == "DATA" and reply.is_positive:
            delivered = True
        if not reply.is_positive and not line.startswith("QUIT"):
            break
    return Figure1Trace(steps=steps, delivered=delivered)


def figure1_text(domain: str = "foo.net") -> str:
    """Render the generated Figure 1 sequence."""
    trace = run_figure1(domain)
    header = (
        "Figure 1: DNS communication in presence of Nolisting "
        f"(generated from a live run; delivered={trace.delivered})"
    )
    return f"{header}\n{'=' * len(header)}\n{trace}"
