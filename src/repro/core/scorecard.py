"""The reproduction scorecard: every headline number, one call.

Runs a reduced-scale version of every experiment and prints a
paper-vs-measured table with a pass/fail verdict per claim — the
one-page answer to "does this reproduction hold?".

Each paper artefact is scored by its own section function; the sections
are independent experiments, so :func:`build_scorecard` fans them over
the parallel experiment runner (``workers > 1``) and concatenates the
rows in the fixed section order — the table is identical whatever the
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..analysis.cdf import ks_distance
from ..analysis.tables import render_table
from ..botnet.families import KELIHOS
from ..runner.pool import run_tasks
from ..scan.detect import DomainClass
from .adoption import run_adoption_experiment
from .coverage import build_coverage_report
from .defense_matrix import build_defense_matrix
from .deployment import run_deployment_experiment
from .figure1 import run_figure1
from .greylist_experiment import run_greylist_experiment
from .mta_survey import run_mta_survey
from .testbed import Defense
from .webmail_experiment import run_webmail_experiment


@dataclass
class ScorecardRow:
    """One claim's reproduction status."""

    artefact: str
    claim: str
    paper: str
    measured: str
    holds: bool


def _scaled(base: int, scale: float) -> int:
    return max(10, int(base * scale))


def _score_figure1(seed: int, scale: float) -> List[ScorecardRow]:
    trace = run_figure1()
    return [
        ScorecardRow(
            artefact="Figure 1",
            claim="compliant MTA delivers through nolisting",
            paper="delivers via secondary MX",
            measured="delivered" if trace.delivered else "LOST",
            holds=trace.delivered,
        )
    ]


def _score_adoption(seed: int, scale: float) -> List[ScorecardRow]:
    adoption = run_adoption_experiment(
        num_domains=_scaled(5000, scale), seed=seed
    )
    nolisting_pct = 100.0 * adoption.summary.fraction(DomainClass.NOLISTING)
    return [
        ScorecardRow(
            artefact="Figure 2",
            claim="nolisting adoption share",
            paper="0.52%",
            measured=f"{nolisting_pct:.2f}%",
            holds=abs(nolisting_pct - 0.52) < 0.2,
        ),
        ScorecardRow(
            artefact="Figure 2",
            claim="top-15 adopter found",
            paper="1",
            measured=str(adoption.crosscheck.top15),
            holds=adoption.crosscheck.top15 == 1,
        ),
    ]


def _score_defenses(seed: int, scale: float) -> List[ScorecardRow]:
    matrix = build_defense_matrix(seed=seed, recipients=2)
    grey = matrix.family_verdicts(Defense.GREYLISTING)
    nolist = matrix.family_verdicts(Defense.NOLISTING)
    table2_holds = (
        grey
        == {
            "Cutwail": True,
            "Kelihos": False,
            "Darkmailer": True,
            "Darkmailer(v3)": True,
        }
        and nolist
        == {
            "Cutwail": False,
            "Kelihos": True,
            "Darkmailer": False,
            "Darkmailer(v3)": False,
        }
    )
    report = build_coverage_report(matrix)
    return [
        ScorecardRow(
            artefact="Table II",
            claim="per-family verdict matrix",
            paper="grey blocks C/D/Dv3; nolist blocks K",
            measured="identical" if table2_holds else "DIVERGED",
            holds=table2_holds,
        ),
        ScorecardRow(
            artefact="§VI",
            claim="global spam stopped by either technique",
            paper=">70% (70.69%)",
            measured=f"{100 * report.combined_share:.2f}%",
            holds=report.combined_share > 0.70,
        ),
    ]


def _score_figure3(seed: int, scale: float) -> List[ScorecardRow]:
    n = _scaled(50, scale)
    res5 = run_greylist_experiment(KELIHOS, 5.0, num_messages=n, seed=seed)
    res300 = run_greylist_experiment(KELIHOS, 300.0, num_messages=n, seed=seed)
    ks = ks_distance(res5.delay_cdf(), res300.delay_cdf())
    return [
        ScorecardRow(
            artefact="Figure 3",
            claim="Kelihos CDFs similar at 5s vs 300s",
            paper="similar curves",
            measured=f"KS={ks:.3f}",
            holds=ks <= 0.25,
        ),
        ScorecardRow(
            artefact="Figure 3",
            claim="minimum Kelihos retry delay",
            paper=">=300s",
            measured=f"{min(res5.delivery_delays):.0f}s",
            holds=min(res5.delivery_delays) >= 300.0,
        ),
    ]


def _score_figure4(seed: int, scale: float) -> List[ScorecardRow]:
    res21600 = run_greylist_experiment(
        KELIHOS,
        21600.0,
        num_messages=_scaled(30, scale),
        seed=seed,
        horizon=400000.0,
    )
    return [
        ScorecardRow(
            artefact="Figure 4",
            claim="Kelihos defeats a 6h threshold",
            paper="delivers after several attempts",
            measured=f"{100 * res21600.delivery_rate:.0f}% delivered",
            holds=res21600.delivery_rate == 1.0,
        )
    ]


def _score_figure5(seed: int, scale: float) -> List[ScorecardRow]:
    deployment = run_deployment_experiment(
        num_messages=_scaled(1000, scale), seed=5
    )
    within = deployment.fraction_delivered_within(600.0)
    return [
        ScorecardRow(
            artefact="Figure 5",
            claim="benign mail within 10 minutes",
            paper="~half",
            measured=f"{100 * within:.0f}%",
            holds=0.30 <= within <= 0.70,
        )
    ]


def _score_webmail(seed: int, scale: float) -> List[ScorecardRow]:
    webmail = run_webmail_experiment()
    lost = sorted(r.provider for r in webmail if not r.delivered)
    attempts = {r.provider: r.attempts for r in webmail}
    return [
        ScorecardRow(
            artefact="Table III",
            claim="providers losing mail at 6h",
            paper="qq.com, aol.com",
            measured=", ".join(lost),
            holds=lost == ["aol.com", "qq.com"],
        ),
        ScorecardRow(
            artefact="Table III",
            claim="hotmail attempt count",
            paper="94",
            measured=str(attempts["hotmail.com"]),
            holds=attempts["hotmail.com"] == 94,
        ),
    ]


def _score_mta(seed: int, scale: float) -> List[ScorecardRow]:
    survey = run_mta_survey()
    violators = [r.mta for r in survey if not r.rfc_compliant_lifetime]
    return [
        ScorecardRow(
            artefact="Table IV",
            claim="only Exchange violates the RFC give-up guidance",
            paper="exchange",
            measured=", ".join(violators),
            holds=violators == ["exchange"],
        )
    ]


#: Section name -> scorer, in scorecard row order.
_SECTIONS = {
    "figure1": _score_figure1,
    "adoption": _score_adoption,
    "defenses": _score_defenses,
    "figure3": _score_figure3,
    "figure4": _score_figure4,
    "figure5": _score_figure5,
    "webmail": _score_webmail,
    "mta": _score_mta,
}


def score_section(section: str, seed: int, scale: float) -> List[ScorecardRow]:
    """Score one scorecard section (one worker's unit of work)."""
    try:
        scorer = _SECTIONS[section]
    except KeyError:
        raise ValueError(f"unknown scorecard section {section!r}") from None
    return scorer(seed, scale)


def build_scorecard(
    seed: int = 42, scale: float = 1.0, workers: int = 1
) -> List[ScorecardRow]:
    """Run everything and score it.

    ``scale`` shrinks the workloads for quick runs (0.5 halves message and
    domain counts); verdicts are scale-insensitive.  ``workers`` fans the
    sections over that many processes; the rows come back in the same
    order regardless.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale!r}")

    from ..runner.shards import scorecard_section_task

    payloads = [
        {"section": section, "seed": seed, "scale": scale}
        for section in _SECTIONS
    ]
    sections = run_tasks(scorecard_section_task, payloads, workers=workers)
    return [row for section_rows in sections for row in section_rows]


def render_scorecard(rows: List[ScorecardRow]) -> str:
    """Render scored rows as the paper-vs-measured table."""
    passed = sum(1 for row in rows if row.holds)
    table = render_table(
        headers=("Artefact", "Claim", "Paper", "Measured", "Holds"),
        rows=[
            (row.artefact, row.claim, row.paper, row.measured,
             "yes" if row.holds else "NO")
            for row in rows
        ],
        title=f"Reproduction scorecard — {passed}/{len(rows)} claims hold",
    )
    return table
