"""Tests for the Table II defence matrix and the MX-behaviour classifier."""

import pytest

from repro.botnet.behavior import MXBehavior
from repro.botnet.families import FAMILIES
from repro.botnet.samples import collect_samples, samples_of
from repro.core.defense_matrix import build_defense_matrix, run_sample
from repro.core.mx_classifier import classify_sample, infer_behavior
from repro.core.testbed import Defense


@pytest.fixture(scope="module")
def matrix():
    # Smaller workload than the bench, same verdicts.
    return build_defense_matrix(recipients=2, horizon=200000.0)


class TestDefenseMatrix:
    def test_all_samples_run_under_both_defenses(self, matrix):
        assert len(matrix.runs) == 22  # 11 samples x 2 defences

    def test_greylisting_verdicts_match_paper(self, matrix):
        verdicts = matrix.family_verdicts(Defense.GREYLISTING)
        assert verdicts == {
            "Cutwail": True,
            "Kelihos": False,
            "Darkmailer": True,
            "Darkmailer(v3)": True,
        }

    def test_nolisting_verdicts_match_paper(self, matrix):
        verdicts = matrix.family_verdicts(Defense.NOLISTING)
        assert verdicts == {
            "Cutwail": False,
            "Kelihos": True,
            "Darkmailer": False,
            "Darkmailer(v3)": False,
        }

    def test_intra_family_consistency(self, matrix):
        # "all malware samples belonging to the same family shared the same
        # behavior" — family_verdicts raises if they disagree.
        matrix.family_verdicts(Defense.GREYLISTING)
        matrix.family_verdicts(Defense.NOLISTING)

    def test_verdict_lookup(self, matrix):
        run = matrix.verdict("Kelihos/sample1", Defense.NOLISTING)
        assert run is not None
        assert run.effective
        assert run.spam_delivered == 0
        assert matrix.verdict("Kelihos/sample1", Defense.GREYLISTING).spam_delivered > 0

    def test_unknown_sample_returns_none(self, matrix):
        assert matrix.verdict("Ghost/sample1", Defense.NOLISTING) is None

    def test_blocked_bots_still_attempted(self, matrix):
        for run in matrix.runs:
            assert run.total_attempts > 0


class TestRunSample:
    def test_single_run_kelihos_greylisting(self):
        sample = samples_of("Kelihos")[0]
        run = run_sample(sample, Defense.GREYLISTING, recipients=2)
        assert not run.blocked
        assert run.family == "Kelihos"

    def test_single_run_cutwail_nolisting(self):
        sample = samples_of("Cutwail")[0]
        run = run_sample(sample, Defense.NOLISTING, recipients=2)
        assert not run.blocked

    def test_both_defenses_stop_everything(self):
        # §VI: "using both techniques together is a very effective way to
        # protect against the majority of spam."
        for family in FAMILIES:
            sample = samples_of(family.name)[0]
            run = run_sample(sample, Defense.BOTH, recipients=2)
            assert run.blocked, family.name


class TestInferBehavior:
    MX = ["mx0.d", "mx1.d", "mx2.d"]

    def test_primary_only(self):
        assert infer_behavior(["mx0.d", "mx0.d"], self.MX) is MXBehavior.PRIMARY_ONLY

    def test_secondary_only(self):
        assert infer_behavior(["mx2.d"], self.MX) is MXBehavior.SECONDARY_ONLY

    def test_rfc_compliant_full_walk(self):
        assert (
            infer_behavior(["mx0.d", "mx1.d", "mx2.d"], self.MX)
            is MXBehavior.RFC_COMPLIANT
        )

    def test_rfc_compliant_prefix(self):
        assert infer_behavior(["mx0.d", "mx1.d"], self.MX) is MXBehavior.RFC_COMPLIANT

    def test_all_mx_scrambled(self):
        assert (
            infer_behavior(["mx2.d", "mx0.d", "mx1.d"], self.MX)
            is MXBehavior.ALL_MX
        )

    def test_empty_trace(self):
        assert infer_behavior([], self.MX) is None


class TestClassifySamples:
    def test_every_sample_classified_as_its_family(self):
        for sample in collect_samples():
            result = classify_sample(sample)
            assert result.inferred is result.expected, sample.label

    def test_kelihos_trace_touches_only_primary(self):
        result = classify_sample(samples_of("Kelihos")[0])
        assert set(result.contacted) == {"mx0.trace.observe.example"}

    def test_cutwail_trace_touches_only_lowest(self):
        result = classify_sample(samples_of("Cutwail")[0])
        assert set(result.contacted) == {"mx2.trace.observe.example"}

    def test_darkmailer_walks_in_order(self):
        result = classify_sample(samples_of("Darkmailer")[0])
        assert result.contacted[:3] == [
            "mx0.trace.observe.example",
            "mx1.trace.observe.example",
            "mx2.trace.observe.example",
        ]
