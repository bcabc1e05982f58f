"""Tests for the seed-sensitivity harness."""

import pytest

from repro.core.sensitivity import (
    adoption_sensitivity,
    deployment_sensitivity,
    verdicts_seed_invariant,
)


class TestAdoptionSensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        return adoption_sensitivity(seeds=(1, 2, 3), num_domains=3000)

    def test_pipeline_perfect_at_every_seed(self, result):
        assert all(wrong == 0 for wrong in result.misclassified)

    def test_nolisting_share_stable(self, result):
        # The generator apportions categories exactly; the measured share
        # barely moves across seeds.
        assert max(result.nolisting_pct) - min(result.nolisting_pct) < 0.2
        for pct in result.nolisting_pct:
            assert pct == pytest.approx(0.52, abs=0.15)

    def test_one_mx_share_stable(self, result):
        for pct in result.one_mx_pct:
            assert pct == pytest.approx(47.73, abs=0.5)


class TestDeploymentSensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        return deployment_sensitivity(seeds=(1, 2, 3), num_messages=600)

    def test_median_delay_in_figure5_band_at_every_seed(self, result):
        for m in result.medians:
            assert 300.0 <= m <= 1200.0

    def test_bootstrap_cis_cover_their_estimates(self, result):
        for m, ci in zip(result.medians, result.median_cis):
            assert m in ci

    def test_within_10min_fraction_stable(self, result):
        for fraction in result.within_10min:
            assert 0.30 <= fraction <= 0.75


class TestVerdictInvariance:
    def test_table2_verdicts_do_not_depend_on_seed(self):
        # The behavioural verdicts are structural: greylisting always
        # blocks fire-and-forget families, nolisting always blocks
        # primary-only ones — whatever the RNG draws.
        assert verdicts_seed_invariant(seeds=(3, 11))
