"""Tests for the Figure 2 adoption experiment."""

import pytest

from repro.core.adoption import (
    run_adoption_experiment,
    single_scan_false_positives,
)
from repro.scan.detect import DomainClass


@pytest.fixture(scope="module")
def result():
    return run_adoption_experiment(num_domains=5000, seed=42)


class TestAdoptionExperiment:
    def test_percentages_near_paper(self, result):
        percentages = result.measured_percentages()
        assert percentages[DomainClass.ONE_MX] == pytest.approx(47.73, abs=0.6)
        assert percentages[DomainClass.MULTI_MX_NO_NOLISTING] == pytest.approx(
            45.97, abs=0.6
        )
        assert percentages[DomainClass.DNS_MISCONFIGURED] == pytest.approx(
            5.78, abs=0.3
        )
        assert percentages[DomainClass.NOLISTING] == pytest.approx(0.52, abs=0.15)

    def test_pipeline_perfect_on_clean_population(self, result):
        assert result.confusion["wrong"] == 0
        assert result.confusion["correct"] == 5000

    def test_parallel_scanner_repaired_records(self, result):
        # glue elision at 10% over two scans must leave work for the
        # follow-up scanner.
        assert result.repaired_mx_records > 0

    def test_popularity_crosscheck_matches_paper(self, result):
        assert result.crosscheck.top15 == 1
        assert result.crosscheck.top500 == 3
        assert result.crosscheck.top1000 == 5

    def test_server_coverage_reported(self, result):
        assert result.summary.servers_covered > 5000  # multi-MX domains
        assert result.summary.addresses_covered > 0

    def test_change_between_scans_small(self, result):
        # The paper observed only a 0.01% change between the two scans.
        assert result.summary.flapped / result.summary.total_domains < 0.01

    def test_deterministic(self):
        a = run_adoption_experiment(num_domains=1000, seed=9)
        b = run_adoption_experiment(num_domains=1000, seed=9)
        assert a.summary.counts == b.summary.counts


@pytest.mark.parametrize("engine", ["object", "batch", "columnar"])
@pytest.mark.parametrize("num_domains", [870, 903])
def test_planting_skipped_when_a_target_rank_is_missing(num_domains, engine):
    # Enough nolisting domains to plant, but rank 904 does not exist yet.
    planted = run_adoption_experiment(num_domains=num_domains, engine=engine)
    unplanted = run_adoption_experiment(
        num_domains=num_domains, engine=engine, plant_popular=False
    )
    assert planted.crosscheck == unplanted.crosscheck
    assert planted.summary.total_domains == num_domains


class TestTwoScanAblation:
    def test_single_scan_has_false_positives(self):
        counts = single_scan_false_positives(
            num_domains=5000, seed=42, transient_outage_rate=0.02
        )
        # Transiently-down primaries masquerade as nolisting in one scan.
        assert counts["false_positives"] > 0
        assert counts["true_positives"] > 0

    def test_two_scan_protocol_removes_them(self):
        result = run_adoption_experiment(
            num_domains=5000, seed=42, transient_outage_rate=0.02
        )
        # Despite 2% transient outages the pipeline stays perfect.
        assert result.confusion["wrong"] == 0

    def test_no_outages_no_false_positives(self):
        counts = single_scan_false_positives(
            num_domains=2000, seed=42, transient_outage_rate=0.0
        )
        assert counts["false_positives"] == 0
