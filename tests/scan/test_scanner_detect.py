"""Unit tests for the scanners and the nolisting detection pipeline."""

import pytest

from repro.net.address import IPv4Address
from repro.scan.datasets import (
    DNSScanDataset,
    DomainObservation,
    MXObservation,
    SMTPScanDataset,
)
from repro.scan.detect import (
    DomainClass,
    NolistingDetector,
    SingleScanVerdict,
    classify_single_scan,
    classify_two_scans,
    summarize_single_scan,
)
from repro.scan.population import (
    DomainCategory,
    PopulationConfig,
    SyntheticInternet,
)
from repro.scan.scanner import DNSScanner, SMTPScanner


def addr(text):
    return IPv4Address.parse(text)


def observation(domain="d.example", mx=None, nxdomain=False):
    return DomainObservation(domain=domain, mx=mx or [], nxdomain=nxdomain)


def smtp_with(*addresses):
    dataset = SMTPScanDataset(scan_index=0)
    for a in addresses:
        dataset.add(addr(a))
    return dataset


class TestClassifySingleScan:
    def test_one_mx(self):
        obs = observation(
            mx=[MXObservation(10, "smtp.d.example", addr("1.1.1.1"))]
        )
        verdict = classify_single_scan(obs, smtp_with("1.1.1.1"))
        assert verdict is SingleScanVerdict.ONE_MX

    def test_primary_up(self):
        obs = observation(
            mx=[
                MXObservation(0, "smtp.d.example", addr("1.1.1.1")),
                MXObservation(15, "smtp1.d.example", addr("1.1.1.2")),
            ]
        )
        verdict = classify_single_scan(obs, smtp_with("1.1.1.1", "1.1.1.2"))
        assert verdict is SingleScanVerdict.PRIMARY_UP

    def test_nolisting_candidate(self):
        obs = observation(
            mx=[
                MXObservation(0, "smtp.d.example", addr("1.1.1.1")),
                MXObservation(15, "smtp1.d.example", addr("1.1.1.2")),
            ]
        )
        verdict = classify_single_scan(obs, smtp_with("1.1.1.2"))
        assert verdict is SingleScanVerdict.NOLISTING_CANDIDATE

    def test_all_down(self):
        obs = observation(
            mx=[
                MXObservation(0, "smtp.d.example", addr("1.1.1.1")),
                MXObservation(15, "smtp1.d.example", addr("1.1.1.2")),
            ]
        )
        assert classify_single_scan(obs, smtp_with()) is SingleScanVerdict.ALL_DOWN

    def test_priority_order_decides_primary(self):
        # Records arrive unsorted; preference must decide who is primary.
        obs = observation(
            mx=[
                MXObservation(15, "smtp1.d.example", addr("1.1.1.2")),
                MXObservation(0, "smtp.d.example", addr("1.1.1.1")),
            ]
        )
        verdict = classify_single_scan(obs, smtp_with("1.1.1.2"))
        assert verdict is SingleScanVerdict.NOLISTING_CANDIDATE

    def test_unresolved_records_ignored(self):
        obs = observation(
            mx=[
                MXObservation(0, "ghost.d.example", None),
                MXObservation(15, "smtp1.d.example", addr("1.1.1.2")),
            ]
        )
        # Only one usable record left -> one-MX, not candidate.
        verdict = classify_single_scan(obs, smtp_with("1.1.1.2"))
        assert verdict is SingleScanVerdict.ONE_MX

    def test_missing_or_broken_observation_misconfigured(self):
        assert (
            classify_single_scan(None, smtp_with())
            is SingleScanVerdict.MISCONFIGURED
        )
        assert (
            classify_single_scan(observation(nxdomain=True), smtp_with())
            is SingleScanVerdict.MISCONFIGURED
        )
        assert (
            classify_single_scan(observation(mx=[]), smtp_with())
            is SingleScanVerdict.MISCONFIGURED
        )

    @pytest.mark.parametrize("fault", ["servfail", "timeout"])
    def test_unanswered_query_is_unknown(self, fault):
        # No answer says nothing about the domain, unlike NXDOMAIN.
        obs = DomainObservation(
            domain="d.example",
            mx=[MXObservation(10, "smtp.d.example", addr("1.1.1.1"))],
            **{fault: True},
        )
        verdict = classify_single_scan(obs, smtp_with("1.1.1.1"))
        assert verdict is SingleScanVerdict.UNKNOWN

    def test_single_scan_summary_takes_candidates_at_their_word(self):
        # The no-repeat ablation: a candidate counts as nolisting, and an
        # unanswered query as a DNS problem.
        dns = DNSScanDataset(scan_index=0)
        dns.add(
            observation(
                "nolisted.example",
                mx=[
                    MXObservation(0, "smtp.nolisted.example", addr("1.1.1.1")),
                    MXObservation(15, "smtp1.nolisted.example", addr("1.1.1.2")),
                ],
            )
        )
        dns.add(DomainObservation(domain="flaky.example", timeout=True))
        dns.add(
            observation(
                "plain.example",
                mx=[MXObservation(10, "smtp.plain.example", addr("1.1.1.3"))],
            )
        )
        summary = summarize_single_scan(dns, smtp_with("1.1.1.2", "1.1.1.3"))
        assert summary.total_domains == 3
        assert summary.counts == {
            DomainClass.ONE_MX: 1,
            DomainClass.MULTI_MX_NO_NOLISTING: 0,
            DomainClass.NOLISTING: 1,
            DomainClass.DNS_MISCONFIGURED: 1,
        }


class TestClassifyTwoScans:
    def test_candidate_in_both_is_nolisting(self):
        verdict = classify_two_scans(
            "d",
            SingleScanVerdict.NOLISTING_CANDIDATE,
            SingleScanVerdict.NOLISTING_CANDIDATE,
        )
        assert verdict.domain_class is DomainClass.NOLISTING

    def test_candidate_in_one_is_transient(self):
        verdict = classify_two_scans(
            "d",
            SingleScanVerdict.NOLISTING_CANDIDATE,
            SingleScanVerdict.PRIMARY_UP,
        )
        assert verdict.domain_class is DomainClass.MULTI_MX_NO_NOLISTING

    def test_primary_up_once_is_definitive(self):
        verdict = classify_two_scans(
            "d", SingleScanVerdict.PRIMARY_UP, SingleScanVerdict.ALL_DOWN
        )
        assert verdict.domain_class is DomainClass.MULTI_MX_NO_NOLISTING

    def test_one_mx(self):
        verdict = classify_two_scans(
            "d", SingleScanVerdict.ONE_MX, SingleScanVerdict.ONE_MX
        )
        assert verdict.domain_class is DomainClass.ONE_MX

    def test_misconfigured(self):
        verdict = classify_two_scans(
            "d", SingleScanVerdict.MISCONFIGURED, SingleScanVerdict.MISCONFIGURED
        )
        assert verdict.domain_class is DomainClass.DNS_MISCONFIGURED

    def test_candidate_and_unknown_is_not_nolisting(self):
        # Nolisting needs a confirmation in both scans.
        verdict = classify_two_scans(
            "d", SingleScanVerdict.NOLISTING_CANDIDATE, SingleScanVerdict.UNKNOWN
        )
        assert verdict.domain_class is DomainClass.MULTI_MX_NO_NOLISTING

    def test_unknown_in_both_is_misconfigured(self):
        verdict = classify_two_scans(
            "d", SingleScanVerdict.UNKNOWN, SingleScanVerdict.UNKNOWN
        )
        assert verdict.domain_class is DomainClass.DNS_MISCONFIGURED

    def test_all_down_in_both_is_a_dead_multi_mx_deployment(self):
        verdict = classify_two_scans(
            "d", SingleScanVerdict.ALL_DOWN, SingleScanVerdict.ALL_DOWN
        )
        assert verdict.domain_class is DomainClass.MULTI_MX_NO_NOLISTING

    def test_class_does_not_depend_on_scan_order(self):
        for a in SingleScanVerdict:
            for b in SingleScanVerdict:
                forward = classify_two_scans("d", a, b)
                backward = classify_two_scans("d", b, a)
                assert forward.domain_class is backward.domain_class, (a, b)
                assert forward.scan_verdicts == [a, b]


class TestScannersEndToEnd:
    @pytest.fixture(scope="class")
    def world(self):
        config = PopulationConfig(
            num_domains=1500, transient_outage_rate=0.01
        )
        internet = SyntheticInternet(config, seed=11)
        dns_scanner = DNSScanner(internet, glue_elision_rate=0.2, seed=11)
        dns_a = dns_scanner.scan(0)
        dns_b = dns_scanner.scan(1)
        dns_scanner.parallel_resolve(dns_a)
        dns_scanner.parallel_resolve(dns_b)
        smtp_scanner = SMTPScanner(internet)
        smtp_a = smtp_scanner.scan(0)
        smtp_b = smtp_scanner.scan(1)
        return internet, dns_a, dns_b, smtp_a, smtp_b

    def test_dns_scan_covers_population(self, world):
        internet, dns_a, *_ = world
        assert dns_a.num_domains == internet.num_domains

    def test_glue_elision_produces_unresolved_records(self):
        internet = SyntheticInternet(
            PopulationConfig(num_domains=300), seed=11
        )
        scanner = DNSScanner(internet, glue_elision_rate=0.5, seed=1)
        dataset = scanner.scan(0)
        assert any(not r.resolved for o in dataset for r in o.mx)

    def test_elision_requires_seed(self):
        internet = SyntheticInternet(PopulationConfig(num_domains=300), seed=11)
        with pytest.raises(ValueError):
            DNSScanner(internet, glue_elision_rate=0.5)

    def test_elision_rate_bounds(self):
        internet = SyntheticInternet(PopulationConfig(num_domains=300), seed=11)
        with pytest.raises(ValueError):
            DNSScanner(internet, glue_elision_rate=1.5, seed=1)

    def test_parallel_resolve_repairs_elided_glue(self, world):
        _, dns_a, dns_b, *_ = world
        # After repair, the only unresolved MX records are genuine danglers.
        for dataset in (dns_a, dns_b):
            for obs in dataset:
                for record in obs.mx:
                    if not record.resolved:
                        assert record.exchange.startswith("ghost.")

    def test_smtp_scan_counts(self, world):
        internet, _, _, smtp_a, _ = world
        assert smtp_a.probed == len(internet.all_mail_addresses())
        assert 0 < len(smtp_a.listening) <= smtp_a.probed

    def test_detector_recovers_ground_truth(self, world):
        internet, dns_a, dns_b, smtp_a, smtp_b = world
        detector = NolistingDetector(dns_a, smtp_a, dns_b, smtp_b)
        truth = {t.name: t.category for t in internet.domains}
        expected_class = {
            DomainCategory.SINGLE_MX: DomainClass.ONE_MX,
            DomainCategory.MULTI_MX: DomainClass.MULTI_MX_NO_NOLISTING,
            DomainCategory.NOLISTING: DomainClass.NOLISTING,
            DomainCategory.MISCONFIGURED: DomainClass.DNS_MISCONFIGURED,
        }
        for verdict in detector.classify_all():
            assert verdict.domain_class is expected_class[truth[verdict.domain]]

    def test_summary_counts_sum_to_total(self, world):
        _, dns_a, dns_b, smtp_a, smtp_b = world
        summary = NolistingDetector(dns_a, smtp_a, dns_b, smtp_b).summarize()
        assert sum(summary.counts.values()) == summary.total_domains
        assert abs(sum(summary.percentages().values()) - 100.0) < 1e-9
