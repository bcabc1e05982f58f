"""Unit tests for scan-dataset serialization."""

import pytest

from repro.faults.model import FaultConfig, FaultPlan
from repro.scan.detect import NolistingDetector
from repro.scan.population import PopulationConfig, SyntheticInternet
from repro.scan.scanner import DNSScanner, SMTPScanner
from repro.scan.serialize import (
    ScanFormatError,
    dump_dns_scan,
    dump_smtp_scan,
    load_dns_scan,
    load_smtp_scan,
)


@pytest.fixture(scope="module")
def captures():
    internet = SyntheticInternet(PopulationConfig(num_domains=400), seed=19)
    scanner = DNSScanner(internet, glue_elision_rate=0.2, seed=19)
    dns = scanner.scan(1)
    smtp = SMTPScanner(internet).scan(1)
    return internet, dns, smtp


class TestDNSScanRoundtrip:
    def test_roundtrip_preserves_observations(self, captures):
        _, dns, _ = captures
        restored = load_dns_scan(dump_dns_scan(dns))
        assert restored.scan_index == dns.scan_index
        assert restored.num_domains == dns.num_domains
        for domain, observation in dns.observations.items():
            other = restored.get(domain)
            assert other is not None
            assert other.nxdomain == observation.nxdomain
            assert [
                (r.preference, r.exchange, r.address) for r in other.sorted_mx()
            ] == [
                (r.preference, r.exchange, r.address)
                for r in observation.sorted_mx()
            ]

    def test_header_required(self):
        with pytest.raises(ScanFormatError):
            load_dns_scan("garbage")

    def test_malformed_line_rejected(self):
        with pytest.raises(ScanFormatError):
            load_dns_scan("# repro-dns-scan v1\nonlyonefield\n")

    def test_unknown_status_rejected(self):
        with pytest.raises(ScanFormatError):
            load_dns_scan("# repro-dns-scan v1\nd.example weird\n")

    def test_empty_dataset(self):
        from repro.scan.datasets import DNSScanDataset

        restored = load_dns_scan(dump_dns_scan(DNSScanDataset(scan_index=3)))
        assert restored.num_domains == 0
        assert restored.scan_index == 3


    def test_every_status_roundtrips(self):
        from repro.net.address import IPv4Address
        from repro.scan.datasets import (
            DNSScanDataset,
            DomainObservation,
            MXObservation,
        )

        dataset = DNSScanDataset(scan_index=1)
        dataset.add(DomainObservation("gone.example", nxdomain=True))
        dataset.add(DomainObservation("flaky.example", servfail=True))
        dataset.add(DomainObservation("bare.example"))
        dataset.add(
            DomainObservation(
                "mail.example",
                mx=[
                    MXObservation(0, "smtp.mail.example", None),
                    MXObservation(
                        15, "smtp1.mail.example", IPv4Address.parse("192.0.2.9")
                    ),
                ],
            )
        )
        text = dump_dns_scan(dataset)
        assert text.splitlines()[2:] == [
            "bare.example nomx",
            "flaky.example servfail",
            "gone.example nxdomain",
            "mail.example ok 0:smtp.mail.example:- 15:smtp1.mail.example:192.0.2.9",
        ]
        restored = load_dns_scan(text)
        assert restored.observations == dataset.observations

    def test_comments_and_blank_lines_skipped(self):
        restored = load_dns_scan(
            "# repro-dns-scan v1\n# scan-index 2\n\n# a note\nd.example nomx\n"
        )
        assert restored.scan_index == 2
        assert list(restored.observations) == ["d.example"]

    @pytest.mark.parametrize("token", ["10", "10:-"])
    def test_mx_token_without_exchange_rejected(self, token):
        with pytest.raises(ScanFormatError, match="malformed MX token"):
            load_dns_scan(f"# repro-dns-scan v1\nd.example ok {token}\n")


class TestSMTPScanRoundtrip:
    def test_roundtrip(self, captures):
        _, _, smtp = captures
        restored = load_smtp_scan(dump_smtp_scan(smtp))
        assert restored.scan_index == smtp.scan_index
        assert restored.probed == smtp.probed
        assert restored.listening == smtp.listening

    def test_header_required(self):
        with pytest.raises(ScanFormatError):
            load_smtp_scan("nope")

    def test_comments_and_blank_lines_skipped(self):
        restored = load_smtp_scan(
            "# repro-smtp-scan v1\n# probed 4\n\n# a note\n192.0.2.1\n"
        )
        assert restored.probed == 4
        assert [str(a) for a in restored.listening] == ["192.0.2.1"]


class TestOfflinePipeline:
    def test_detection_from_serialized_files(self):
        # The full two-scan pipeline run purely from dumped captures must
        # agree with the live pipeline.
        internet = SyntheticInternet(
            PopulationConfig(num_domains=600), seed=23
        )
        scanner = DNSScanner(internet, glue_elision_rate=0.0)
        smtp_scanner = SMTPScanner(internet)
        dns_a, dns_b = scanner.scan(0), scanner.scan(1)
        smtp_a, smtp_b = smtp_scanner.scan(0), smtp_scanner.scan(1)

        live = NolistingDetector(dns_a, smtp_a, dns_b, smtp_b).summarize()
        offline = NolistingDetector(
            load_dns_scan(dump_dns_scan(dns_a)),
            load_smtp_scan(dump_smtp_scan(smtp_a)),
            load_dns_scan(dump_dns_scan(dns_b)),
            load_smtp_scan(dump_smtp_scan(smtp_b)),
        ).summarize()
        assert offline.counts == live.counts
        assert offline.total_domains == live.total_domains

    def test_faulted_scans_keep_transient_failures(self):
        # A timed-out or SERVFAILed query must reload as a transient
        # failure, not as an authoritative "no MX", or the two-scan
        # protocol stops falling back on the other scan.
        internet = SyntheticInternet(PopulationConfig(num_domains=600), seed=29)
        plan = FaultPlan(FaultConfig.uniform(0.2, seed=29))
        scanner = DNSScanner(internet, glue_elision_rate=0.0, faults=plan)
        smtp_scanner = SMTPScanner(internet, faults=plan)
        captures = [scanner.scan(0), scanner.scan(1)]
        smtp = [smtp_scanner.scan(0), smtp_scanner.scan(1)]
        assert all(any(o.timeout for o in dns) for dns in captures)
        restored = [load_dns_scan(dump_dns_scan(dns)) for dns in captures]

        def flags(observation):
            return (
                observation.nxdomain,
                observation.servfail,
                observation.timeout,
                [(r.preference, r.exchange, r.address) for r in observation.mx],
            )

        for live, reloaded in zip(captures, restored):
            assert {d: flags(o) for d, o in reloaded.observations.items()} == {
                d: flags(o) for d, o in live.observations.items()
            }
        assert NolistingDetector(
            restored[0], smtp[0], restored[1], smtp[1]
        ).classify_all() == NolistingDetector(
            captures[0], smtp[0], captures[1], smtp[1]
        ).classify_all()
