"""Unit tests for the scan-dataset containers."""

from repro.net.address import IPv4Address
from repro.scan.datasets import (
    DNSScanDataset,
    DomainObservation,
    MXObservation,
    SMTPScanDataset,
)


def addr(text):
    return IPv4Address.parse(text)


class TestDomainObservation:
    def test_sorted_mx_orders_by_preference_then_name(self):
        observation = DomainObservation(
            domain="d.example",
            mx=[
                MXObservation(20, "b.d.example", addr("1.1.1.2")),
                MXObservation(10, "z.d.example", addr("1.1.1.1")),
                MXObservation(20, "a.d.example", addr("1.1.1.3")),
            ],
        )
        ordered = observation.sorted_mx()
        assert [(r.preference, r.exchange) for r in ordered] == [
            (10, "z.d.example"),
            (20, "a.d.example"),
            (20, "b.d.example"),
        ]


class TestDNSScanDataset:
    def test_add_get_iterate(self):
        dataset = DNSScanDataset(scan_index=0)
        dataset.add(DomainObservation(domain="a.example"))
        dataset.add(DomainObservation(domain="b.example"))
        assert dataset.num_domains == 2
        assert dataset.get("a.example") is not None
        assert dataset.get("ghost.example") is None
        assert {o.domain for o in dataset} == {"a.example", "b.example"}

    def test_add_replaces_same_domain(self):
        dataset = DNSScanDataset(scan_index=0)
        dataset.add(DomainObservation(domain="a.example"))
        dataset.add(DomainObservation(domain="a.example", nxdomain=True))
        assert dataset.num_domains == 1
        assert dataset.get("a.example").nxdomain


class TestSMTPScanDataset:
    def test_membership(self):
        dataset = SMTPScanDataset(scan_index=1)
        dataset.add(addr("1.1.1.1"))
        assert addr("1.1.1.1") in dataset
        assert addr("2.2.2.2") not in dataset
        assert len(dataset.listening) == 1

    def test_duplicates_collapse(self):
        dataset = SMTPScanDataset(scan_index=1)
        dataset.add(addr("1.1.1.1"))
        dataset.add(addr("1.1.1.1"))
        assert len(dataset.listening) == 1
