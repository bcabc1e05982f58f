"""Unit tests for greylisting whitelists."""

from repro.greylist.whitelist import (
    DEFAULT_WHITELISTED_DOMAINS,
    Whitelist,
    default_provider_whitelist,
)
from repro.net.address import IPv4Address

CLIENT = IPv4Address.parse("9.9.9.9")


class TestWhitelistMatching:
    def test_empty_matches_nothing(self):
        whitelist = Whitelist()
        assert not whitelist.matches(IPv4Address.parse("1.2.3.4"), "a@b.net")

    def test_sender_domain(self):
        whitelist = Whitelist(["Gmail.COM"])
        assert whitelist.matches(CLIENT, "bob@gmail.com")
        assert not whitelist.matches(CLIENT, "bob@gmail.com.evil.net")

    def test_composite_matches(self):
        whitelist = Whitelist(["gmail.com"])
        assert whitelist.matches(CLIENT, "x@gmail.com")
        assert not whitelist.matches(CLIENT, "x@other.net")

    def test_sender_matching_is_case_insensitive(self):
        # Regression: the probe side was never lowercased, so a raw
        # ``User@Gmail.com`` missed a ``gmail.com`` entry.
        whitelist = Whitelist(["gmail.com"])
        assert whitelist.matches(CLIENT, "User@Gmail.com")
        assert whitelist.matches(CLIENT, "User@GMAIL.COM.")
        assert not whitelist.matches(CLIENT, "User@gmail.com.evil.net")


class TestDefaultProviderWhitelist:
    def test_covers_all_table3_providers(self):
        whitelist = default_provider_whitelist()
        for domain in DEFAULT_WHITELISTED_DOMAINS:
            assert whitelist.matches(CLIENT, f"user@{domain}")

    def test_ten_providers_listed(self):
        assert len(DEFAULT_WHITELISTED_DOMAINS) == 10
