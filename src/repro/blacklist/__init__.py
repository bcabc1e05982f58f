"""Reactive DNSBL substrate: blacklist, telemetry feed and SMTP policy."""
