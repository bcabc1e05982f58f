"""Simulated DNS: records, zones, resolver, MX handling and nolisting."""
