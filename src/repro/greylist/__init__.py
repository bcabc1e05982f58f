"""Greylisting: triplet store, pluggable storage backends,
Postgrey-compatible policy, whitelists, persistence and cost
accounting."""
