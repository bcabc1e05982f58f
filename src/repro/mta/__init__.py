"""Benign MTA models: retry schedules, Table IV profiles, outbound queue."""
