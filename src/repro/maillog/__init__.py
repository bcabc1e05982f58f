"""Greylist mail logs: anonymized records and the university deployment."""
