"""Botnet substrate: MX-behaviour taxonomy, bot engine and family models."""
