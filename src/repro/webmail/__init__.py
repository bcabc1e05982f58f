"""Webmail provider models (Table III) and their delivery driver."""
