"""SMTP substrate: protocol engine, messages, server FSM, client, wire
format and dialect fingerprinting."""
