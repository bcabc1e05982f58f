"""The measurement harness: the paper's experiments as runnable code."""
