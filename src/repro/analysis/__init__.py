"""Analysis helpers: CDFs, summary statistics and ASCII tables."""
