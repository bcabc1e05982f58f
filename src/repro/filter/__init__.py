"""Content-based (post-acceptance) filtering: naive Bayes + SMTP policy."""
