"""Naive-Bayes content classification (the post-acceptance baseline).

The paper's taxonomy splits anti-spam into sender-based pre-acceptance
tests (greylisting, nolisting, DNSBL, SPF — all built elsewhere in this
package) and content-based post-acceptance tests, of which the Bayesian
filter is the canonical representative.  This is a clean, standard
implementation: bag-of-words features, Laplace smoothing, log-space
scoring — enough to serve as the comparison point the intro sets up.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List

_TOKEN_RE = re.compile(r"[a-z0-9$!]+")


def tokenize(text: str) -> List[str]:
    """Lowercase word tokens; currency/urgency glyphs kept (spam signals).

    >>> tokenize("WIN $$$ now!!!")
    ['win', '$$$', 'now!!!']
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass
class ClassifierStats:
    trained_spam: int = 0
    trained_ham: int = 0
    classified: int = 0


class NaiveBayesFilter:
    """Binary spam/ham classifier over token counts.

    Parameters
    ----------
    threshold:
        Posterior spam probability above which a message is called spam.
    smoothing:
        Laplace pseudo-count.
    """

    def __init__(self, threshold: float = 0.9, smoothing: float = 1.0) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.threshold = threshold
        self.smoothing = smoothing
        self._spam_counts: Dict[str, int] = {}
        self._ham_counts: Dict[str, int] = {}
        self._spam_total = 0
        self._ham_total = 0
        self.stats = ClassifierStats()

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, text: str, is_spam: bool) -> None:
        counts = self._spam_counts if is_spam else self._ham_counts
        for token in tokenize(text):
            counts[token] = counts.get(token, 0) + 1
        if is_spam:
            self._spam_total += 1
            self.stats.trained_spam += 1
        else:
            self._ham_total += 1
            self.stats.trained_ham += 1

    def train_many(self, texts: Iterable[str], is_spam: bool) -> None:
        for text in texts:
            self.train(text, is_spam)

    @property
    def is_trained(self) -> bool:
        return self._spam_total > 0 and self._ham_total > 0

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def spam_probability(self, text: str) -> float:
        """P(spam | tokens) under the naive-Bayes model."""
        if not self.is_trained:
            raise RuntimeError("classifier needs both spam and ham training")
        self.stats.classified += 1
        vocabulary = set(self._spam_counts) | set(self._ham_counts)
        v = len(vocabulary) or 1
        spam_tokens = sum(self._spam_counts.values())
        ham_tokens = sum(self._ham_counts.values())
        log_spam = math.log(self._spam_total / (self._spam_total + self._ham_total))
        log_ham = math.log(self._ham_total / (self._spam_total + self._ham_total))
        for token in tokenize(text):
            log_spam += math.log(
                (self._spam_counts.get(token, 0) + self.smoothing)
                / (spam_tokens + self.smoothing * v)
            )
            log_ham += math.log(
                (self._ham_counts.get(token, 0) + self.smoothing)
                / (ham_tokens + self.smoothing * v)
            )
        # Normalize in log space.
        m = max(log_spam, log_ham)
        spam = math.exp(log_spam - m)
        ham = math.exp(log_ham - m)
        return spam / (spam + ham)
