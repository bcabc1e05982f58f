"""Unit tests for the naive-Bayes content filter, corpus and policy."""

import pytest

from repro.filter.bayes import NaiveBayesFilter, tokenize
from repro.filter.corpus import build_corpus, generate_ham, generate_spam
from repro.filter.policy import ContentFilterPolicy
from repro.net.address import IPv4Address
from repro.sim.rng import RandomStream
from repro.smtp.message import Envelope, Message

CLIENT = IPv4Address.parse("198.51.100.7")


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Hello WORLD") == ["hello", "world"]

    def test_keeps_spam_glyphs(self):
        assert "$$$" in tokenize("win $$$ now")

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   ---   ") == []


class TestNaiveBayes:
    def _trained(self):
        classifier = NaiveBayesFilter(threshold=0.9)
        classifier.train_many(
            ["win free money now", "cheap pills online", "claim your prize"],
            is_spam=True,
        )
        classifier.train_many(
            ["meeting at noon", "see attached report", "lunch tomorrow?"],
            is_spam=False,
        )
        return classifier

    def test_requires_training(self):
        classifier = NaiveBayesFilter()
        with pytest.raises(RuntimeError):
            classifier.spam_probability("anything")

    def test_spam_scores_high(self):
        classifier = self._trained()
        # Tiny training set: smoothing tempers the posterior, but spammy
        # text still scores far above ham.
        assert classifier.spam_probability("free money prize") > 0.8
        assert classifier.spam_probability("win free prize now") >= classifier.threshold

    def test_ham_scores_low(self):
        classifier = self._trained()
        assert classifier.spam_probability("report for the meeting") < 0.5
        assert classifier.spam_probability("see the attached report") < classifier.threshold

    def test_probability_bounds(self):
        classifier = self._trained()
        for text in ("free money", "meeting", "xyzzy unseen words"):
            assert 0.0 <= classifier.spam_probability(text) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NaiveBayesFilter(threshold=1.5)
        with pytest.raises(ValueError):
            NaiveBayesFilter(smoothing=0)

    def test_stats_tracked(self):
        classifier = self._trained()
        classifier.spam_probability("x y z")
        assert classifier.stats.trained_spam == 3
        assert classifier.stats.trained_ham == 3
        assert classifier.stats.classified == 1


class TestCorpus:
    def test_deterministic(self):
        a = generate_spam(RandomStream(1, "s"), 10)
        b = generate_spam(RandomStream(1, "s"), 10)
        assert a == b

    def test_spam_and_ham_differ(self):
        spam = generate_spam(RandomStream(1, "s"), 20)
        ham = generate_ham(RandomStream(1, "h"), 20)
        assert not set(spam) & set(ham)

    def test_trained_filter_generalizes(self):
        corpus = build_corpus(seed=3)
        classifier = NaiveBayesFilter(threshold=0.9)
        classifier.train_many(corpus.train_spam, is_spam=True)
        classifier.train_many(corpus.train_ham, is_spam=False)
        threshold = classifier.threshold
        caught = sum(
            classifier.spam_probability(text) >= threshold for text in corpus.test_spam
        )
        flagged = sum(
            classifier.spam_probability(text) >= threshold for text in corpus.test_ham
        )
        assert caught / len(corpus.test_spam) > 0.95
        assert flagged / len(corpus.test_ham) < 0.05


class TestContentFilterPolicy:
    def _policy(self):
        corpus = build_corpus(seed=3)
        classifier = NaiveBayesFilter(threshold=0.9)
        classifier.train_many(corpus.train_spam, is_spam=True)
        classifier.train_many(corpus.train_ham, is_spam=False)
        return ContentFilterPolicy(classifier)

    def _decide(self, policy, subject, body):
        message = Message(
            sender="s@x.example",
            recipients=["r@victim.example"],
            subject=subject,
            body=body,
        )
        envelope = Envelope(
            sender=message.sender,
            recipient="r@victim.example",
            message_id=message.message_id,
        )
        return policy.on_message(CLIENT, envelope, message)

    def test_rejects_spam_content(self):
        policy = self._policy()
        decision = self._decide(
            policy, "offer", "win a free iphone now click here"
        )
        assert not decision.accept
        assert decision.reply.code == 554
        assert policy.rejections == 1

    def test_accepts_ham_content(self):
        policy = self._policy()
        decision = self._decide(
            policy, "agenda", "reminder the review meeting moved to noon"
        )
        assert decision.accept

    def test_bandwidth_accounted_either_way(self):
        policy = self._policy()
        self._decide(policy, "offer", "win a free iphone now click here")
        self._decide(policy, "agenda", "see the attached report")
        assert policy.bytes_received > 0
        assert len(policy.events) == 2

    def test_untrained_classifier_rejected(self):
        with pytest.raises(ValueError):
            ContentFilterPolicy(NaiveBayesFilter())
