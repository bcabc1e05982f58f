"""Tests for the synthetic university deployment (the Figure 5 substrate)."""

import hashlib

import pytest

from repro.greylist.whitelist import default_provider_whitelist
from repro.maillog.university import (
    DEFAULT_SENDER_MIX,
    DeploymentConfig,
    UniversityDeployment,
)
from repro.sim.rng import RandomStream
from repro.webmail.provider import ProviderSpec


@pytest.fixture(scope="module")
def result():
    config = DeploymentConfig(num_messages=800, duration_days=120)
    return UniversityDeployment(config, seed=5).run()


class TestConfigValidation:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            DeploymentConfig(threshold=-1)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_rejects_non_finite_threshold(self, threshold):
        # These used to pass, then die at the first deferral.
        with pytest.raises(ValueError, match="threshold must be finite and non-negative"):
            DeploymentConfig(threshold=threshold)

    def test_rejects_zero_messages(self):
        with pytest.raises(ValueError):
            DeploymentConfig(num_messages=0)

    def test_rejects_empty_mix(self):
        with pytest.raises(ValueError):
            DeploymentConfig(sender_mix=())

    def test_default_mix_weights_sum_to_one(self):
        assert sum(w for (_, w, _) in DEFAULT_SENDER_MIX) == pytest.approx(1.0)


class TestRunOutput:
    def test_one_log_per_message(self, result):
        assert len(result.logs) == 800

    def test_every_message_attempted_at_least_once(self, result):
        assert all(log.attempts >= 1 for log in result.logs)

    def test_most_messages_delivered(self, result):
        assert result.loss_rate < 0.10

    def test_non_retriers_lose_their_mail(self, result):
        no_retry = [log for log in result.logs if log.sender_kind == "no-retry"]
        assert no_retry
        assert all(not log.delivered for log in no_retry)

    def test_delivered_messages_need_at_least_two_attempts(self, result):
        # Nobody is whitelisted in the default config, so a single attempt
        # can never deliver.
        for log in result.delivered:
            assert log.attempts >= 2

    def test_delays_respect_threshold(self, result):
        for delay in result.delivery_delays():
            assert delay >= 300.0

    def test_kind_counts_cover_all_messages(self, result):
        assert sum(result.kind_counts.values()) == 800

    def test_deterministic(self):
        config = DeploymentConfig(num_messages=100)
        a = UniversityDeployment(config, seed=9).run()
        b = UniversityDeployment(config, seed=9).run()
        delays_a = sorted(a.delivery_delays())
        delays_b = sorted(b.delivery_delays())
        assert delays_a == delays_b


class TestFigure5Shape:
    def test_cdf_shape_matches_paper(self, result):
        delays = result.delivery_delays()
        n = len(delays)
        within_10min = sum(1 for d in delays if d <= 600) / n
        beyond_50min = sum(1 for d in delays if d > 3000) / n
        # "only half of the messages get delivered in less than 10 minutes"
        assert 0.35 <= within_10min <= 0.70
        # "some messages are delivered with over 50 minutes of delay"
        assert beyond_50min >= 0.03
        # "and some even beyond that"
        assert max(delays) > 7200

    def test_much_slower_than_malware_curve(self, result):
        # Figure 3 vs Figure 5: Kelihos passes a 300 s threshold mostly
        # within ~600 s; benign mail takes far longer on average.
        delays = sorted(result.delivery_delays())
        median = delays[len(delays) // 2]
        assert median > 400.0


class TestWhitelistAblation:
    def test_whitelisting_providers_removes_webmail_delay(self):
        config = DeploymentConfig(
            num_messages=400, whitelist=default_provider_whitelist()
        )
        result = UniversityDeployment(config, seed=5).run()
        webmail = [
            log
            for log in result.logs
            if log.sender_kind.startswith("webmail:") and log.delivered
        ]
        assert webmail
        # Whitelisted providers deliver on the first attempt: zero delay.
        assert all(log.delivery_delay == 0.0 for log in webmail)

    def test_threshold_zero_still_delays_one_round(self):
        config = DeploymentConfig(num_messages=200, threshold=0.0)
        result = UniversityDeployment(config, seed=5).run()
        for log in result.delivered:
            assert log.attempts >= 2


def _deployment_digest(result) -> str:
    return hashlib.sha256(repr((
        [(log.message_key, log.sender_kind, log.attempt_times, log.delivered)
         for log in result.logs],
        sorted(result.kind_counts.items()),
        result.delivery_delays(),
        [
            (e.timestamp, str(e.triplet), e.action.value, e.attempt_number, e.triplet_age)
            for e in result.policy.events
        ],
    )).encode()).hexdigest()


def _count_splits(monkeypatch) -> list:
    labels = []
    split = RandomStream.split

    def counting_split(self, label):
        labels.append(label)
        return split(self, label)

    monkeypatch.setattr(RandomStream, "split", counting_split)
    return labels


class TestBitIdentity:
    # Recorded when every sender, fixed or not, split its own stream;
    # any change to a draw, the event order or a decision moves them.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (7, "34f874d902218f7bdbe2cf43a48d6c7530f435b9fa66a3c4c166f22d7e4b7849"),
            (23, "12e653fcf3587a7f154df80dc14330a1ed8cd618e72d0a03b48dc816518180e5"),
        ],
    )
    def test_figure5_deployment_pinned(self, seed, digest):
        result = UniversityDeployment(DeploymentConfig(num_messages=2000), seed=seed).run()
        assert _deployment_digest(result) == digest

    def test_only_drawing_senders_split_a_stream(self, monkeypatch):
        labels = _count_splits(monkeypatch)
        result = UniversityDeployment(DeploymentConfig(num_messages=400), seed=5).run()
        drawing = [
            f"msg{index}"
            for index, log in enumerate(result.logs)
            if log.sender_kind in ("sparse-notifier", "impatient-mta")
        ]
        assert drawing
        assert labels == ["arrivals", "mix", "specs"] + drawing

    def test_fixed_spec_mix_splits_no_message_stream(self, monkeypatch):
        labels = _count_splits(monkeypatch)
        fixed = [entry for entry in DEFAULT_SENDER_MIX if isinstance(entry[2], ProviderSpec)]
        config = DeploymentConfig(num_messages=300, sender_mix=fixed)
        UniversityDeployment(config, seed=5).run()
        assert labels == ["arrivals", "mix", "specs"]
