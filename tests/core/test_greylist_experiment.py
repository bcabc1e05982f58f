"""Tests for the Figures 3-4 greylisting experiments."""

import hashlib

import pytest

from repro.analysis.cdf import ks_distance
from repro.botnet.families import CUTWAIL, DARKMAILER, KELIHOS
from repro.core.greylist_experiment import (
    PAPER_THRESHOLDS,
    run_greylist_experiment,
    run_kelihos_threshold_sweep,
)
from repro.greylist.policy import GreylistPolicy


@pytest.fixture(scope="module")
def sweep():
    return run_kelihos_threshold_sweep(num_messages=50)


class TestKelihosSweep:
    def test_paper_thresholds(self):
        assert PAPER_THRESHOLDS == (5.0, 300.0, 21600.0)

    def test_kelihos_defeats_every_threshold(self, sweep):
        for result in sweep:
            assert not result.blocked
            assert result.delivered == result.num_messages

    def test_figure3_curves_similar(self, sweep):
        # "The similarity between the two curves clearly shows that the
        # malware is not able to take advantage of a shorter threshold."
        res5, res300, _ = sweep
        distance = ks_distance(res5.delay_cdf(), res300.delay_cdf())
        assert distance <= 0.2

    def test_minimum_retry_floor(self, sweep):
        # "designed to retry ... after a minimum delay of 300 seconds" —
        # even at a 5 s threshold no delivery happens before 300 s.
        res5 = sweep[0]
        assert min(res5.delivery_delays) >= 300.0

    def test_most_deliveries_in_first_retry_window(self, sweep):
        res300 = sweep[1]
        cdf = res300.delay_cdf()
        assert cdf.at(600.0) >= 0.5  # the 300-600 s cluster dominates

    def test_figure4_failed_attempt_peaks(self, sweep):
        res21600 = sweep[2]
        failed_ages = [p.age for p in res21600.failed_points()]
        in_first_peak = sum(1 for a in failed_ages if 300 <= a < 1000)
        in_mid_band = sum(1 for a in failed_ages if 1000 <= a < 20000)
        assert in_first_peak > 0
        assert in_mid_band > 0
        # No failed attempt can lie above the threshold: the triplet would
        # have passed.
        assert all(a < 21600 + 1 for a in failed_ages)

    def test_figure4_deliveries_above_threshold(self, sweep):
        res21600 = sweep[2]
        delivered_ages = [p.age for p in res21600.delivered_points()]
        assert delivered_ages
        assert all(a >= 21600.0 for a in delivered_ages)
        # The long-haul retry cluster puts most deliveries past 80 ks.
        assert max(delivered_ages) >= 80000.0

    def test_retransmission_gaps_show_the_three_modes(self, sweep):
        res21600 = sweep[2]
        gaps = res21600.retransmission_gaps()
        assert gaps
        # Every gap falls into one of the calibrated Kelihos retry modes.
        for gap in gaps:
            assert (
                300 <= gap <= 600
                or 4000 <= gap <= 6000
                or 80000 <= gap <= 90000
            ), gap

    def test_single_campaign_control(self, sweep):
        # §V.A: the unprotected control mailboxes prove a single spam task.
        for result in sweep:
            assert result.campaigns_seen == 1
            assert result.unprotected_deliveries >= 1


class TestFireAndForgetFamilies:
    def test_cutwail_blocked_at_default_threshold(self):
        result = run_greylist_experiment(CUTWAIL, 300.0, num_messages=10)
        assert result.blocked
        assert result.delivery_delays == []

    def test_darkmailer_blocked_even_at_tiny_threshold(self):
        result = run_greylist_experiment(DARKMAILER, 5.0, num_messages=10)
        assert result.blocked

    def test_unprotected_mailboxes_still_receive_spam(self):
        # Greylisting blocked the protected recipients, but the exempt
        # control addresses prove the campaign was live.
        result = run_greylist_experiment(CUTWAIL, 300.0, num_messages=10)
        assert result.unprotected_deliveries >= 1


class TestResultAccessors:
    def test_delivery_rate(self):
        result = run_greylist_experiment(KELIHOS, 300.0, num_messages=10)
        assert result.delivery_rate == 1.0
        blocked = run_greylist_experiment(CUTWAIL, 300.0, num_messages=10)
        assert blocked.delivery_rate == 0.0

    def test_deterministic_given_seed(self):
        a = run_greylist_experiment(KELIHOS, 300.0, num_messages=10, seed=3)
        b = run_greylist_experiment(KELIHOS, 300.0, num_messages=10, seed=3)
        assert a.delivery_delays == b.delivery_delays


def _sweep_digest(monkeypatch, seed: int) -> str:
    """SHA-256 over everything the Figures 3-4 sweep produced at ``seed``."""
    policies = []
    init = GreylistPolicy.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        policies.append(self)

    monkeypatch.setattr(GreylistPolicy, "__init__", recording_init)
    sweep = run_kelihos_threshold_sweep(num_messages=100, seed=seed)
    assert len(policies) == len(sweep)
    return hashlib.sha256(repr([
        (
            r.threshold, r.num_messages, r.delivered, r.blocked, r.delivery_delays,
            [(p.age, p.delivered, p.task_index) for p in r.attempt_points],
            r.campaigns_seen, r.unprotected_deliveries,
            [
                (e.timestamp, str(e.triplet), e.action.value, e.attempt_number, e.triplet_age)
                for e in policy.events
            ],
        )
        for r, policy in zip(sweep, policies)
    ]).encode()).hexdigest()


class TestBitIdentity:
    # Recorded from the heap-of-objects scheduler this one replaced; any
    # change to event order, a draw or a decision moves them.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (7, "642d5b916d431a4701c42f5171beaf11c35e132c66bf71cb9da7f6bcca6142f9"),
            (23, "b3e59e1b73f8f5f750a3c3d0307b61ad57e82975b991e225ba38cc6183fa4685"),
        ],
    )
    def test_kelihos_sweep_pinned(self, monkeypatch, seed, digest):
        assert _sweep_digest(monkeypatch, seed) == digest
