"""Tests for the internet-scale spam-flow synthesis."""

import pytest

from repro.core import internet_scale
from repro.core.internet_scale import (
    run_internet_scale,
    sweep_deployment_rates,
)


class TestInternetScale:
    @pytest.fixture(scope="class")
    def result(self):
        return run_internet_scale(messages=300)

    def test_accounting_consistent(self, result):
        assert result.spam_sent == 300
        assert sum(result.per_family_sent.values()) == 300
        assert result.spam_delivered == sum(
            result.per_family_delivered.values()
        )
        assert 0.0 <= result.block_rate <= 1.0

    def test_family_mix_follows_table1(self, result):
        # Cutwail carries ~47% of botnet spam; sampling noise aside the
        # generated wave reflects that.
        cutwail_share = result.per_family_sent["Cutwail"] / result.spam_sent
        assert 0.35 <= cutwail_share <= 0.60

    def test_measured_tracks_analytic_prediction(self, result):
        assert result.block_rate == pytest.approx(
            result.predicted_block_rate, abs=0.08
        )

    def test_no_defenses_blocks_nothing(self):
        result = run_internet_scale(
            greylisting_rate=0.0, nolisting_rate=0.0, messages=120
        )
        assert result.block_rate == 0.0

    def test_block_rate_grows_with_deployment(self):
        sweep = sweep_deployment_rates(messages=200)
        rates = [r.block_rate for r in sweep]
        assert rates[0] == 0.0
        assert all(b >= a - 0.02 for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 0.4

    def test_per_family_selectivity(self, result):
        # Greylisted domains block the fire-and-forget families only;
        # nolisted domains block Kelihos only — so with both deployed,
        # every family loses *some* mail but none loses all.
        for family in ("Cutwail", "Kelihos"):
            rate = result.per_family_delivered.get(family, 0) / result.per_family_sent[family]
            assert 0.0 < rate < 1.0, family

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            run_internet_scale(greylisting_rate=0.9, nolisting_rate=0.3)

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    @pytest.mark.parametrize("num_domains", [0, -3])
    def test_empty_internet_rejected(self, engine, num_domains):
        with pytest.raises(ValueError, match="num_domains"):
            run_internet_scale(num_domains=num_domains, engine=engine)

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    @pytest.mark.parametrize(
        "field, rates",
        [
            ("greylisting_rate", dict(greylisting_rate=-0.5, nolisting_rate=0.6)),
            ("nolisting_rate", dict(greylisting_rate=0.6, nolisting_rate=-0.5)),
            ("greylisting_rate", dict(greylisting_rate=1.5, nolisting_rate=0.0)),
            ("greylisting_rate", dict(greylisting_rate=float("nan"), nolisting_rate=0.1)),
            ("nolisting_rate", dict(greylisting_rate=0.1, nolisting_rate=float("nan"))),
        ],
    )
    def test_rate_outside_unit_interval_rejected(self, engine, field, rates):
        # -0.5 + 0.6 passes the sum check alone; each rate is a share.
        with pytest.raises(ValueError, match=field):
            run_internet_scale(messages=20, engine=engine, **rates)

    @pytest.mark.parametrize("rates", [(-0.5, 0.6), (0.2, float("nan"))])
    def test_sweep_rejects_bad_rate_before_running(self, monkeypatch, rates):
        import repro.runner.pool as pool

        def no_tasks(*args, **kwargs):
            raise AssertionError("the sweep ran before validating its rates")

        monkeypatch.setattr(pool, "run_tasks", no_tasks)
        with pytest.raises(ValueError, match="rate"):
            sweep_deployment_rates(rates=[(0.1, 0.1), rates])

    def test_sweep_rejects_empty_internet_before_running(self, monkeypatch):
        import repro.runner.pool as pool

        def no_tasks(*args, **kwargs):
            raise AssertionError("the sweep ran before validating num_domains")

        monkeypatch.setattr(pool, "run_tasks", no_tasks)
        with pytest.raises(ValueError, match="num_domains"):
            sweep_deployment_rates(num_domains=0)


class TestKeyedDeployments:
    @pytest.fixture
    def rolled(self, monkeypatch):
        """Record ``(index, deployment)`` for every roll either engine makes."""
        calls = []
        real = internet_scale._deployment

        def recording(seed, index, greylisting_rate, nolisting_rate):
            deployment = real(seed, index, greylisting_rate, nolisting_rate)
            calls.append((index, deployment))
            return deployment

        monkeypatch.setattr(internet_scale, "_deployment", recording)
        return calls

    @pytest.mark.parametrize("num_domains", [60, 10_000_000])
    def test_columnar_rolls_at_most_one_domain_per_message(self, rolled, num_domains):
        result = run_internet_scale(num_domains=num_domains, messages=120)
        assert result.spam_sent == 120
        assert 0 < len(rolled) <= 120

    def test_deployment_does_not_depend_on_num_domains(self, rolled):
        kwargs = dict(greylisting_rate=0.4, nolisting_rate=0.2, messages=1, seed=8)
        run_internet_scale(num_domains=40, engine="object", **kwargs)
        small = dict(rolled)
        del rolled[:]
        run_internet_scale(num_domains=90, engine="object", **kwargs)
        large = dict(rolled)
        assert sorted(small) == list(range(40))
        assert sorted(large) == list(range(90))
        assert all(large[index] == small[index] for index in small)
        assert len(set(small.values())) == 3

    def test_bin_shares_follow_the_rates(self):
        grey, nolist, n = 0.2, 0.05, 20_000
        deployments = [
            internet_scale._deployment(61, index, grey, nolist) for index in range(n)
        ]
        for kind, rate in (
            (internet_scale._NOLISTED, nolist),
            (internet_scale._GREYLISTED, grey),
            (internet_scale._PLAIN, 1.0 - grey - nolist),
        ):
            sd = (n * rate * (1 - rate)) ** 0.5
            assert abs(deployments.count(kind) - n * rate) <= 4 * sd, kind
