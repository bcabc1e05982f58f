"""Tests for the reproduction scorecard."""

import pytest

from repro.cli import main
from repro.core import scorecard
from repro.core.scorecard import build_scorecard, render_scorecard


class TestScorecard:
    @pytest.fixture(scope="class")
    def rows(self):
        return build_scorecard(scale=0.3)

    def test_all_claims_hold(self, rows):
        failing = [row.claim for row in rows if not row.holds]
        assert failing == []

    def test_every_headline_artefact_covered(self, rows):
        artefacts = {row.artefact for row in rows}
        assert {
            "Figure 1",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Table II",
            "Table III",
            "Table IV",
            "§VI",
        } <= artefacts

    def test_text_rendering(self, rows):
        text = render_scorecard(rows)
        assert "Reproduction scorecard" in text
        assert "claims hold" in text
        # No row carries a failing verdict.
        assert "| NO" not in text

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            build_scorecard(scale=0)

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
    def test_bad_scale_rejected_before_any_task(self, scale, monkeypatch):
        def no_tasks(*args, **kwargs):
            raise AssertionError("a section ran before the scale was checked")

        monkeypatch.setattr(scorecard, "run_tasks", no_tasks)
        with pytest.raises(ValueError, match="scale must be finite"):
            build_scorecard(scale=scale)

    def test_cli_subcommand_exit_zero(self, capsys):
        assert main(["scorecard", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "scorecard" in out

    def test_cli_builds_the_scorecard_once(self, monkeypatch, capsys):
        calls = []
        real_run_tasks = scorecard.run_tasks

        def counting_run_tasks(*args, **kwargs):
            calls.append(args)
            return real_run_tasks(*args, **kwargs)

        monkeypatch.setattr(scorecard, "run_tasks", counting_run_tasks)
        assert main(["scorecard", "--scale", "0.3"]) == 0
        assert len(calls) == 1
        assert "claims hold" in capsys.readouterr().out
