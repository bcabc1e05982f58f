"""Unit tests for CDFs, statistics and table rendering."""

import pytest

from repro.analysis.cdf import EmpiricalCDF, ascii_cdf, ks_distance
from repro.analysis.stats import histogram
from repro.analysis.tables import (
    format_percent,
    format_seconds,
    mark,
    render_table,
)


class TestEmpiricalCDF:
    def test_basic_evaluation(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(0.5) == 0.0
        assert cdf.at(1.0) == 0.25
        assert cdf.at(2.5) == 0.5
        assert cdf.at(4.0) == 1.0
        assert cdf.at(100.0) == 1.0

    def test_monotone_nondecreasing(self):
        cdf = EmpiricalCDF.from_samples([5, 1, 3, 3, 9, 2])
        xs = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        values = [cdf.at(x) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_quantiles(self):
        cdf = EmpiricalCDF.from_samples(range(1, 101))
        assert cdf.quantile(0.5) == 50
        assert cdf.quantile(0.9) == 90
        assert cdf.quantile(1.0) == 100
        assert cdf.median == 50

    def test_quantile_bounds(self):
        cdf = EmpiricalCDF.from_samples([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(0.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.from_samples([])

    def test_summary_properties(self):
        cdf = EmpiricalCDF.from_samples([2.0, 4.0, 6.0])
        assert cdf.min == 2.0
        assert cdf.max == 6.0
        assert cdf.mean == 4.0
        assert cdf.n == 3

    def test_steps_deduplicate(self):
        cdf = EmpiricalCDF.from_samples([1, 1, 2])
        steps = cdf.steps()
        assert steps == [(1.0, 2 / 3), (2.0, 1.0)]


class TestKSDistance:
    def test_identical_samples_zero(self):
        a = EmpiricalCDF.from_samples([1, 2, 3])
        b = EmpiricalCDF.from_samples([1, 2, 3])
        assert ks_distance(a, b) == 0.0

    def test_disjoint_samples_one(self):
        a = EmpiricalCDF.from_samples([1, 2])
        b = EmpiricalCDF.from_samples([10, 20])
        assert ks_distance(a, b) == 1.0

    def test_symmetric(self):
        a = EmpiricalCDF.from_samples([1, 2, 5, 9])
        b = EmpiricalCDF.from_samples([2, 3, 4])
        assert ks_distance(a, b) == ks_distance(b, a)


class TestAsciiCDF:
    def test_renders_rows(self):
        cdf = EmpiricalCDF.from_samples(range(100))
        plot = ascii_cdf(cdf, width=40, height=8)
        lines = plot.splitlines()
        assert len(lines) == 10  # 8 rows + axis + labels
        assert "#" in plot

    def test_too_small_rejected(self):
        cdf = EmpiricalCDF.from_samples([1, 2])
        with pytest.raises(ValueError):
            ascii_cdf(cdf, width=5, height=2)


class TestHistogram:
    def test_binning(self):
        bins = histogram([1, 2, 5, 9], edges=[0, 3, 6, 10])
        assert bins == [((0, 3), 2), ((3, 6), 1), ((6, 10), 1)]

    def test_out_of_range_dropped(self):
        bins = histogram([-5, 100], edges=[0, 10])
        assert bins == [((0, 10), 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([1], edges=[0])
        with pytest.raises(ValueError):
            histogram([1], edges=[5, 0])


class TestTables:
    def test_render_alignment(self):
        table = render_table(
            headers=("A", "Bee"),
            rows=[("x", 1), ("longer", 22)],
            title="T",
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "A      | Bee" in table
        assert "longer | 22" in table

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(headers=("A",), rows=[("x", "y")])

    def test_mark(self):
        assert mark(True) == "YES"
        assert mark(False) == "no"

    def test_format_percent(self):
        assert format_percent(0.4773) == "47.73%"
        assert format_percent(0.5, digits=0) == "50%"

    def test_format_seconds(self):
        assert format_seconds(45) == "45s"
        assert format_seconds(90) == "1m30s"
        assert format_seconds(7260) == "2h01m"
        with pytest.raises(ValueError):
            format_seconds(-1)
