"""Series, fit and table tests, including determinism and CSV schemas."""

import csv
import io
import math
from fractions import Fraction

import pytest

from primerec import analysis, recursion
from primerec.analysis import (
    SeriesPoint,
    d_table,
    linear_fit,
    neg_log_series,
    slope_series,
)
from primerec.characters import enumerate_characters, keller_one
from primerec.cli import run
from primerec.errors import DomainError
from primerec.mpnum import PrecisionContext, to_float

K1 = keller_one()
G5 = enumerate_characters(5)
CTX = PrecisionContext(128)


def pt(s: int, y: float) -> SeriesPoint:
    return SeriesPoint(s, CTX.from_fraction(Fraction(y).limit_denominator(10**12)))


class TestLinearFit:
    def test_perfect_line(self):
        fit = linear_fit([pt(1, 1.0), pt(2, 2.0), pt(3, 3.0)])
        assert math.isclose(fit.a, 1.0) and abs(fit.b) < 1e-12 and math.isclose(fit.r, 1.0)
        assert fit.n_points == 3 and (fit.s_min, fit.s_max) == (1, 3)

    def test_down_line(self):
        fit = linear_fit([pt(0, 1.0), pt(1, 0.0)])
        assert math.isclose(fit.a, -1.0) and math.isclose(fit.b, 1.0)
        assert math.isclose(fit.r, -1.0)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            linear_fit([pt(1, 1.0)])

    def test_degenerate_abscissae(self):
        with pytest.raises(DomainError):
            linear_fit([pt(5, 1.0), pt(5, 2.0)])

    def test_excluded_count_carried(self):
        fit = linear_fit([pt(1, 1.0), pt(2, 2.0)], n_excluded=3)
        assert fit.n_excluded == 3


class TestNegLogSeries:
    def test_monotone_start(self):
        series = neg_log_series(2, 20, 30, K1)
        ys = [to_float(p.y) for p in series.points]
        assert ys == sorted(ys)
        assert ys[1] > ys[0]
        assert series.n_excluded == 0
        assert [p.s for p in series.points] == list(range(20, 31))

    def test_range_validation(self):
        with pytest.raises(DomainError):
            neg_log_series(2, 0, 10, K1)
        with pytest.raises(DomainError):
            neg_log_series(2, 30, 20, K1)
        with pytest.raises(DomainError):
            neg_log_series(2, 10, 4000, K1)

    def test_single_point_series_cannot_fit(self):
        series = neg_log_series(2, 25, 25, K1)
        with pytest.raises(DomainError):
            linear_fit(series.points, series.n_excluded)

    def test_conjugate_series_identical(self):
        a = neg_log_series(3, 20, 26, G5.by_label(2))
        b = neg_log_series(3, 20, 26, G5.by_label(4))
        assert [p.y for p in a.points] == [p.y for p in b.points]

    def test_determinism(self):
        a = neg_log_series(3, 20, 28, G5.by_label(3))
        b = neg_log_series(3, 20, 28, G5.by_label(3))
        assert a == b

    def test_parallel_matches_sequential(self):
        seq = neg_log_series(2, 20, 27, K1, workers=1)
        par = neg_log_series(2, 20, 27, K1, workers=2)
        assert seq == par


class TestSlopeSeries:
    def test_small_band(self):
        fits = slope_series(2, 3, 20, 60)
        assert [n for n, _ in fits] == [2, 3]
        for _, fit in fits:
            assert fit.r > 0.99
        # the n=2 slope sits near the decay rate set by the 6^-s subleading term
        assert 0.18 <= fits[0][1].a <= 0.22

    def test_one_pool_per_command(self, monkeypatch):
        pools = []
        real = analysis.ProcessPoolExecutor

        def counting(*args, **kwargs):
            pools.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", counting)
        par = slope_series(2, 4, 20, 30, workers=2)
        assert len(pools) == 1
        assert par == slope_series(2, 4, 20, 30, workers=1)

    def test_n_range_validation(self):
        with pytest.raises(DomainError):
            slope_series(1, 3, 20, 40)
        with pytest.raises(DomainError):
            slope_series(2, 31, 20, 40)


class TestDTable:
    def test_trivial_row_is_zero(self):
        table = d_table([3, 4], 50, [1])
        row = table.rows[0]
        assert row.modulus == 1 and row.label == 1
        assert all(cell.value.is_zero for cell in row.cells)
        assert all("principal" in cell.status for cell in row.cells)

    def test_conjugate_rows_identical(self):
        table = d_table([3, 4, 5], 50, [5])
        by_label = {row.label: [c.value for c in row.cells] for row in table.rows}
        assert by_label[2] == by_label[4]

    def test_zero_at_target_flag(self):
        # n = 2 targets the prime 5, which divides the modulus 5
        table = d_table([2, 3], 50, [5])
        for row in table.rows:
            flags = {cell.n: cell.status for cell in row.cells}
            assert "char-zero-at-target" in flags[2]
            assert "char-zero-at-target" not in flags[3]

    def test_row_ordering(self):
        table = d_table([3], 50, [8, 4])
        keys = [(row.modulus, row.label) for row in table.rows]
        assert keys == [(8, 1), (8, 2), (8, 3), (8, 4), (4, 1), (4, 2)]

    def test_validation(self):
        with pytest.raises(DomainError):
            d_table([3], 1, [4])
        with pytest.raises(DomainError):
            d_table([], 50, [4])

    def test_each_estimate_once(self, monkeypatch):
        # 6 characters x 2 columns, plus the trivial character once per
        # column; a modulus-1 row reuses the trivial estimates
        calls = []
        real = recursion.estimate

        def counting(n, s, chi, *args):
            calls.append((n, s, chi.modulus, chi.label))
            return real(n, s, chi, *args)

        monkeypatch.setattr(recursion, "estimate", counting)
        d_table([3, 4], 50, [4, 5])
        assert len(calls) == len(set(calls)) == 14
        calls.clear()
        d_table([3, 4], 50, [4, 1, 5])
        assert len(calls) == len(set(calls)) == 14

    def test_parallel_matches_sequential(self):
        seq = d_table([3, 4], 50, [4, 9], workers=1)
        par = d_table([3, 4], 50, [4, 9], workers=2)
        assert seq == par


def cli_csv(capsys, *argv):
    assert run(list(argv)) == 0
    return capsys.readouterr().out


class TestCsv:
    def test_series_schema_and_roundtrip(self, capsys):
        series = neg_log_series(2, 20, 24, K1)
        text = cli_csv(capsys, "sweep", "--n", "2", "--s-min", "20", "--s-max", "24")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0].keys()) == ["n", "s", "modulus", "label", "neg_log_error"]
        assert [int(r["s"]) for r in rows] == [20, 21, 22, 23, 24]
        # rendered at 17 significant digits and reparsable
        for r, p in zip(rows, series.points):
            assert float(r["neg_log_error"]) == pytest.approx(to_float(p.y), rel=1e-15)
            mantissa = r["neg_log_error"].split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) == 17

    def test_fits_schema(self, capsys):
        text = cli_csv(capsys, "slopes", "--n-min", "2", "--n-max", "2", "--s-min", "20", "--s-max", "40")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0].keys()) == [
            "n", "a", "b", "r", "s_min", "s_max", "n_points", "n_excluded",
        ]
        assert float(rows[0]["r"]) > 0.99

    def test_dtable_schema(self, capsys):
        text = cli_csv(capsys, "dtable", "--n-list", "3", "--s", "50", "--moduli", "4")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0].keys()) == ["modulus", "label", "n", "d_value", "status"]
        assert rows[0]["modulus"] == "4" and rows[0]["n"] == "3"
        assert float(rows[0]["d_value"]) == pytest.approx(2.518e-9, rel=0.01)
