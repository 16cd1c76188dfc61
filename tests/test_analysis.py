"""Series, fit and table tests, including determinism and CSV schemas."""

import csv
import io
import math
import os
import time
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
        with pytest.raises(DomainError):
            linear_fit([pt(5, 1.0), pt(6, 1.0)])

    def test_same_floats_on_every_python(self):
        # the floats CPython 3.10 and 3.11 statistics give for this series;
        # 3.12's linear_regression and correlation differ in the last bits
        ss = range(20, 81)
        ys = [0.2127 * s - 0.1846 + ((s * 7922) % 101 - 50) * 1e-5 for s in ss]
        fit = linear_fit([SeriesPoint(s, CTX.from_fraction(Fraction(y))) for s, y in zip(ss, ys)])
        assert fit.a == float.fromhex("0x1.b39c8fec882a1p-3")
        assert fit.b == float.fromhex("-0x1.7a24535af5ac0p-3")
        assert fit.r == float.fromhex("0x1.ffffffe5dae43p-1")

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

    def test_one_pool_per_command(self, monkeypatch, forks):
        # one fan-out per command, forking w - 1 children
        fanouts = []
        real = analysis._map_tasks

        def counting(*args):
            fanouts.append(args)
            return real(*args)

        monkeypatch.setattr(analysis, "_map_tasks", counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        par = slope_series(2, 4, 20, 30, workers=3)
        assert len(fanouts) == 1 and len(forks) == 2
        assert par == slope_series(2, 4, 20, 30, workers=1)
        assert len(fanouts) == 2 and len(forks) == 2

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


@pytest.fixture
def forks(monkeypatch):
    """The list of ``os.fork`` calls made while the test runs."""
    calls = []
    real = os.fork

    def counting():
        calls.append(None)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def _square(t):
    return t * t


def _fail_at(bad):
    def task(t):
        if t in bad:
            raise DomainError(f"task {t} failed")
        return t

    return task


def _die_at_one(t):
    if t == 1:
        os._exit(3)  # only ever in a child: task 1 is not the parent's
    return t


def _interrupt_parent(t):
    if t == 0:
        raise KeyboardInterrupt
    time.sleep(30)
    return t


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFanOut:
    @pytest.mark.parametrize(
        "cpus, workers, n_tasks, want_forks",
        [(3, 100000, 10, 2), (None, 4, 10, 0), (8, 5, 2, 1), (2, 1, 10, 0)],
    )
    def test_capped_at_tasks_and_cpus(self, monkeypatch, forks, cpus, workers, n_tasks, want_forks):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert analysis._map_tasks(_square, list(range(n_tasks)), workers) == [
            t * t for t in range(n_tasks)
        ]
        assert len(forks) == want_forks
        assert_no_child_left()

    def test_uneven_strides(self, monkeypatch, forks):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert analysis._map_tasks(_square, list(range(11)), 3) == [t * t for t in range(11)]
        assert len(forks) == 2

    @pytest.mark.parametrize(
        "bad, first",
        [({3, 5}, 3), ({2, 3}, 2), ({1, 2}, 1), ({4, 5}, 4)],
        ids=["child", "parent-before-child", "child-before-parent", "parent"],
    )
    def test_lowest_failing_task_raises(self, monkeypatch, bad, first):
        # two workers: the parent runs tasks 0, 2, 4, the child 1, 3, 5
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(DomainError, match=f"^task {first} failed$"):
            analysis._map_tasks(_fail_at(bad), list(range(6)), 2)
        assert_no_child_left()

    def test_child_dying_without_result_is_an_error(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(RuntimeError, match="without its results"):
            analysis._map_tasks(_die_at_one, list(range(4)), 2)
        assert_no_child_left()

    def test_interrupted_parent_kills_children(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            analysis._map_tasks(_interrupt_parent, list(range(6)), 3)
        assert time.monotonic() - t0 < 20  # the children's 30 s sleeps were cut
        assert_no_child_left()


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
