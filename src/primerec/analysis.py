"""Series generation and least-squares fits over the recursion errors.

The negated natural log of the error, ``y(s) = -ln E``, is close to linear
in s for fixed n, so the module produces ``(s, y)`` series, ordinary
least-squares lines with Pearson correlation, per-n slope sweeps, and the
signed error-difference table comparing every character against the
trivial one at a fixed s.

Error values come from ``recursion.estimate`` (residual at the automatic
working precision, error at the width that survives the cancellation).  y
is a ``BigFloat`` computed in a 64-bit context: its 17 printed digits need
about 57 bits, and fits convert it to machine doubles, which is ample
because y is O(100) while fit tolerances live at the third digit.  Points
where the error vanishes at working precision are excluded from a series
and tallied.  Series and table generation can fan out over worker
processes; results are collected by grid index, so output is bit-identical
to a sequential run.

The CLI renders these results with the CSV schemas below (floats with 17
significant digits):

 * series: ``n, s, modulus, label, neg_log_error``
 * fits:   ``n, a, b, r, s_min, s_max, n_points, n_excluded``
 * dtable: ``modulus, label, n, d_value, status``
"""

from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from . import primes, recursion
from .characters import DirichletCharacter, enumerate_characters
from .errors import DomainError
from .mpnum import BigFloat, PrecisionContext, to_float

__all__ = [
    "SeriesPoint",
    "NegLogSeries",
    "FitResult",
    "DCell",
    "DRow",
    "DTable",
    "neg_log_series",
    "linear_fit",
    "slope_series",
    "d_table",
    "fmt_float",
]

S_RANGE_CAP = 2000
N_RANGE = (2, 30)
_Y_CTX = PrecisionContext(64)


@dataclass(frozen=True)
class SeriesPoint:
    s: int
    y: BigFloat  # -ln(error), in the 64-bit context _Y_CTX


@dataclass(frozen=True)
class NegLogSeries:
    n: int
    modulus: int
    label: int
    points: tuple
    n_excluded: int


@dataclass(frozen=True)
class FitResult:
    a: float  # slope
    b: float  # intercept
    r: float  # Pearson correlation
    s_min: int
    s_max: int
    n_points: int
    n_excluded: int


@dataclass(frozen=True)
class DCell:
    n: int
    value: BigFloat  # signed
    status: str  # "" or "+"-joined flags


@dataclass(frozen=True)
class DRow:
    modulus: int
    label: int
    cells: tuple


@dataclass(frozen=True)
class DTable:
    s: int
    rows: tuple


def _char(modulus: int, label: int) -> DirichletCharacter:
    return enumerate_characters(modulus).by_label(label)


def _map_tasks(func, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [func(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _series_task(task):
    n, s, modulus, label = task
    chi = _char(modulus, label)
    res = recursion.estimate(n, s, chi)
    if res.error.is_zero:
        return None
    return _Y_CTX.neg(_Y_CTX.ln(res.error))


def neg_log_series(
    n: int,
    s_min: int,
    s_max: int,
    chi: DirichletCharacter,
    workers: int = 1,
) -> NegLogSeries:
    """y(s) = -ln(error) for s in [s_min, s_max]; zero-error points excluded."""
    if not (1 <= s_min <= s_max <= S_RANGE_CAP):
        raise DomainError(
            f"s range [{s_min}, {s_max}] must satisfy 1 <= s_min <= s_max <= {S_RANGE_CAP}"
        )
    tasks = [(n, s, chi.modulus, chi.label) for s in range(s_min, s_max + 1)]
    ys = _map_tasks(_series_task, tasks, workers)
    points = []
    excluded = 0
    for (_, s, _, _), y in zip(tasks, ys):
        if y is None:
            excluded += 1
        else:
            points.append(SeriesPoint(s, y))
    if not points:
        raise DomainError(f"series for n={n} over [{s_min}, {s_max}] is empty")
    return NegLogSeries(n, chi.modulus, chi.label, tuple(points), excluded)


def linear_fit(points: Sequence[SeriesPoint], n_excluded: int = 0) -> FitResult:
    """Ordinary least squares y = a*s + b with Pearson correlation."""
    if len(points) < 2:
        raise DomainError(f"a fit needs at least 2 points, got {len(points)}")
    xs = [float(p.s) for p in points]
    ys = [to_float(p.y) for p in points]
    try:
        a, b = statistics.linear_regression(xs, ys)
        r = statistics.correlation(xs, ys)
    except statistics.StatisticsError as exc:
        raise DomainError(f"degenerate fit input: {exc}") from exc
    return FitResult(
        a=a,
        b=b,
        r=r,
        s_min=min(p.s for p in points),
        s_max=max(p.s for p in points),
        n_points=len(points),
        n_excluded=n_excluded,
    )


def slope_series(
    n_min: int,
    n_max: int,
    s_min: int,
    s_max: int,
    chi: Optional[DirichletCharacter] = None,
    workers: int = 1,
):
    """One best-fit line per n in [n_min, n_max], ascending n.

    Defaults to the trivial character when none is given.
    """
    if not (N_RANGE[0] <= n_min <= n_max <= N_RANGE[1]):
        raise DomainError(
            f"n range [{n_min}, {n_max}] must lie within [{N_RANGE[0]}, {N_RANGE[1]}]"
        )
    if chi is None:
        chi = enumerate_characters(1).characters[0]
    out = []
    for n in range(n_min, n_max + 1):
        series = neg_log_series(n, s_min, s_max, chi, workers=workers)
        out.append((n, linear_fit(series.points, series.n_excluded)))
    return out


def _d_task(task):
    n, s, modulus, label = task
    chi = _char(modulus, label)
    value = recursion.error_diff_D(n, s, chi)
    target = primes.nth_prime(n + 1)
    flags = []
    if chi.is_principal:
        flags.append("principal")
    if chi(target).is_zero:
        flags.append("char-zero-at-target")
    return value, "+".join(flags)


def d_table(n_list: Sequence[int], s: int, moduli: Sequence[int], workers: int = 1) -> DTable:
    """Signed error differences, one row per (modulus, label), columns n_list."""
    if not isinstance(s, int) or s < 2:
        raise DomainError(f"the table exponent s must be an integer >= 2, got {s!r}")
    if not n_list:
        raise DomainError("n_list must not be empty")
    row_keys = []
    for k in moduli:
        group = enumerate_characters(k)
        row_keys.extend((k, ch.label) for ch in group.characters)
    tasks = [
        (n, s, modulus, label) for modulus, label in row_keys for n in n_list
    ]
    results = _map_tasks(_d_task, tasks, workers)
    rows = []
    it = iter(results)
    for modulus, label in row_keys:
        cells = tuple(
            DCell(n, value, status)
            for n, (value, status) in zip(n_list, (next(it) for _ in n_list))
        )
        rows.append(DRow(modulus, label, cells))
    return DTable(s, tuple(rows))


# ---------------------------------------------------------------------------
# Float rendering
# ---------------------------------------------------------------------------

FLOAT_DIGITS = 17


def fmt_float(v: float) -> str:
    return f"{v:.{FLOAT_DIGITS}g}"
