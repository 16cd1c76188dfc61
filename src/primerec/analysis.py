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
where the error vanishes are excluded from a series and tallied.  Each
command evaluates every distinct ``(n, s, character)`` estimate once, in
one fan-out over worker processes (the trivial character's errors, for
instance, are shared by every row of a table); results are collected by
grid index, so output is bit-identical to a sequential run.

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


def _error_task(task):
    n, s, modulus, label = task
    return recursion.estimate(n, s, _char(modulus, label)).error


def _series_task(task):
    error = _error_task(task)
    return None if error.is_zero else _Y_CTX.neg(_Y_CTX.ln(error))


def _series(ns, s_min: int, s_max: int, chi: DirichletCharacter, workers: int):
    """One y(s) series per n in ``ns``, every (n, s) cell in one fan-out."""
    if not (1 <= s_min <= s_max <= S_RANGE_CAP):
        raise DomainError(
            f"s range [{s_min}, {s_max}] must satisfy 1 <= s_min <= s_max <= {S_RANGE_CAP}"
        )
    s_values = range(s_min, s_max + 1)
    # n varies fastest, so every chunk a worker takes mixes cheap and costly n
    tasks = [(n, s, chi.modulus, chi.label) for s in s_values for n in ns]
    ys = _map_tasks(_series_task, tasks, workers)
    out = []
    for i, n in enumerate(ns):
        column = ys[i :: len(ns)]
        points = tuple(SeriesPoint(s, y) for s, y in zip(s_values, column) if y is not None)
        if not points:
            raise DomainError(f"series for n={n} over [{s_min}, {s_max}] is empty")
        out.append(NegLogSeries(n, chi.modulus, chi.label, points, len(s_values) - len(points)))
    return out


def neg_log_series(
    n: int,
    s_min: int,
    s_max: int,
    chi: DirichletCharacter,
    workers: int = 1,
) -> NegLogSeries:
    """y(s) = -ln(error) for s in [s_min, s_max]; zero-error points excluded."""
    return _series([n], s_min, s_max, chi, workers)[0]


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
    series = _series(range(n_min, n_max + 1), s_min, s_max, chi, workers)
    return [(ser.n, linear_fit(ser.points, ser.n_excluded)) for ser in series]


def _status(chi: DirichletCharacter, n: int) -> str:
    flags = []
    if chi.is_principal:
        flags.append("principal")
    if chi(primes.nth_prime(n + 1)).is_zero:
        flags.append("char-zero-at-target")
    return "+".join(flags)


def d_table(n_list: Sequence[int], s: int, moduli: Sequence[int], workers: int = 1) -> DTable:
    """Signed error differences, one row per (modulus, label), columns n_list.

    A cell is the trivial character's error minus the row character's, at
    ``required_precision(n, s)``.
    """
    if not isinstance(s, int) or s < 2:
        raise DomainError(f"the table exponent s must be an integer >= 2, got {s!r}")
    if not n_list:
        raise DomainError("n_list must not be empty")
    chars = [ch for k in moduli for ch in enumerate_characters(k).characters]
    keys = [(1, 1)] + [(ch.modulus, ch.label) for ch in chars]
    tasks = list(dict.fromkeys((n, s, k, label) for k, label in keys for n in n_list))
    error = dict(zip(tasks, _map_tasks(_error_task, tasks, workers)))
    rows = []
    for ch in chars:
        cells = []
        for n in n_list:
            e_trivial, e_chi = error[n, s, 1, 1], error[n, s, ch.modulus, ch.label]
            d = recursion.required_precision(n, s).sub(e_trivial, e_chi)
            cells.append(DCell(n, d, _status(ch, n)))
        rows.append(DRow(ch.modulus, ch.label, tuple(cells)))
    return DTable(s, tuple(rows))


# ---------------------------------------------------------------------------
# Float rendering
# ---------------------------------------------------------------------------

FLOAT_DIGITS = 17


def fmt_float(v: float) -> str:
    return f"{v:.{FLOAT_DIGITS}g}"
