"""Series generation and least-squares fits over the recursion errors.

The negated natural log of the error, ``y(s) = -ln E``, is close to linear
in s for fixed n, so the module produces ``(s, y)`` series, ordinary
least-squares lines with Pearson correlation, per-n slope sweeps, and the
signed error-difference table comparing every character against the
trivial one at a fixed s.

Error values come from ``recursion.estimate`` (residual at the automatic
working precision, error at the width that survives the cancellation).  y
and a table's error differences are ``BigFloat`` values computed in the
64-bit context ``_Y_CTX``: their 17 printed digits need about 57 bits.
Fits convert y to machine doubles, which is ample because y is O(100)
while fit tolerances live at the third digit.  Points
where the error vanishes are excluded from a series and tallied.  Fits
sum with ``math.fsum`` in a fixed order, so a slope prints the same digits
on every supported Python.  Each command evaluates every distinct
``(n, s, character)`` estimate once, in one fan-out (the trivial
character's errors, for instance, are shared by every row of a table):
with w workers, capped at the task count and the CPU count, the process
forks w - 1 children, child i computes tasks i, i + w, ... while the
parent computes tasks 0, w, ..., and results are collected by grid index,
so output is bit-identical to a sequential run.  Where ``os.fork`` is
missing the tasks run in-process.  A series task
holds every n of one s (``recursion.estimate_many``), so they share one
kernel pass at one precision; a table keeps one task per cell.  The CLI
renders the results (``primerec.cli`` holds the row format).
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple, Optional, Sequence

from . import primes, recursion
from .characters import DirichletCharacter, enumerate_characters
from .errors import DomainError, ZeroResidualError
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
]

S_RANGE_CAP = 2000
N_RANGE = (2, 30)
_Y_CTX = PrecisionContext(64)


class SeriesPoint(NamedTuple):
    s: int
    y: BigFloat  # -ln(error), in the 64-bit context _Y_CTX


class NegLogSeries(NamedTuple):
    n: int
    modulus: int
    label: int
    points: tuple
    n_excluded: int


class FitResult(NamedTuple):
    a: float  # slope
    b: float  # intercept
    r: float  # Pearson correlation
    s_min: int
    s_max: int
    n_points: int
    n_excluded: int


class DCell(NamedTuple):
    n: int
    value: Optional[BigFloat]  # signed; None when the residual is exactly zero
    status: str  # "" or "+"-joined flags


class DRow(NamedTuple):
    modulus: int
    label: int
    cells: tuple


class DTable(NamedTuple):
    s: int
    rows: tuple


def __getattr__(name: str):
    # bench/tracer.py's pool counter still reads and rebinds this name; the
    # fan-out forks and never calls it.  Delete once the benchmark counts forks.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _char(modulus: int, label: int) -> DirichletCharacter:
    return enumerate_characters(modulus).by_label(label)


def _map_tasks(func, tasks, workers: int):
    """``[func(t) for t in tasks]``, spread over up to ``workers`` processes.

    More workers than tasks or CPUs cannot change a byte of the output, so
    the fan-out is capped at both.
    """
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [func(t) for t in tasks]
    return _fork_map(func, tasks, workers)


def _share(func, tasks):
    """``(None, results)``, or ``(position, exception)`` of the first task
    that raises."""
    results = []
    try:
        for t in tasks:
            results.append(func(t))
    except Exception as exc:
        return len(results), exc
    return None, results


def _fork_map(func, tasks, workers: int):
    """Child i (1 <= i < workers) computes ``tasks[i::workers]`` and pickles
    its ``_share`` into a pipe; the parent computes ``tasks[0::workers]``,
    then reads every pipe and reaps every child.  The exception of the
    lowest failing task index is raised, as the serial loop raises it.  If
    the parent itself is interrupted, the children are killed and reaped.
    """
    # only a fan-out needs these, so a command at one worker never loads them
    import pickle
    import signal

    children = {}  # pid -> read end of the child's result pipe
    try:
        for i in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                # os._exit: no exit handlers and no flush of buffers the
                # parent still owns; the exit code says the pipe is complete
                code = 1
                try:
                    with os.fdopen(w, "wb") as fh:
                        pickle.dump(_share(func, tasks[i::workers]), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children[pid] = os.fdopen(r, "rb")
        shares = [_share(func, tasks[0::workers])]
        for pid, fh in list(children.items()):
            with fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if os.waitstatus_to_exitcode(status) != 0:
                raise RuntimeError(f"fan-out worker {pid} ended (wait status {status}) without its results")
            shares.append(pickle.loads(data))
    except BaseException:
        for pid, fh in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    failures = [(at * workers + i, exc) for i, (at, exc) in enumerate(shares) if at is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    out = [None] * len(tasks)
    for i, (_, results) in enumerate(shares):
        out[i::workers] = results
    return out


def _d_error_task(task):
    n, s, modulus, label = task
    try:
        return recursion.estimate(n, s, _char(modulus, label)).error
    except ZeroResidualError:
        return None


def _series_task(task):
    """y(s) for every n of one s; None where the error vanishes."""
    ns, s, modulus, label = task
    errors = [r.error for r in recursion.estimate_many(ns, s, _char(modulus, label))]
    return [None if e.is_zero else _Y_CTX.neg(_Y_CTX.ln(e)) for e in errors]


def _series(ns, s_min: int, s_max: int, chi: DirichletCharacter, workers: int):
    """One y(s) series per n in ``ns``, one task per s holding every n."""
    if not (1 <= s_min <= s_max <= S_RANGE_CAP):
        raise DomainError(
            f"s range [{s_min}, {s_max}] must satisfy 1 <= s_min <= s_max <= {S_RANGE_CAP}"
        )
    s_values = range(s_min, s_max + 1)
    tasks = [(tuple(ns), s, chi.modulus, chi.label) for s in s_values]
    rows = _map_tasks(_series_task, tasks, workers)
    out = []
    for i, n in enumerate(ns):
        points = tuple(SeriesPoint(s, row[i]) for s, row in zip(s_values, rows) if row[i] is not None)
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
    # the formulas of CPython 3.10/3.11 statistics.linear_regression and
    # correlation, whose float arithmetic changed in 3.12
    xs = [float(p.s) for p in points]
    ys = [to_float(p.y) for p in points]
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = math.fsum((d := x - xbar) * d for x in xs)
    syy = math.fsum((d := y - ybar) * d for y in ys)
    if sxx == 0:
        raise DomainError("degenerate fit input: x is constant")
    if sxx * syy == 0:
        raise DomainError("degenerate fit input: y is constant")
    a = sxy / sxx
    b = ybar - a * xbar
    r = sxy / math.sqrt(sxx * syy)
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


def _status(chi: DirichletCharacter, n: int, zero_residual: bool) -> str:
    flags = []
    if chi.is_principal:
        flags.append("principal")
    if chi(primes.nth_prime(n + 1)).is_zero:
        flags.append("char-zero-at-target")
    if zero_residual:
        flags.append("zero-residual")
    return "+".join(flags)


def d_table(n_list: Sequence[int], s: int, moduli: Sequence[int], workers: int = 1) -> DTable:
    """Signed error differences, one row per (modulus, label), columns n_list.

    A cell is the trivial character's error minus the row character's,
    rounded to the 64-bit ``_Y_CTX``, ample for its 17 printed digits.  When
    the row character's residual is exactly zero the cell has no value and
    the ``zero-residual`` flag.
    """
    if not isinstance(s, int) or s < 2:
        raise DomainError(f"the table exponent s must be an integer >= 2, got {s!r}")
    if not n_list:
        raise DomainError("n_list must not be empty")
    if not moduli:
        raise DomainError("moduli must not be empty")
    chars = [ch for k in moduli for ch in enumerate_characters(k).characters]
    keys = [(1, 1)] + [(ch.modulus, ch.label) for ch in chars]
    tasks = list(dict.fromkeys((n, s, k, label) for k, label in keys for n in n_list))
    error = dict(zip(tasks, _map_tasks(_d_error_task, tasks, workers)))
    rows = []
    for ch in chars:
        cells = []
        for n in n_list:
            # the trivial character's residual is never zero (Bertrand)
            e_trivial, e_chi = error[n, s, 1, 1], error[n, s, ch.modulus, ch.label]
            d = None if e_chi is None else _Y_CTX.sub(e_trivial, e_chi)
            cells.append(DCell(n, d, _status(ch, n, d is None)))
        rows.append(DRow(ch.modulus, ch.label, tuple(cells)))
    return DTable(s, tuple(rows))

