"""Command-line front end for character tables, estimates, sweeps and fits.

Subcommands
-----------
 * ``chars    --modulus K``                               character table
 * ``estimate --n N --s S [--modulus K --label L]``       one estimate row
 * ``sweep    --n N --s-min A --s-max B [--modulus ...]`` -ln(error) series
 * ``slopes   --n-min A --n-max B --s-min C --s-max D [--modulus ...]``
                                                          per-n fit lines
 * ``dtable   --n-list 3,...,8 --s 50 --moduli 4,5,8,9``  error differences
 * ``selftest``                                           built-in suites

Data goes to stdout (or ``--output FILE``) as CSV by default or JSON with
``--format json`` carrying identical values; diagnostics and warnings go to
stderr.  Exit codes, for every subcommand: 0 success, 1 domain error or a
failed selftest suite, 2 argument error, 3 the output (stdout or the
``--output`` file) cannot be written.  All numeric output is plain decimal,
never locale-dependent.  ``--workers`` parallelises sweeps without changing
their output: the analysis fan-out forks up to N - 1 children, capped at
the CPU count, and runs in-process where ``os.fork`` is missing.  A count
below 1 on the command line is an argument error; the default comes from
the PRIMEREC_WORKERS environment variable, read leniently at each run (1
for anything but a positive integer).  The parser is built once per
process (``build_parser``).  Modules that only some commands use (``json``,
the selftest suites and their exact oracle) are imported by those
commands, so start-up loads only what every command needs.

Row format
----------
Each data subcommand yields a header and its rows; ``run`` writes them a
row at a time into stdout or the ``--output`` file, as CSV or as the bytes
of ``json.dumps({"schema": header, "rows": [{column: value}]}, indent=2)``.
Floats print with 17 significant digits (``FLOAT_DIGITS``).  The schemas:

 * chars:    ``label, n, kind, a, m`` (``kind`` is ``zero`` or ``root``;
   ``a`` and ``m`` are empty for a zero cell)
 * estimate: ``n, s, modulus, label, prec_bits, target, rounded,
   rounded_is_prime, estimate, error, margin, status``
 * sweep:    ``n, s, modulus, label, neg_log_error``
 * slopes:   ``n, a, b, r, s_min, s_max, n_points, n_excluded``
 * dtable:   ``modulus, label, n, d_value, status`` (``d_value`` is empty
   for a ``zero-residual`` cell)
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import os
import sys
from typing import Optional, Sequence

from . import analysis, recursion
from .characters import enumerate_characters
from .errors import PrimerecError
from .mpnum import BigFloat, format_decimal
from .primes import is_prime

WORKERS_ENV = "PRIMEREC_WORKERS"
FLOAT_DIGITS = 17


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected a positive worker count, got {text!r}")
    return count


def _int_list(text: str):
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; every caller shares it."""
    parser = argparse.ArgumentParser(
        prog="primerec",
        description="Prime recursion through Dirichlet L-series: estimates, sweeps and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--output", "-o", help="write data to this file instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("chars", help="emit the character table for a modulus")
    p.add_argument("--modulus", type=int, required=True)
    add_io(p)

    p = sub.add_parser("estimate", help="evaluate one (n, s, character) estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--modulus", type=int, default=1)
    p.add_argument("--label", type=int, default=1)
    p.add_argument("--precision", type=int, default=None, help="working precision override in bits")
    add_io(p)

    p = sub.add_parser("sweep", help="-ln(error) series over a range of s")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s-min", type=int, required=True)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--modulus", type=int, default=1)
    p.add_argument("--label", type=int, default=1)
    p.add_argument("--workers", type=_worker_count)
    add_io(p)

    p = sub.add_parser("slopes", help="best-fit slope per n over a common s range")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--s-min", type=int, required=True)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--modulus", type=int, default=1)
    p.add_argument("--label", type=int, default=1)
    p.add_argument("--workers", type=_worker_count)
    add_io(p)

    p = sub.add_parser("dtable", help="signed error-difference table at fixed s")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--moduli", type=_int_list, required=True)
    p.add_argument("--workers", type=_worker_count)
    add_io(p)

    sub.add_parser("selftest", help="run the built-in verification suites")

    return parser


def _render(fmt: str, header, rows, out) -> None:
    if fmt == "json":
        from json import dumps, encoder

        # json.dumps's indent=2 layout for a non-empty header, written out a
        # row at a time: an int cell through str, a str cell through the
        # function json.dumps quotes strings with, any other through dumps
        to_text = {int: str, str: encoder.encode_basestring_ascii}.get
        keys = [f"\n      {dumps(key)}: " for key in header]
        out.write('{\n  "schema": [%s\n  ],\n  "rows": [' % ",".join("\n    " + dumps(k) for k in header))
        sep = ""
        for row in rows:
            cells = ",".join([key + to_text(type(v), dumps)(v) for key, v in zip(keys, row)])
            out.write(f"{sep}\n    {{{cells}\n    }}")
            sep = ","
        out.write("\n  ]\n}\n" if sep else "]\n}\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _float(v: float) -> str:
    return f"{v:.{FLOAT_DIGITS}g}"


def _decimal(x: BigFloat) -> str:
    return format_decimal(x, FLOAT_DIGITS)


def _cmd_chars(args):
    header = ("label", "n", "kind", "a", "m")
    # a generator, so CSV never holds the row tuples of a 10**6-cell table at once;
    # unpacking each CharValue costs less than reading its fields by name
    rows = (
        (ch.label, n, kind, a, m) if kind == "root" else (ch.label, n, kind, "", "")
        for ch in enumerate_characters(args.modulus).characters
        for n, (kind, a, m) in enumerate(ch.table)
    )
    return header, rows


def _cmd_estimate(args):
    chi = enumerate_characters(args.modulus).by_label(args.label)
    res = recursion.estimate(args.n, args.s, chi, prec_bits=args.precision)
    if res.warning:
        print(f"warning: {res.warning}", file=sys.stderr)
    header = (
        "n", "s", "modulus", "label", "prec_bits", "target", "rounded",
        "rounded_is_prime", "estimate", "error", "margin", "status",
    )
    row = (
        res.n, res.s, res.modulus, res.label, res.prec_bits, res.target, res.rounded,
        int(is_prime(res.rounded)) if res.rounded >= 1 else 0,
        _decimal(res.estimate),
        _decimal(res.error),
        _decimal(res.margin),
        "char-zero-at-target" if res.warning else "",
    )
    return header, [row]


def _cmd_sweep(args):
    chi = enumerate_characters(args.modulus).by_label(args.label)
    series = analysis.neg_log_series(
        args.n, args.s_min, args.s_max, chi, workers=args.workers
    )
    if series.n_excluded:
        print(
            f"warning: {series.n_excluded} zero-error points excluded from the series",
            file=sys.stderr,
        )
    header = ("n", "s", "modulus", "label", "neg_log_error")
    rows = [(series.n, p.s, series.modulus, series.label, _decimal(p.y)) for p in series.points]
    return header, rows


def _cmd_slopes(args):
    chi = enumerate_characters(args.modulus).by_label(args.label)
    fits = analysis.slope_series(
        args.n_min, args.n_max, args.s_min, args.s_max, chi, workers=args.workers
    )
    header = ("n", "a", "b", "r", "s_min", "s_max", "n_points", "n_excluded")
    rows = [
        (n, _float(f.a), _float(f.b), _float(f.r), f.s_min, f.s_max, f.n_points, f.n_excluded)
        for n, f in fits
    ]
    return header, rows


def _cmd_dtable(args):
    table = analysis.d_table(args.n_list, args.s, args.moduli, workers=args.workers)
    header = ("modulus", "label", "n", "d_value", "status")
    rows = []
    for row in table.rows:
        for cell in row.cells:
            # "principal" is informational; only degenerate cells warn (a
            # zero-residual cell also vanishes at its target, a tail term)
            if "char-zero-at-target" in cell.status:
                print(
                    f"warning: modulus {row.modulus} label {row.label} n={cell.n}: {cell.status}",
                    file=sys.stderr,
                )
            d_value = "" if cell.value is None else _decimal(cell.value)
            rows.append((row.modulus, row.label, cell.n, d_value, cell.status))
    return header, rows


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "workers", 1) is None:
        args.workers = _default_workers()

    if args.command == "selftest":
        from . import selftest

        write = selftest.run_selftest
    else:
        handler = {
            "chars": _cmd_chars,
            "estimate": _cmd_estimate,
            "sweep": _cmd_sweep,
            "slopes": _cmd_slopes,
            "dtable": _cmd_dtable,
        }[args.command]
        try:
            header, rows = handler(args)
        except PrimerecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        write = functools.partial(_render, args.format, header, rows)

    # the file opens only once the handler has returned, so a domain error
    # leaves no file behind; a buffered write to stdout can fail as late as
    # its flush, and with fd 1 closed at start-up sys.stdout is None
    output = getattr(args, "output", None)
    try:
        if not output and sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        with open(output, "w", encoding="utf-8") if output else contextlib.nullcontext(sys.stdout) as out:
            failures = write(out)
            out.flush()
    except OSError as exc:
        print(f"error: cannot write {output or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 3
    return 1 if failures else 0


def main() -> None:
    code = run()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        # what failed to reach stdout is still buffered, and the interpreter
        # would flush it again at exit and fail with a second report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
