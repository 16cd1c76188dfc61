"""CLI data output and the estimate scan are identical to committed references.

The CLI files in ``tests/golden`` were written by the BigFloat residual loop
that the fixed-point kernel replaced, and ``sweep_n2_s1850-1950.csv`` (the
trivial character at the bench's sweep widths, about 5k bits) by the
fixed-point kernel before its real products were inverted by one division;
any change to the evaluation route must keep every printed digit.
``dtable_n3-8_s50_mod4-5-8-9-101.csv``, the bench's ``tables`` table at one
of its moduli, was written while each cell was still subtracted at the
residual's working precision, before the 64-bit subtraction.
``slopes_n2-12_s20-80_mod13_label2.csv`` runs shared kernel passes for a
character of 12 values, with computed roots of unity of order 3, 6 and
12; it was written while each cell of a pass was still truncated from the
widest cell's width to its own.  ``slopes_n2-30_s20-150.csv``, the CI
worker-loop grid, pins n = 13..30 and was written while the recursion's
internals still read the prime table themselves.
``sweep_n3_s1900-1950_mod5_label2.csv`` (a complex Euler product at the
exponents of the bench's sweep) and ``estimate_n2_s100000.csv`` (about 258k
bits) were written while each product was still inverted in full, 2**(2W)
divided by the product at W bits, before the residual's subtraction.
``estimate_n100_s1719.csv`` (the step from 541 to 547 at about 17.5k bits,
J = 1081) was written while every ``2**W // j**s`` was still divided in
full.  ``estimate_n60_s1500_mod7_label3.csv`` (a complex character with
zeros at the multiples of 7, J = 561, about 13.8k bits) was written while
every composite j's quotient still came from its own power ``j**s``.
``sweep_n3_s1900-1950_mod4_label2.csv`` (a real character with chi(3) = -1,
so the running product ``1 + 3**-s`` lies above 1, at the bench's sweep
widths) was written while the residual still multiplied the product by the
sum at full width and divided ``2**(2W)`` less that product by it in full.
Each CLI file name is its command line; every command but ``estimate``,
which has no ``--workers``, runs at one worker.

``scan_mod1-24.txt`` holds one ``estimate`` per line for every character
mod 1..24, n in SCAN_N and s in SCAN_S: ``k label n s prec_bits rounded``
and the 17-digit estimate, error and margin, or ``DomainError`` for a cell
that raises any subclass of it.  It was written with BigFloat roots of
unity and a square root of |residual|**2, before ``mpnum.fixed_root`` and
the root of |residual|**2 of order 2s replaced them.  Regenerate it with
``PYTHONPATH=src python tests/test_golden.py > tests/golden/scan_mod1-24.txt``
only when a change of printed digits is intended.
"""

from pathlib import Path

import pytest

from primerec.characters import enumerate_characters
from primerec.cli import run
from primerec.errors import DomainError
from primerec.mpnum import format_decimal
from primerec.recursion import estimate

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "slopes_n2-30_s20-150.csv": ["slopes", "--n-min", "2", "--n-max", "30", "--s-min", "20", "--s-max", "150"],
    "slopes_n2-12_s20-80.csv": ["slopes", "--n-min", "2", "--n-max", "12", "--s-min", "20", "--s-max", "80"],
    "slopes_n2-12_s20-80_mod13_label2.csv": [
        "slopes", "--n-min", "2", "--n-max", "12", "--s-min", "20", "--s-max", "80",
        "--modulus", "13", "--label", "2",
    ],
    "sweep_n5_s20-120_mod7_label3.csv": [
        "sweep", "--n", "5", "--s-min", "20", "--s-max", "120", "--modulus", "7", "--label", "3",
    ],
    "sweep_n2_s1850-1950.csv": ["sweep", "--n", "2", "--s-min", "1850", "--s-max", "1950"],
    "sweep_n3_s1900-1950_mod5_label2.csv": [
        "sweep", "--n", "3", "--s-min", "1900", "--s-max", "1950", "--modulus", "5", "--label", "2",
    ],
    "sweep_n3_s1900-1950_mod4_label2.csv": [
        "sweep", "--n", "3", "--s-min", "1900", "--s-max", "1950", "--modulus", "4", "--label", "2",
    ],
    "estimate_n2_s100000.csv": ["estimate", "--n", "2", "--s", "100000"],
    "estimate_n100_s1719.csv": ["estimate", "--n", "100", "--s", "1719"],
    "estimate_n60_s1500_mod7_label3.csv": ["estimate", "--n", "60", "--s", "1500", "--modulus", "7", "--label", "3"],
    "dtable_n3-5_s50_mod5-8-13.csv": ["dtable", "--n-list", "3,4,5", "--s", "50", "--moduli", "5,8,13"],
    "dtable_n3-5_s50_mod5-8-13.json": [
        "dtable", "--n-list", "3,4,5", "--s", "50", "--moduli", "5,8,13", "--format", "json",
    ],
    "dtable_n3-8_s50_mod4-5-8-9-101.csv": [
        "dtable", "--n-list", "3,4,5,6,7,8", "--s", "50", "--moduli", "4,5,8,9,101",
    ],
}

SCAN_FILE = "scan_mod1-24.txt"
SCAN_MODULI = range(1, 25)
SCAN_N = (1, 2, 3, 5)
SCAN_S = (50, 200, 600)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    args = CASES[name]
    assert run(args if args[0] == "estimate" else args + ["--workers", "1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def scan_lines():
    """One line per scan cell, in (k, label, n, s) order."""
    for k in SCAN_MODULI:
        for chi in enumerate_characters(k).characters:
            for n in SCAN_N:
                for s in SCAN_S:
                    cell = f"{k} {chi.label} {n} {s}"
                    try:
                        r = estimate(n, s, chi)
                    except DomainError:
                        yield f"{cell} DomainError"
                        continue
                    digits = " ".join(format_decimal(x, 17) for x in (r.estimate, r.error, r.margin))
                    yield f"{cell} {r.prec_bits} {r.rounded} {digits}"


def test_scan_matches_golden():
    want = (GOLDEN / SCAN_FILE).read_text(encoding="utf-8").splitlines()
    got = list(scan_lines())
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    shown = "\n".join(f"  want {w}\n  got  {g}" for w, g in bad[:5])
    assert not bad, f"{len(bad)} of {len(want)} scan cells differ, first:\n{shown}"
    assert len(got) == len(want)


if __name__ == "__main__":
    for line in scan_lines():
        print(line)
