"""CLI data output is byte-identical to committed reference files.

The files in ``tests/golden`` were written by the BigFloat residual loop
that the fixed-point kernel replaced; any change to the evaluation route
must keep every printed digit.  Each file name is its command line.
"""

from pathlib import Path

import pytest

from primerec.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "slopes_n2-12_s20-80.csv": ["slopes", "--n-min", "2", "--n-max", "12", "--s-min", "20", "--s-max", "80"],
    "sweep_n5_s20-120_mod7_label3.csv": [
        "sweep", "--n", "5", "--s-min", "20", "--s-max", "120", "--modulus", "7", "--label", "3",
    ],
    "dtable_n3-5_s50_mod5-8-13.csv": ["dtable", "--n-list", "3,4,5", "--s", "50", "--moduli", "5,8,13"],
    "dtable_n3-5_s50_mod5-8-13.json": [
        "dtable", "--n-list", "3,4,5", "--s", "50", "--moduli", "5,8,13", "--format", "json",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    assert run(CASES[name] + ["--workers", "1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
