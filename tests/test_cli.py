"""Command-line interface tests: schemas, exit codes, streams, files."""

import contextlib
import csv
import errno
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primerec
from primerec.analysis import slope_series
from primerec.characters import enumerate_characters
from primerec.cli import _render, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["chars", "--modulus", "12"],
        ["sweep", "--n", "2", "--s-min", "20", "--s-max", "22"],
        ["dtable", "--n-list", "1,2,3", "--s", "50", "--moduli", "5,6"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_file_has_the_stdout_bytes(capsys, tmp_path, argv, fmt):
    target = tmp_path / "out"
    code, out, _ = invoke(capsys, *argv, "--format", fmt)
    assert code == 0
    assert invoke(capsys, *argv, "--format", fmt, "--output", str(target))[:2] == (0, "")
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["chars", "--modulus", "12"],
        ["estimate", "--n", "2", "--s", "50", "--modulus", "5", "--label", "2"],
        ["sweep", "--n", "2", "--s-min", "20", "--s-max", "22"],
        ["slopes", "--n-min", "2", "--n-max", "3", "--s-min", "20", "--s-max", "30"],
        ["dtable", "--n-list", "1,2", "--s", "50", "--moduli", "6"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_and_csv_carry_the_same_rows(capsys, argv):
    code_csv, out_csv, err_csv = invoke(capsys, *argv)
    code_json, out_json, err_json = invoke(capsys, *argv, "--format", "json")
    assert code_csv == code_json == 0 and err_csv == err_json
    header, *rows = csv.reader(io.StringIO(out_csv))
    payload = json.loads(out_json)
    assert payload["schema"] == header
    assert [[str(v) for v in row.values()] for row in payload["rows"]] == rows
    assert rows and all(list(row) == header for row in payload["rows"])


UNWRITABLE_STDOUT = [
    ["chars", "--modulus", "997"],
    ["estimate", "--n", "2", "--s", "5"],
    ["sweep", "--n", "2", "--s-min", "20", "--s-max", "30", "--format", "json"],
    ["selftest"],
]


@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full"])
@pytest.mark.parametrize("argv", UNWRITABLE_STDOUT, ids=lambda argv: argv[0])
def test_unwritable_stdout_exit_3(argv, sink):
    # a pipe whose read end is closed before the child starts fails every
    # write, where `| head` would fail one only if head exits first; the
    # child keeps Python's default buffering, so a short output first fails
    # when it is flushed
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, fd = os.pipe()
        os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(primerec.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "primerec.cli", *argv],
            stdout=fd, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(fd)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.parametrize(
    "argv", [["chars", "--modulus", "5"], ["estimate", "--n", "2", "--s", "5"], ["selftest"]], ids=lambda argv: argv[0]
)
def test_closed_stdout_exit_3(argv):
    # with fd 1 closed before the interpreter starts, sys.stdout is None
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(primerec.__file__)))
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "primerec.cli", *argv],
        stderr=subprocess.PIPE, env=env, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.EBADF)}\n"


@pytest.mark.parametrize("argv", [["chars", "--modulus", "5"], ["selftest"]], ids=lambda argv: argv[0])
def test_stdout_none_exit_3(monkeypatch, capsys, tmp_path, argv):
    monkeypatch.setattr(sys, "stdout", None)
    assert run(argv) == 3
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.EBADF)}\n"
    # an --output file does not need stdout
    if argv[0] == "chars":
        path = tmp_path / "chars.csv"
        assert run([*argv, "--output", str(path)]) == 0
        assert path.read_text(encoding="utf-8").startswith("label,n,kind,a,m\n")


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [["chars", "--modulus", "5"], ["selftest"]], ids=lambda argv: argv[0])
def test_unwritable_redirected_stdout_exit_3(capsys, argv):
    # the route of a caller that redirects sys.stdout and calls run in-process
    with contextlib.redirect_stdout(_FullStream()):
        code = run(argv)
    assert code == 3
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_oserror_while_computing_is_not_a_write_error(monkeypatch):
    # only the writing is guarded: a fork refused by the process limit
    # propagates instead of being reported as an unwritable stdout
    from primerec import analysis

    def refuse(func, tasks, workers):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(analysis, "_map_tasks", refuse)
    with pytest.raises(OSError):
        run(["sweep", "--n", "2", "--s-min", "20", "--s-max", "21"])


class TestChars:
    def test_mod5_table(self, capsys):
        code, out, err = invoke(capsys, "chars", "--modulus", "5")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 20
        cells = {(int(r["label"]), int(r["n"])): (r["kind"], r["a"], r["m"]) for r in rows}
        assert cells[(2, 2)] == ("root", "1", "4")   # i
        assert cells[(2, 3)] == ("root", "3", "4")   # -i
        assert cells[(2, 4)] == ("root", "1", "2")   # -1
        assert cells[(3, 2)] == ("root", "1", "2")   # -1
        assert cells[(4, 2)] == ("root", "3", "4")   # -i
        assert cells[(1, 0)] == ("zero", "", "")

    def test_domain_error_exit_1(self, capsys):
        code, _, err = invoke(capsys, "chars", "--modulus", "0")
        assert code == 1
        assert "error:" in err

    def test_domain_error_writes_no_file(self, capsys, tmp_path):
        target = tmp_path / "x.csv"
        code, out, err = invoke(capsys, "chars", "--modulus", "0", "-o", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: ")
        assert not target.exists()

    def test_unwritable_output_exit_3(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = invoke(capsys, "chars", "--modulus", "5", "-o", str(target))
        assert code == 3 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err


class TestEstimate:
    def test_basic(self, capsys):
        code, out, err = invoke(capsys, "estimate", "--n", "2", "--s", "50")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["rounded"] == "5" and row["target"] == "5"
        assert row["rounded_is_prime"] == "1"
        assert row["status"] == ""
        assert err == ""

    def test_flagged_row_still_succeeds(self, capsys):
        code, out, err = invoke(
            capsys, "estimate", "--n", "2", "--s", "50", "--modulus", "5", "--label", "2"
        )
        assert code == 0
        assert "warning:" in err
        row = parse_csv(out)[0]
        assert row["status"] == "char-zero-at-target"

    def test_precision_override_too_low(self, capsys):
        code, _, err = invoke(
            capsys, "estimate", "--n", "2", "--s", "50", "--precision", "100"
        )
        assert code == 1
        assert "required" in err

    def test_zero_residual_exit_1(self, capsys):
        code, out, err = invoke(
            capsys, "estimate", "--n", "1", "--s", "50", "--modulus", "6", "--label", "1"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: the residual is exactly zero for modulus 6, label 1")
        assert "--precision" not in err


    def test_cost_cap_refuses_up_front(self, capsys):
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, "estimate", "--n", "100000", "--s", "100000")
        assert time.perf_counter() - t0 < 2
        assert code == 1 and out == ""
        assert err.startswith("error: n=100000, s=100000") and "above the cap of 1e+14" in err

    @pytest.mark.parametrize("s", ["1000000", "10000000"])
    def test_kernel_cost_refused_at_once(self, capsys, s):
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, "estimate", "--n", "2", "--s", s)
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == ""
        assert err.startswith(f"error: n=2, s={s}") and "above the cap of 1e+14" in err

    @pytest.mark.parametrize("s", [str(10**14 + 1), "1" + "0" * 160, "1" + "0" * 400])
    def test_huge_exponent_refused(self, capsys, s):
        # beyond float range s * log2(base) and the projected cost would overflow
        code, out, err = invoke(capsys, "estimate", "--n", "2", "--s", s)
        assert code == 1 and out == ""
        assert err.startswith(f"error: n=2, s={s} ") and "above the cap of 1e+14" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--n", "2", "--s", "10"],
        ["sweep", "--n", "2", "--s-min", "10", "--s-max", "12"],
        ["slopes", "--n-min", "2", "--n-max", "3", "--s-min", "10", "--s-max", "12"],
    ],
    ids=lambda argv: argv[0],
)
def test_one_labelled_character_without_its_group(capsys, argv):
    # mod 4999 has 4998 characters of 4999 cells each: a command on one of
    # them builds its one table, and enumerates no group
    enumerate_characters.cache_clear()
    code, out, err = invoke(capsys, *argv, "--modulus", "4999", "--label", "2")
    assert code == 0 and out and err == ""
    assert enumerate_characters.cache_info().currsize == 0


class TestSweep:
    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--n", "2", "--s-min", "20", "--s-max", "24")
        assert code == 0
        rows = parse_csv(out)
        assert [r["s"] for r in rows] == ["20", "21", "22", "23", "24"]
        ys = [float(r["neg_log_error"]) for r in rows]
        assert ys == sorted(ys)

    def test_json_carries_identical_values(self, capsys):
        _, out_csv, _ = invoke(capsys, "sweep", "--n", "2", "--s-min", "20", "--s-max", "22")
        _, out_json, _ = invoke(
            capsys, "sweep", "--n", "2", "--s-min", "20", "--s-max", "22",
            "--format", "json",
        )
        payload = json.loads(out_json)
        csv_rows = parse_csv(out_csv)
        assert payload["schema"] == list(csv_rows[0].keys())
        for jrow, crow in zip(payload["rows"], csv_rows):
            assert str(jrow["neg_log_error"]) == crow["neg_log_error"]
            assert str(jrow["s"]) == crow["s"]

    def test_exactly_dyadic_estimates(self, capsys):
        # |residual| is 1/6 at s = 1 and 1/36 at s = 2, so the estimate is
        # exactly 6 = 3 * 2**1 and the error 3
        code, out, _ = invoke(capsys, "sweep", "--n", "1", "--s-min", "1", "--s-max", "3")
        assert code == 0
        assert out.splitlines() == [
            "n,s,modulus,label,neg_log_error",
            "1,1,1,1,-1.0986122886681097e+00",
            "1,2,1,1,-1.0986122886681097e+00",
            "1,3,1,1,3.0678547963360432e-01",
        ]

    def test_zero_residual_exit_1(self, capsys):
        code, out, err = invoke(
            capsys, "sweep", "--n", "1", "--s-min", "50", "--s-max", "52", "--modulus", "6", "--label", "1"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: the residual is exactly zero for modulus 6, label 1")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "series.csv"
        code, out, _ = invoke(
            capsys, "sweep", "--n", "2", "--s-min", "20", "--s-max", "21",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        rows = parse_csv(target.read_text())
        assert len(rows) == 2


class TestSlopes:
    def test_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "slopes", "--n-min", "2", "--n-max", "3",
            "--s-min", "20", "--s-max", "40",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["2", "3"]
        assert all(float(r["r"]) > 0.99 for r in rows)

    def test_character(self, capsys):
        chi = enumerate_characters(7).by_label(3)
        code, out, _ = invoke(
            capsys, "slopes", "--n-min", "2", "--n-max", "4",
            "--s-min", "20", "--s-max", "40", "--modulus", "7", "--label", "3",
        )
        assert code == 0
        # 17 significant digits give the doubles back exactly
        got = [(int(r["n"]), float(r["a"]), float(r["b"]), float(r["r"])) for r in parse_csv(out)]
        assert got == [(n, f.a, f.b, f.r) for n, f in slope_series(2, 4, 20, 40, chi)]
        # the default character is modulus 1, label 1
        argv = ["slopes", "--n-min", "2", "--n-max", "3", "--s-min", "20", "--s-max", "30"]
        assert invoke(capsys, *argv) == invoke(capsys, *argv, "--modulus", "1", "--label", "1")

    def test_degenerate_fit_names_its_n(self, capsys):
        # mod 70 label 7 vanishes at 5 and 7, the targets of n = 2 and 3,
        # whose estimates read 9 and 27 and errors 4 and 20 at every s
        code, out, err = invoke(
            capsys, "slopes", "--n-min", "2", "--n-max", "12", "--s-min", "20", "--s-max", "80",
            "--modulus", "70", "--label", "7",
        )
        assert (code, out) == (1, "")
        assert err == "error: the fit for n=2 failed: degenerate fit input: y is constant\n"


@pytest.mark.parametrize(
    "header,rows",
    [
        (("a", "b"), []),
        (("a",), [(1,)]),
        (("k", "x"), [(i, f"v{i}") for i in range(10_000)]),
    ],
    ids=["empty", "one", "ten-thousand-rows"],
)
def test_json_rows_stream_as_one_document(header, rows):
    out = io.StringIO()
    _render("json", header, iter(rows), out)
    payload = {"schema": list(header), "rows": [dict(zip(header, row)) for row in rows]}
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


CELLS = st.one_of(st.integers(), st.text(), st.floats(), st.booleans(), st.none())


@given(
    st.lists(st.text(), min_size=1, max_size=5, unique=True).flatmap(
        lambda header: st.tuples(
            st.just(tuple(header)), st.lists(st.tuples(*[CELLS] * len(header)), max_size=5)
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_json_matches_json_dumps(document):
    # quotes, backslashes, control and non-ASCII characters in headers and
    # cells, ints of any size, floats including nan and inf, bools and None
    header, rows = document
    out = io.StringIO()
    _render("json", header, rows, out)
    payload = {"schema": list(header), "rows": [dict(zip(header, row)) for row in rows]}
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


class TestDTable:
    def test_csv_and_warnings(self, capsys):
        code, out, err = invoke(
            capsys, "dtable", "--n-list", "2,3", "--s", "50", "--moduli", "5"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8  # 4 characters x 2 columns
        flagged = [r for r in rows if r["status"]]
        assert any("char-zero-at-target" in r["status"] for r in flagged)
        assert "warning:" in err

    def test_zero_residual_cells(self, capsys):
        # mod 6 at n = 1: no tail term has chi != 0, so both residuals are
        # exactly zero; the n = 2 cells are unaffected
        code, out, err = invoke(capsys, "dtable", "--n-list", "1,2", "--s", "50", "--moduli", "6")
        assert code == 0
        lines = out.splitlines()
        code2, out2, _ = invoke(capsys, "dtable", "--n-list", "2", "--s", "50", "--moduli", "6")
        assert code2 == 0
        assert [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[2] == "2"] == out2.splitlines()
        zero = [r for r in parse_csv(out) if r["n"] == "1"]
        assert len(zero) == 2
        assert all(r["d_value"] == "" and "zero-residual" in r["status"].split("+") for r in zero)
        assert err.count("zero-residual") == 2
        code, out, _ = invoke(
            capsys, "dtable", "--n-list", "1,2", "--s", "50", "--moduli", "6", "--format", "json"
        )
        assert code == 0
        assert [r["d_value"] for r in json.loads(out)["rows"] if r["n"] == 1] == ["", ""]

    @pytest.mark.parametrize("n_list, moduli, name", [(",", "4", "n_list"), ("3", ",", "moduli")])
    def test_empty_list_exit_1(self, capsys, n_list, moduli, name):
        code, out, err = invoke(capsys, "dtable", "--n-list", n_list, "--s", "50", "--moduli", moduli)
        assert (code, out, err) == (1, "", f"error: {name} must not be empty\n")

    def test_reference_anchor(self, capsys):
        code, out, _ = invoke(
            capsys, "dtable", "--n-list", "3", "--s", "50", "--moduli", "4"
        )
        rows = parse_csv(out)
        assert abs(float(rows[0]["d_value"]) - 2.518e-9) / 2.518e-9 < 0.01


class TestArgumentErrors:
    def test_unknown_flag(self, capsys):
        assert invoke(capsys, "chars", "--modulus", "5", "--bogus")[0] == 2

    def test_missing_subcommand(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_bad_int_list(self, capsys):
        assert invoke(capsys, "dtable", "--n-list", "3,x", "--s", "50", "--moduli", "4")[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--n", "2", "--s-min", "20", "--s-max", "21"],
            ["slopes", "--n-min", "2", "--n-max", "3", "--s-min", "20", "--s-max", "22"],
            ["dtable", "--n-list", "3", "--s", "50", "--moduli", "4"],
        ],
        ids=["sweep", "slopes", "dtable"],
    )
    def test_workers_below_one(self, capsys, command, workers):
        code, out, err = invoke(capsys, *command, "--workers", workers)
        assert code == 2 and out == ""
        assert "positive worker count" in err


class TestWorkerEnv:
    SWEEP = ("sweep", "--n", "2", "--s-min", "20", "--s-max", "21")

    @pytest.fixture
    def fan_outs(self, monkeypatch):
        """The worker count of every analysis fan-out, in call order."""
        from primerec import analysis

        fan_out, seen = analysis._map_tasks, []

        def spy(func, tasks, workers):
            seen.append(workers)
            return fan_out(func, tasks, workers)

        monkeypatch.setattr(analysis, "_map_tasks", spy)
        return seen

    def test_env_var_sets_default(self, capsys, monkeypatch, fan_outs):
        monkeypatch.setenv("PRIMEREC_WORKERS", "3")
        assert invoke(capsys, *self.SWEEP)[0] == 0
        assert fan_outs == [3]

    def test_env_var_garbage_falls_back(self, capsys, monkeypatch, fan_outs):
        monkeypatch.setenv("PRIMEREC_WORKERS", "many")
        assert invoke(capsys, *self.SWEEP)[0] == 0
        assert fan_outs == [1]

    def test_one_parser_per_process(self, capsys, monkeypatch, fan_outs):
        # the parser is built once, yet each run reads PRIMEREC_WORKERS anew
        from primerec import cli

        monkeypatch.delenv("PRIMEREC_WORKERS", raising=False)
        cli.build_parser.cache_clear()
        argv = ["sweep", "--n", "2", "--s-min", "20", "--s-max", "23"]
        first = invoke(capsys, *argv)
        monkeypatch.setenv("PRIMEREC_WORKERS", "2")
        assert first[0] == 0 and invoke(capsys, *argv) == first
        assert cli.build_parser.cache_info().misses == 1
        assert fan_outs == [1, 2]
