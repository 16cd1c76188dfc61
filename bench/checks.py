"""Independent checks of the workload outputs, run outside the timed region.

An operation is one output row (one suite for ``selftest``).  Every check
returns ``(attempted, failed)``; a row fails when it is missing, malformed
or disagrees with the independent route:

* ``sweep``: the exact Gaussian-rational residual (``primerec.oracle``),
  with mpmath for the root and the log, compared at the 17 printed digits.
* ``slopes``: the n = 2 slope against ln(6/5), and seed-sampled rows whose
  whole series is recomputed with mpmath sums and products and refitted.
* ``chars``: row count phi(K)*K, row format and zero pattern, then
  multiplicativity and orthogonality of seed-sampled characters.
* ``dtable``: every cell recomputed (oracle residual for characters with
  fourth-root values, mpmath complex sums otherwise) at 17 digits, plus the
  reference-tabulation anchors of the s = 50 table for moduli 4, 5, 8, 9.
* ``selftest``: exit code 0 and every suite reporting PASS.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
import statistics
from fractions import Fraction

from mpmath import mp, mpf

FLOAT_DIGITS = 17
CHAR_SAMPLES = 8  # characters checked for multiplicativity and orthogonality
PAIR_SAMPLES = 4000  # unit pairs in each multiplicativity check


def first_primes(count: int) -> list:
    out, m = [], 2
    while len(out) < count:
        if all(m % p for p in out if p * p <= m):
            out.append(m)
        m += 1
    return out


PRIMES = first_primes(40)


def _rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def _mpf(fr: Fraction):
    return mpf(fr.numerator) / fr.denominator


def _workprec(n: int, s: int) -> int:
    """Bits that survive the s*log2(p_{n+1}) cancellation with 192 to spare."""
    return math.ceil(s * math.log2(2 * PRIMES[n - 1])) + 192


def _error(abs_residual, n: int, s: int):
    """|p_{n+1} - |residual|**(-1/s)| at the current mpmath precision."""
    return abs(PRIMES[n] - mp.exp(-mp.ln(abs_residual) / s))


def matches_printed(printed: str, ref) -> bool:
    """``printed`` is ``ref`` rounded to 17 significant digits."""
    mantissa, _, exponent = printed.partition("e")
    digits = mantissa.lstrip("-").replace(".", "")
    try:
        value = Fraction(printed)
    except ValueError:
        return False
    if value == 0 or ref == 0:
        return value == 0 and ref == 0
    if len(digits) != FLOAT_DIGITS or not exponent:
        return False
    half_ulp = Fraction(10) ** (int(exponent) - FLOAT_DIGITS + 1) / 2
    return abs(_mpf(value) - ref) <= _mpf(half_ulp) * (1 + mpf(2) ** -32)


def _oracle_abs_residual(n: int, s: int, chi):
    from primerec import oracle

    return mp.sqrt(_mpf(oracle.residual_exact(n, s, chi).abs2()))


def check_sweep(text: str, s_min: int, s_max: int) -> tuple:
    from primerec.characters import keller_one

    rows = _rows(text)
    want = list(range(s_min, s_max + 1))
    if not rows or rows[0] != ["n", "s", "modulus", "label", "neg_log_error"]:
        return len(want), len(want)
    body = rows[1:]
    failed = abs(len(body) - len(want))
    for s, row in zip(want, body):
        if row[:4] != ["2", str(s), "1", "1"]:
            failed += 1
            continue
        with mp.workprec(_workprec(2, s)):
            ref = -mp.ln(_error(_oracle_abs_residual(2, s, keller_one()), 2, s))
            failed += not matches_printed(row[4], ref)
    return max(len(want), len(body)), failed


def _mpmath_series(n: int, s_values) -> list:
    """(s, -ln error) for the trivial character by direct mpmath sums."""
    J = 2 * PRIMES[n - 1] - 1
    out = []
    for s in s_values:
        with mp.workprec(_workprec(n, s)):
            total = mp.fsum(mpf(j) ** -s for j in range(1, J + 1))
            prod = mpf(1)
            for p in PRIMES[:n]:
                prod /= 1 - mpf(p) ** -s
            out.append((s, float(-mp.ln(_error(abs(total - prod), n, s)))))
    return out


def _oracle_series(n: int, s_values) -> list:
    from primerec.characters import keller_one

    out = []
    for s in s_values:
        with mp.workprec(_workprec(n, s)):
            out.append((s, float(-mp.ln(_error(_oracle_abs_residual(n, s, keller_one()), n, s)))))
    return out


def _fit_matches(row: list, series: list) -> bool:
    xs = [float(s) for s, _ in series]
    ys = [y for _, y in series]
    a, b = statistics.linear_regression(xs, ys)
    r = statistics.correlation(xs, ys)
    got = [float(v) for v in row[1:4]]
    return int(row[6]) == len(series) and all(
        math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12) for g, w in zip(got, (a, b, r))
    )


def check_slopes(text: str, n_min: int, n_max: int, s_min: int, s_max: int, rng) -> tuple:
    rows = _rows(text)
    ns = list(range(n_min, n_max + 1))
    if not rows or rows[0] != ["n", "a", "b", "r", "s_min", "s_max", "n_points", "n_excluded"]:
        return len(ns), len(ns)
    body = rows[1:]
    failed = abs(len(body) - len(ns))
    window = list(range(s_min, s_max + 1))
    sampled = set(rng.sample(ns[1:], 2))
    for n, row in zip(ns, body):
        try:
            ok = (
                len(row) == 8
                and row[0] == str(n)
                and row[4:6] == [str(s_min), str(s_max)]
                and int(row[6]) + int(row[7]) == len(window)
                and int(row[7]) == 0
            )
            if ok and n == 2:
                # local slope ln(6/5) + 1/s + O((5/6)**s): the fit lies between
                ok = math.log(6 / 5) < float(row[1]) < math.log(6 / 5) + 1 / s_min
                ok = ok and _fit_matches(row, _oracle_series(2, window))
            elif ok and n in sampled:
                ok = _fit_matches(row, _mpmath_series(n, window))
        except ValueError:
            ok = False
        failed += not ok
    return max(len(ns), len(body)), failed


def check_chars(text: str, k: int, rng) -> tuple:
    """Character table of a prime modulus ``k``."""
    phi = k - 1
    expected = phi * k
    lines = text.splitlines()
    if not lines or lines[0] != "label,n,kind,a,m":
        return expected, expected
    body = lines[1:]
    failed = abs(len(body) - expected)
    sampled = {1} | set(rng.sample(range(2, phi + 1), CHAR_SAMPLES - 1))
    exps = {label: [None] * k for label in sampled}
    bad_rows = 0
    for i, line in enumerate(body[:expected]):
        label, n = divmod(i, k)
        label += 1
        parts = line.split(",")
        ok = len(parts) == 5 and parts[0] == str(label) and parts[1] == str(n)
        if ok and n == 0:
            ok = parts[2:] == ["zero", "", ""]
        elif ok:
            try:
                a, m = int(parts[3]), int(parts[4])
                ok = parts[2] == "root" and 0 <= a < m and math.gcd(a, m) == 1 and phi % m == 0
            except ValueError:
                ok = False
            if ok and label in exps:
                exps[label][n] = Fraction(a, m)
        bad_rows += not ok
    failed += bad_rows

    # multiplicativity on sampled unit pairs, orthogonality of sampled rows
    units = range(1, k)
    pairs = [(rng.choice(units), rng.choice(units)) for _ in range(PAIR_SAMPLES)]
    values = {}
    for label, e in exps.items():
        ok = None not in e[1:] and all((e[x * y % k] - e[x] - e[y]).denominator == 1 for x, y in pairs)
        ok = ok and (label != 1 or all(v == 0 for v in e[1:]))
        if ok:
            values[label] = [cmath.exp(2j * math.pi * float(v)) for v in e[1:]]
            ok = label == 1 or abs(sum(values[label])) < 1e-6
        if not ok:
            failed += k
    labels = sorted(values)
    for i, x in enumerate(labels):
        for y in labels[i + 1 :]:
            if abs(sum(u * v.conjugate() for u, v in zip(values[x], values[y]))) >= 1e-6:
                failed += k
    return expected, min(failed, expected)


# Reference tabulation for the s = 50 error-difference table, columns n = 3..8
# (rows keyed by the reference's own labels, which may permute against ours).
DREF = {
    4: {
        1: (2.518e-9, -1.277e-6, -9.921e-13, -2.063e-10, -9.287e-14, -6.239e-12),
        2: (2.518e-9, -1.37e-6, 2.988e-9, -5.125e-6, 4.994e-10, 3.034e-7),
    },
    5: {
        1: (2.518e-9, -4.049e-8, -1.641e-15, -1.572e-13, -2.063e-14, -4.44e-13),
        2: (2.518e-9, 4.926e-5, 1.494e-9, 1.302e-3, 2.698e-5, 4.410e-6),
        3: (2.518e-9, -2.607e-6, 2.989e-9, -4.939e-6, -1.437e-9, -1.15e-11),
        4: (2.518e-9, 4.926e-5, 1.494e-9, 1.302e-3, 2.698e-5, 4.410e-6),
    },
    8: {
        1: (2.518e-9, -1.277e-6, -9.921e-13, -2.063e-10, -9.287e-14, -6.239e-12),
        2: (2.518e-9, -1.289e-6, -1.59e-12, 1.847e-7, -1.954e-9, -6.239e-12),
        3: (2.518e-9, -1.37e-6, 2.988e-9, -5.125e-6, 4.994e-10, 3.034e-7),
        4: (2.518e-9, -1.358e-6, 2.987e-9, -4.939e-6, -1.455e-9, 3.034e-7),
    },
    9: {
        2: (1.259e-9, 2.397e-5, 1.966e-7, None, None, None),
        3: (1.259e-9, 2.525e-5, 1.951e-7, None, 1.349e-5, 2.433e-6),
        5: (1.259e-9, 2.525e-5, 1.951e-7, None, 1.349e-5, 2.433e-6),
        6: (1.259e-9, 2.397e-5, 1.966e-7, None, None, None),
    },
}
DREF_COLUMNS = (3, 4, 5, 6, 7, 8)


def _sign_digit(v: float) -> tuple:
    if v == 0:
        return (0, 0)
    lead = int(abs(v) / 10.0 ** math.floor(math.log10(abs(v))))
    return (1 if v > 0 else -1, lead)


def _abs_residual(n: int, s: int, chi):
    """|residual| of one character: exact oracle for fourth-root values."""
    vals = [chi(j) for j in range(1, 2 * PRIMES[n - 1])]
    if all(v.is_zero or v.m in (1, 2, 4) for v in vals):
        return _oracle_abs_residual(n, s, chi)

    def z(v):
        return 0 if v.is_zero else mp.expjpi(mpf(2 * v.a) / v.m)

    total = mp.fsum(z(v) * mpf(j) ** -s for j, v in enumerate(vals, start=1))
    prod = mpf(1)
    for p in PRIMES[:n]:
        prod /= 1 - z(chi(p)) * mpf(p) ** -s
    return abs(total - prod)


def check_dtable(text: str, n_list, s: int, moduli) -> tuple:
    from primerec.characters import enumerate_characters, keller_one

    groups = {k: enumerate_characters(k).characters for k in moduli}
    keys = [(k, ch, n) for k in moduli for ch in groups[k] for n in n_list]
    rows = _rows(text)
    if not rows or rows[0] != ["modulus", "label", "n", "d_value", "status"]:
        return len(keys), len(keys)
    body = rows[1:]
    bad = set(range(len(body), len(keys)))  # missing rows
    trivial = {}
    values = {}
    for i, ((k, ch, n), row) in enumerate(zip(keys, body)):
        target = PRIMES[n]
        status = "+".join(
            flag
            for flag, on in (("principal", ch.label == 1), ("char-zero-at-target", math.gcd(target, k) > 1))
            if on
        )
        if row[:3] != [str(k), str(ch.label), str(n)] or row[4:] != [status]:
            bad.add(i)
            continue
        with mp.workprec(_workprec(n, s)):
            if n not in trivial:
                trivial[n] = _error(_oracle_abs_residual(n, s, keller_one()), n, s)
            ref = trivial[n] - _error(_abs_residual(n, s, ch), n, s)
            if not matches_printed(row[3], ref):
                bad.add(i)
        values[(k, ch.label, n)] = (i, float(row[3]))

    def fail_column(k, n):
        bad.update(i for (kk, _, nn), (i, _) in values.items() if kk == k and nn == n)

    # anchors: third column 2.518e-9 (moduli 4, 5, 8) and 1.259e-9 at ratio
    # 0.500 for the complex characters of modulus 9
    complex9 = {ch.label for ch in groups.get(9, ()) if ch.has_complex_values}
    anchor4 = values.get((4, 1, 3), (None, math.nan))[1]
    for (k, label, n), (i, v) in values.items():
        if n != 3 or k not in DREF:
            continue
        if k in (4, 5, 8):
            ok = abs(v - 2.518e-9) / 2.518e-9 < 0.01
        elif label in complex9:
            ok = abs(v - 1.259e-9) / 1.259e-9 < 0.01 and abs(v / anchor4 - 0.5) < 1e-3
        else:
            continue
        if not ok:
            bad.add(i)
    # other reference cells: sign and leading digit, as multisets per column
    for k, ref_rows in DREF.items():
        if k not in groups:
            continue
        labels = [ch.label for ch in groups[k] if k != 9 or ch.label in complex9]
        for col, n in enumerate(DREF_COLUMNS):
            if n == 3 or n not in n_list:
                continue
            pool = [_sign_digit(values[(k, lb, n)][1]) for lb in labels if (k, lb, n) in values]
            for vals in ref_rows.values():
                if vals[col] is None:
                    continue
                want = _sign_digit(vals[col])
                if want in pool:
                    pool.remove(want)
                else:
                    fail_column(k, n)
    return max(len(keys), len(body)), len(bad)


def check_selftest(text: str, code: int) -> tuple:
    suites = [line for line in text.splitlines() if line[:4] in ("PASS", "FAIL")]
    passed = sum(line.startswith("PASS") for line in suites)
    attempted = max(3, len(suites))
    if code != 0:
        return attempted, attempted
    return attempted, attempted - passed
