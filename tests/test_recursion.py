"""Recursion tests: partial sums, Euler products, residuals, estimates.

Derived expectations are recomputed here with exact rational arithmetic
(the Gaussian-rational oracle or inline Fractions); published anchor
values appear only with their documented tolerances.
"""

import itertools
import math
import random
import re
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primerec import mpnum, oracle, primes, recursion
from primerec.analysis import d_table, neg_log_series, slope_series
from primerec.characters import enumerate_characters, keller_one
from primerec.errors import (
    DomainError,
    PrecisionLossError,
    PrimerecError,
    UnsupportedSizeError,
    ZeroResidualError,
)
from primerec.mpnum import (
    GUARD_BITS,
    BigComplex,
    PrecisionContext,
    fixed_root,
    format_decimal,
    nearest_int,
    to_float,
)
from primerec.primes import first_n_primes, is_prime

from tail_decomposition import tail_terms

K1 = keller_one()
G4 = enumerate_characters(4)
G5 = enumerate_characters(5)
G8 = enumerate_characters(8)
G9 = enumerate_characters(9)
CTX = PrecisionContext(192)


def d_cell(n: int, s: int, chi):
    """The error-difference table cell of ``chi`` at (n, s)."""
    row = next(r for r in d_table([n], s, [chi.modulus]).rows if r.label == chi.label)
    return row.cells[0].value


def bf_abs(x):
    """|x| of a BigFloat, exactly."""
    return mpnum.BigFloat(abs(x.sign), x.man, x.exp)


def abs2(z) -> Fraction:
    """|z|**2 of a BigComplex, exactly."""
    return z.re.to_fraction() ** 2 + z.im.to_fraction() ** 2


def close_to(value, exact: Fraction, rel_bits: int = 120) -> bool:
    if exact == 0:
        return abs(value.to_fraction()) <= Fraction(1, 1 << rel_bits)
    return abs(value.to_fraction() - exact) <= abs(exact) / (1 << rel_bits)


class TestRequiredPrecision:
    def test_reference_points(self):
        assert recursion.required_precision(2, 50).prec_bits == 226
        assert recursion.required_precision(8, 500).prec_bits == 2720
        assert recursion.required_precision(2, 1).prec_bits == 99

    @pytest.mark.parametrize("n", range(1, 31))
    def test_default_is_the_trivial_character(self, n):
        for s in (1, 2, 50, 500, 2000):
            assert recursion.required_precision(n, s).prec_bits == (
                recursion.required_precision(n, s, K1).prec_bits
            )

    def test_floor(self):
        # tiny parameters still respect the 64-bit context floor
        assert recursion.required_precision(1, 1).prec_bits >= 64

    def test_validation(self):
        with pytest.raises(DomainError):
            recursion.required_precision(0, 5)
        with pytest.raises(DomainError):
            recursion.required_precision(2, 0)


class TestPartialSum:
    def test_harmonic_head(self):
        got = recursion.l_partial_sum(K1, 1, 5, CTX)
        assert close_to(got.re, Fraction(137, 60))
        assert got.im.is_zero

    def test_mod5_gaussian_head(self):
        got = recursion.l_partial_sum(G5.by_label(2), 1, 4, CTX)
        exact = oracle.l_partial_sum_exact(G5.by_label(2), 1, 4)
        assert exact.re == Fraction(3, 4) and exact.im == Fraction(1, 6)
        assert close_to(got.re, exact.re)
        assert close_to(got.im, exact.im)

    def test_single_term(self):
        for chi in (K1, G5.by_label(3), G9.by_label(2)):
            got = recursion.l_partial_sum(chi, 7, 1, CTX)
            assert got.re.to_fraction() == 1 and got.im.is_zero

    def test_validation(self):
        with pytest.raises(DomainError):
            recursion.l_partial_sum(K1, 1, 0, CTX)
        with pytest.raises(DomainError):
            recursion.l_partial_sum(K1, 0, 5, CTX)


def trunc(v: int, d: int) -> int:
    """v / d rounded toward zero (d > 0)."""
    return v // d if v >= 0 else -(-v // d)


def kernel_bits(prec_bits: int) -> int:
    """W, the kernels' scale at a working precision."""
    return prec_bits + GUARD_BITS + 16


def per_cell_partial_sum(chi, s: int, J: int, W: int) -> tuple:
    """The one-cell L-sum loop: divide ``2**W // j**s``, group the terms by
    character value and rotate each total at W."""
    one = 1 << W
    classes = {}
    for j in range(1, J + 1):
        v = chi(j)
        if not v.is_zero:
            classes[v] = classes.get(v, 0) + one // j**s
    real = imag = 0
    for v, total in classes.items():
        if v.a == 0:
            real += total
        else:
            cos, sin = fixed_root(v.a, v.m, W)
            real += trunc(total * cos, one)
            imag += trunc(total * sin, one)
    return real, imag


def per_cell_euler_product(chi, s: int, n: int, W: int) -> tuple:
    """The one-cell product loop: divide ``2**W // p**s``, truncate each
    product by dividing by ``2**W`` and invert the result."""
    one = 1 << W
    re, im = one, 0
    for p in first_n_primes(n):
        v = chi(p)
        if v.is_zero:
            continue
        x = one // p**s
        if v.a == 0:
            fr, fi = one - x, 0
        else:
            cos, sin = fixed_root(v.a, v.m, W)
            fr, fi = one - trunc(x * cos, one), -trunc(x * sin, one)
        re, im = trunc(re * fr - im * fi, one), trunc(re * fi + im * fr, one)
    den = re * re + im * im
    return trunc(re << 2 * W, den), trunc(-im << 2 * W, den)


def inverted(products: list, W: int) -> list:
    """The running products of ``recursion._kernels`` inverted as
    ``euler_product`` inverts them: 0 minus the inverse, negated."""
    return [tuple(-v for v in recursion._minus_inverse(0, 0, p, W)) for p in products]


def sum_bound(chi, J: int) -> float:
    """The L-sum's bound in units of 2**-W (module docstring of ``recursion``)."""
    c = len({chi(j) for j in range(1, J + 1) if not chi(j).is_zero}) - 1
    return J + c + 2 + 2 * math.log(J)


def product_bound(n: int, s: int) -> int:
    """The Euler product's bound in units of 2**-W: times p_n**3 at s = 1."""
    return (20 * n + 2) * (first_n_primes(n)[-1] ** 3 if s == 1 else 1)


def within(value: tuple, exact, bound: float, W: int) -> bool:
    """Each component of the fixed-point ``value`` at scale 2**W within
    ``bound`` units of 2**-W of ``exact``."""
    return all(abs(v - x * 2**W) <= math.ceil(bound) for v, x in zip(value, (exact.re, exact.im)))


def any_character(k: int, pick: int):
    group = enumerate_characters(k)
    return group.characters[pick % len(group)]


def gaussian_characters(k: int) -> list:
    """The characters mod k whose values are fourth roots of unity (the oracle's domain)."""
    return [c for c in enumerate_characters(k).characters if all(4 % v.m == 0 for v in c.table)]


def gaussian_character(k: int, pick: int):
    chars = gaussian_characters(k)
    return chars[pick % len(chars)]


# cells out of order and repeated
UNSORTED_SUMS = [100, 7, 50, 7, 100]
UNSORTED_PRODUCTS = [30, 3, 12, 3, 30]
# the cells of mod 70 label 7 (a character of order 4), s = 100, n = 1..30,
# at the widest of their automatic precisions (n = 3's)
CHI70 = enumerate_characters(70).by_label(7)
PREC70 = max(recursion.required_precision(n, 100, CHI70).prec_bits for n in range(1, 31))
MOD70_SUMS = [2 * p - 1 for p in first_n_primes(30)]
MOD70_PRODUCTS = list(range(1, 31))
MOD70_ANY = dict(k=70, pick=enumerate_characters(70).characters.index(CHI70), s=100, prec=PREC70)
MOD70_GAUSSIAN = dict(k=70, pick=gaussian_characters(70).index(CHI70), s=100, prec=PREC70)
# wide passes: s = 200 over n = 1..30 (J up to 225) at the widest n's
# automatic precision, W above 1400 bits, so that the primes' quotients come
# from their divisors' top bits and the composites' from their cofactors';
# mod 7 label 3 takes complex values, and CHI70 vanishes on 2, 5 and 7
WIDE_S = 200
CHI7 = enumerate_characters(7).by_label(3)
WIDE7 = dict(
    k=7,
    pick=enumerate_characters(7).characters.index(CHI7),
    s=WIDE_S,
    prec=max(recursion.required_precision(n, WIDE_S, CHI7).prec_bits for n in range(1, 31)),
)
WIDE70 = dict(
    k=70,
    pick=MOD70_ANY["pick"],
    s=WIDE_S,
    prec=max(recursion.required_precision(n, WIDE_S, CHI70).prec_bits for n in range(1, 31)),
)
# sweep width: n = 2, s = 1900, for the trivial character and the quadratic
# character mod 5, both real, so each residual divides by the real product
# alone and its quotient of 2 is a shift
G5_REAL = G5.characters.index(G5.by_label(3))
# and mod 4 label 2, real with chi(3) = -1: its running product 1 + 3**-s
# lies above 1, so the product's deficit from 2**W is negative
G4_REAL = G4.characters.index(G4.by_label(2))
G5_COMPLEX = G5.characters.index(G5.by_label(2))
SWEEP_S = 1900
SWEEP_PREC = recursion.required_precision(2, SWEEP_S).prec_bits
SWEEP_PREC_MOD5 = recursion.required_precision(2, SWEEP_S, G5.by_label(3)).prec_bits
SWEEP_PREC_MOD4 = recursion.required_precision(3, SWEEP_S, G4.by_label(2)).prec_bits
# a slopes pass: n = 2..30 at s = 20, at the widest n's precision
SLOPES_PREC = max(recursion.required_precision(n, 20).prec_bits for n in range(2, 31))
# the primes every pass below takes its cells' primes from
PS = tuple(first_n_primes(30))
PICK = st.integers(0, 10**6)
PREC = st.integers(64, 1500)
SUM_CELLS = st.lists(st.integers(1, 120), min_size=1, max_size=5)
PRODUCT_CELLS = st.lists(st.integers(1, 30), min_size=1, max_size=5)
BALL_CELLS = st.lists(st.integers(1, 6), min_size=1, max_size=5)


def residuals(ns, s: int, chi, bits: int) -> list:
    """``recursion._residuals`` of ``ns`` from ``PS``, with the facts of each n."""
    facts = [recursion._cell_facts(PS[:n], chi) for n in ns]
    return recursion._residuals(PS, ns, s, chi, bits, facts)


class TestSharedPass:
    """A kernel pass shared by several cells (an L-sum's J, a product's n)
    runs at one W.  Every cell gets the fixed-point integers of its one-cell
    loop at that W, within the bounds of the exact values, every residual is
    the one-n residual at the pass's precision, and its ball contains the
    exact residual."""

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 24),
        pick=st.integers(0, 10**6),
        s=st.integers(1, 60),
        J=st.integers(1, 120),
        n=st.integers(1, 30),
        prec=PREC,
    )
    @example(k=1, pick=0, s=SWEEP_S, J=5, n=2, prec=SWEEP_PREC)
    @example(k=5, pick=G5_REAL, s=SWEEP_S, J=5, n=2, prec=SWEEP_PREC_MOD5)
    def test_single_cell_matches_per_cell_loop(self, k, pick, s, J, n, prec):
        chi = any_character(k, pick)
        W = kernel_bits(prec)
        assert recursion._kernels(chi, s, W, PS, [J], [])[0] == [per_cell_partial_sum(chi, s, J, W)]
        products = recursion._kernels(chi, s, W, PS, [], [n])[1]
        assert inverted(products, W) == [per_cell_euler_product(chi, s, n, W)]

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 24), pick=PICK, s=st.integers(1, 60), cells=SUM_CELLS, prec=PREC)
    @example(k=13, pick=5, s=30, cells=UNSORTED_SUMS, prec=1400)
    # at a small s the rotated totals are large enough to show a root's last bits
    @example(k=13, pick=5, s=2, cells=UNSORTED_SUMS, prec=1400)
    @example(**MOD70_ANY, cells=MOD70_SUMS)
    @example(**WIDE7, cells=MOD70_SUMS)
    @example(**WIDE70, cells=MOD70_SUMS)
    def test_sums_match_running_pass(self, k, pick, s, cells, prec):
        chi = any_character(k, pick)
        W = kernel_bits(prec)
        got = recursion._kernels(chi, s, W, PS, cells, [])[0]
        assert got == [per_cell_partial_sum(chi, s, J, W) for J in cells]

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 24), pick=PICK, s=st.integers(1, 60), cells=PRODUCT_CELLS, prec=PREC)
    @example(k=13, pick=5, s=30, cells=UNSORTED_PRODUCTS, prec=1400)
    @example(**MOD70_ANY, cells=MOD70_PRODUCTS)
    @example(k=1, pick=0, s=SWEEP_S, cells=[2, 1], prec=SWEEP_PREC)
    @example(k=5, pick=G5_REAL, s=SWEEP_S, cells=[2, 1], prec=SWEEP_PREC_MOD5)
    def test_products_match_running_pass(self, k, pick, s, cells, prec):
        chi = any_character(k, pick)
        W = kernel_bits(prec)
        got = inverted(recursion._kernels(chi, s, W, PS, [], cells)[1], W)
        assert got == [per_cell_euler_product(chi, s, n, W) for n in cells]

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 24), pick=PICK, s=st.integers(1, 60), cells=PRODUCT_CELLS, prec=PREC)
    @example(k=13, pick=5, s=30, cells=UNSORTED_PRODUCTS, prec=1400)
    @example(**MOD70_ANY, cells=MOD70_PRODUCTS)
    @example(k=1, pick=0, s=SWEEP_S, cells=[2], prec=SWEEP_PREC)
    @example(k=5, pick=G5_REAL, s=SWEEP_S, cells=[2, 1], prec=SWEEP_PREC_MOD5)
    @example(k=4, pick=G4_REAL, s=SWEEP_S, cells=[3], prec=SWEEP_PREC_MOD4)
    @example(k=4, pick=G4_REAL, s=SWEEP_S, cells=[2, 3, 1], prec=SWEEP_PREC_MOD4)
    @example(k=5, pick=G5_REAL, s=1, cells=[1, 2, 6, 30], prec=64)
    @example(k=5, pick=G5_COMPLEX, s=1, cells=[1, 2, 6, 30], prec=64)
    @example(k=1, pick=0, s=20, cells=list(range(2, 31)), prec=SLOPES_PREC)
    @example(**WIDE7, cells=MOD70_PRODUCTS)
    @example(**WIDE70, cells=MOD70_PRODUCTS)
    def test_residuals_match_per_cell_loops(self, k, pick, s, cells, prec):
        # the product's factors share the L-sum's quotients of their primes,
        # and each component's one short division, the sum minus 2**(2W)
        # over the running product, gives the integers of the full
        # inversion subtracted from the sum
        chi = any_character(k, pick)
        W = kernel_bits(prec)
        for n, (re, im, W_ball, _) in zip(cells, residuals(cells, s, chi, prec)):
            J = 2 * first_n_primes(n)[-1] - 1
            a, b = per_cell_partial_sum(chi, s, J, W)
            c, d = per_cell_euler_product(chi, s, n, W)
            assert (re, im, W_ball) == (a - c, b - d, W)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 24), pick=PICK, s=st.integers(1, 60), cells=PRODUCT_CELLS, prec=PREC)
    @example(k=13, pick=5, s=30, cells=UNSORTED_PRODUCTS, prec=1400)
    @example(**MOD70_ANY, cells=MOD70_PRODUCTS)
    @example(k=13, pick=2, s=41, cells=[12, 2, 7, 2], prec=700)
    def test_pass_matches_single_cells(self, k, pick, s, cells, prec):
        # an n's ball does not depend on the other n of its pass
        chi = any_character(k, pick)
        balls = residuals(cells, s, chi, prec)
        assert balls == [residuals([n], s, chi, prec)[0] for n in cells]

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 24),
        pick=PICK,
        s=st.integers(1, 60),
        sums=SUM_CELLS,
        products=PRODUCT_CELLS,
        prec=PREC,
    )
    # a sum ending at J = 1, before the first prime, and a product ending at
    # p_30 = 113, past the last J
    @example(k=13, pick=5, s=30, sums=[1, 50], products=[30, 1], prec=1400)
    # a sum and a product closing at the same j = p_3 = 5
    @example(k=13, pick=5, s=2, sums=[5, 9], products=[3], prec=900)
    @example(**MOD70_ANY, sums=MOD70_SUMS, products=MOD70_PRODUCTS)
    @example(**WIDE7, sums=MOD70_SUMS, products=MOD70_PRODUCTS)
    @example(**WIDE70, sums=MOD70_SUMS, products=MOD70_PRODUCTS)
    def test_mixed_pass_matches_per_cell_loops(self, k, pick, s, sums, products, prec):
        chi = any_character(k, pick)
        W = kernel_bits(prec)
        got_sums, got_products = recursion._kernels(chi, s, W, PS, sums, products)
        assert (got_sums, inverted(got_products, W)) == (
            [per_cell_partial_sum(chi, s, J, W) for J in sums],
            [per_cell_euler_product(chi, s, n, W) for n in products],
        )

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 24), pick=PICK, s=st.integers(1, 60), cells=SUM_CELLS, prec=PREC)
    @example(k=13, pick=5, s=30, cells=UNSORTED_SUMS, prec=64)
    @example(**MOD70_GAUSSIAN, cells=MOD70_SUMS)
    def test_sums_within_bound(self, k, pick, s, cells, prec):
        chi = gaussian_character(k, pick)
        W = kernel_bits(prec)
        for J, value in zip(cells, recursion._kernels(chi, s, W, PS, cells, [])[0]):
            exact = oracle.l_partial_sum_exact(chi, s, J)
            assert within(value, exact, sum_bound(chi, J), W)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 24), pick=PICK, s=st.integers(1, 60), cells=PRODUCT_CELLS, prec=PREC)
    @example(k=13, pick=5, s=30, cells=UNSORTED_PRODUCTS, prec=64)
    @example(k=1, pick=0, s=1, cells=UNSORTED_PRODUCTS, prec=64)
    @example(**MOD70_GAUSSIAN, cells=MOD70_PRODUCTS)
    def test_products_within_bound(self, k, pick, s, cells, prec):
        chi = gaussian_character(k, pick)
        W = kernel_bits(prec)
        for n, value in zip(cells, inverted(recursion._kernels(chi, s, W, PS, [], cells)[1], W)):
            exact = oracle.euler_product_exact(chi, s, n)
            assert within(value, exact, product_bound(n, s), W)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 24), pick=PICK, s=st.integers(1, 60), cells=BALL_CELLS, prec=PREC)
    @example(k=1, pick=0, s=1, cells=[6], prec=64)
    @example(k=5, pick=1, s=60, cells=[2], prec=64)
    @example(k=13, pick=5, s=30, cells=[6, 1, 4, 1, 6], prec=64)
    @example(k=70, pick=MOD70_GAUSSIAN["pick"], s=100, cells=list(range(1, 7)), prec=PREC70)
    def test_ball_contains_exact_residual(self, k, pick, s, cells, prec):
        chi = gaussian_character(k, pick)
        for n, (re, im, W, radius) in zip(cells, residuals(cells, s, chi, prec)):
            J = 2 * first_n_primes(n)[-1] - 1
            assert W == kernel_bits(prec)
            assert radius == math.ceil(sum_bound(chi, J)) + product_bound(n, s)
            exact = oracle.residual_exact(n, s, chi)
            assert abs(re - exact.re * 2**W) <= radius and abs(im - exact.im * 2**W) <= radius

    def test_estimate_many_takes_any_iterable(self):
        chi = G5.by_label(2)
        assert recursion.estimate_many([], 20, chi) == []
        assert recursion.estimate_many(iter([]), 20, chi) == []
        got = recursion.estimate_many((n for n in (4, 2, 4)), 20, chi)
        assert got == recursion.estimate_many([4, 2, 4], 20, chi)
        assert [r.n for r in got] == [4, 2, 4]

    @pytest.mark.parametrize(
        "modulus, label, ns, s", [(1, 1, range(2, 31), 20), (13, 2, [12, 2, 7, 2], 41)]
    )
    def test_estimate_many_runs_at_the_widest_precision(self, monkeypatch, modulus, label, ns, s):
        # every cell finishes from its one-n ball at the widest n's precision
        # and reports its own
        chi, ns = enumerate_characters(modulus).by_label(label), list(ns)
        finish, balls = recursion._finish, []

        def spy(n, s, chi, ctx, terms, ball, target):
            balls.append(ball)
            return finish(n, s, chi, ctx, terms, ball, target)

        monkeypatch.setattr(recursion, "_finish", spy)
        precs = [recursion.required_precision(n, s, chi).prec_bits for n in ns]
        assert len(set(precs)) > 1
        got = recursion.estimate_many(ns, s, chi)
        assert [r.prec_bits for r in got] == precs
        assert balls == [residuals([n], s, chi, max(precs))[0] for n in ns]

    def test_estimate_many_matches_estimate(self):
        for chi, ns in ((K1, range(2, 31)), (G5.by_label(2), [6, 2, 4, 2]), (G9.by_label(3), [1, 7])):
            for s in (1, 20, 97):
                for n, got in zip(ns, recursion.estimate_many(ns, s, chi)):
                    want = recursion.estimate(n, s, chi)
                    assert (got.rounded, got.target, got.prec_bits, got.warning) == (
                        want.rounded, want.target, want.prec_bits, want.warning
                    )
                    for field in ("estimate", "error", "margin"):
                        digits = [format_decimal(getattr(r, field), 17) for r in (got, want)]
                        assert digits[0] == digits[1]
                    if s >= 2:
                        # both residuals are within the radius of the exact
                        # one before their components are rounded once to
                        # P + 96 bits (|residual| < 2: 2**17 units each)
                        J = 2 * first_n_primes(n)[-1] - 1
                        units = 2 * (sum_bound(chi, J) + product_bound(n, s)) + 2**18
                        W = kernel_bits(got.prec_bits)
                        slack = Fraction(math.ceil(units), 1 << W)
                        a, b = got.residual, want.residual
                        assert abs(a.re.to_fraction() - b.re.to_fraction()) <= slack
                        assert abs(a.im.to_fraction() - b.im.to_fraction()) <= slack

    @pytest.mark.parametrize(
        "ns, precs", [(range(2, 31), None), ([30, 3, 12, 3, 30], [64, 1400, 300, 200, 900])]
    )
    def test_roots_at_one_width(self, monkeypatch, ns, precs):
        # each folded angle's series runs once, at the pass's width (32 bits
        # past its W), for the L-sum and the product together
        from primerec import mpnum

        chi, s, ns = enumerate_characters(7).by_label(3), 41, list(ns)
        if precs is None:
            precs = [recursion.required_precision(n, s, chi).prec_bits for n in ns]
        calls = []
        series = mpnum._fp_sin_cos
        mpnum._octant_root.cache_clear()
        monkeypatch.setattr(mpnum, "_fp_sin_cos", lambda *args: calls.append(args) or series(*args))
        residuals(ns, s, chi, max(precs))
        angles = {(p, q) for p, q, _ in calls if p}
        assert angles and len(calls) == len({(p, q) for p, q, _ in calls})
        assert {wp2 for _, _, wp2 in calls} == {kernel_bits(max(precs)) + 32}


class Power(int):
    """The index 3, whose power of any exponent is the divisor ``y``: an
    index at which ``recursion._kernels`` divides ``2**W`` by any y."""

    def __new__(cls, y: int):
        j = super().__new__(cls, 3)
        j.y = y
        return j

    def __pow__(self, s):
        return self.y


def kernel_quotient(y: int, W: int) -> int:
    """``2**W // y`` as the kernels divide it, read back from the trivial
    character's one-factor product ``2**W - 2**W // y`` over ``ps = (Power(y),)``."""
    ((pr, _),) = recursion._kernels(K1, 1, W, (Power(y),), [], [1])[1]
    return (1 << W) - pr


@st.composite
def quotient_cases(draw):
    """(W, y) for W from 64 to 100k bits: y a power ``j**s`` (j <= 2000),
    a random integer of up to W + 60 bits, or one past ``2**(W + 40)``."""
    W = draw(st.integers(64, 100_000))
    kind = draw(st.sampled_from(("power", "random", "past")))
    if kind == "power":
        j = draw(st.integers(2, 2000))
        return W, j ** draw(st.integers(1, (W + 80) // (j.bit_length() - 1)))
    bits = draw(st.integers(1, W + 60) if kind == "random" else st.integers(W + 41, W + 400))
    return W, random.Random(draw(st.integers(0, 2**32))).getrandbits(bits) | 1 << (bits - 1)


@st.composite
def pass_cases(draw):
    """(W, s, J) for W from 64 to 100k bits and J up to 120, with s from 1 to
    where ``J**s`` passes ``2**W`` by about 80 bits."""
    W = draw(st.integers(64, 100_000))
    J = draw(st.integers(1, 120))
    return W, draw(st.integers(1, (W + 80) // max(1, J.bit_length() - 1))), J


class TestKernelQuotient:
    """Each ``2**W // y`` of the kernels (y = j**s) is exact: from W =
    ``_SHORT_QUOTIENT_BITS`` on, taken from y's top bits where the quotient
    is short, checked by its remainder, and divided in full where the check
    fails; below that width, divided in full."""

    @settings(max_examples=200, deadline=None)
    @given(case=quotient_cases())
    # y = 2**W // m + 1: the quotient from y's top bits is one too large
    @example(case=(1400, (1 << 1400) // (10**9 + 7) + 1))
    @example(case=(2048, (1 << 2048) // 5**150 + 1))
    @example(case=(5120, (1 << 5120) // 3 + 1))
    @example(case=(5120, (1 << 5120) // 3**100 + 1))
    @example(case=(100_000, (1 << 100_000) // 3**1000 + 1))
    # y = 2**W // m: the check fails, yet the quotient from the top bits is exact
    @example(case=(1400, (1 << 1400) // 3**100))
    @example(case=(5120, (1 << 5120) // 3))
    @example(case=(5120, 1 << 3000))
    # y just under, at and past 2**W, where the quotient is 1, 0 and 0
    @example(case=(5120, (1 << 5120) - 1))
    @example(case=(5120, (1 << 5120) + 1))
    @example(case=(5120, 3**4000))
    # below the crossover width, short quotients too are divided in full
    @example(case=(200, (1 << 200) // (10**9 + 7) + 1))
    @example(case=(1000, (1 << 1000) // 3**100 + 1))
    def test_matches_full_division(self, case):
        W, y = case
        assert kernel_quotient(y, W) == (1 << W) // y

    @settings(max_examples=60, deadline=None)
    @given(case=pass_cases())
    # every route at once: primes short and long, composites from a
    # cofactor's quotient, shifts for 2 and its multiples, zeros past 2**W
    @example(case=(1773, WIDE_S, 120))
    @example(case=(1400, 300, 120))
    @example(case=(5120, 1900, 5))
    @example(case=(100_000, 14_000, 120))
    def test_pass_takes_every_quotient_exactly(self, case):
        # a composite j = p m takes (2**W // m**s) // p**s, which is
        # 2**W // j**s exactly: the trivial character's L-sum at each J
        # less its sum at J - 1 reads every quotient of one pass
        W, s, J = case
        sums = [re for re, _ in recursion._kernels(K1, s, W, PS, list(range(1, J + 1)), [])[0]]
        got = [b - a for a, b in zip([0, *sums], sums)]
        assert got == [(1 << W) // j**s for j in range(1, J + 1)]

    @settings(max_examples=40, deadline=None)
    @given(case=pass_cases(), cut=st.floats(0, 1))
    @example(case=(1773, WIDE_S, 120), cut=0.5)
    @example(case=(5120, 40, 120), cut=0.05)
    def test_route_limit_keeps_every_quotient(self, case, cut):
        # with _ROUTE_BYTES room for L indices at W the composites past L
        # divide 2**W by j**s, and every quotient is still exact
        W, s, J = case
        L = int(cut * J)
        with mock.patch.object(recursion, "_ROUTE_BYTES", L * recursion._index_bytes(W)):
            table = recursion._Quotients(W, J)
        sums = [re for re, _ in recursion._kernels(K1, s, W, PS, list(range(1, J + 1)), [], table)[0]]
        got = [b - a for a, b in zip([0, *sums], sums)]
        assert table.L == L
        assert got == [(1 << W) // j**s for j in range(1, J + 1)]

    def test_route_state_stays_within_its_bytes(self):
        # at s = 2 each quotient holds nearly W bits: the pass's table over
        # J = 20000 would project about 87 MB, and the pass stops it at
        # _ROUTE_BYTES (16 MiB), its walk and totals taking little more
        W, s, J = 30_000, 2, 20_000
        tracemalloc.start()
        try:
            (got,), _ = recursion._kernels(K1, s, W, tuple(first_n_primes(40)), [J], [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < recursion._ROUTE_BYTES + (1 << 20)
        assert got == (sum((1 << W) // j**s for j in range(1, J + 1)), 0)


# the characters a series is checked on: the trivial one, mod 4 label 2
# (real, chi(3) = -1), mod 5 label 2 (values of order 4), mod 7 label 3
# (order 6) and mod 70 label 7, which vanishes on 2, 5 and 7
SERIES_CHARACTERS = [(1, 1), (4, 2), (5, 2), (7, 3), (70, 7)]


@st.composite
def series_cases(draw):
    """(modulus, label, ns, s_values): up to four n in 1..30 and two to six
    ascending s, with gaps of 1 to 5, from a first s where the passes run
    below ``_SHORT_QUOTIENT_BITS`` (1..60) or reach it (500..700)."""
    modulus, label = draw(st.sampled_from(SERIES_CHARACTERS))
    ns = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    first = draw(st.one_of(st.integers(1, 60), st.integers(500, 700)))
    gaps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    return modulus, label, ns, list(itertools.accumulate([first, *gaps]))


def outcome(call):
    """``call()``, or the type and message of the library error it raises."""
    try:
        return call()
    except PrimerecError as exc:
        return type(exc), str(exc)


@st.composite
def held_cases(draw):
    """(J, passes): J up to 120 and two to five passes ``(s, W)`` of
    ascending s, each W from 64 to 20k bits, in any order, and s up to
    where ``J**s`` passes ``2**W`` by about 80 bits."""
    J = draw(st.integers(1, 120))
    Ws = draw(st.lists(st.integers(64, 20_000), min_size=2, max_size=5))
    top = (min(Ws) + 80) // max(1, J.bit_length() - 1)
    ss = sorted(draw(st.lists(st.integers(1, top), min_size=len(Ws), max_size=len(Ws))))
    return J, list(zip(ss, Ws))


def table_want(chi, W: int, s: int, L: int) -> list:
    """``_Quotients.q`` of chi at scale ``2**W`` and s over 1..L, by full division."""
    return [0] + [0 if chi(j).is_zero else (1 << W) // j**s for j in range(1, L + 1)]


class TestSeries:
    """A series of passes over ascending s shares one table of the
    quotients ``2**W* // j**s`` at its widest W*, advanced from one pass to
    the next: every integer, ball and estimate is that of the lone passes,
    the table stays within ``_ROUTE_BYTES``, and the series is sized in full
    before any kernel runs."""

    @settings(max_examples=40, deadline=None)
    @given(case=series_cases())
    # the bench's sweep, and a slopes share at two workers
    @example(case=(1, 1, [2], list(range(1850, 1951))))
    @example(case=(1, 1, list(range(2, 31)), list(range(21, 152, 2))))
    def test_matches_per_s_loop(self, case):
        modulus, label, ns, s_values = case
        chi = enumerate_characters(modulus).by_label(label)
        want = outcome(lambda: [recursion.estimate_many(ns, s, chi) for s in s_values])
        assert outcome(lambda: recursion.estimate_series(ns, s_values, chi)) == want

    @settings(max_examples=60, deadline=None)
    @given(case=series_cases(), precs=st.lists(st.integers(64, 3000), min_size=6, max_size=6))
    @example(case=(5, 2, [3, 2], [1900, 1901, 1903]), precs=[SWEEP_PREC_MOD5] * 6)
    def test_residuals_match_lone_passes(self, case, precs):
        # at precisions in any order, so the passes' W rise and fall
        modulus, label, ns, s_values = case
        chi = enumerate_characters(modulus).by_label(label)
        facts = [recursion._cell_facts(PS[:n], chi) for n in ns]
        longest = max(f.J for f in facts)
        table = recursion._Quotients(kernel_bits(max(precs)), longest)
        for s, bits in zip(s_values, precs):
            got = recursion._residuals(PS, ns, s, chi, bits, facts, table)
            assert got == recursion._residuals(PS, ns, s, chi, bits, facts)
        assert table.s == s_values[-1] and table.L == longest

    @settings(max_examples=60, deadline=None)
    @given(case=series_cases())
    @example(case=(1, 1, [2], [1850, 1851, 1853]))
    @example(case=(70, 7, [30, 4], [600, 601, 606]))
    def test_table_reads_back(self, case):
        # after each pass, whose walk fills the series' table or advances
        # it, the table holds 2**W* // j**s, W* its widest pass's W, where
        # chi(j) != 0, and 0 elsewhere; a lower s refills it
        modulus, label, ns, s_values = case
        chi = enumerate_characters(modulus).by_label(label)
        try:
            series = recursion._size_series(ns, s_values, chi)
        except PrimerecError:
            return
        table, W_star = series.table, kernel_bits(max(p.bits for p in series.passes))
        J = 2 * PS[max(ns) - 1] - 1
        for p in [*series.passes, series.passes[0]]:
            outcome(lambda: recursion._run_pass(series, p))
            assert table.s == p.s
            assert table.q == table_want(chi, W_star, p.s, J)

    @settings(max_examples=60, deadline=None)
    @given(case=held_cases(), cut=st.one_of(st.none(), st.floats(0, 1)))
    @example(case=(5, [(1900, 5120), (1901, 5125), (1902, 5128)]), cut=None)
    @example(case=(120, [(60, 1773), (62, 1400), (65, 1800)]), cut=None)
    # the table stops part-way: the j past L divide 2**W by j**s
    @example(case=(120, [(60, 1773), (62, 1400), (65, 1800)]), cut=0.3)
    def test_pass_takes_every_carried_quotient_exactly(self, case, cut):
        # the trivial character's L-sum at each J less its sum at J - 1
        # reads every quotient of a pass: those up to L from the table's
        # 2**W* // j**s, the rest divided alone
        J, passes = case
        W_star = max(W for _, W in passes)
        L = J if cut is None else int(cut * J)
        with mock.patch.object(recursion, "_ROUTE_BYTES", L * recursion._index_bytes(W_star)):
            table = recursion._Quotients(W_star, J)
            for s, W in passes:
                sums = [re for re, _ in recursion._kernels(K1, s, W, PS, list(range(1, J + 1)), [], table)[0]]
                got = [b - a for a, b in zip([0, *sums], sums)]
                assert got == [(1 << W) // j**s for j in range(1, J + 1)]
        assert table.L == L and table.q == table_want(K1, W_star, passes[-1][0], L)

    def test_carried_state_stays_within_its_bytes(self):
        # at s = 2 each quotient holds nearly W bits: a table over J = 20000
        # at W* = 30000 would take about 80 MB, and the series' table stops
        # at L < J within _ROUTE_BYTES (16 MiB), the walk, the totals and the
        # narrower pass's shifts taking little more
        W, J = 30_000, 20_000
        table = recursion._Quotients(W, J)
        tracemalloc.start()
        try:
            for s, width in ((2, W), (3, W - 500)):
                (got,), _ = recursion._kernels(K1, s, width, PS, [J], [], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 3000 < table.L < J
        assert peak < recursion._ROUTE_BYTES + (1 << 20)
        assert got == (sum((1 << (W - 500)) // j**3 for j in range(1, J + 1)), 0)

    def test_held_quotients_drop_on_a_lower_s(self):
        # a lower s refills the table
        table = recursion._Quotients(5120, 5)
        recursion._kernels(K1, 1900, 5120, PS, [5], [], table)
        assert table.q == table_want(K1, 5120, 1900, 5)
        sums = recursion._kernels(K1, 1850, 5000, PS, [5], [], table)[0]
        assert sums == recursion._kernels(K1, 1850, 5000, PS, [5], [])[0]
        assert table.s == 1850 and table.q == table_want(K1, 5120, 1850, 5)

    def test_one_pass_holds_nothing(self):
        assert recursion._size_series([2, 3], [40], K1).table is None
        assert recursion._size_series([2, 3], [40, 41], K1).table is not None

    def test_series_must_ascend(self):
        with pytest.raises(DomainError, match="must ascend"):
            recursion.estimate_series([2], [41, 40], K1)
        assert recursion.estimate_series([], [41, 40], K1) == [[], []]
        assert recursion.estimate_series([2], [], K1) == []

    def test_sized_before_any_kernel(self, monkeypatch):
        # n = 5000 is refused from some s on: the series raises that s's
        # refusal, the first the loop over s would raise, before any kernel
        def refused(s):
            try:
                recursion.required_precision(5000, s)
            except UnsupportedSizeError as exc:
                return str(exc)
            return None

        first = next(s for s in range(1, 2001) if refused(s))
        monkeypatch.setattr(recursion, "_kernels", lambda *args: pytest.fail("the kernel ran"))
        with pytest.raises(UnsupportedSizeError) as info:
            recursion.estimate_series([5000], range(1, 2001), K1)
        assert str(info.value) == refused(first)
        assert 1900 < first < 2000


def unchecked_quotient(u: int, v: int) -> int:
    """``recursion._quotient``'s short route without its check: the quotient
    of u's and v's top bits, as ``-t - 1`` for u < 0."""
    m, d = abs(u), v.bit_length()
    sh = max(0, d - max(1, m.bit_length() - d + 1) - 40)
    t = (m >> sh) // (v >> sh)
    return t if u >= 0 else -t - 1


@st.composite
def division_cases(draw):
    """(W, u, v) for W from 64 to 100k bits: v of up to W + 60 bits and u of
    either sign, with a random quotient of up to W bits, a zero quotient, or
    ``k v`` or ``k v +- 1``, where the quotient of the top bits can be one off."""
    W = draw(st.integers(64, 100_000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    d = draw(st.integers(1, W + 60))
    v = rng.getrandbits(d) | 1 << (d - 1)
    q = draw(st.integers(1, W))
    kind = draw(st.sampled_from(("random", "zero", "multiple")))
    if kind == "random":
        u = rng.getrandbits(q + d)
    elif kind == "zero":
        u = rng.randrange(v)
    else:
        u = (rng.getrandbits(q) | 1) * v + draw(st.integers(-1, 1))
    return W, draw(st.sampled_from((1, -1))) * u, v


def full_minus_inverse(a: int, b: int, product: tuple, W: int) -> tuple:
    """``(a, b)`` minus the product's inverse at scale ``2**W``, each component
    ``trunc(N / den)`` of the full numerator ``N`` and denominator."""
    pr, pi = product
    if not pi:
        return a - trunc(1 << 2 * W, pr) if pr > 0 else a + trunc(1 << 2 * W, -pr), b
    den = pr * pr + pi * pi
    return a - trunc(pr << 2 * W, den), b - trunc(-pi << 2 * W, den)


@st.composite
def inverse_cases(draw):
    """(a, b, (pr, pi), W) for W from 64 to 30000 bits: pr at a deficit of
    either sign from ``+-2**W``, pi 0 or of the deficit's size, and (a, b)
    the inverse plus a residual of up to W bits, or a random sum."""
    W = draw(st.integers(64, 30_000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = draw(st.integers(1, W - 2))
    pr = (1 << W) - draw(st.sampled_from((1, -1))) * (rng.getrandbits(k) | 1 << (k - 1))
    pr *= draw(st.sampled_from((1, 1, -1)))
    pi = draw(st.sampled_from((0, 1, -1))) * rng.getrandbits(k)
    a, b = full_minus_inverse(0, 0, (pr, pi), W)
    if draw(st.booleans()):
        r = draw(st.integers(0, W))
        a, b = -a + rng.getrandbits(r) - rng.getrandbits(r), -b + rng.getrandbits(r) - rng.getrandbits(r)
    else:
        a, b = (1 << W) + rng.getrandbits(k) - rng.getrandbits(k), rng.getrandbits(k) - rng.getrandbits(k)
    return a, b, (pr, pi), W


class TestShortQuotient:
    """``recursion._quotient`` is ``u // v`` exactly: from W =
    ``_SHORT_QUOTIENT_BITS`` on, where the quotient is short, from the top
    bits, checked, and in full where the check fails; and the residual's
    ``_minus_inverse``, through it and the deficits from ``2**W``, gives the
    integers of the full inversion."""

    @settings(max_examples=300, deadline=None)
    @given(case=division_cases())
    # k v - 1 and -(k v - 1): the quotient of the top bits is k, one too large
    # for the first and one too small (-k - 1) for the second
    @example(case=(5120, 12345 * 3**3000 - 1, 3**3000))
    @example(case=(5120, -(12345 * 3**3000 - 1), 3**3000))
    @example(case=(100_000, 3**1000 * 5**20_000 - 1, 5**20_000))
    # -k v: the top bits give -k - 1, where the quotient is -k
    @example(case=(5120, -12345 * 3**3000, 3**3000))
    @example(case=(1400, -(7 << 1400), 1 << 1400))
    # zero numerators and zero quotients of either sign
    @example(case=(5120, 0, 3**3000))
    @example(case=(5120, -1, 3**3000))
    @example(case=(5120, 3**2000, 3**3000))
    # below the crossover width every quotient is divided in full
    @example(case=(1000, 12345 * 3**500 - 1, 3**500))
    def test_matches_floor_division(self, case):
        W, u, v = case
        assert recursion._quotient(u, v, W) == u // v

    def test_top_bits_alone_are_one_off(self):
        # the check is what keeps the examples above exact
        v = 3**3000
        for u, want in ((12345 * v - 1, 12344), (-(12345 * v - 1), -12345), (-12345 * v, -12345)):
            assert unchecked_quotient(u, v) != want
            assert recursion._quotient(u, v, 5120) == u // v == want

    @settings(max_examples=300, deadline=None)
    @given(case=inverse_cases())
    # the sweep's real products below and above 2**W, and a complex one
    @example(case=((1 << 5120) + (1 << 3220), 0, ((1 << 5120) - (1 << 3220) + 1, 0), 5120))
    @example(case=((1 << 7632) + 5, 0, ((1 << 7632) + (1 << 4620), 0), 7632))
    @example(case=((1 << 7020) + 5, 1 << 3000, ((1 << 7020) - (1 << 4000), 1 << 2999), 7020))
    # products of exactly 1 and -1 against a sum of exactly 1, the first
    # with a zero numerator
    @example(case=(1 << 1500, 0, (1 << 1500, 0), 1500))
    @example(case=(1 << 1500, 0, (-(1 << 1500), 0), 1500))
    def test_minus_inverse_matches_full_inversion(self, case):
        a, b, product, W = case
        assert recursion._minus_inverse(a, b, product, W) == full_minus_inverse(a, b, product, W)


class TestEulerProduct:
    def test_single_factor(self):
        got = recursion.euler_product(K1, 1, 1, CTX)
        assert close_to(got.re, Fraction(2))
        assert got.im.is_zero

    def test_two_factor_rational(self):
        got = recursion.euler_product(K1, 2, 2, CTX)
        assert close_to(got.re, Fraction(3, 2))

    def test_gaussian_factor(self):
        got = recursion.euler_product(G5.by_label(2), 2, 1, CTX)
        # (1 - i/4)^-1 = (16 + 4i)/17
        assert close_to(got.re, Fraction(16, 17))
        assert close_to(got.im, Fraction(4, 17))

    def test_vanishing_factor_skipped(self):
        # chi(2) = 0 for modulus 4: the p=2 factor is exactly 1
        got = recursion.euler_product(G4.by_label(1), 3, 1, CTX)
        assert got.re.to_fraction() == 1 and got.im.is_zero


class TestResidual:
    def test_exact_value_smallest_case(self):
        exact = oracle.residual_exact(1, 4, K1)
        assert exact.re == Fraction(1393, 1296) - Fraction(16, 15) == Fraction(53, 6480)
        got = recursion.residual(1, 4, K1)
        assert oracle.abs2_delta_within(got, exact, 64)
        assert got.re.sign > 0  # the head terms outweigh the product here

    def test_exact_value_n2_s10(self):
        exact = oracle.residual_exact(2, 10, K1)
        expect = sum(Fraction(1, j**10) for j in range(1, 6)) - Fraction(
            1, (1 - Fraction(1, 2**10)) * (1 - Fraction(1, 3**10))
        )
        assert exact.re == expect and exact.im == 0
        got = recursion.residual(2, 10, K1)
        assert oracle.abs2_delta_within(got, exact, 64)

    def test_oracle_grid(self):
        for k in (1, 4, 8):
            for ch in enumerate_characters(k).characters:
                for n in (1, 3, 6):
                    for s in (5, 20, 40):
                        got = recursion.residual(n, s, ch)
                        exact = oracle.residual_exact(n, s, ch)
                        assert oracle.abs2_delta_within(got, exact, 64), (k, ch.label, n, s)
        # the fixed-point kernels, component by component, to 2^-(P+64)
        # absolute at the residual's own working precision P
        for k in (1, 4, 5, 8, 10, 16):
            for ch in enumerate_characters(k).characters:
                for n in (1, 2, 5, 12):
                    J = 2 * first_n_primes(n)[-1] - 1
                    for s in (1, 2, 20, 150):
                        ctx = recursion.required_precision(n, s, ch)
                        tol = Fraction(1, 1 << (ctx.prec_bits + 64))
                        for got, exact in (
                            (recursion.l_partial_sum(ch, s, J, ctx), oracle.l_partial_sum_exact(ch, s, J)),
                            (recursion.euler_product(ch, s, n, ctx), oracle.euler_product_exact(ch, s, n)),
                        ):
                            assert abs(got.re.to_fraction() - exact.re) <= tol, (k, ch.label, n, s)
                            assert abs(got.im.to_fraction() - exact.im) <= tol, (k, ch.label, n, s)

    def test_truncation_against_full_euler_product(self):
        # |sum_{j<=J} - prod_{p<=J}| <= 2 J^(1-s) / (s-1): both sides expand
        # into j^-s terms that agree for all j <= J, leaving only tails.
        ctx = PrecisionContext(192)
        primes_100 = [p for p in first_n_primes(30) if p <= 100]
        for k in range(1, 10):
            for ch in enumerate_characters(k).characters:
                for s in (2, 3, 5):
                    for J in (10, 50, 100):
                        count = sum(1 for p in primes_100 if p <= J)
                        a = recursion.l_partial_sum(ch, s, J, ctx)
                        b = recursion.euler_product(ch, s, count, ctx)
                        lhs2 = abs2(BigComplex(ctx.sub(a.re, b.re), ctx.sub(a.im, b.im)))
                        bound = 2 * Fraction(J) ** (1 - s) / (s - 1)
                        assert lhs2 <= bound**2, (k, ch.label, s, J, float(lhs2), float(bound))

    def test_precision_stability(self):
        for n, s in ((2, 30), (5, 45), (8, 60)):
            base = recursion.required_precision(n, s)
            wide = PrecisionContext(base.prec_bits + 128)
            a = recursion.residual(n, s, K1, ctx=base)
            b = recursion.residual(n, s, K1, ctx=wide)
            # |a| within 2**-64 of |b| relative, on the squares
            tol = Fraction(1, 1 << 64)
            assert (1 - tol) ** 2 * abs2(b) <= abs2(a) <= (1 + tol) ** 2 * abs2(b)


class TestScaledResidual:
    def test_trivial_character_limit(self):
        sr = recursion.scaled_residual(2, 200, K1)
        assert abs(sr.re.to_fraction() - 1) < Fraction(1, 10**10)
        assert abs(sr.im.to_fraction()) < Fraction(1, 10**10)

    def test_quarter_turn_limit(self):
        # chi_2 mod 5 sends the next prime 7 = 2 mod 5 to i
        sr = recursion.scaled_residual(3, 200, G5.by_label(2))
        assert abs(sr.re.to_fraction()) < Fraction(1, 10**10)
        assert abs(sr.im.to_fraction() - 1) < Fraction(1, 10**10)

    def test_vanishing_target_limit(self):
        # 5 divides the modulus: the scaled residual tends to 0, not a unit
        sr = recursion.scaled_residual(2, 200, G5.by_label(2))
        mag2 = sr.re.to_fraction() ** 2 + sr.im.to_fraction() ** 2
        assert mag2 < Fraction(1, 10**20)

    def test_monotone_decrease(self):
        for n in (2, 4, 6):
            for ch in G4.characters + G5.characters:
                target = first_n_primes(n + 1)[-1]
                if ch(target).is_zero:
                    continue
                exact = oracle.char_value_exact(ch(target))
                dists = []
                for s in (50, 100, 150, 200):
                    sr = recursion.scaled_residual(n, s, ch)
                    d2 = (sr.re.to_fraction() - exact.re) ** 2 + (
                        sr.im.to_fraction() - exact.im
                    ) ** 2
                    dists.append(d2)
                assert dists == sorted(dists, reverse=True), (n, ch.modulus, ch.label)


class TestEstimate:
    def test_desk_case(self):
        res = recursion.estimate(2, 50, K1)
        assert res.rounded == 5 and res.target == 5
        assert res.warning is None
        assert is_prime(res.rounded)

    def test_result_invariants(self):
        res = recursion.estimate(3, 40, G4.by_label(2))
        ctx = PrecisionContext(res.prec_bits)
        recomputed = bf_abs(ctx.sub(ctx.from_int(res.target), res.estimate))
        assert recomputed == res.error
        assert res.estimate.sign > 0
        if res.rounded == res.target:
            assert res.error.to_fraction() < Fraction(1, 2)

    def test_fourth_prime_with_even_modulus(self):
        res = recursion.estimate(4, 50, G4.by_label(1))
        assert res.rounded == 11
        d = d_cell(4, 50, G4.by_label(1))
        # published reference: about -1.277e-06 (sign and leading digit)
        v = to_float(d)
        assert v < 0 and f"{abs(v):.0e}"[0] == "1"

    def test_single_term_residual_is_exact(self):
        # chi vanishes at every prime up to p_n and the target is the only
        # tail term, so the residual is exactly chi(target) * target**-s
        for modulus, n in ((2, 1), (6, 2)):
            chi = enumerate_characters(modulus).by_label(1)
            res = recursion.estimate(n, 50, chi)
            assert res.estimate.to_fraction() == res.rounded == res.target
            assert res.error.is_zero and res.margin.is_zero
            with pytest.raises(DomainError, match="is empty"):
                neg_log_series(n, 50, 52, chi)

    def test_exactly_dyadic_estimate(self):
        # |residual| = 1 + 1/2 + 1/3 - 2 = 1/6 at n = 1, s = 1: the estimate
        # is exactly 6 = 3 * 2**1, a mantissa with a nonnegative exponent
        res = recursion.estimate(1, 1, K1)
        assert res.estimate.exp >= 0
        got = (res.estimate, res.error, res.margin)
        assert [x.to_fraction() for x in got] == [6, 3, 0] and res.rounded == 6

    def test_zero_residual_is_a_domain_error(self):
        # chi vanishes at 2 and 3 mod 6, so no tail term survives at n = 1
        # and the residual is exactly zero; no precision can help
        chi = enumerate_characters(6).by_label(1)
        for prec_bits in (None, 5000):
            with pytest.raises(ZeroResidualError, match="exactly zero for modulus 6, label 1 at n=1"):
                recursion.estimate(1, 50, chi, prec_bits=prec_bits)
        assert issubclass(ZeroResidualError, DomainError)

    @pytest.mark.parametrize(
        "s, prec_bits",
        [
            pytest.param(50, 64, id="64"),
            pytest.param(50, 10**7, id="10000000"),
            pytest.param(10**7, None, id="s=10000000"),
            pytest.param(10**15, None, id="s=1000000000000000"),
        ],
    )
    def test_override_never_hides_zero_residual(self, s, prec_bits):
        # at s = 50 the cell would need 196 bits, and 10**7 bits project far
        # above the cost cap; s = 10**7 projects about 6.8e15 and 10**15 is
        # past the cap itself: neither a low override nor a costly input is
        # what is wrong, since nothing needs computing
        chi = enumerate_characters(6).by_label(1)
        with pytest.raises(ZeroResidualError, match="exactly zero for modulus 6, label 1 at n=1"):
            recursion.estimate(1, s, chi, prec_bits=prec_bits)

    def test_warning_when_character_vanishes_at_target(self):
        res = recursion.estimate(2, 50, G5.by_label(2))
        assert res.warning is not None
        assert "vanishes" in res.warning

    def test_precision_override(self):
        res = recursion.estimate(2, 50, K1, prec_bits=300)
        assert res.prec_bits == 300 and res.rounded == 5
        with pytest.raises(DomainError):
            recursion.estimate(2, 50, K1, prec_bits=200)  # below the required 226

    def test_precision_loss_guard(self, monkeypatch):
        monkeypatch.setattr(recursion, "_residuals", zero_balls)
        with pytest.raises(PrecisionLossError):
            recursion.estimate(2, 50, K1)

    def test_precision_loss_inside_radius(self, monkeypatch):
        # a nonzero midpoint whose ball still contains 0 is refused; one
        # component beyond the radius resolves the residual from 0
        def balls(mid):
            return lambda ps, ns, s, chi, bits, facts, table=None: [mid + (kernel_bits(bits), 5) for _ in ns]

        for mid in ((3, -2), (-5, 5), (0, 1)):
            monkeypatch.setattr(recursion, "_residuals", balls(mid))
            with pytest.raises(PrecisionLossError, match=r"prec_bits \(--precision\)"):
                recursion.estimate(2, 50, K1)
        ctx = PrecisionContext(226)  # required_precision(2, 50)
        for mid in ((6, 0), (-1, -6)):
            monkeypatch.setattr(recursion, "_residuals", balls(mid))
            want = BigComplex(*(ctx.from_fixed(v, kernel_bits(226)) for v in mid))
            assert recursion.estimate(2, 50, K1).residual == want

    def test_precision_loss_remedy(self, monkeypatch):
        # chi(5) = 0 mod 10: the residual is near 9**-600 (9 and 27 are the
        # first 3-smooth tail terms coprime to 10), far below the 6**-600
        # that the trivial character's precision is sized for; the
        # automatic precision is sized from 27
        chi = enumerate_characters(10).by_label(1)
        res = recursion.estimate(2, 600, chi)
        assert res.rounded == 9 and res.warning
        res = recursion.estimate(2, 600, chi, prec_bits=3200)
        assert res.rounded == 9 and res.warning
        monkeypatch.setattr(recursion, "_residuals", zero_balls)
        with pytest.raises(PrecisionLossError, match=r"prec_bits \(--precision\)"):
            recursion.estimate(2, 600, chi)


def zero_balls(ps, ns, s, chi, bits, facts, table=None) -> list:
    """``recursion._residuals`` of residuals that vanished: midpoint 0, radius 1."""
    return [(0, 0, kernel_bits(bits), 1) for _ in ns]


def exact_estimate(n: int, s: int, chi, digits: int) -> Fraction:
    """|residual|**(-1/s) from the exact oracle residual, by decimal ln/exp."""
    r = oracle.residual_exact(n, s, chi)
    mag2 = r.re**2 + r.im**2
    with localcontext() as c:
        c.prec = digits
        ln = Decimal(mag2.numerator).ln() - Decimal(mag2.denominator).ln()
        return Fraction((-ln / (2 * s)).exp())


class TestDownstreamWidth:
    """Root, error and margin run once, at the width the cancellation left.

    The chain takes the root of u = |residual|**2 * m1**(2s) and scales it
    back by m1; the reference is the full-width chain of |residual|**2
    itself, everything after |residual| at the residual's own precision.
    The cells cover the width clamped to P (s = 20) and the narrow width
    (also for mod 9, n = 1, where chi(3) = 0).  Two cells have leading tail
    terms that differ in phase by +-i, so the first-order part of a distance
    cancels: the margin of mod 5 (target 5 with chi(5) = 0, terms 6 and 8)
    and the error of mod 16 (terms 5 and 9).  Sized from m2**2 / m1 they run
    at the narrow width too.  At n = 30, s = 20 and 25 u is far from 1
    (3 to 4: (127/131)**s is about 0.5 and many tail terms follow), and mod
    10 at n = 2 scales by m1 = 9, not the target 5.
    """

    @pytest.mark.parametrize(
        "modulus,label,n,s,widths",
        [
            (1, 1, 2, 20, "full"),
            (1, 1, 2, 300, "narrow"),
            (1, 1, 2, 2000, "narrow"),
            (5, 2, 2, 600, "narrow"),
            (9, 2, 1, 200, "narrow"),
            (16, 2, 2, 300, "narrow"),
            (1, 1, 30, 20, "narrow"),
            (1, 1, 30, 25, "narrow"),
            (10, 1, 2, 600, "narrow"),
        ],
    )
    def test_matches_full_width_chain(self, monkeypatch, modulus, label, n, s, widths):
        used = []
        chain = recursion._chain

        def recording(sq, exp, m1, s, bits):
            used.append(bits)
            return chain(sq, exp, m1, s, bits)

        monkeypatch.setattr(recursion, "_chain", recording)
        chi = enumerate_characters(modulus).by_label(label)
        res = recursion.estimate(n, s, chi)
        monkeypatch.undo()
        P = res.prec_bits
        assert P == recursion.required_precision(n, s, chi).prec_bits
        assert len(used) == 1
        width = used[0] - 160
        assert (width == P) == (widths == "full") and width <= P

        # |residual|**(-1/s) by the context's ln and exp, 64 bits wider than P
        ctx, wide = PrecisionContext(P), PrecisionContext(P + 64)
        r = res.residual
        sq = ctx.add(ctx.mul(r.re, r.re), ctx.mul(r.im, r.im))
        est = wide.exp(mpnum._div(wide.neg(wide.ln(sq)), wide.from_int(2 * s), wide._wp))
        rounded = nearest_int(est)
        error = bf_abs(ctx.sub(ctx.from_int(res.target), est))
        margin = bf_abs(ctx.sub(est, ctx.from_int(rounded)))
        assert res.rounded == rounded
        for got, want in ((res.estimate, est), (res.error, error), (res.margin, margin)):
            assert format_decimal(got, 17) == format_decimal(want, 17)


def decimal_chain(sq: Fraction, m1: int, s: int, digits: int) -> Decimal:
    """``m1 * (sq * m1**(2s))**(-1/(2s))`` by decimal ln and exp."""
    with localcontext() as c:
        c.prec = digits
        u = Decimal(sq.numerator * m1 ** (2 * s)) / Decimal(sq.denominator)
        return m1 * (-u.ln() / (2 * s)).exp()


# Kernel arguments checked against decimal at 64 to 20k bits; decimal's ln
# and exp take about a second each at 20k bits (6k digits), so that width
# runs one case each
LN_ARGS = {
    "below-1": Fraction(3, 4),
    "1+2^-500": 1 + Fraction(1, 2**500),
    "1-2^-500": 1 - Fraction(1, 2**500),
    "3.5": Fraction(7, 2),
    "tiny": Fraction(3, 2**300),
}
EXP_ARGS = {
    "1/3": Fraction(1, 3),
    "-1/3": Fraction(-1, 3),
    "-2^-40": Fraction(-1, 2**40),
    "5/2": Fraction(5, 2),
    "-5/2": Fraction(-5, 2),
}


def kernel_cases(args: dict, wide: str) -> list:
    cases = [pytest.param(b, x, id=f"{b}-{k}") for b in (64, 256, 1000, 5000) for k, x in args.items()]
    return cases + [pytest.param(20000, args[wide], id=f"20000-{wide}")]


class TestChain:
    """The fixed-point chain after the cancellation (``recursion._chain``).

    The chain is compared with ``decimal`` within the module docstring's
    bound, ``4 + u**(1/(2s)) / m1`` units of ``2**-bits`` relative, and
    every seed, the double's or a refined one, must leave ``|d| < 2**-30``
    for its binomial series.  The ln and
    exp kernels that ``PrecisionContext.ln`` and ``exp`` run on are
    compared with ``decimal`` too: ``_fp_ln`` within ``(|e| + 1) * bits``
    units of ``2**-bits``, e the binary exponent it extracts, and
    ``_fp_exp`` within ``2 + exp(-x)`` units relative.
    """

    @pytest.mark.parametrize("bits,u", kernel_cases(LN_ARGS, "1+2^-500"))
    def test_ln_matches_decimal(self, bits, u):
        x = PrecisionContext(bits + 600).from_fraction(u)
        e = mpnum._ln_split(x.man, x.exp)[0]
        xf = x.to_fraction()
        with localcontext() as c:
            c.prec = bits * 30103 // 100000 + 60
            want = (Decimal(xf.numerator) / Decimal(xf.denominator)).ln() * Decimal(2) ** bits
            assert abs(Decimal(mpnum._fp_ln(x.man, x.exp, bits)) - want) <= (abs(e) + 1) * bits

    @pytest.mark.parametrize("bits,x", kernel_cases(EXP_ARGS, "-2^-40"))
    def test_exp_matches_decimal(self, bits, x):
        v = math.floor(x * 2**bits)
        with localcontext() as c:
            c.prec = bits * 30103 // 100000 + 60
            want = (Decimal(v) / Decimal(2) ** bits).exp()
            got = Decimal(mpnum._fp_exp(v, bits)) / Decimal(2) ** bits
            assert abs(got - want) / want * Decimal(2) ** bits <= 2 + (1 / want if v < 0 else 0)

    @pytest.mark.parametrize(
        "modulus,label,n,s",
        [
            (1, 1, 30, 20),  # u near 3.4
            (1, 1, 30, 25),  # u near 3
            (4, 2, 2, 20),  # chi(7) = -1: u = (1 - (5/7)**20)**2 < 1
            (1, 1, 2, 1),
            (1, 1, 5, 1),
            (1, 1, 2, 2000),  # u - 1 near 2**-1000
        ],
    )
    def test_cells_match_decimal(self, monkeypatch, modulus, label, n, s):
        calls = []
        chain = recursion._chain
        monkeypatch.setattr(recursion, "_chain", lambda *a: calls.append(a) or chain(*a))
        recursion.estimate(n, s, enumerate_characters(modulus).by_label(label))
        # the first call is the outer chain; any after it refine its seed
        sq, exp, m1, _, bits = calls[0]
        self.check(monkeypatch, sq, exp, m1, s, bits)

    @pytest.mark.parametrize("bits", [64, 256, 1000, 5000])
    @pytest.mark.parametrize(
        "u,m1,s",
        [
            (Fraction(3, 2**300), 3, 5),
            (Fraction(1, 5), 7, 1),
            (Fraction(9, 4), 127, 20),
            # u below and above the range of a double
            (Fraction(1, 2**3000), 3, 1),
            (Fraction(1, 2**3000), 7, 5),
            (Fraction(2**3000), 5, 1000),
            # c = u**(-1/2) near 2**-1500: a refined seed must be scaled
            # to keep its relative precision at 160 and 532 bits
            (Fraction(3 * 2**3000), 7, 1),
        ],
    )
    def test_far_from_one(self, monkeypatch, u, m1, s, bits):
        x = PrecisionContext(bits + 600).from_fraction(u / m1 ** (2 * s))
        self.check(monkeypatch, x.man, x.exp, m1, s, bits)

    def test_refined_seed(self, monkeypatch):
        # the double's seed leaves |d| near 2s * 2**-53, so at 20000 bits its
        # series would run about 450 terms where a power of 2s = 100 takes 6
        # squarings: the chain seeds from its own root at 10032 bits, and
        # that one from its own at 5048, down to 375 bits, where the double
        # serves
        u, m1, s, bits = Fraction(6, 5) ** 3, 5, 50, 20000
        x = PrecisionContext(bits + 600).from_fraction(u / m1 ** (2 * s))
        widths = []
        chain = recursion._chain
        monkeypatch.setattr(recursion, "_chain", lambda *a: widths.append(a[4]) or chain(*a))
        series = self.check(monkeypatch, x.man, x.exp, m1, s, bits)
        assert widths[:4] == [20000, 10032, 5048, 2556] and len(series) == len(widths)
        # the innermost series runs first, from the double; every later one
        # gains more than half its width a term
        assert all(H - abs(D).bit_length() > H // 2 for D, H in series[1:])

    @staticmethod
    def check(monkeypatch, sq: int, exp: int, m1: int, s: int, bits: int) -> list:
        series = []
        binomial = recursion._binomial

        def checked(D, k, H):
            # before the series runs, which does not end at |d| = 1
            assert abs(D) < 1 << (H - 30)
            series.append((D, H))
            return binomial(D, k, H)

        monkeypatch.setattr(recursion, "_binomial", checked)
        got = recursion._chain(sq, exp, m1, s, bits)
        assert series
        digits = bits * 30103 // 100000 + 60
        want = decimal_chain(Fraction(sq) * Fraction(2) ** exp, m1, s, digits)
        with localcontext() as c:
            c.prec = digits
            # u**(1/(2s)) / m1 is 1 / want
            assert abs(Decimal(got) - want * Decimal(2) ** bits) / want <= 4 + 1 / want
        return series

    @pytest.mark.parametrize("modulus", [5, 7, 13])
    def test_conjugates_give_identical_estimates(self, modulus):
        for chi in enumerate_characters(modulus).characters:
            conj = enumerate_characters(modulus).by_label(chi.conjugate_label())
            for s in (20, 150):
                for a, b in zip(
                    recursion.estimate_many(range(2, 12), s, chi),
                    recursion.estimate_many(range(2, 12), s, conj),
                ):
                    assert (a.estimate, a.error, a.margin, a.rounded) == (
                        b.estimate, b.error, b.margin, b.rounded
                    )


def integer_sizing(num: int, den: int, s: int) -> int:
    """The sizing's bits for the base num / den in integers: ``ceil(base**s) - 1``'s
    bit length plus 96, at least 64."""
    return max(64, (-(-(num**s) // den**s) - 1).bit_length() + 96)


class TestPrecisionSizing:
    """Precision sized from the character's own tail terms (ROADMAP S1)."""

    @settings(max_examples=300, deadline=None)
    @given(
        den=st.one_of(st.integers(1, 1000), st.integers(1 << 30, 1 << 45)),
        extra=st.integers(0, 10**6),
        s=st.integers(1, 3000),
    )
    # power-of-two bases, where s log2(base) is an integer
    @example(den=1, extra=0, s=50)
    @example(den=1, extra=4, s=1900)
    @example(den=1, extra=(1 << 20) - 4, s=3)
    # bases within 2**-40 of 4 and 8: s log2(base) within 2**-20 of an integer
    @example(den=1 << 40, extra=1, s=3)
    @example(den=1 << 40, extra=-1, s=3000)
    @example(den=(1 << 40) + 1, extra=(1 << 42) + 3, s=1000)
    # a base 2**-60 above 4, which floating point rounds to 4: s log2(base)
    # reads 2 s, yet ceil(base**s) - 1 has 2 s + 1 bits
    @example(den=1 << 60, extra=1, s=3)
    # the sizing's bases: 2 p_n and m2**2 / m1
    @example(den=1, extra=2, s=1900)
    @example(den=6, extra=40, s=300)
    def test_matches_integer_power(self, den, extra, s):
        # the bit length of ceil(base**s) - 1 from s log2(base) in floating
        # point where that lies more than 2**-20 from an integer, else from
        # the power: both give the integer route's bits
        num = 4 * den + extra
        facts = recursion._Facts(J=3, terms=(), num=num, den=den, roots=0, sum_units=0)
        assert recursion._sizing(2, s, facts).prec_bits == integer_sizing(num, den, s)

    def test_tail_terms_found_once_per_character(self, monkeypatch):
        recursion._cell_facts.cache_clear()
        found = []
        tail_terms = recursion._tail_terms
        monkeypatch.setattr(recursion, "_tail_terms", lambda ps, chi: found.append(len(ps)) or tail_terms(ps, chi))
        for s in (20, 21, 22):
            recursion.estimate_many(range(2, 31), s, K1)
        assert sorted(found) == list(range(2, 31))
        assert recursion._cell_facts.cache_info().maxsize == recursion._CACHED_CELLS

    def test_tail_terms_from_the_first_n_primes(self, monkeypatch):
        # the decomposition's terms, found with is_prime, up to the program's
        # second: the program finds the same ones with the first n primes
        monkeypatch.setattr(primes, "is_prime", lambda m: pytest.fail("is_prime ran"))
        recursion._cell_facts.cache_clear()
        for modulus in range(1, 13):
            for chi in enumerate_characters(modulus).characters:
                for n in range(1, 31):
                    terms = recursion._cell_facts(PS[:n], chi).terms
                    X = max((*terms, 2 * first_n_primes(n)[-1]))
                    want = [x for x, _, _ in tail_terms(n, chi, X)][:2]
                    assert want == list(terms), (modulus, chi.label, n)
        recursion.estimate(2, 50, K1)
        recursion.estimate_many(range(2, 8), 40, G5.by_label(2))
        recursion.required_precision(5, 60, G9.by_label(2))

    def test_tail_terms_set_the_base(self):
        G10 = enumerate_characters(10)
        # chi(5) = 0 mod 10: the estimate tends to 9 and its margin is set
        # by 27, the next 3-smooth tail term coprime to 10
        assert recursion.required_precision(2, 600, G10.by_label(1)).prec_bits == 2949
        # chi(2) = 0 mod 4: the error is set by 9, the second term after 5
        assert recursion.required_precision(2, 300, G4.by_label(2)).prec_bits == 1047
        # chi(5) = 0 mod 5: the estimate tends to 6 and its margin is set by
        # 8; chi(8)/chi(6) = chi(3) = i, so the base is 8**2/6
        assert recursion.required_precision(2, 300, G5.by_label(2)).prec_bits == 1121
        # the trivial character keeps 2 p_n = 6
        for chi in (None, K1):
            assert recursion.required_precision(2, 300, chi).prec_bits == 872
        # every prime up to p_n divides 6, so 5 is the only tail term
        G6 = enumerate_characters(6)
        assert recursion.required_precision(2, 300, G6.by_label(2)).prec_bits == 872

    @pytest.mark.parametrize(
        "modulus,label,n,s",
        [
            (1, 1, 2, 2000),
            (4, 2, 2, 300),
            (4, 2, 2, 1000),
            (8, 3, 3, 600),
            (10, 1, 2, 600),
        ],
    )
    def test_against_exact_oracle(self, modulus, label, n, s):
        chi = enumerate_characters(modulus).by_label(label)
        res = recursion.estimate(n, s, chi)
        est = exact_estimate(n, s, chi, 400)
        error = abs(res.target - est)
        margin = abs(est - res.rounded)
        for got, want in ((res.estimate, est), (res.error, error), (res.margin, margin)):
            got = got.to_fraction()
            assert abs(got - want) <= want / (1 << 64), (float(got), float(want))


class TestGivenPrimes:
    """Below the public entries the recursion reads no prime table: from
    primes it is given it finds the facts, balls and estimates the entries
    find with the table."""

    @pytest.mark.parametrize("modulus, label", [(1, 1), (7, 3), (13, 2)])
    @pytest.mark.parametrize("s", [1, 41])
    def test_patched_primes(self, monkeypatch, modulus, label, s):
        chi, ns, ps = enumerate_characters(modulus).by_label(label), list(range(1, 31)), PS + (127,)
        want = recursion.estimate_many(ns, s, chi)
        ctx = PrecisionContext(max(r.prec_bits for r in want))
        residuals = [recursion.residual(n, s, chi, ctx) for n in ns]
        recursion._cell_facts.cache_clear()
        for name in ("first_n_primes", "nth_prime", "is_prime"):
            monkeypatch.setattr(primes, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        with pytest.raises(pytest.fail.Exception, match="first_n_primes ran"):
            recursion.estimate(2, s, chi)
        facts = [recursion._cell_facts(ps[:n], chi) for n in ns]
        balls = recursion._residuals(ps, ns, s, chi, ctx.prec_bits, facts)
        assert [recursion._to_complex(ctx, ball[:2], ball[2]) for ball in balls] == residuals
        # the chain, through _finish, from each n's own precision
        got = [
            recursion._finish(n, s, chi, recursion._sizing(n, s, f), f.terms, ball, ps[n])
            for n, f, ball in zip(ns, facts, balls)
        ]
        assert got == want


class TestErrorFunctionals:
    def test_error_decreases_for_fixed_n(self):
        errors = [recursion.estimate(2, s, K1).error.to_fraction() for s in (20, 40, 60, 80)]
        assert errors == sorted(errors, reverse=True)

    def test_d_is_consistent_difference(self):
        # the cell is the difference rounded to 64 bits, and prints the
        # 17 digits of the difference at the residual's precision
        ctx = recursion.required_precision(3, 50)
        ek = recursion.estimate(3, 50, K1).error
        e5 = recursion.estimate(3, 50, G5.by_label(1)).error
        d = d_cell(3, 50, G5.by_label(1))
        assert PrecisionContext(64).sub(ek, e5) == d
        assert format_decimal(ctx.sub(ek, e5), 17) == format_decimal(d, 17)

    def test_trivial_difference_is_exact_zero(self):
        assert d_cell(3, 50, K1).is_zero
        assert d_cell(6, 60, K1).is_zero

    def test_third_prime_anchor(self):
        d = to_float(d_cell(3, 50, G4.by_label(1)))
        assert abs(d - 2.518e-9) / 2.518e-9 < 0.01

    def test_mod9_half_ratio(self):
        d4 = to_float(d_cell(3, 50, G4.by_label(1)))
        d9 = to_float(d_cell(3, 50, G9.by_label(2)))
        assert abs(d9 / d4 - 0.5) < 1e-3

    def test_conjugate_characters_identical_errors(self):
        for n, s in ((3, 40), (5, 50)):
            a = recursion.estimate(n, s, G5.by_label(2)).error
            b = recursion.estimate(n, s, G5.by_label(4)).error
            assert a == b  # bit-identical by conjugate symmetry
        a = recursion.estimate(4, 45, G9.by_label(2)).error
        b = recursion.estimate(4, 45, G9.by_label(6)).error
        assert a == b
        # the kernels themselves are bit-conjugate: every rounding step
        # truncates toward zero
        for k in (5, 7, 13, 16, 21, 97):
            group = enumerate_characters(k)
            for ch in group.characters:
                bar = group.by_label(ch.conjugate_label())
                for n in (1, 3, 6):
                    J = 2 * first_n_primes(n)[-1] - 1
                    for s in (2, 20, 150):
                        ctx = recursion.required_precision(n, s, ch)
                        assert recursion.l_partial_sum(bar, s, J, ctx) == (
                            recursion.l_partial_sum(ch, s, J, ctx).conjugate()
                        ), (k, ch.label, n, s)
                        assert recursion.euler_product(bar, s, n, ctx) == (
                            recursion.euler_product(ch, s, n, ctx).conjugate()
                        ), (k, ch.label, n, s)


class TestRounding:
    def test_prime_recovery_sample(self):
        # the full grid runs in the acceptance battery; spot-check here
        for n in (1, 4, 7, 10):
            for ch in (K1, G4.by_label(2), G8.by_label(3)):
                target = first_n_primes(n + 1)[-1]
                if ch(target).is_zero:
                    continue
                res = recursion.estimate(n, 60, ch)
                assert res.rounded == target, (n, ch.modulus, ch.label)
                assert is_prime(res.rounded)


class TestCostGuard:
    """Inputs whose projected cost (the kernels' (J + 14) * W**2 and computed
    roots) exceeds the cap are refused before the kernel pass runs."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        def kernel(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(recursion, "_kernels", kernel)

    def test_estimate(self):
        with pytest.raises(UnsupportedSizeError, match=r"n=100000, s=100000 .* above the cap of 1e\+14"):
            recursion.estimate(100000, 100000, K1)

    @pytest.mark.parametrize("s", [10**6, 10**7])
    def test_refused_before_sizing(self, monkeypatch, s):
        # n = 2: at s = 10**6 the kernels project about 1.3e14; at 10**7
        # the base's s-th power alone takes seconds, so the sizing's base
        # refuses to be raised to any power; n = 1's base 4 has an integer
        # s log2(base), which the sizing takes in integers
        class Base(int):
            def __pow__(self, *args):
                raise AssertionError("the base was raised to the s-th power")

        cell_facts = recursion._cell_facts

        def facts(*key):
            f = cell_facts(*key)
            return f._replace(num=Base(f.num))

        monkeypatch.setattr(recursion, "_cell_facts", facts)
        with pytest.raises(AssertionError, match="raised to the s-th power"):
            recursion.required_precision(1, 50)
        with pytest.raises(UnsupportedSizeError, match=rf"n=2, s={s} .* above the cap of 1e\+14"):
            recursion.estimate(2, s, K1)

    def test_precision_override(self):
        # n = 2, s = 50 needs 226 bits; 2**23 bits projects (5 + 14) * (2**23 + 112)**2
        with pytest.raises(UnsupportedSizeError, match=r"n=2, s=50 at 8388608 bits .* = 1\.34e\+15"):
            recursion.estimate(2, 50, K1, prec_bits=1 << 23)
        # 10**6 bits project 1.9e13 and run: the chain after the kernels,
        # seeded from its own root at half its width, costs a few products
        with pytest.raises(AssertionError, match="the kernel ran"):
            recursion.estimate(2, 50, K1, prec_bits=10**6)

    def test_computed_roots(self):
        # mod 7 label 2 takes four values of order 3 or 6 on 1..9 (n = 3), which
        # fold to one first-octant angle, so fixed_root runs one sine series at
        # W bits: at W = 240112 it projects 5 * W**2.5 = 1.41e14, where the
        # kernels' (9 + 14) * W**2 = 1.3e12 stay below the cap
        chi = enumerate_characters(7).by_label(2)
        roots = r"1 computed roots of unity at 5\*W\*\*2\.5 = 1\.41e\+14"
        with pytest.raises(UnsupportedSizeError, match=rf"n=3, s=2000 .* {roots}"):
            recursion.estimate(3, 2000, chi, prec_bits=240000)
        # at 200000 bits the one root projects 8.95e13, and the input is run;
        # the trivial character and a character of order 4 compute no root
        for chi in (chi, K1, G5.by_label(2)):
            with pytest.raises(AssertionError, match="the kernel ran"):
                recursion.estimate(3, 2000, chi, prec_bits=200000)
        with pytest.raises(AssertionError, match="the kernel ran"):
            recursion.estimate(3, 2000, K1, prec_bits=240000)

    def test_pass_at_the_widest_width(self, monkeypatch):
        # n = 2 at s = 300000 needs 775585 bits and n = 30 is sized here at
        # 200: each passes alone, but one pass runs n = 30's J = 225 indices
        # at n = 2's W = 775697, (225 + 14) * W**2 = 1.44e14
        sizing = recursion._sizing

        def narrow_30(n, s, facts, prec_bits=None):
            if n != 30:
                return sizing(n, s, facts, prec_bits)
            return PrecisionContext(200)

        monkeypatch.setattr(recursion, "_sizing", narrow_30)
        for ns in ([2], [30]):
            with pytest.raises(AssertionError, match="the kernel ran"):
                recursion.estimate_many(ns, 300000, K1)
        with pytest.raises(UnsupportedSizeError, match=r"^n=2, 30, s=300000 at 775585 bits .* = 1\.44e\+14"):
            recursion.estimate_many([2, 30], 300000, K1)

    # every public route to the kernels, at n = 2, s = 50 (J = 5)
    ENTRIES = {
        "estimate": lambda: recursion.estimate(2, 50, K1),
        "estimate_many": lambda: recursion.estimate_many([2, 3], 50, K1),
        "required_precision": lambda: recursion.required_precision(2, 50),
        "residual": lambda: recursion.residual(2, 50, K1),
        "residual-ctx": lambda: recursion.residual(2, 50, K1, PrecisionContext(226)),
        "scaled_residual": lambda: recursion.scaled_residual(2, 50, K1),
        "l_partial_sum": lambda: recursion.l_partial_sum(K1, 50, 5, PrecisionContext(226)),
        "euler_product": lambda: recursion.euler_product(K1, 50, 2, PrecisionContext(226)),
        "neg_log_series": lambda: neg_log_series(2, 50, 51, K1),
        "slope_series": lambda: slope_series(2, 3, 50, 51),
        "d_table": lambda: d_table([2], 50, [4]),
    }

    @pytest.mark.parametrize("call", ENTRIES.values(), ids=ENTRIES.keys())
    def test_every_entry_is_guarded(self, monkeypatch, call):
        # n = 2, s = 50 runs at about 226 bits, W = 338: (5 + 14) * W**2 is
        # 2.2e6, so a cap of 1e6 refuses every route to the kernels
        monkeypatch.setattr(recursion, "MAX_KERNEL_COST", 10**6)
        with pytest.raises(UnsupportedSizeError, match=r"s=50 at \d+ bits .* above the cap of 1e\+06"):
            call()

    def test_past_the_prime_table(self):
        # n = 10**6, s = 2 projects (J + 14) * W**2 of about 1e12, under the
        # cap, but its target p_{n+1} is past the prime table's cap of 10**6
        # primes: read at entry, it is refused before J ~ 3.1e7 indices run
        for call in (
            lambda: recursion.estimate(10**6, 2, K1),
            lambda: recursion.estimate_many([2, 10**6], 2, K1),
            lambda: recursion.scaled_residual(10**6, 2, K1),
        ):
            with pytest.raises(DomainError, match="prime count 1000001 exceeds the supported cap"):
                call()

    def test_scaled_residual_and_dtable(self):
        with pytest.raises(UnsupportedSizeError):
            recursion.scaled_residual(1000, 20000, K1)
        with pytest.raises(UnsupportedSizeError):
            d_table([1000], 20000, [4])

    def test_cap_is_the_boundary(self, monkeypatch):
        # J = 5 at n = 2 and W = 412; the projection is (J + 14) * W**2, 14 for
        # the Euler product's final inversion: with the cap at exactly that
        # the input passes
        ctx = PrecisionContext(300)
        monkeypatch.setattr(recursion, "MAX_KERNEL_COST", (5 + 14) * 412**2 - 1)
        with pytest.raises(UnsupportedSizeError, match=r"\(J \+ 14\)\*W\*\*2"):
            recursion.residual(2, 50, K1, ctx)
        monkeypatch.setattr(recursion, "MAX_KERNEL_COST", (5 + 14) * 412**2)
        with pytest.raises(AssertionError, match="the kernel ran"):
            recursion.residual(2, 50, K1, ctx)

    def test_public_kernels(self):
        # at 4 * 10**6 bits the residual of n = 2, s = 300000 projects
        # (5 + 14) * W**2 = 3.04e14; unguarded, the L-sum alone took 8.1 s
        # and the Euler product 36.7 s on a 2-vCPU x86 machine
        ctx = PrecisionContext(4_000_000)
        cost = r"at 4000000 bits projects a kernel cost \(J \+ 14\)\*W\*\*2 = 3\.04e\+14"
        with pytest.raises(UnsupportedSizeError, match=rf"^n=2, s=300000 {cost}"):
            recursion.residual(2, 300000, K1, ctx)
        with pytest.raises(UnsupportedSizeError, match=rf"^J=5, s=300000 {cost}"):
            recursion.l_partial_sum(K1, 300000, 5, ctx)
        with pytest.raises(UnsupportedSizeError, match=rf"^n=2, s=300000 {cost}"):
            recursion.euler_product(K1, 300000, 2, ctx)

    @pytest.mark.parametrize(
        "modulus, label, n", [(1, 1, 2), (5, 2, 3), (7, 2, 3), (7, 3, 5), (10, 2, 3), (13, 2, 6)]
    )
    def test_public_kernels_refused_where_the_residual_is(self, monkeypatch, modulus, label, n):
        # the least cap at which the residual runs, found by bisection, is the
        # least at which the L-sum to 2 p_n - 1 and the n-prime product run;
        # mod 7 and 13 compute roots of unity, mod 10 vanishes at 2 and 5
        chi = enumerate_characters(modulus).by_label(label)
        ctx, s, J = PrecisionContext(50000), 2000, 2 * first_n_primes(n)[-1] - 1

        def refused(call, cap):
            monkeypatch.setattr(recursion, "MAX_KERNEL_COST", cap)
            with pytest.raises((UnsupportedSizeError, AssertionError)) as info:
                call()
            assert info.match("above the cap|the kernel ran")
            return info.type is UnsupportedSizeError

        calls = (
            lambda: recursion.residual(n, s, chi, ctx),
            lambda: recursion.l_partial_sum(chi, s, J, ctx),
            lambda: recursion.euler_product(chi, s, n, ctx),
        )
        lo, hi = 0, recursion.MAX_KERNEL_COST
        assert refused(calls[0], lo) and not refused(calls[0], hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if refused(calls[0], mid) else (lo, mid)
        for call in calls:
            assert refused(call, lo) and not refused(call, hi)

    def test_projection_counts_the_inversion(self, monkeypatch):
        # n = 2, s = 300000, trivial chi: the weight of 14 was fitted when
        # the kernels took 6.4-6.6 s on a 2-vCPU x86 machine, most of it in
        # the Euler product's final inversion, where J * W**2 alone projected
        # 2.4 s at the documented 0.8e-12 s per unit, and the projection is
        # pinned within 2x of that.  The residual now divides once per
        # component, a short quotient after one product of the deficits
        # from 2**W, each 2**W // j**s comes from the divisor's top bits,
        # and the kernels take 0.19-0.20 s, 0.40-0.41 units of W**2 against
        # the 19 projected: the projection over-counts (ROADMAP F12)
        ctx = recursion.required_precision(2, 300000)
        monkeypatch.setattr(recursion, "MAX_KERNEL_COST", 0)
        with pytest.raises(UnsupportedSizeError) as info:
            recursion.residual(2, 300000, K1, ctx)
        kernel = float(re.search(r"\*W\*\*2 = (\S+)", str(info.value)).group(1))
        W = ctx.prec_bits + 112
        assert kernel == pytest.approx((5 + 14) * W**2, rel=1e-2)
        assert 6.5 / 2 <= kernel * 0.8e-12 <= 6.5 * 2
        assert 5 * W**2 * 0.8e-12 < 6.5 / 2  # the model without the inversion
