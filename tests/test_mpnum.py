"""Numeric kernel tests: faithfulness against exact and independent oracles.

Expected values are either exact integer/rational identities or are
recomputed here from independent series (factorial series for e, the
geometric-log series for ln(6/5), integer square roots for the sixth root
of unity), never from the code under test.
"""

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primerec import mpnum
from primerec.errors import DomainError, RangeError
from primerec.mpnum import (
    ONE,
    ZERO,
    BigComplex,
    BigFloat,
    PrecisionContext,
    fixed_root,
    format_decimal,
    nearest_int,
    to_float,
)

CTX = PrecisionContext(128)
FR = CTX.from_fraction
BITS = (64, 256, 1000)  # fixed_root scales under test


def rel_err(x: BigFloat, exact: Fraction) -> Fraction:
    if exact == 0:
        return abs(x.to_fraction())
    return abs(x.to_fraction() - exact) / abs(exact)


class TestContext:
    def test_prec_floor(self):
        with pytest.raises(DomainError):
            PrecisionContext(63)
        assert PrecisionContext(64).prec_bits == 64

    def test_context_equality(self):
        assert PrecisionContext(128) == PrecisionContext(128)
        assert PrecisionContext(128) != PrecisionContext(129)


class TestArith:
    def test_add_exact_small_integers(self):
        assert CTX.add(CTX.from_int(1), CTX.from_int(2)).to_fraction() == 3

    def test_div_rounding_contract(self):
        third = mpnum._div(ONE, CTX.from_int(3), CTX._wp)
        assert rel_err(third, Fraction(1, 3)) <= Fraction(1, 2**127)

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            mpnum._div(ONE, ZERO, CTX._wp)

    def test_neg_and_sub(self):
        x = FR(Fraction(22, 7))
        assert CTX.sub(x, x).is_zero
        # negation is exact on the stored value
        assert CTX.neg(x).to_fraction() == -x.to_fraction()

    @given(
        st.integers(min_value=-(2**64), max_value=2**64),
        st.integers(min_value=-(2**64), max_value=2**64),
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=-60, max_value=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_add_mul_match_exact_rationals(self, ma, mb, ea, eb):
        xf = Fraction(ma) * Fraction(2) ** ea
        yf = Fraction(mb) * Fraction(2) ** eb
        x, y = FR(xf), FR(yf)
        got = CTX.add(x, y).to_fraction()
        assert got == xf + yf or rel_err(CTX.add(x, y), xf + yf) <= Fraction(1, 2**127)
        got = CTX.mul(x, y).to_fraction()
        assert got == xf * yf or rel_err(CTX.mul(x, y), xf * yf) <= Fraction(1, 2**127)


class TestLnExp:
    def test_ln_one(self):
        assert CTX.ln(ONE).is_zero

    def test_exp_zero(self):
        assert CTX.exp(ZERO).to_fraction() == 1

    def test_inverse_pairs(self):
        e = CTX.exp(ONE)
        assert rel_err(CTX.ln(e), Fraction(1)) <= Fraction(1, 2**127)
        seven = CTX.from_int(7)
        assert rel_err(CTX.exp(CTX.ln(seven)), Fraction(7)) <= Fraction(1, 2**126)

    def test_ln_six_fifths_series_oracle(self):
        # ln(6/5) = -ln(1 - 1/6) = sum_{j>=1} (1/6)^j / j, summed exactly
        oracle = sum((Fraction(1, 6) ** j / j for j in range(1, 120)), Fraction(0))
        got = CTX.ln(FR(Fraction(6, 5)))
        assert abs(got.to_fraction() - oracle) <= Fraction(1, 2**126)
        assert format_decimal(got, 12).startswith("1.8232155679")

    def test_exp_one_factorial_oracle(self):
        oracle = sum((Fraction(1, math.factorial(j)) for j in range(60)), Fraction(0))
        got = CTX.exp(ONE)
        assert rel_err(got, oracle) <= Fraction(1, 2**126)
        assert format_decimal(got, 21).startswith("2.71828182845904523536")

    def test_exp_negative(self):
        em = CTX.exp(CTX.from_int(-3))
        ep = CTX.exp(CTX.from_int(3))
        assert rel_err(CTX.mul(em, ep), Fraction(1)) <= Fraction(1, 2**124)

    def test_ln_power_of_two_and_near_one(self):
        ctx = PrecisionContext(192)
        v = ctx.ln(ctx.from_int(1 << 40))
        oracle = 40 * sum((Fraction(1, 3) ** (2 * j + 1) * 2 / (2 * j + 1) for j in range(80)), Fraction(0))
        assert abs(v.to_fraction() - oracle) <= Fraction(1, 2**180)
        # x extremely close to 1 keeps full relative accuracy
        x = ctx.from_fraction(1 + Fraction(1, 2**150))
        lg = ctx.ln(x)
        exact_lead = Fraction(1, 2**150)  # ln(1+u) = u - u^2/2 + ...
        assert abs(lg.to_fraction() - exact_lead) <= exact_lead * Fraction(1, 2**140) + Fraction(1, 2**301)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            CTX.ln(ZERO)
        with pytest.raises(DomainError):
            CTX.ln(CTX.from_int(-2))
        with pytest.raises(RangeError):
            CTX.exp(CTX.from_fraction(Fraction(2**49)))

    def test_round_trip_random(self):
        rng = random.Random(20260809)
        for _ in range(300):
            man = rng.getrandbits(96) | 1
            e = rng.randrange(-120, 120)
            x = BigFloat(1, man, e)
            if abs(math.log(man) + e * math.log(2)) > 100:
                continue
            y = CTX.exp(CTX.ln(x))
            assert rel_err(y, x.to_fraction()) <= Fraction(1, 2 ** (128 - 4))

    @given(st.integers(min_value=1, max_value=2**80), st.integers(min_value=-100, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, man, e):
        x = BigFloat(1, man, e)
        if abs(math.log(man) + e * math.log(2)) > 100:
            return
        y = CTX.exp(CTX.ln(x))
        assert rel_err(y, x.to_fraction()) <= Fraction(1, 2 ** (128 - 4))


class TestPi:
    def test_known_digits(self):
        assert format_decimal(PrecisionContext(64).pi(), 15).startswith("3.14159265358979")

    def test_two_formulas_agree_at_1024_bits(self):
        ctx = PrecisionContext(1024)
        delta = abs(ctx.pi().to_fraction() - ctx.pi_euler().to_fraction())
        assert delta <= Fraction(4, 2**1022)

    def test_half_turn_is_minus_one(self):
        for bits in BITS:
            for m in range(2, 201, 2):
                assert fixed_root(m // 2, m, bits) == (-(1 << bits), 0)


ONE_128 = 1 << 128


class TestRootOfUnity:
    def test_trivial(self):
        assert fixed_root(0, 1, 128) == (ONE_128, 0)

    def test_quarter_turn_exact(self):
        for bits in BITS:
            for m in range(4, 201, 4):
                assert fixed_root(m // 4, m, bits) == (0, 1 << bits)
                assert fixed_root(3 * m // 4, m, bits) == (0, -(1 << bits))

    def test_sixth_root_via_sqrt_oracle(self):
        c, s = fixed_root(1, 6, 128)
        assert abs(c - ONE_128 // 2) <= 2
        # sqrt(3)/2 scaled by 2**128 lies in [isqrt(3 * 2**256) / 2, that + 1/2)
        assert abs(2 * s - math.isqrt(3 << 256)) <= 4

    def test_zero_modulus_rejected(self):
        with pytest.raises(DomainError):
            fixed_root(1, 0, 128)

    def test_unit_magnitude_and_conjugate_product(self):
        for m in (3, 5, 7, 9, 12, 17):
            for a in range(m):
                c, s = fixed_root(a, m, 128)
                # |z| within 2**-126 of 1, so |z|**2 within 2**-125
                assert abs(c * c + s * s - ONE_128**2) <= ONE_128**2 >> 125
                wc, ws = fixed_root(m - a, m, 128)
                assert abs(c * wc - s * ws - ONE_128**2) <= ONE_128**2 >> 124
                assert abs(c * ws + s * wc) <= ONE_128**2 >> 124

    def test_conjugate_bit_symmetry(self):
        for bits in BITS:
            for m in range(1, 201):
                for a in range(m):
                    c, s = fixed_root(a, m, bits)
                    assert fixed_root(m - a, m, bits) == (c, -s)

    def test_conjugates_share_one_series(self, monkeypatch):
        calls = []
        series = mpnum._fp_sin_cos
        mpnum._octant_root.cache_clear()
        monkeypatch.setattr(mpnum, "_fp_sin_cos", lambda *args: calls.append(args) or series(*args))
        # five distinct first-octant angles: 30, 90/7, 45, 18 and 25.2 degrees;
        # (1, 12) is 30 degrees again: (1, 3) folds to 2/24, which reduces to 1/12
        for a, m in ((1, 3), (2, 7), (3, 8), (1, 5), (7, 100), (1, 12)):
            c, s = fixed_root(a, m, 300)
            assert fixed_root(m - a, m, 300) == (c, -s)
            assert fixed_root(a + m, m, 300) == (c, s)
        assert len(calls) == 5


def inv_root(x: BigFloat, s: int, bits: int) -> Fraction:
    """x**(-1/s) = exp(-ln(x) / s) on the fixed-point kernels, scaled by 2**-bits."""
    v = -mpnum._fp_ln(x.man, x.exp, bits)
    t = v // s if v >= 0 else -(-v // s)
    return Fraction(mpnum._fp_exp(t, bits), 1 << bits)


class TestInvRoot:
    """A root by the ln and exp kernels, 160 bits past the context."""

    BITS = CTX.prec_bits + 160

    def test_identity(self):
        assert inv_root(ONE, 7, self.BITS) == 1

    def test_exact_power(self):
        got = inv_root(FR(Fraction(1, 32)), 5, self.BITS)
        assert abs(got - 2) / 2 <= Fraction(1, 2**124)

    def test_deep_power(self):
        got = inv_root(FR(Fraction(1, 5**50)), 50, self.BITS)
        assert abs(got - 5) / 5 <= Fraction(1, 2**127)


class TestPrecisionMonotonicity:
    def test_plus_64_bits_agreement(self):
        lo, hi = PrecisionContext(128), PrecisionContext(192)
        x = Fraction(355, 113)

        def abs2(ctx):
            re, im = ctx.from_fraction(x), ctx.from_int(-3)
            return ctx.add(ctx.mul(re, re), ctx.mul(im, im))

        def root(ctx, i):
            # at the context's working bits, as the residual kernels use it
            bits = ctx.prec_bits + 96
            return Fraction(fixed_root(3, 11, bits)[i], 1 << bits)

        tol = Fraction(1, 2**126)
        pairs = [
            (lo.ln(lo.from_fraction(x)), hi.ln(hi.from_fraction(x))),
            (lo.exp(lo.from_fraction(x)), hi.exp(hi.from_fraction(x))),
            (lo.pi(), hi.pi()),
            (mpnum._div(ONE, lo.from_fraction(x), lo._wp), mpnum._div(ONE, hi.from_fraction(x), hi._wp)),
            (abs2(lo), abs2(hi)),
        ]
        pairs = [(a.to_fraction(), b.to_fraction()) for a, b in pairs]
        pairs.append(
            tuple(inv_root(c.from_fraction(x), 7, c.prec_bits + 160) for c in (lo, hi))
        )
        pairs += [(root(lo, i), root(hi, i)) for i in (0, 1)]
        for a, b in pairs:
            assert abs(a - b) <= abs(b) * tol


class TestRepresentation:
    def test_canonical_zero(self):
        assert CTX.from_int(0) is ZERO
        assert CTX.sub(ONE, ONE).is_zero

    def test_mantissa_normalised(self):
        x = CTX.from_int(48)  # 48 = 3 * 2^4: mantissa stored odd
        assert x.man == 3 and x.exp == 4

    def test_structural_equality_is_value_equality(self):
        assert FR(Fraction(3, 4)) == FR(Fraction(6, 8))
        assert hash(FR(Fraction(3, 4))) == hash(FR(Fraction(6, 8)))

    def test_pickle_round_trip(self):
        x = FR(Fraction(-355, 113))
        z = BigComplex(x, CTX.from_int(9))
        assert pickle.loads(pickle.dumps(x)) == x
        assert pickle.loads(pickle.dumps(z)) == z


class TestConcurrency:
    def test_constant_cache_exclusive_init(self):
        # readers racing the first computation must all see the same value
        import threading

        ctx = PrecisionContext(1536)
        mpnum._fp_pi.cache_clear()
        serial = ctx.pi()
        mpnum._fp_pi.cache_clear()
        results = [None] * 8

        def worker(i):
            results[i] = ctx.pi()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial] * 8


class TestCaches:
    def test_per_precision_caches_are_bounded(self, monkeypatch):
        roots, consts = mpnum._octant_root, mpnum._fp_pi
        for prec in range(700, 700 + roots.cache_info().maxsize + 8):
            z = fixed_root(1, 7, prec)
            PrecisionContext(prec).pi()
        for cache in (roots, consts):
            info = cache.cache_info()
            assert info.maxsize and info.currsize == info.maxsize
        # the latest precision is still served from the cache
        monkeypatch.setattr(mpnum, "_fp_sin_cos", None)
        assert fixed_root(8, 7, prec) == z


class TestRendering:
    def test_half_even(self):
        assert format_decimal(FR(Fraction(125, 1000)), 2) == "1.2e-01"
        assert format_decimal(FR(Fraction(375, 1000)), 2) == "3.8e-01"
        assert format_decimal(FR(Fraction(-375, 1000)), 2) == "-3.8e-01"

    def test_digit_counts(self):
        s = format_decimal(FR(Fraction(1, 3)), 17)
        assert s == "3.3333333333333333e-01"
        assert format_decimal(CTX.from_int(12345), 3) == "1.23e+04"
        assert format_decimal(ZERO, 7) == "0"
        assert format_decimal(CTX.from_int(1), 1) == "1e+00"

    def test_carry_to_next_decade(self):
        assert format_decimal(FR(Fraction(999, 100)), 2) == "1.0e+01"

    def test_nearest_int_half_away(self):
        assert nearest_int(FR(Fraction(5, 2))) == 3
        assert nearest_int(FR(Fraction(-5, 2))) == -3
        assert nearest_int(FR(Fraction(49, 10))) == 5
        assert nearest_int(ZERO) == 0

    def test_to_float(self):
        assert to_float(FR(Fraction(1, 4))) == 0.25
        assert to_float(ZERO) == 0.0
        with pytest.raises(RangeError):
            to_float(BigFloat(1, 1, 40000))

    @given(
        st.sampled_from([-1, 1]),
        st.integers(min_value=1, max_value=2**120),
        st.integers(min_value=-1250, max_value=1100),
    )
    @settings(max_examples=400, deadline=None)
    def test_to_float_matches_fraction(self, sign, man, exp):
        # exponents past both ends of the double range: overflow, subnormals, 0
        x = BigFloat(sign, man, exp)
        try:
            want = float(x.to_fraction())
        except OverflowError:
            with pytest.raises(RangeError):
                to_float(x)
            return
        got = to_float(x)
        assert got == want and math.copysign(1, got) == math.copysign(1, want)
