"""Numeric kernel tests: faithfulness against exact and independent oracles.

Expected values are either exact integer/rational identities or are
recomputed here from independent series (factorial series for e, the
geometric-log series for ln(6/5), squaring for sqrt), never from the code
under test.
"""

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primerec.errors import DomainError, RangeError
from primerec.mpnum import (
    ONE,
    ZERO,
    BigComplex,
    BigFloat,
    PrecisionContext,
    format_decimal,
    nearest_int,
    to_float,
)

CTX = PrecisionContext(128)
FR = CTX.from_fraction


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

    def test_i_squared(self):
        i = BigComplex(ZERO, ONE)
        sq = CTX.mul(i, i)
        assert sq.re.to_fraction() == -1
        assert sq.im is ZERO or sq.im.is_zero

    def test_div_rounding_contract(self):
        third = CTX.div(ONE, CTX.from_int(3))
        assert rel_err(third, Fraction(1, 3)) <= Fraction(1, 2**127)

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            CTX.div(ONE, ZERO)
        with pytest.raises(DomainError):
            CTX.div(BigComplex(ONE, ONE), BigComplex(ZERO, ZERO))

    def test_complex_division_formula(self):
        # (a+bi)/(c+di) against the exact rational result
        a, b, c, d = 3, -7, 2, 5
        z = BigComplex(CTX.from_int(a), CTX.from_int(b))
        w = BigComplex(CTX.from_int(c), CTX.from_int(d))
        q = CTX.div(z, w)
        den = Fraction(c * c + d * d)
        assert rel_err(q.re, Fraction(a * c + b * d) / den) <= Fraction(1, 2**120)
        assert rel_err(q.im, Fraction(b * c - a * d) / den) <= Fraction(1, 2**120)

    def test_neg_and_sub(self):
        x = FR(Fraction(22, 7))
        assert CTX.sub(x, x).is_zero
        # negation is exact on the stored value
        assert CTX.neg(x).to_fraction() == -x.to_fraction()

    def test_mixed_promotion(self):
        z = BigComplex(ONE, ONE)
        w = CTX.mul(z, CTX.from_int(2))
        assert w.re.to_fraction() == 2 and w.im.to_fraction() == 2

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


class TestSqrt:
    def test_exact(self):
        assert CTX.sqrt(CTX.from_int(4)).to_fraction() == 2
        assert CTX.sqrt(ZERO).is_zero

    def test_sqrt2_by_squaring(self):
        ctx = PrecisionContext(256)
        r = ctx.sqrt(ctx.from_int(2))
        # squaring oracle plus the universally known leading digits
        assert abs(r.to_fraction() ** 2 - 2) <= Fraction(2, 2**255) * 4
        assert format_decimal(r, 21).startswith("1.41421356237309504880")

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            CTX.sqrt(CTX.from_int(-1))


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
        z = CTX.root_of_unity(1, 2)
        assert z.re.to_fraction() == -1
        assert z.im.is_zero


class TestRootOfUnity:
    def test_trivial(self):
        z = CTX.root_of_unity(0, 1)
        assert z.re.to_fraction() == 1 and z.im.is_zero

    def test_quarter_turn_exact(self):
        z = CTX.root_of_unity(1, 4)
        assert z.re.is_zero and z.im.to_fraction() == 1

    def test_sixth_root_via_sqrt_oracle(self):
        z = CTX.root_of_unity(1, 6)
        assert rel_err(z.re, Fraction(1, 2)) <= Fraction(1, 2**124)
        half_sqrt3 = CTX.div(CTX.sqrt(CTX.from_int(3)), CTX.from_int(2))
        assert abs(z.im.to_fraction() - half_sqrt3.to_fraction()) <= Fraction(1, 2**124)

    def test_zero_modulus_rejected(self):
        with pytest.raises(DomainError):
            CTX.root_of_unity(1, 0)

    def test_unit_magnitude_and_conjugate_product(self):
        for m in (3, 5, 7, 9, 12, 17):
            for a in range(m):
                z = CTX.root_of_unity(a, m)
                mag = CTX.complex_abs(z)
                assert rel_err(mag, Fraction(1)) <= Fraction(1, 2**126)
                w = CTX.root_of_unity(m - a, m)
                prod = CTX.mul(z, w)
                assert abs(prod.re.to_fraction() - 1) <= Fraction(1, 2**124)
                assert abs(prod.im.to_fraction()) <= Fraction(1, 2**124)

    def test_conjugate_bit_symmetry(self):
        for a, m in ((1, 7), (2, 9), (3, 11), (5, 13)):
            z = CTX.root_of_unity(a, m)
            w = CTX.root_of_unity(m - a, m)
            assert z.re == w.re
            assert z.im.man == w.im.man and z.im.exp == w.im.exp
            assert z.im.sign == -w.im.sign


class TestComplexAbs:
    def test_pythagorean(self):
        z = BigComplex(CTX.from_int(3), CTX.from_int(4))
        assert CTX.complex_abs(z).to_fraction() == 5

    def test_zero(self):
        assert CTX.complex_abs(BigComplex(ZERO, ZERO)).is_zero

    def test_rotation_invariance(self):
        rng = random.Random(11)
        i = BigComplex(ZERO, ONE)
        for _ in range(50):
            z = BigComplex(
                FR(Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(32) + 1)),
                FR(Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(32) + 1)),
            )
            assert CTX.complex_abs(CTX.mul(i, z)) == CTX.complex_abs(z)


class TestInvRoot:
    def test_identity(self):
        assert CTX.inv_root(ONE, 7).to_fraction() == 1

    def test_exact_power(self):
        got = CTX.inv_root(FR(Fraction(1, 32)), 5)
        assert rel_err(got, Fraction(2)) <= Fraction(1, 2**124)

    def test_deep_power(self):
        got = CTX.inv_root(FR(Fraction(1, 5**50)), 50)
        assert rel_err(got, Fraction(5)) <= Fraction(1, 2**127)

    def test_domain(self):
        with pytest.raises(DomainError):
            CTX.inv_root(ZERO, 3)
        with pytest.raises(DomainError):
            CTX.inv_root(ONE, 0)


class TestPrecisionMonotonicity:
    def test_plus_64_bits_agreement(self):
        lo, hi = PrecisionContext(128), PrecisionContext(192)
        x = Fraction(355, 113)
        z_lo = BigComplex(lo.from_fraction(x), lo.from_int(-3))
        z_hi = BigComplex(hi.from_fraction(x), hi.from_int(-3))
        tol = Fraction(1, 2**126)
        pairs = [
            (lo.ln(lo.from_fraction(x)), hi.ln(hi.from_fraction(x))),
            (lo.exp(lo.from_fraction(x)), hi.exp(hi.from_fraction(x))),
            (lo.sqrt(lo.from_fraction(x)), hi.sqrt(hi.from_fraction(x))),
            (lo.inv_root(lo.from_fraction(x), 7), hi.inv_root(hi.from_fraction(x), 7)),
            (lo.pi(), hi.pi()),
            (lo.div(ONE, lo.from_fraction(x)), hi.div(ONE, hi.from_fraction(x))),
            (lo.complex_abs(z_lo), hi.complex_abs(z_hi)),
            (lo.root_of_unity(3, 11).re, hi.root_of_unity(3, 11).re),
            (lo.root_of_unity(3, 11).im, hi.root_of_unity(3, 11).im),
        ]
        for a, b in pairs:
            assert abs(a.to_fraction() - b.to_fraction()) <= abs(b.to_fraction()) * tol


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

        from primerec import mpnum

        prec = 1536  # chosen to miss any previously warmed cache entry
        mpnum._CONST_CACHE.pop(prec + 32 + 96, None)
        ctx = PrecisionContext(prec)
        results = [None] * 8

        def worker(i):
            results[i] = ctx.pi()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)


class TestCaches:
    def test_per_precision_caches_are_bounded(self):
        from primerec import mpnum

        for prec in range(700, 700 + 3 * mpnum._CACHED_PRECISIONS):
            ctx = PrecisionContext(prec)
            z = ctx.root_of_unity(1, 7)
            ctx.pi()
        assert len(mpnum._ROOT_CACHE) <= mpnum._CACHED_PRECISIONS
        assert len(mpnum._CONST_CACHE) <= mpnum._CACHED_PRECISIONS
        # the latest precision is still served from the cache
        assert PrecisionContext(prec).root_of_unity(8, 7) is z


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
