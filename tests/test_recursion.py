"""Recursion tests: partial sums, Euler products, residuals, estimates.

Derived expectations are recomputed here with exact rational arithmetic
(the Gaussian-rational oracle or inline Fractions); published anchor
values appear only with their documented tolerances.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from primerec import oracle, recursion
from primerec.analysis import d_table, neg_log_series
from primerec.characters import enumerate_characters, keller_one
from primerec.errors import DomainError, PrecisionLossError
from primerec.mpnum import PrecisionContext, format_decimal, nearest_int, to_float
from primerec.primes import first_n_primes, is_prime

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


def close_to(value, exact: Fraction, rel_bits: int = 120) -> bool:
    if exact == 0:
        return abs(value.to_fraction()) <= Fraction(1, 1 << rel_bits)
    return abs(value.to_fraction() - exact) <= abs(exact) / (1 << rel_bits)


class TestRequiredPrecision:
    def test_reference_points(self):
        assert recursion.required_precision(2, 50).prec_bits == 226
        assert recursion.required_precision(8, 500).prec_bits == 2720
        assert recursion.required_precision(2, 1).prec_bits == 99

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
                        lhs = ctx.complex_abs(
                            ctx.sub(
                                recursion.l_partial_sum(ch, s, J, ctx),
                                recursion.euler_product(ch, s, count, ctx),
                            )
                        ).to_fraction()
                        bound = 2 * Fraction(J) ** (1 - s) / (s - 1)
                        assert lhs <= bound, (k, ch.label, s, J, float(lhs), float(bound))

    def test_precision_stability(self):
        for n, s in ((2, 30), (5, 45), (8, 60)):
            base = recursion.required_precision(n, s)
            wide = PrecisionContext(base.prec_bits + 128)
            a = recursion.residual(n, s, K1, ctx=base)
            b = recursion.residual(n, s, K1, ctx=wide)
            ma = base.complex_abs(a).to_fraction()
            mb = wide.complex_abs(b).to_fraction()
            assert abs(ma - mb) <= mb / (1 << 64)


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
        recomputed = ctx.abs(ctx.sub(ctx.from_int(res.target), res.estimate))
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
        from primerec.mpnum import C_ZERO

        monkeypatch.setattr(recursion, "residual", lambda *a, **k: C_ZERO)
        with pytest.raises(PrecisionLossError):
            recursion.estimate(2, 50, K1)

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
        from primerec.mpnum import C_ZERO

        monkeypatch.setattr(recursion, "residual", lambda *a, **k: C_ZERO)
        with pytest.raises(PrecisionLossError, match=r"prec_bits \(--precision\)"):
            recursion.estimate(2, 600, chi)


def exact_estimate(n: int, s: int, chi, digits: int) -> Fraction:
    """|residual|**(-1/s) from the exact oracle residual, by decimal ln/exp."""
    r = oracle.residual_exact(n, s, chi)
    mag2 = r.re**2 + r.im**2
    with localcontext() as c:
        c.prec = digits
        ln = Decimal(mag2.numerator).ln() - Decimal(mag2.denominator).ln()
        return Fraction((-ln / (2 * s)).exp())


class TestDownstreamWidth:
    """Root, error and margin run at the width the cancellation left.

    The reference is the full-width chain: everything after |residual| at
    the residual's own precision.  The cells cover the width clamped to P
    (s = 20) and the narrow width (also for mod 9, n = 1, where chi(3) = 0).
    Two cells have leading tail terms that differ in phase by +-i, so the
    first-order part of a distance cancels: the margin of mod 5 (target 5
    with chi(5) = 0, terms 6 and 8) and the error of mod 16 (terms 5 and 9).
    Sized from m2**2 / m1 they run at the narrow width; sized blind to chi
    ("redone") their second-order distance lies below it, and the chain is
    redone at P.
    """

    @pytest.mark.parametrize(
        "modulus,label,n,s,widths",
        [
            (1, 1, 2, 20, "full"),
            (1, 1, 2, 300, "narrow"),
            (1, 1, 2, 2000, "narrow"),
            (5, 2, 2, 600, "narrow"),
            (5, 2, 2, 600, "redone"),
            (9, 2, 1, 200, "narrow"),
            (16, 2, 2, 300, "narrow"),
            (16, 2, 2, 300, "redone"),
        ],
    )
    def test_matches_full_width_chain(self, monkeypatch, modulus, label, n, s, widths):
        if widths == "redone":
            sizing = recursion._sizing
            monkeypatch.setattr(recursion, "_sizing", lambda n, s, chi: sizing(n, s, None))
        used = []
        finish = recursion._finish

        def recording(ctx, *args):
            used.append(ctx.prec_bits)
            return finish(ctx, *args)

        monkeypatch.setattr(recursion, "_finish", recording)
        chi = enumerate_characters(modulus).by_label(label)
        res = recursion.estimate(n, s, chi)
        P = res.prec_bits
        assert P == recursion.required_precision(n, s, chi).prec_bits
        assert (used[0] == P) == (widths == "full")
        assert used[1:] == ([P] if widths == "redone" else [])

        ctx = PrecisionContext(P)
        est = ctx.inv_root(ctx.complex_abs(res.residual), s)
        rounded = nearest_int(est)
        error = ctx.abs(ctx.sub(ctx.from_int(res.target), est))
        margin = ctx.abs(ctx.sub(est, ctx.from_int(rounded)))
        assert res.rounded == rounded
        for got, want in ((res.estimate, est), (res.error, error), (res.margin, margin)):
            assert format_decimal(got, 17) == format_decimal(want, 17)


class TestPrecisionSizing:
    """Precision sized from the character's own tail terms (ROADMAP S1)."""

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


class TestErrorFunctionals:
    def test_error_decreases_for_fixed_n(self):
        errors = [recursion.estimate(2, s, K1).error.to_fraction() for s in (20, 40, 60, 80)]
        assert errors == sorted(errors, reverse=True)

    def test_d_is_consistent_difference(self):
        ctx = recursion.required_precision(3, 50)
        ek = recursion.estimate(3, 50, K1).error
        e5 = recursion.estimate(3, 50, G5.by_label(1)).error
        d = d_cell(3, 50, G5.by_label(1))
        assert ctx.sub(ek, e5) == d

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
