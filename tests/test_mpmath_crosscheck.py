"""Optional third-route cross-checks against mpmath.

The exact Gaussian-rational oracle already verifies the residual path for
fourth-root characters; this module adds an independent high-precision
floating-point route covering the transcendental kernel and the characters
the exact oracle cannot reach (sixth roots and beyond).  Skipped cleanly
when mpmath is unavailable.
"""

import random

import pytest

mp = pytest.importorskip("mpmath")

from primerec import recursion
from primerec.analysis import d_table
from primerec.characters import enumerate_characters, keller_one
from primerec.mpnum import BigComplex, BigFloat, PrecisionContext
from primerec.primes import first_n_primes


def bf_mp(x: BigFloat):
    if x.sign == 0:
        return mp.mpf(0)
    return mp.mpf(x.sign * x.man) * mp.mpf(2) ** x.exp


def assert_close(got, want, prec: int, scale: int = 4, abs_floor=0):
    err = abs(bf_mp(got) - want)
    tol = max(abs(want), mp.mpf(abs_floor)) * mp.mpf(2) ** (scale - prec)
    assert err <= tol, (float(err), float(tol))


class TestKernelAgainstMpmath:
    PREC = 256

    @pytest.fixture()
    def ctx(self):
        mp.mp.prec = self.PREC + 128
        return PrecisionContext(self.PREC)

    def test_constants(self, ctx):
        assert_close(ctx.pi(), mp.pi, self.PREC, 1)
        assert_close(ctx.ln2(), mp.log(2), self.PREC, 1)

    def test_transcendentals_random(self, ctx):
        rng = random.Random(31337)
        for _ in range(60):
            x = BigFloat(1, rng.getrandbits(160) | 1, rng.randrange(-200, 200))
            xm = bf_mp(x)
            assert_close(ctx.sqrt(x), mp.sqrt(xm), self.PREC, 1)
            assert_close(ctx.ln(x), mp.log(xm), self.PREC, 2)
            s = rng.randrange(1, 100)
            assert_close(ctx.inv_root(x, s), mp.exp(-mp.log(xm) / s), self.PREC, 3)
            y = BigFloat(rng.choice([1, -1]), rng.getrandbits(64) | 1, rng.randrange(-140, -59))
            assert_close(ctx.exp(y), mp.exp(bf_mp(y)), self.PREC, 2)

    def test_roots_of_unity(self, ctx):
        for m in (1, 2, 3, 4, 5, 7, 8, 9, 12, 17, 36, 97):
            for a in range(min(m, 16)):
                z = ctx.root_of_unity(a, m)
                th = 2 * mp.pi * a / m
                assert_close(z.re, mp.cos(th), self.PREC, 2, abs_floor=1)
                assert_close(z.im, mp.sin(th), self.PREC, 2, abs_floor=1)

    def test_complex_field(self, ctx):
        rng = random.Random(99)
        for _ in range(25):
            parts = [
                BigFloat(rng.choice([1, -1]), rng.getrandbits(80) | 1, rng.randrange(-50, 50))
                for _ in range(4)
            ]
            z, w = BigComplex(*parts[:2]), BigComplex(*parts[2:])
            zm = mp.mpc(bf_mp(z.re), bf_mp(z.im))
            wm = mp.mpc(bf_mp(w.re), bf_mp(w.im))
            q = ctx.div(z, w)
            want = zm / wm
            assert_close(q.re, want.real, self.PREC, 3, abs_floor=abs(want))
            assert_close(q.im, want.imag, self.PREC, 3, abs_floor=abs(want))
            assert_close(ctx.complex_abs(z), abs(zm), self.PREC, 2)


def chi_mp(ch, n):
    v = ch(n)
    if v.is_zero:
        return mp.mpc(0)
    return mp.e ** (2j * mp.pi * v.a / v.m)


def estimate_mp(n, s, ch, bits=None):
    ps = first_n_primes(n + 1)
    mp.mp.prec = bits or recursion.required_precision(n, s).prec_bits + 256
    J = 2 * ps[-2] - 1
    total = sum(chi_mp(ch, j) / mp.mpf(j) ** s for j in range(1, J + 1))
    prod = mp.mpf(1)
    for p in ps[:-1]:
        prod *= 1 / (1 - chi_mp(ch, p) / mp.mpf(p) ** s)
    est = abs(total - prod) ** (mp.mpf(-1) / s)
    return est, abs(ps[-1] - est)


class TestPipelineAgainstMpmath:
    @pytest.mark.parametrize(
        "n,s,modulus,label",
        [
            (2, 50, 1, 1),
            (3, 50, 4, 2),
            (8, 60, 9, 3),   # sixth-root values: outside the exact oracle
            (12, 60, 1, 1),
            (2, 300, 1, 1),
        ],
    )
    def test_estimate_and_error(self, n, s, modulus, label):
        ch = enumerate_characters(modulus).by_label(label)
        res = recursion.estimate(n, s, ch)
        est_ref, err_ref = estimate_mp(n, s, ch)
        assert abs(bf_mp(res.estimate) - est_ref) / est_ref < mp.mpf(2) ** -80
        if err_ref != 0:
            assert abs(bf_mp(res.error) - err_ref) / err_ref < mp.mpf(2) ** -40

    def test_error_at_the_sweep_cap(self):
        # n = 2, s = 2000: about 5.3k residual bits, about 690 after the
        # cancellation; the error sits about 537 bits below the estimate
        res = recursion.estimate(2, 2000, keller_one())
        _, err_ref = estimate_mp(2, 2000, keller_one())
        assert abs(bf_mp(res.error) - err_ref) <= err_ref * mp.mpf(2) ** -64

    @pytest.mark.parametrize(
        "modulus,label,s,field",
        [
            (17, 3, 600, "error"),  # tail terms 5 and 6, chi(6)/chi(5) = +-i
            (10, 2, 200, "margin"),  # chi(5) = 0; tail terms 9 and 27, chi(3) = +-i
        ],
    )
    def test_quarter_turn_cells(self, modulus, label, s, field):
        # the first-order part of the distance cancels, leaving about
        # (m1/m2)**(2s) relative, which the precision must resolve
        ch = enumerate_characters(modulus).by_label(label)
        res = recursion.estimate(2, s, ch)
        est, err = estimate_mp(2, s, ch, bits=3 * res.prec_bits)
        want = err if field == "error" else abs(est - res.rounded)
        got = res.error if field == "error" else res.margin
        assert abs(bf_mp(got) - want) <= want * mp.mpf(2) ** -64

    def test_error_difference(self):
        ch = enumerate_characters(9).by_label(2)
        row = next(r for r in d_table([5], 50, [9]).rows if r.label == ch.label)
        d = row.cells[0].value
        _, ek = estimate_mp(5, 50, keller_one())
        _, ec = estimate_mp(5, 50, ch)
        want = ek - ec
        assert abs(bf_mp(d) - want) / abs(want) < mp.mpf(2) ** -40
