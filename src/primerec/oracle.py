"""Exact Gaussian-rational reference evaluation of the residual.

Characters whose values lie in {0, 1, -1, i, -i} (fourth roots of unity)
admit a completely exact evaluation of the truncated L-sum, the Euler
product and their difference on plain integers: each quantity is held as a
Gaussian-integer numerator over one positive integer denominator, and a
``GaussianRational`` of ``fractions.Fraction`` parts is built once, from the
finished integers.  This is an independent route to the same quantities the
multiprecision path computes: no floating point, no rounding, different
code.  It exists to cross-check the cancellation-sensitive residual, so the
evaluation here must never call into the multiprecision arithmetic; the
comparison helper only reads the sign, mantissa and exponent of finished
values.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import primes
from .characters import CharValue, DirichletCharacter
from .errors import DomainError, refuse_mutation
from .mpnum import BigComplex

__all__ = [
    "GaussianRational",
    "char_value_exact",
    "l_partial_sum_exact",
    "euler_product_exact",
    "residual_exact",
    "abs2_delta_within",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class GaussianRational:
    """Immutable exact complex number re + im*i with ``Fraction`` parts."""

    __slots__ = ("re", "im")
    __setattr__ = __delattr__ = refuse_mutation

    def __init__(self, re: Fraction = _ZERO, im: Fraction = _ZERO):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def reciprocal(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise DomainError("reciprocal of zero")
        return GaussianRational(self.re / n, -self.im / n)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def scale(self, f: Fraction) -> "GaussianRational":
        return GaussianRational(self.re * f, self.im * f)


G_ZERO = GaussianRational()
G_ONE = GaussianRational(_ONE, _ZERO)

# (re, im) of each fourth root of unity e(a/m), keyed by (a, m)
_FOURTH_ROOTS = {(0, 1): (1, 0), (1, 4): (0, 1), (1, 2): (-1, 0), (3, 4): (0, -1)}


def _fourth_root(v: CharValue) -> tuple:
    got = _FOURTH_ROOTS.get((v.a, v.m))
    if got is None:
        raise DomainError(
            f"character value e({v.a}/{v.m}) is not a Gaussian rational; "
            "the exact oracle covers fourth roots of unity only"
        )
    return got


def char_value_exact(v: CharValue) -> GaussianRational:
    if v.is_zero:
        return G_ZERO
    re, im = _fourth_root(v)
    return GaussianRational(Fraction(re), Fraction(im))


def _gaussian(re: int, im: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _l_partial_sum(chi: DirichletCharacter, s: int, J: int) -> tuple:
    """(re, im, D) with the sum equal to (re + im i) / D, D = lcm(1..J)**s.

    Each term chi(j) / j**s is chi(j) (L / j)**s / D for L = lcm(1..J), and
    chi(j) is 0, +-1 or +-i, so it adds to or subtracts from one part.
    """
    L = math.lcm(*range(1, J + 1))
    re = im = 0
    for j in range(1, J + 1):
        v = chi(j)
        if v.is_zero:
            continue
        x, y = _fourth_root(v)
        t = (L // j) ** s
        re += x * t
        im += y * t
    return re, im, L**s


def _euler_product(chi: DirichletCharacter, s: int, n: int) -> tuple:
    """(re, im, |G|**2) with the product equal to (re + im i) / |G|**2.

    Each factor 1 / (1 - chi(p) / p**s) is p**s / (p**s - chi(p)), so the
    product is N / G for N = prod p**s and the Gaussian integer
    G = prod (p**s - chi(p)), that is N conj(G) / |G|**2.
    """
    N, gre, gim = 1, 1, 0
    for p in primes.first_n_primes(n):
        v = chi(p)
        if v.is_zero:
            continue
        x, y = _fourth_root(v)
        q = p**s
        N *= q
        gre, gim = gre * (q - x) + gim * y, gim * (q - x) - gre * y
    den = gre * gre + gim * gim
    if den == 0:
        raise DomainError("reciprocal of zero")
    return N * gre, -N * gim, den


def l_partial_sum_exact(chi: DirichletCharacter, s: int, J: int) -> GaussianRational:
    return _gaussian(*_l_partial_sum(chi, s, J))


def euler_product_exact(chi: DirichletCharacter, s: int, n: int) -> GaussianRational:
    return _gaussian(*_euler_product(chi, s, n))


def residual_exact(n: int, s: int, chi: DirichletCharacter) -> GaussianRational:
    J = 2 * primes.nth_prime(n) - 1
    lre, lim, lden = _l_partial_sum(chi, s, J)
    ere, eim, eden = _euler_product(chi, s, n)
    return _gaussian(lre * eden - ere * lden, lim * eden - eim * lden, lden * eden)


def abs2_delta_within(value: BigComplex, exact: GaussianRational, rel_bits: int) -> bool:
    """|value - exact| <= 2**-rel_bits * |exact|, decided in exact arithmetic.

    With value = (x + y i) / 2**t and exact = (u + w i) / q over integers,
    both sides are multiplied by (2**t q)**2 * 4**rel_bits, leaving
    ((x q - u 2**t)**2 + (y q - w 2**t)**2) 4**rel_bits <= (u**2 + w**2) 4**t.
    """
    vre, vim = value.re, value.im
    t = max(0, -vre.exp, -vim.exp)
    x = vre.sign * vre.man << (vre.exp + t)
    y = vim.sign * vim.man << (vim.exp + t)
    ere, eim = exact.re, exact.im
    q = math.lcm(ere.denominator, eim.denominator)
    u = ere.numerator * (q // ere.denominator)
    w = eim.numerator * (q // eim.denominator)
    dx = x * q - (u << t)
    dy = y * q - (w << t)
    return (dx * dx + dy * dy) << (2 * rel_bits) <= (u * u + w * w) << (2 * t)
