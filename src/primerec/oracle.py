"""Exact Gaussian-rational reference evaluation of the residual.

Characters whose values lie in {0, 1, -1, i, -i} (fourth roots of unity)
admit a completely exact evaluation of the truncated L-sum, the Euler
product and their difference using ``fractions.Fraction`` pairs.  This is
an independent route to the same quantities the multiprecision path
computes: no floating point, no rounding, different code.  It exists to
cross-check the cancellation-sensitive residual, so the evaluation here
must never call into the multiprecision arithmetic; the comparison helper
only converts finished values to exact rationals.
"""

from __future__ import annotations

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

_FOURTH_ROOTS = {
    (0, 1): G_ONE,
    (1, 4): GaussianRational(_ZERO, _ONE),
    (1, 2): GaussianRational(-_ONE, _ZERO),
    (3, 4): GaussianRational(_ZERO, -_ONE),
}


def char_value_exact(v: CharValue) -> GaussianRational:
    if v.is_zero:
        return G_ZERO
    got = _FOURTH_ROOTS.get((v.a, v.m))
    if got is None:
        raise DomainError(
            f"character value e({v.a}/{v.m}) is not a Gaussian rational; "
            "the exact oracle covers fourth roots of unity only"
        )
    return got


def l_partial_sum_exact(chi: DirichletCharacter, s: int, J: int) -> GaussianRational:
    acc = G_ZERO
    for j in range(1, J + 1):
        v = chi(j)
        if v.is_zero:
            continue
        acc = acc + char_value_exact(v).scale(Fraction(1, j**s))
    return acc


def euler_product_exact(chi: DirichletCharacter, s: int, n: int) -> GaussianRational:
    acc = G_ONE
    for p in primes.first_n_primes(n):
        v = chi(p)
        if v.is_zero:
            continue
        factor = G_ONE - char_value_exact(v).scale(Fraction(1, p**s))
        acc = acc * factor.reciprocal()
    return acc


def residual_exact(n: int, s: int, chi: DirichletCharacter) -> GaussianRational:
    J = 2 * primes.nth_prime(n) - 1
    return l_partial_sum_exact(chi, s, J) - euler_product_exact(chi, s, n)


def abs2_delta_within(value: BigComplex, exact: GaussianRational, rel_bits: int) -> bool:
    """|value - exact| <= 2**-rel_bits * |exact|, decided in exact arithmetic."""
    dre = value.re.to_fraction() - exact.re
    dim = value.im.to_fraction() - exact.im
    lhs = dre * dre + dim * dim
    tol = Fraction(1, 1 << rel_bits)
    return lhs <= tol * tol * exact.abs2()
