"""The prime recursion: truncated L-sums, Euler products and error values.

For the first n primes, an integer exponent s and a Dirichlet character chi,
the central quantity is the residual

    sum_{j=1}^{2 p_n - 1} chi(j) / j**s  -  prod_{k=1}^{n} (1 - chi(p_k)/p_k**s)**-1.

The partial sum and the truncated product both sit near 1 but agree to
roughly ``p_{n+1}**-s``, so the subtraction cancels about
``s * log2(p_{n+1})`` bits.  Two precisions follow from that:

 * The residual is computed at ``P = ceil(s * log2(base)) + 96`` bits
   (``required_precision``).  Every index the sum and product disagree on
   is a tail term: a prime in ``(p_n, 2 p_n)`` or a ``p_n``-smooth
   ``m >= 2 p_n``.  The estimate tends to the first tail term ``m1`` with
   ``chi(m1) != 0`` (``p_{n+1}`` unless chi vanishes there), and its
   distance from ``m1`` (the error, or the margin when ``m1`` is not the
   target) is about ``(m1/m2)**s`` relative, where ``m2`` is the second
   such term, so ``base = max(2 p_n, m2)`` keeps at least 96 significant
   bits of that distance.  When ``chi(m2) / chi(m1) = +-i`` the
   first-order part of the distance cancels and about ``(m1/m2)**(2s)``
   is left, so the base is ``max(2 p_n, m2**2 / m1)``.  For the trivial
   character ``m2 <= 2 p_n``.  When ``m1`` is the only tail term the
   residual is exactly ``chi(m1) * m1**-s``, and the estimate is reported
   as exactly ``m1`` with margin 0.
 * Everything downstream of ``|residual|`` (the root, rounding, error and
   margin) runs at the width the subtraction left: ``P + top(|residual|)``
   surviving bits plus 64, clamped to ``[64, P]``.  When the error or the
   margin is zero or lies within 64 bits of that width below the estimate,
   the chain is redone at ``P``, so no printed digit depends on the
   narrower width.

Taking ``|residual| ** (-1/s)`` then lands within a shrinking distance of
the next prime ``p_{n+1}`` as s grows, provided ``chi(p_{n+1}) != 0`` (when
the next prime divides the modulus the limit degenerates; the result is
flagged, not rejected).

Terms are summed in increasing j without compensation: the working
precision already exceeds the cancellation depth by design, so ordering
cannot disturb the contracted accuracy, and the evaluation stays
deterministic and bit-reproducible.  Exponent s is restricted to positive
integers; s = 1 is accepted but of dubious value for the trivial character
(the harmonic-like partial sum has no limit to track).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional

from . import primes
from .characters import DirichletCharacter
from .errors import DomainError, PrecisionLossError
from .mpnum import (
    BigComplex,
    BigFloat,
    C_ONE,
    C_ZERO,
    ONE,
    ZERO,
    PrecisionContext,
    _top,
    nearest_int,
)

__all__ = [
    "EstimateResult",
    "required_precision",
    "l_partial_sum",
    "euler_product",
    "residual",
    "scaled_residual",
    "estimate",
]


@dataclass(frozen=True)
class EstimateResult:
    """One finite-s evaluation of the recursion against its target prime."""

    n: int
    s: int
    modulus: int
    label: int
    residual: BigComplex
    estimate: BigFloat
    rounded: int
    target: int
    error: BigFloat
    margin: BigFloat
    prec_bits: int
    warning: Optional[str] = None


def _check_n_s(n: int, s: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not isinstance(s, int) or s < 1:
        raise DomainError(f"s must be a positive integer, got {s!r}")


def _is_smooth(m: int, ps: list) -> bool:
    """Whether every prime factor of m lies in ``ps`` (ascending primes)."""
    for p in ps:
        if p * p > m:
            break
        while m % p == 0:
            m //= p
    return m <= ps[-1]


def _tail_terms(n: int, chi: DirichletCharacter):
    """Ascending residual tail terms m with chi(m) != 0.

    The primes in (p_n, 2 p_n), then the p_n-smooth m >= 2 p_n; the second
    part is empty when chi vanishes at every prime up to p_n.
    """
    ps = primes.first_n_primes(n)
    p = ps[-1]
    for q in range(p + 1, 2 * p):
        if not chi(q).is_zero and primes.is_prime(q):
            yield q
    if all(chi(q).is_zero for q in ps):
        return
    m = 2 * p
    while True:
        if not chi(m).is_zero and _is_smooth(m, ps):
            yield m
        m += 1


def _sizing(n: int, s: int, chi: Optional[DirichletCharacter]):
    """(``required_precision(n, s, chi)``, chi's first two tail terms)."""
    _check_n_s(n, s)
    base = Fraction(2 * primes.nth_prime(n))
    terms = [] if chi is None else list(islice(_tail_terms(n, chi), 2))
    if len(terms) == 2:
        m1, m2 = terms
        quarter_turn = chi(m2).mul(chi(m1).conjugate()).m == 4
        base = max(base, Fraction(m2 * m2, m1) if quarter_turn else Fraction(m2))
    bits = (math.ceil(base**s) - 1).bit_length()
    return PrecisionContext(max(64, bits + 96)), terms


def required_precision(
    n: int, s: int, chi: Optional[DirichletCharacter] = None
) -> PrecisionContext:
    """Working precision for the (n, s) residual: ceil(s*log2(base)) + 96 bits.

    The sum and product are O(1) but agree to about p_{n+1}**-s, which is
    larger than (2 p_n)**-s; the allowance keeps >= 96 significant bits of
    the residual.  Given ``chi``, the base is set by its first two tail
    terms m1 < m2 with chi(m) != 0: ``max(2 p_n, m2)``, or
    ``max(2 p_n, m2**2 / m1)`` when chi(m2)/chi(m1) = +-i (see the module
    docstring).  Without ``chi``, or with fewer than two such terms, the
    base is 2 p_n.  Never below the 64-bit context floor.
    """
    return _sizing(n, s, chi)[0]


def _char_complex(ctx: PrecisionContext, chi: DirichletCharacter, j: int):
    v = chi(j)
    if v.is_zero:
        return None
    return ctx.root_of_unity(v.a, v.m)


def l_partial_sum(
    chi: DirichletCharacter, s: int, J: int, ctx: PrecisionContext
) -> BigComplex:
    """sum_{j=1}^{J} chi(j) / j**s, summed in increasing j."""
    if not isinstance(J, int) or J < 1:
        raise DomainError(f"J must be a positive integer, got {J!r}")
    if not isinstance(s, int) or s < 1:
        raise DomainError(f"s must be a positive integer, got {s!r}")
    acc = C_ZERO
    for j in range(1, J + 1):
        z = _char_complex(ctx, chi, j)
        if z is None:
            continue
        r = ctx.div(ONE, ctx.from_int(j**s))
        acc = ctx.add(acc, BigComplex(ctx.mul(z.re, r), ctx.mul(z.im, r)))
    return acc


def euler_product(
    chi: DirichletCharacter, s: int, n: int, ctx: PrecisionContext
) -> BigComplex:
    """prod over the first n primes of (1 - chi(p)/p**s)**-1.

    A vanishing chi(p) contributes a factor of exactly 1 and is skipped.
    """
    _check_n_s(n, s)
    acc = C_ONE
    for p in primes.first_n_primes(n):
        z = _char_complex(ctx, chi, p)
        if z is None:
            continue
        r = ctx.div(ONE, ctx.from_int(p**s))
        factor = BigComplex(
            ctx.sub(ONE, ctx.mul(z.re, r)),
            ctx.neg(ctx.mul(z.im, r)),
        )
        acc = ctx.mul(acc, ctx.div(C_ONE, factor))
    return acc


def residual(
    n: int,
    s: int,
    chi: DirichletCharacter,
    ctx: Optional[PrecisionContext] = None,
) -> BigComplex:
    """Partial sum up to 2 p_n - 1 minus the n-prime Euler product.

    Computed under ``required_precision(n, s, chi)`` unless an explicit
    context is supplied (a larger one is useful for precision-stability
    checks).
    """
    _check_n_s(n, s)
    if ctx is None:
        ctx = required_precision(n, s, chi)
    J = 2 * primes.nth_prime(n) - 1
    return ctx.sub(l_partial_sum(chi, s, J, ctx), euler_product(chi, s, n, ctx))


def scaled_residual(n: int, s: int, chi: DirichletCharacter) -> BigComplex:
    """residual * p_{n+1}**s; converges to chi(p_{n+1}) as s grows."""
    _check_n_s(n, s)
    ctx = required_precision(n, s, chi)
    target = primes.nth_prime(n + 1)
    r = residual(n, s, chi, ctx=ctx)
    scale = ctx.from_int(target**s)
    return BigComplex(ctx.mul(r.re, scale), ctx.mul(r.im, scale))


def _finish(ctx: PrecisionContext, mag: BigFloat, s: int, target: int):
    """(estimate, rounded, error, margin) from |residual| under ``ctx``."""
    est = ctx.inv_root(mag, s)
    rounded = nearest_int(est)
    error = ctx.abs(ctx.sub(ctx.from_int(target), est))
    margin = ctx.abs(ctx.sub(est, ctx.from_int(rounded)))
    return est, rounded, error, margin


def estimate(
    n: int,
    s: int,
    chi: DirichletCharacter,
    prec_bits: Optional[int] = None,
) -> EstimateResult:
    """|residual|**(-1/s) with rounding, target comparison and diagnostics.

    ``prec_bits`` may override the automatic precision upward only; an
    override below ``required_precision`` is rejected with an explanation.
    A zero character value at the target prime yields a warning on the
    result rather than an exception, so sweeps keep their rows.  The
    residual is computed at the working precision (reported as
    ``prec_bits``); the rest at the width that survives the cancellation,
    as the module docstring describes.
    """
    req, terms = _sizing(n, s, chi)
    if prec_bits is None:
        ctx = req
    else:
        if prec_bits < req.prec_bits:
            raise DomainError(
                f"precision override of {prec_bits} bits is below the "
                f"{req.prec_bits} bits required for n={n}, s={s}"
            )
        ctx = PrecisionContext(prec_bits)
    target = primes.nth_prime(n + 1)
    warning = None
    if chi(target).is_zero:
        warning = (
            f"character (modulus {chi.modulus}, label {chi.label}) vanishes at "
            f"the target prime {target}; the limit degenerates away from it"
        )
    r = residual(n, s, chi, ctx=ctx)
    mag = ctx.complex_abs(r)
    if mag.is_zero:
        raise PrecisionLossError(
            f"residual vanished at working precision ({ctx.prec_bits} bits) "
            f"for n={n}, s={s}; retry with a larger prec_bits (--precision)"
        )
    if len(terms) == 1:
        # the residual is exactly chi(m1) * m1**-s
        m1 = terms[0]
        est, rounded, error, margin = ctx.from_int(m1), m1, ctx.from_int(abs(target - m1)), ZERO
    else:
        width = min(max(ctx.prec_bits + _top(mag) + 64, 64), ctx.prec_bits)
        est, rounded, error, margin = _finish(PrecisionContext(width), mag, s, target)
        if width < ctx.prec_bits and any(
            x.is_zero or _top(est) - _top(x) > width - 64 for x in (error, margin)
        ):
            est, rounded, error, margin = _finish(ctx, mag, s, target)
    return EstimateResult(
        n=n,
        s=s,
        modulus=chi.modulus,
        label=chi.label,
        residual=r,
        estimate=est,
        rounded=rounded,
        target=target,
        error=error,
        margin=margin,
        prec_bits=ctx.prec_bits,
        warning=warning,
    )

