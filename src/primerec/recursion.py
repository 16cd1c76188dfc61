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
   surviving bits plus 64, clamped to ``[64, P]``.  The estimate is
   ``m1 * u**(-1/(2s))`` with ``u = |residual|**2 * m1**(2s)``, so no
   square root is needed, and ``_chain`` computes it in one pass over
   fixed-point integers at ``F = width + 160`` fractional bits, with one
   binomial series and no ln or exp: ``m1**(2s)`` by binary powering
   (``_fp_pow``), each square truncated to ``G = F + g`` bits (g the
   bit length of 2s); u as its product with ``|residual|**2``, both
   truncated to G bits; a 53-bit dyadic seed ``c = cm * 2**q`` near
   ``u**(-1/(2s))`` from the double of u's leading bits and its binary
   exponent, which doubles cannot overflow (``_seed``); ``c**(2s)`` powered
   like ``m1**(2s)`` and ``d = u * c**(2s) - 1`` truncated to
   ``H = G + log2(G)`` bits; then ``(1 + d)**(-1/(2s))`` by its binomial
   series (``_binomial``), each term one product, one small-integer
   multiply and one truncating division, and ``m1 * c`` times the sum
   truncated to F bits.  With a libm within an ulp the seed leaves ``|d|``
   about ``2s * 2**-53``, so each term gains about ``53 - log2(2s)`` bits;
   when c rounds to 1 (u within about ``2**-53`` of 1) the seed is skipped
   and ``d = u - 1``, about ``(m1/m2)**s``.  Where that leaves more series
   terms than a power takes squarings, the chain refines its seed by
   precision doubling: c becomes the chain's own root of u, scaled by a
   power of 2 into about ``[1, 2)``, at ``F / 2 + 32`` bits (itself
   refined the same way), which leaves ``|d|`` under about
   ``12 s * 2**-(F/2 + 32)``, and the series ends in a few terms.  This is
   the argument reduction of Brent & Zimmermann, *Modern Computer
   Arithmetic*, ch. 4.  The error and margin are the exact integer
   differences ``|target - estimate|`` and ``|estimate - rounded|`` at the
   scale of the rounded estimate's mantissa, each rounded once.
   The chain cannot lose a bit the residual determines at P.  The residual
   resolves only about ``W + log2|residual| - log2(radius)`` bits relative
   (its radius below, at least 30 units of ``2**-W``), under
   ``width + 44`` where the width is not clamped to P.  In units of
   ``2**-F`` relative: the power's ``g - 1`` truncations, each doubled by
   the squarings after it, leave ``m1**(2s)`` within 2 units, the two
   truncations of u add 1, ``c**(2s)`` adds 2 and d's truncation under
   ``2**-7``; the root divides those by 2s, to at most 2.51 units.  Each
   series term is within 2 units of ``2**-H`` plus ``|d|`` times the
   previous term's error, and for any ``|d| <= 1/2`` there are at most
   ``H + 1`` terms, under 1.5 units of ``2**-F`` relative in all; and the
   final truncation adds one unit absolute, ``u**(1/(2s)) / m1`` relative.
   So ``m1 * c`` times the sum is within ``4 + u**(1/(2s)) / m1`` units
   for any seed that leaves ``|d| <= 1/2``, the double's or the refined
   one (a poorer libm only runs more terms or refines more often), and
   below 5 where the estimate is at least 1 (whenever
   ``|residual| <= 1``).  After the rounding the estimate is then within
   ``2**-(width + 95)`` relative: more than 50 bits below the last bit the
   residual resolves.  Running the chain at ``P`` could only re-derive
   bits the residual does not determine.

Taking ``|residual| ** (-1/s)`` then lands within a shrinking distance of
the next prime ``p_{n+1}`` as s grows, provided ``chi(p_{n+1}) != 0`` (when
the next prime divides the modulus the limit degenerates; the result is
flagged, not rejected).

The sum and the product run in fixed point, on integers scaled by
``2**W`` with ``W = P + 96 + 16``, in one pass over j (``_kernels``).  The
product's primes are among the sum's indices, so each ``2**W // j**s`` is
taken once, exactly: it is added into one total per character value and,
when j is a prime ``p <= p_n``, multiplied into the running product as the
factor ``1 - x`` with ``x = chi(p) * (2**W // p**s)``.  The pass reads its
quotients from one table (``_Quotients``) at a scale ``2**W*``, ``W* >= W``:
``q[j] = 2**W* // j**s`` for every j up to L where ``chi(j) != 0`` (0 for
the other j), L the longest sum J or the last index whose table fits in
``_ROUTE_BYTES`` (16 MiB).  For integers ``a >= 0`` and ``b, c >= 1``,
``(a // b) // c = a // (b c)`` (Brent & Zimmermann, *Modern Computer
Arithmetic*, ch. 1.4), so the pass takes ``2**W // j**s`` as
``q[j] >> (W* - W)``, a shift.  The walk makes each entry as it reads it:
on a new table, or for an s below the table's, it fills q[j] in ascending
j, each composite ``j = p m``, p its least prime factor (sieved as the walk
starts and dropped after it), taking ``q[m] // p**s``, or ``q[m] >> s`` for
p = 2: no power, and one division of the cofactor's ``W* - s log2 m`` bits
by the ``s log2 p`` of ``p**s`` (chi(m) and chi(p) are nonzero wherever
chi(j) is).  1 and 2 take a shift, and every other prime divides ``2**W*``
by ``j**s``.  For a higher s than the table's t it advances each q[j],
j >= 2, to ``(2**W* // j**t) // j**(s - t)``, one division by the short
``j**(s - t)``.  A lone pass fills a table of its own at its W.  The passes
of a series (``estimate_series``, below) share one, at the width W* of
their widest pass, and each walks every j up to its L, so every kernel
integer, and every ball, is that of the lone pass.  The table lives in its
pass or its series (``_Series``) and no longer.  Past L, j divides
``2**W`` by ``j**s``.  For a divisor ``y = j**s`` of d bits the quotient
has about ``W - d``, and where that is short only y's top bits take part,
as in floating-point division (Brent & Zimmermann, *Modern Computer
Arithmetic*, ch. 1.4 and 3).  Each
such floor ``u // v`` (v > 0, u of either sign), here and in the residual
below, is one ``_quotient``: with ``q = max(1, bits(u) - bits(v) + 1)``,
at least the quotient's bit count, ``sh = bits(v) - q - 40``,
``Y = v >> sh`` (v's top ``q + 40`` bits) and
``t, r = divmod(|u| >> sh, Y)``, so ``0 <= r <= Y - 1``.  Since
``Y 2**sh <= v < (Y + 1) 2**sh`` and ``|u| >> sh`` is ``|u| / 2**sh``
floored, ``|u| / v`` is below ``(t Y + r + 1) / Y <= t + 1`` and, for
u != 0, above ``(t Y + r) / (Y + 1)``, which is at least t where
``t <= r``.  There the quotient lies strictly between t and t + 1, and the
floor is t, or ``-t - 1`` for u < 0 (0 for u = 0).  Where ``t > r``,
about once in ``2**40`` quotients at random (t has at most q bits, Y
``q + 40``) though such u and v can be constructed, and where ``sh <= 0``
(a long quotient), u is divided in full, and so is every quotient below
W = ``_SHORT_QUOTIENT_BITS``, where the full division costs less.  Every
quotient is thus exact, ``2**W // j**s`` for the kernels (0 where
``j**s > 2**W``), and the bounds below are those of the full division.
The sum multiplies each total by its root once.  Roots of unity come
from ``mpnum.fixed_root`` at the same scale, each component truncated
and within 2 units of ``2**-W`` (1 is exact; for chi(p) = +-1, x is plus
or minus the quotient itself).
Every rounding truncates toward zero, so conjugate characters give
bit-conjugate results; a truncation by ``2**W`` is a signed shift.  x has
only the quotient's ``W - s log2 p`` bits, and the running product ``z``
stays within about ``2**-s`` of 1, so its deficit ``2**W - z`` has about
``W - s`` bits: each factor is taken as ``z 2**W - z x``, formed as
``(z - x) 2**W + (2**W - z) x`` and truncated by ``2**W``, the integer of
``z (2**W - x)`` truncated, at a product of the deficit's bits by the
quotient's instead of W by the quotient's (component by component for a
complex z); it starts at its first factor.  Besides the quotients only
the residual divides, once per component.  The product's inverse is
``trunc(N / den)`` with ``N = +-2**(2W)`` and ``den = |a|`` for a real
product ``a`` (imaginary part 0, as with every real character), since
``a 2**(2W) / a**2`` is exactly ``2**(2W) / a``, or with
``N = a 2**(2W)`` (real part) and ``N = -b 2**(2W)`` (imaginary) and
``den = a**2 + b**2`` for a complex one ``a + i b``.  The sum's component
S minus it is ``-((N - S den) // den)`` when ``N >= 0`` and
``(S den - N) // den`` otherwise, exactly, since S is an integer.  The
sum and the product agree to about ``s log2 m1`` bits, so that quotient
has about ``W - s log2 m1``, and ``_quotient`` takes it from den's top
bits.  For a real product ``N - S den`` is ``+-(2**(2W) - S a)``, the
sign that of a, and with the deficits ``e = S - 2**W`` and
``d = 2**W - a`` from 2**W, each of about ``W - s`` bits,
``2**(2W) - S a = 2**W (d - e) + e d``: one product of the deficits
replaces a W-by-W product, and the short quotient a division by all of
den's W bits.  A complex product forms ``N - S den`` in full, W bits by
2W, then divides short (Brent & Zimmermann, *Modern Computer Arithmetic*,
ch. 1.4 and 3.3).  ``euler_product`` takes the same route with S = 0.
Each component of the sum is within ``J + c + 2 + 2 ln J`` units of
``2**-W``: J from the terms, one truncation for each of the ``c`` values of
chi other than 1 on 1..J, and 2 units of root error per unit of class
total, the totals summing to at most ``1 + ln J``.  For the product, when
``s >= 2``, it is within ``20 n + 2``: each factor is within 3.2 units (1
from ``2**W // p**s``, ``2 sqrt 2 / p**s`` from the root, ``sqrt 2`` from
truncation), the partial products stay below ``zeta(2) / zeta(4) < 1.52``
in magnitude, each product truncates by ``sqrt 2``, and the inversion
scales the error by at most ``zeta(2)**2 < 2.71`` and truncates once more.
At s = 1 each factor is within 3.9 units, and the partial products stay
below ``prod_{p <= p_n} p / (p - 1)``, at most ``prod_{k=2}^{p_n} k / (k -
1) = p_n``, whose square bounds the inversion's scale: within ``(20 n + 2)
p_n**3``.

The estimates of several n at one s (``estimate_many``) share that one
pass, run at one W: the widest of their precisions.  Each cell closes
where its indices end, a sum cell at its J (the totals rotated) and a
product cell at its n-th prime (the running product, which the
residual's division inverts), so each cell is, bit for bit, the one-cell
loop at the pass's W, within the bounds above.  A narrower n thus gets
low bits past those ``estimate`` computes for it alone, and its chain, run
at the width its own P leaves, does not use them.  The pass is checked
against the cost cap as a whole: the longest cell at the pass's
precision.

The passes of ascending s at the same n (``estimate_series``, one
``estimate_many`` per s) are sized and checked, every cell and every pass,
before any kernel runs (``_size_series``), so a series refused at some s is
refused at once, with the error the loop over s would raise first.  They
then share one quotient table, each pass walking all of it, as above.

So every residual, of one cell or of a shared pass, is a ball
(midpoint-radius arithmetic: van der Hoeven, *Ball arithmetic*, 2009;
Johansson, *Arb*, IEEE Trans. Comput. 66(8), 2017): the exact difference
``(re, im)`` of the kernels' integers at scale ``2**W``, each component
within ``radius = ceil(J + c + 2 + 2 ln J) + 20 n + 2`` units of ``2**-W``
of the exact residual's (the product's part times ``p_n**3`` at s = 1).
``estimate`` raises ``PrecisionLossError`` when the ball contains 0, that
is when both components lie within the radius.  BigFloats appear only
where a value leaves the library: ``EstimateResult``'s fields and what
``l_partial_sum``, ``euler_product`` and ``residual`` return, each
component rounded once from its integer.

Exponent s is restricted to positive integers; s = 1 is accepted but of
dubious value for the trivial character (the harmonic-like partial sum has
no limit to track).

Below its entries every function takes the known primes, a tuple ``ps``
with ``ps[:n] = p_1..p_n``, and reads no prime table; each entry reads it
once, up to ``p_{n+1}`` where it compares with the target.  The entries are
the public functions but the estimates, and ``_size_series``, which sizes
every estimate, of one cell or a series, and which ``analysis`` calls too.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice
from typing import NamedTuple, Optional

from . import primes
from .characters import DirichletCharacter, keller_one
from .errors import DomainError, PrecisionLossError, UnsupportedSizeError, ZeroResidualError
from .mpnum import (
    GUARD_BITS,
    BigComplex,
    BigFloat,
    ZERO,
    PrecisionContext,
    _first_octant,
    fixed_root,
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
    "estimate_many",
    "estimate_series",
    "MAX_KERNEL_COST",
]

# A residual's kernel takes 2**W // j**s for J = 2 p_n - 1 values of j, at
# W = P + 112 bits.  The projection charges each a W-by-W schoolbook
# division, c * W**2 with c ~ 0.8e-12 s per bit**2 on a 2-vCPU x86 machine
# (the Euler product's per-prime work included), c * J * W**2 in all.  That
# over-counts: a quotient of q bits by a d-bit divisor (q + d = W) costs
# about q * d, and one taken from the divisor's top q + 40 bits
# (``_quotient``) about q**2.  A kernel pass (``_residuals``) refuses a
# projected (J + _INVERSION_WEIGHT) * W**2, plus the computed roots' cost
# below, above this cap (about 80 s there), and so does an estimate's
# sizing (``_sizing``): the chain after the kernels costs a few W-bit
# products at any width (see ``_chain``).
MAX_KERNEL_COST = 10**14
# The weight is that of inverting the Euler product in full, whatever n is:
# for a complex product a 3W-bit by 2W-bit division per component.  On the
# same machine, at W = 400k bits, ``euler_product`` (which still inverts in
# full) took 14.5 units of c * W**2 at n = 1 with chi(2) = i mod 5 (two
# divisions): about 7 units each, 14 for both.  A residual divides once per
# component, a short quotient from the divisor's top bits after one product
# of the deficits from 2**W (W by 2W for a complex product), and the prime
# quotients come from the L-sum, so the weight over-counts: the residual of
# n = 2, s = 300000 with the trivial character (J = 5, W = 776k) took
# 0.19-0.20 s, 0.40-0.41 units (0.31-0.32 s with a W-by-W product and a
# division by all of the product's W bits), where (J + 14) * W**2 projects
# 19.
_INVERSION_WEIGHT = 14
# ``fixed_root`` computes a root of unity of order m not dividing 4 by the
# sine's Taylor series at W bits, once per W for each first-octant angle the
# values of chi on 1..J fold to (the L-sum and the product share it, and so
# do a value and its conjugate).  One root of order 3, 6 or 7 took 775-1089
# units of c * W**2 at W = 50k bits and 1343-1460 at 100k, and 504-695 at
# 25k: under 5 * W**2.5.
_ROOT_WEIGHT = 5
# The least W at which ``_quotient`` takes a short quotient from the
# divisor's top bits, in the kernels and the residual: per j of a
# slopes-like pass (j <= 225), the route cost +0% at W = 1224 against the
# full division and -4% at 1420, and 12-29% more at W = 600-900 (CPython
# 3.11, 2-vCPU x86).
_SHORT_QUOTIENT_BITS = 1400
# The bytes of a quotient table (``_Quotients``), up to the last index that
# fits, projected at 60 + W // 7 per index (``_index_bytes``): a quotient of
# at most W + 1 bits takes under 28 + 4 W / 30 bytes (30-bit digits), its
# list slot 8 and the fill's least-factor sieve about 12 more while it runs.
# Under tracemalloc a fill at s = 2 with chi(j) != 0 for every j peaked at
# 48, 72, 172, 705, 4042 and 13385 bytes per index at W = 64, 256, 1000,
# 5000, 30000 and 100000 (CPython 3.11), 0.70-0.93 of the projection.  The
# table reaches every j of the bench's passes (J up to 225) and of the
# (n, s) = (150, 2765) estimate at 40000 bits (J = 1725, W = 40112, L up to
# 2897); past it the j divide 2**W by j**s.  Unbounded, it would take about
# 190 MB at (n, s) = (100000, 2) (J = 2.6M) and pass 1 GB near the prime
# table's cap (J = 3.1e7).
_ROUTE_BYTES = 1 << 24
# (primes, modulus, label) whose sizing facts (``_cell_facts``) are kept: a
# ``slopes`` run visits 29 prime lists for one character, a ``dtable`` one per cell.
_CACHED_CELLS = 256


class EstimateResult(NamedTuple):
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


def _check_n_s(n: int, s: int, name: str = "n") -> None:
    for what, v in ((name, n), ("s", s)):
        if not isinstance(v, int) or v < 1:
            raise DomainError(f"{what} must be a positive integer, got {v!r}")


def _cofactor(m: int, ps: tuple) -> int:
    """What is left of m after dividing out the primes of ``ps`` (ascending)
    up to the square root of what is left: m itself when none divides it."""
    for p in ps:
        if p * p > m:
            break
        while m % p == 0:
            m //= p
    return m


def _tail_terms(ps: tuple, chi: DirichletCharacter):
    """Ascending residual tail terms m with chi(m) != 0, for ``ps`` = p_1..p_n.

    The primes in (p_n, 2 p_n), then the p_n-smooth m >= 2 p_n; the second
    part is empty when chi vanishes at every prime up to p_n.  Both are
    found with the first n primes alone: a composite below ``2 p_n <=
    p_n**2`` has a factor up to p_n, so a q there is prime when none
    divides it, and an m is smooth when its cofactor is at most p_n.
    """
    p = ps[-1]
    for q in range(p + 1, 2 * p):
        if not chi(q).is_zero and _cofactor(q, ps) == q:
            yield q
    if all(chi(q).is_zero for q in ps):
        return
    m = 2 * p
    while True:
        if not chi(m).is_zero and _cofactor(m, ps) <= p:
            yield m
        m += 1


class _Facts(NamedTuple):
    """What the sizing, the cost guard and the radius know of (n, chi) before s."""

    J: int  # 2 p_n - 1, the L-sum's last index
    terms: tuple  # the first two of ``_tail_terms(ps, chi)``
    num: int  # the base of ``required_precision`` is num / den
    den: int
    roots: int  # first-octant angles the kernels compute a root of unity for
    sum_units: int  # ceil(J + c + 2 + 2 ln J), the L-sum's part of the radius


@lru_cache(maxsize=_CACHED_CELLS)
def _cell_facts(ps: tuple, chi: DirichletCharacter) -> _Facts:
    """``_Facts`` of ``ps`` = p_1..p_n and chi.

    None of them depends on s, so a series over s finds them once.  A
    character hashes as its (modulus, label), not its whole table.
    """
    p = ps[-1]
    J = 2 * p - 1
    terms = tuple(islice(_tail_terms(ps, chi), 2))
    # the base as num / den, den = 1 unless it is m2**2 / m1
    num, den = 2 * p, 1
    if len(terms) == 2:
        m1, m2 = terms
        quarter_turn = chi(m2).mul(chi(m1).conjugate()).m == 4
        other = (m2 * m2, m1) if quarter_turn else (m2, 1)
        if other[0] * den > num * other[1]:
            num, den = other
    values, roots = _values(chi, J)
    c = len(values) - 1
    return _Facts(J, terms, num, den, roots, math.ceil(J + c + 2 + 2 * math.log(J)))


def _values(chi: DirichletCharacter, J: int) -> tuple:
    """(chi's distinct nonzero values on 1..J as ``(a, m)``, how many roots
    of unity the kernels compute for them): one per folded angle, none for
    the values of order dividing 4, which are exact."""
    values = {(v.a, v.m) for v in chi.table[: J + 1] if not v.is_zero}
    return values, len({_first_octant(a, m)[:2] for a, m in values if 4 % m})


def _check_cost(what: str, J: int, bits: int, roots: int) -> None:
    """Refuse ``what`` at ``bits`` of precision when the projected cost
    exceeds the cap.

    Kernels that walk j up to J cost (J + _INVERSION_WEIGHT) * W**2, plus
    ``_ROOT_WEIGHT * W**2.5`` for each of the ``roots`` roots of unity they
    compute: one per first-octant angle (``mpnum._first_octant``) other
    than 0, that is per angle of the values whose order does not divide 4.
    """
    W = _kernel_bits(bits)
    kernel = (J + _INVERSION_WEIGHT) * W**2
    root_cost = roots * _ROOT_WEIGHT * W**2 * math.isqrt(W)
    if kernel + root_cost > MAX_KERNEL_COST:
        raise UnsupportedSizeError(
            f"{what} at {bits} bits projects a kernel cost "
            f"(J + {_INVERSION_WEIGHT})*W**2 = {kernel:.2e} plus {roots} computed roots of unity "
            f"at {_ROOT_WEIGHT}*W**2.5 = {root_cost:.2e} bit**2, "
            f"above the cap of {MAX_KERNEL_COST:.0e}"
        )


def _sizing(n: int, s: int, facts: _Facts, prec_bits: Optional[int] = None) -> PrecisionContext:
    """The (n, s) estimate's working precision, from its ``_Facts``.

    The precision is ``required_precision(n, s, chi)``, or ``prec_bits``,
    which may only raise it.  The estimate's cost is checked once, at the
    larger of the override and ``ceil(s * log2(base)) - 1`` in floating
    point (a lower bound on the required bits), before the base is raised
    to the s-th power: its kernels and roots at J = 2 p_n - 1.  The power
    is taken only where ``s * log2(base)`` lies within ``2**-20`` of an
    integer; elsewhere its ceiling is the bit length the power would give.
    """
    if s > MAX_KERNEL_COST:
        # J >= 3 and W > 2 s, so the kernels alone cost more than 12 s**2;
        # refused before s meets floating point, which it may overflow
        raise UnsupportedSizeError(
            f"n={n}, s={s} projects a kernel cost above 12*s**2 bit**2, "
            f"far above the cap of {MAX_KERNEL_COST:.0e}"
        )
    num, den = facts.num, facts.den
    if prec_bits is not None and not isinstance(prec_bits, int):
        raise DomainError(f"prec_bits must be an integer, got {prec_bits!r}")
    t = s * math.log2(num / den)
    bits = max(64, math.ceil(t) - 1 + 96, prec_bits or 0)
    _check_cost(f"n={n}, s={s}", facts.J, bits, facts.roots)
    if abs(t - round(t)) > 2**-20:
        # base**s lies strictly between 2**(ceil(t) - 1) and 2**ceil(t), so
        # ceil(base**s) - 1 has ceil(t) bits: where the cost check passes t
        # is under 2**22, within 2**-28 of s log2(base)
        top = math.ceil(t)
    else:
        # ceil(base**s) - 1 in integers
        top = (num**s - 1 if den == 1 else -(-(num**s) // den**s) - 1).bit_length()
    required = max(64, top + 96)
    if prec_bits is not None and prec_bits < required:
        raise DomainError(
            f"precision override of {prec_bits} bits is below the "
            f"{required} bits required for n={n}, s={s}"
        )
    return PrecisionContext(prec_bits or required)


def required_precision(
    n: int, s: int, chi: Optional[DirichletCharacter] = None
) -> PrecisionContext:
    """Working precision for the (n, s) residual: ceil(s*log2(base)) + 96 bits.

    The sum and product are O(1) but agree to about p_{n+1}**-s, which is
    larger than (2 p_n)**-s; the allowance keeps >= 96 significant bits of
    the residual.  The base is set by chi's first two tail terms m1 < m2
    with chi(m) != 0: ``max(2 p_n, m2)``, or ``max(2 p_n, m2**2 / m1)`` when
    chi(m2)/chi(m1) = +-i (see the module docstring); 2 p_n with fewer than
    two such terms.  ``chi`` defaults to the trivial character, whose m2 is
    at most 2 p_n.  Never below the 64-bit context floor.  Raises
    ``UnsupportedSizeError`` when the estimate's projected cost exceeds
    ``MAX_KERNEL_COST`` (see ``estimate``).
    """
    _check_n_s(n, s)
    chi = keller_one() if chi is None else chi
    return _sizing(n, s, _cell_facts(tuple(primes.first_n_primes(n)), chi))


def _shr(v: int, bits: int) -> int:
    """v / 2**bits rounded toward zero, so that negating v negates the result."""
    return v >> bits if v >= 0 else -(-v >> bits)


def _quotient(u: int, v: int, W: int) -> int:
    """``u // v`` (v > 0), exactly, in a pass at scale ``2**W``.

    From W = ``_SHORT_QUOTIENT_BITS`` on, where the quotient is short, from
    v's top ``q + 40`` bits Y, ``q = max(1, bits(u) - bits(v) + 1)``
    bounding the quotient's bits: with ``t, r = divmod(|u| >> sh, Y)``,
    where ``t <= r`` the exact ``|u| / v`` lies strictly between t and
    t + 1, so the floor is t, or ``-t - 1`` for u < 0 (see the module
    docstring).  Elsewhere, and below that width, u is divided in full.
    """
    if W >= _SHORT_QUOTIENT_BITS:
        m, d = abs(u), v.bit_length()
        sh = d - max(1, m.bit_length() - d + 1) - 40
        if sh > 0:
            t, r = divmod(m >> sh, v >> sh)
            if t <= r:
                return t if u >= 0 else -t - 1
    return u // v


def _minus_inverse(a: int, b: int, product: tuple, W: int) -> tuple:
    """``(a, b)`` minus the inverse of the fixed-point ``product`` at scale
    ``2**W``, each component of the inverse truncated toward zero.

    For ``product = (pr, pi)`` the inverse is ``(pr, -pi) 2**(2W) / den``
    with ``den = pr**2 + pi**2``, or ``+-2**(2W) / |pr|`` when pi = 0.  A
    component c less ``trunc(N / den)`` is ``-((N - c den) // den)`` for
    ``N >= 0`` and ``(c den - N) // den`` otherwise, each one ``_quotient``.
    For a real product ``N - a den`` is ``+-(2**(2W) - a pr)``, the sign
    that of pr, formed from the deficits ``e = a - 2**W`` and
    ``d = 2**W - pr`` as ``2**W (d - e) + e d``.
    """
    pr, pi = product
    if pi:
        den = pr * pr + pi * pi
        re, im = (pr << 2 * W) - a * den, (-pi << 2 * W) - b * den
        return (
            -_quotient(re, den, W) if pr >= 0 else _quotient(-re, den, W),
            -_quotient(im, den, W) if pi < 0 else _quotient(-im, den, W),
        )
    e, d = a - (1 << W), (1 << W) - pr
    q = _quotient(((d - e) << W) + e * d, abs(pr), W)
    return (-q if pr > 0 else q), b


def _kernel_bits(bits: int) -> int:
    """W, the kernels' fixed-point scale: 16 guard bits past a context's of ``bits``."""
    return bits + GUARD_BITS + 16


def _to_complex(ctx: PrecisionContext, value: tuple, W: int) -> BigComplex:
    """The fixed-point pair ``value`` scaled by ``2**-W``, each component rounded to ``ctx``."""
    return BigComplex(ctx.from_fixed(value[0], W), ctx.from_fixed(value[1], W))


def l_partial_sum(
    chi: DirichletCharacter, s: int, J: int, ctx: PrecisionContext
) -> BigComplex:
    """sum_{j=1}^{J} chi(j) / j**s in fixed point (see the module docstring).

    Refused with ``UnsupportedSizeError`` before any arithmetic where a
    residual with this J would be (see ``residual``).
    """
    _check_n_s(J, s, "J")
    _check_cost(f"J={J}, s={s}", J, ctx.prec_bits, _values(chi, J)[1])
    W = _kernel_bits(ctx.prec_bits)
    return _to_complex(ctx, _kernels(chi, s, W, (), [J], [])[0][0], W)


def euler_product(
    chi: DirichletCharacter, s: int, n: int, ctx: PrecisionContext
) -> BigComplex:
    """prod over the first n primes of (1 - chi(p)/p**s)**-1, in fixed point.

    A vanishing chi(p) contributes a factor of exactly 1 and is skipped.
    Refused with ``UnsupportedSizeError`` before any arithmetic where
    ``residual(n, s, chi, ctx)`` would be.
    """
    _check_n_s(n, s)
    ps = tuple(primes.first_n_primes(n))
    facts = _cell_facts(ps, chi)
    _check_cost(f"n={n}, s={s}", facts.J, ctx.prec_bits, facts.roots)
    W = _kernel_bits(ctx.prec_bits)
    re, im = _minus_inverse(0, 0, _kernels(chi, s, W, ps, [], [n])[1][0], W)
    return _to_complex(ctx, (-re, -im), W)


def _index_bytes(W: int) -> int:
    """The bytes a ``_Quotients`` at scale ``2**W`` projects per index
    (``_ROUTE_BYTES``)."""
    return 60 + W // 7


class _Quotients:
    """``q[j] = 2**W // j**s`` for every j up to L where chi(j) != 0, and 0
    for the other j: the quotients of a kernel pass at scale ``2**W``, or of
    a series of passes at the widest pass's.

    L is the longest sum J, or the last index whose table fits in
    ``_ROUTE_BYTES``; s is None until a pass walks the table.  ``_kernels``
    fills or advances it in its walk, so only passes that walk every j up
    to L, for one character, may share it (see the module docstring).
    """

    __slots__ = ("W", "L", "s", "q")

    def __init__(self, W: int, J: int):
        self.W, self.L, self.s = W, min(J, _ROUTE_BYTES // _index_bytes(W)), None
        self.q = [0] * (self.L + 1)


def _kernels(
    chi: DirichletCharacter, s: int, W: int, ps: tuple, sums: list, products: list, table: Optional[_Quotients] = None
) -> tuple:
    """The L-sum to J for every J in ``sums`` and the running product
    ``prod (1 - chi(p)/p**s)`` over ``ps[:n]`` for every n in ``products``,
    not inverted (``_minus_inverse`` divides), each a fixed-point
    ``(re, im)`` at scale ``2**W``, in one pass over j.

    The pass takes each ``2**W // j**s`` once, exactly: up to the table's L
    as ``q[j] >> (W* - W)``, the same floor, from ``table`` (a series'
    ``_Quotients`` at its widest W*) or, when none is given, from one of its
    own at W over the longest sum, each entry filled or advanced to s as the
    walk reads it; past L in one ``_quotient`` of ``2**W`` by ``j**s``.  It
    adds the quotient to the total of chi(j) and, where j is the next of the
    products' primes with chi(p) != 0, multiplies its factor ``1 - x`` into
    the running product z as ``(z - x) 2**W + (2**W - z) x``, z's deficit
    from ``2**W`` by the quotient's bits, truncated by ``2**W``.  It walks
    every j up to the longest sum, then only the primes past it.  The totals
    are rotated at each sum's J and the product is taken at each product's
    n-th prime, so every cell is its one-cell loop bit for bit.
    """
    one = 1 << W
    last_sum = max(sums, default=0)
    if table is None:
        table = _Quotients(W, last_sum)
    q, L, shift = table.q, table.L, table.W - W
    ps = ps[: max(products, default=0)]
    # every j up to the longest sum, then only the products' primes past it
    walk = range(1, last_sum + 1)
    if ps and ps[-1] > last_sum:
        walk = [*walk, *(p for p in ps if p > last_sum)]
    k = chi.modulus
    # class of chi(r) for every residue r the pass reaches; -1 where chi vanishes
    roots, cls = {}, []
    for v in chi.table[: walk[-1] + 1]:
        cls.append(-1 if v.is_zero else roots.setdefault((v.a, v.m), len(roots)))
    values = list(roots)
    # the products' primes whose factor is not 1, in ascending order
    factors = (p for p in ps if cls[p % k] >= 0)
    factor = next(factors, 0)
    fill = table.s is None or s < table.s
    if fill:
        top, powers = 1 << table.W, {}
        # the least prime factor of each composite j <= L (0 for the other
        # j): the last of the d <= sqrt(j) dividing j to mark it, the largest
        # first, is the least
        least = [0] * (L + 1)
        for d in range(math.isqrt(L), 1, -1):
            least[d * d :: d] = [d] * ((L - d * d) // d + 1)
    else:
        step = s - table.s
    table.s = s
    # each cell's value, keyed by the j it closes at
    sum_at, product_at = dict.fromkeys(sums), dict.fromkeys(ps[n - 1] for n in products)
    totals = [0] * len(roots)
    # the running product, from its first factor on
    pr = pi = None
    for j in walk:
        c = cls[j % k]
        if c >= 0:
            if j > L:
                x = _quotient(one, j**s, W)
            else:
                if fill:
                    p = least[j]
                    if p:
                        # 2**W* // (m**s p**s) = (2**W* // m**s) // p**s, exactly
                        q[j] = q[j // p] >> s if p == 2 else q[j // p] // powers[p]
                    elif j <= 2:
                        # 2**W* // 2**((j - 1) s), a shift
                        q[j] = top >> (j - 1) * s
                    else:
                        y = j**s
                        q[j] = _quotient(top, y, table.W)
                        if j * j <= L:
                            powers[j] = y
                elif j > 1:
                    # 2**W* // j**s = (2**W* // j**t) // j**(s - t), exactly
                    q[j] //= j**step
                # 2**W // j**s = (2**W* // j**s) >> (W* - W), exactly
                x = q[j] >> shift
            totals[c] += x
            if j == factor:
                factor = next(factors, 0)
                # the factor is one - (xr + i xi), xr + i xi = chi(p) x
                a, m = values[c]
                if m <= 2:
                    xr, xi = (-x if a else x), 0
                else:
                    cos, sin = fixed_root(a, m, W)
                    xr, xi = _shr(x * cos, W), _shr(x * sin, W)
                if pr is None:
                    pr, pi = one - xr, -xi
                elif pi or xi:
                    d = one - pr
                    pr, pi = (
                        _shr(((pr - xr) << W) + d * xr + pi * xi, W),
                        _shr(((pi - xi) << W) + d * xi - pi * xr, W),
                    )
                else:
                    pr = _shr(((pr - xr) << W) + (one - pr) * xr, W)
        if j in sum_at:
            re = im = 0
            for (a, m), total in zip(values, totals):
                if a == 0:
                    re += total
                elif total:
                    cos, sin = fixed_root(a, m, W)
                    re += _shr(total * cos, W)
                    im += _shr(total * sin, W)
            sum_at[j] = re, im
        if j in product_at:
            product_at[j] = (one, 0) if pr is None else (pr, pi)
    return [sum_at[J] for J in sums], [product_at[ps[n - 1]] for n in products]


def residual(
    n: int, s: int, chi: DirichletCharacter, ctx: Optional[PrecisionContext] = None
) -> BigComplex:
    """Partial sum up to 2 p_n - 1 minus the n-prime Euler product.

    Computed under ``required_precision(n, s, chi)`` unless an explicit
    context is supplied (a larger one is useful for precision-stability
    checks).  ``_residuals`` refuses the pass at the context's precision
    (see there) with ``UnsupportedSizeError`` before the kernels run.
    """
    _check_n_s(n, s)
    return _residual(tuple(primes.first_n_primes(n)), n, s, chi, ctx)[1]


def _residual(ps: tuple, n: int, s: int, chi: DirichletCharacter, ctx: Optional[PrecisionContext]) -> tuple:
    """``(ctx, residual)`` of the first n primes of ``ps``, at ``ctx`` or, when it
    is None, at ``required_precision``; the pass checked first (``_check_pass``)."""
    facts = [_cell_facts(ps[:n], chi)]
    ctx = _sizing(n, s, facts[0]) if ctx is None else ctx
    _check_pass([n], s, ctx.prec_bits, facts)
    re, im, W, _ = _residuals(ps, [n], s, chi, ctx.prec_bits, facts)[0]
    return ctx, _to_complex(ctx, (re, im), W)


def _check_pass(ns: list, s: int, bits: int, facts: list) -> None:
    """Refuse the kernel pass of ``ns`` (their ``_Facts`` in ``facts``) at s
    and ``bits`` of precision before it runs: the longest n's indices and
    roots at that precision."""
    longest = facts[ns.index(max(ns))]
    _check_cost(f"n={', '.join(map(str, ns))}, s={s}", longest.J, bits, longest.roots)


def _residuals(
    ps: tuple, ns: list, s: int, chi: DirichletCharacter, bits: int, facts: list, table: Optional[_Quotients] = None
) -> list:
    """The residual of each n in ``ns`` (its ``_Facts`` in ``facts``) at
    ``bits`` of precision as a ball ``(re, im, W, radius)`` (see the module
    docstring), all the L-sums and products over ``ps`` in one ``_kernels``
    pass at ``W = _kernel_bits(bits)``, whose walk takes a series' quotient
    ``table``, when given, to s.  The callers check it first (``_check_pass``)."""
    W = _kernel_bits(bits)
    sums, products = _kernels(chi, s, W, ps, [f.J for f in facts], ns, table)
    return [
        (*_minus_inverse(a, b, product, W), W, f.sum_units + (20 * n + 2) * (ps[n - 1] ** 3 if s == 1 else 1))
        for n, f, (a, b), product in zip(ns, facts, sums, products)
    ]


def scaled_residual(n: int, s: int, chi: DirichletCharacter) -> BigComplex:
    """residual * p_{n+1}**s; converges to chi(p_{n+1}) as s grows."""
    _check_n_s(n, s)
    ps = tuple(primes.first_n_primes(n + 1))
    ctx, r = _residual(ps, n, s, chi, None)
    scale = ctx.from_int(ps[n] ** s)
    return BigComplex(ctx.mul(r.re, scale), ctx.mul(r.im, scale))


def estimate(
    n: int, s: int, chi: DirichletCharacter, prec_bits: Optional[int] = None
) -> EstimateResult:
    """|residual|**(-1/s) with rounding, target comparison and diagnostics.

    ``prec_bits`` may override the automatic precision upward only; an
    override below ``required_precision`` is rejected with an explanation.
    A zero character value at the target prime yields a warning on the
    result rather than an exception, so sweeps keep their rows.  The
    residual is computed at the working precision (reported as
    ``prec_bits``); the rest at the width that survives the cancellation,
    as the module docstring describes.  The estimate's kernel cost is
    checked before the precision is sized in full (``_sizing``),
    and its kernel pass before it runs (``_check_pass``): either raises
    ``UnsupportedSizeError`` above ``MAX_KERNEL_COST``.  A residual whose
    ball contains 0 raises ``PrecisionLossError``, and one that is exactly
    0 ``ZeroResidualError``, whatever the override.
    """
    series = _size_series([n], [s], chi, prec_bits)
    return _run_pass(series, series.passes[0])[0]


def estimate_many(ns, s: int, chi: DirichletCharacter) -> list:
    """``[estimate(n, s, chi) for n in ns]``, with every residual in one
    kernel pass at the widest n's precision: ``estimate_series`` at one s.

    ``ns`` may be any iterable.  Every n is sized, its estimate checked
    against the cost cap (``_sizing``), before any kernel runs, and the
    first failing n raises; then the shared pass is checked, its longest n
    at the widest n's precision (``_check_pass``).
    Each residual is the ball ``estimate`` would compute for its n alone at
    that precision (see the module docstring), so a narrower n's can differ
    from ``estimate``'s by a few units of its own ``2**-W``, far below the
    96 significant bits the sizing keeps: the estimate, error and margin,
    printed to 17 digits, can change only where such a move crosses a
    rounding boundary of the 17th digit.
    """
    return estimate_series(ns, [s], chi)[0]


def estimate_series(ns, s_values, chi: DirichletCharacter) -> list:
    """``[estimate_many(ns, s, chi) for s in s_values]`` for ascending
    ``s_values``, every pass's walk advancing one quotient table from the
    pass before (``_Quotients``); every result is that of ``estimate_many``.

    ``ns`` and ``s_values`` may be any iterables.  Every (n, s) cell is
    sized and every pass checked against the cost cap before any kernel
    runs (``_size_series``), so a series refused at some s is refused at
    once, with the error the loop over s would raise first.
    """
    ns, s_values = list(ns), list(s_values)
    if not ns:
        return [[] for _ in s_values]
    series = _size_series(ns, s_values, chi)
    return [_run_pass(series, p) for p in series.passes]


class _Pass(NamedTuple):
    """One s of a sized series."""

    s: int
    sized: list  # each n's working precision, in bits
    bits: int  # the pass's precision: the widest n's


class _Series(NamedTuple):
    """The estimates of every n in ``ns`` at each s of ``passes``, sized."""

    ps: tuple  # p_1 .. p_{max(ns) + 1}
    ns: list
    chi: DirichletCharacter
    facts: list  # each n's _Facts
    passes: list  # one _Pass per s, ascending
    table: Optional[_Quotients]  # the quotients its passes share; None for one pass


def _size_series(ns, s_values, chi: DirichletCharacter, prec_bits: Optional[int] = None) -> _Series:
    """Size the estimates of every n of the nonempty ``ns`` at every s of
    the ascending ``s_values``, at ``prec_bits`` when it is given, reading
    the prime table once, and check each pass before any kernel runs.

    Raises what the loop over s of one pass each would raise first: at each
    s, for each n, a ``ZeroResidualError`` where chi vanishes at every tail
    term, or the sizing's refusal (``_sizing``); then the pass's
    (``_check_pass``).  The passes of more than one s share one
    ``_Quotients`` at the widest pass's W over the longest J, which each walks.
    """
    ns, s_values = list(ns), list(s_values)
    for s in s_values:
        for n in ns:
            _check_n_s(n, s)
    if s_values != sorted(s_values):
        raise DomainError(f"the s values of a series must ascend, got {s_values}")
    ps = tuple(primes.first_n_primes(max(ns) + 1))
    facts = [_cell_facts(ps[:n], chi) for n in ns]
    passes = []
    for s in s_values:
        sized = []
        for n, f in zip(ns, facts):
            if not f.terms:
                raise ZeroResidualError(
                    f"the residual is exactly zero for modulus {chi.modulus}, label {chi.label} at "
                    f"n={n}: the character vanishes at every tail term, so no precision gives an estimate"
                )
            sized.append(_sizing(n, s, f, prec_bits).prec_bits)
        bits = max(sized)
        _check_pass(ns, s, bits, facts)
        passes.append(_Pass(s, sized, bits))
    table = None
    if len(passes) > 1:
        table = _Quotients(_kernel_bits(max(p.bits for p in passes)), max(f.J for f in facts))
    return _Series(ps, ns, chi, facts, passes, table)


def _run_pass(series: _Series, p: _Pass) -> list:
    """The estimates of every n of ``series`` at its pass ``p``: the kernels
    of all of them at the pass's precision, their walk taking the series'
    quotient table to p's s (advanced from a lower s, filled from a higher),
    then each chain at its own precision, against its target ``ps[n]``; in
    any order of passes the estimates are the same."""
    ps, ns, chi, facts, _, table = series
    balls = _residuals(ps, ns, p.s, chi, p.bits, facts, table)
    cells = zip(ns, facts, p.sized, balls)
    return [_finish(n, p.s, chi, PrecisionContext(b), f.terms, ball, ps[n]) for n, f, b, ball in cells]


def _fp_pow(m: int, k: int, bits: int) -> tuple:
    """``(v, e)`` with ``v * 2**e`` within ``2**(k.bit_length() + 1 - bits)``
    relative of ``m**k`` (m, k >= 1), v at most ``bits`` bits long.

    Left-to-right binary powering, each square truncated to ``bits`` bits:
    ``k.bit_length() - 1`` truncations, the i-th doubled by each squaring
    after it.
    """
    v, e = m, 0
    for bit in bin(k)[3:]:
        v *= v
        e *= 2
        if bit == "1":
            v *= m
        drop = v.bit_length() - bits
        if drop > 0:
            v >>= drop
            e += drop
    return v, e


def _seed(um: int, ue: int, k: int) -> tuple:
    """``(cm, ce)`` with the dyadic ``c = cm * 2**ce`` near ``u**(-1/k)`` for
    ``u = um * 2**ue`` (um > 0), cm in ``[2**52, 2**53]``.

    Only ``u``'s binary exponent divided by k leaves the integers, as the
    fraction in ``(0, 1]``: doubles cannot overflow, whatever u is.  With a
    libm within an ulp, ``c**k`` is within about ``k * 2**-51`` of ``1 / u``
    relative.
    """
    b = um.bit_length()
    top = um >> (b - 53) if b > 53 else um << (53 - b)
    # u = 2**(b + ue) * top / 2**53, and -(b + ue) = q k + r
    q, r = divmod(-(b + ue), k)
    frac = (r - math.log2(top / 2**53)) / k
    return int(math.ldexp(2.0**frac, 52)), q - 52


def _binomial(D: int, k: int, H: int) -> int:
    """``(1 + d)**(-1/k) * 2**H`` for ``d = D * 2**-H``, ``|d| <= 1/2``.

    The binomial series on ``|d|``: the j-th term is the previous one times
    ``|d| (1 + (j - 1) k) / (j k)``, truncated twice, and its sign is that
    of ``(-d)**j``.  Each term is within 2 units of ``2**-H`` of its exact
    value plus ``|d|`` times the previous term's error, and there are at
    most ``H / log2(1/|d|) + 1`` of them.
    """
    a = abs(D)
    term = acc = 1 << H
    j = 1
    while term:
        term = ((term * a) >> H) * (1 + (j - 1) * k) // (j * k)
        acc += term if D < 0 or not j & 1 else -term
        j += 1
    return acc


def _distance(um: int, ue: int, cm: int, ce: int, k: int, G: int, H: int) -> int:
    """``d = u * c**k - 1`` as ``D = d * 2**H``, truncated, for
    ``u = um * 2**ue`` and ``c = cm * 2**ce``, with ``c**k`` powered to G bits."""
    pm, pe = _fp_pow(cm, k, G)
    shift = ue + pe + k * ce + H
    v = um * pm
    return (v << shift if shift >= 0 else v >> -shift) - (1 << H)


def _chain(sq: int, exp: int, m1: int, s: int, bits: int) -> int:
    """``m1 * u**(-1/(2s))`` with ``u = sq * 2**exp * m1**(2s)``, scaled by ``2**bits``.

    One pass over fixed-point integers (see the module docstring for the
    bound): u from ``sq`` and ``m1**(2s)``, both factors and their product
    truncated to ``G = bits + g`` bits with ``g`` the bit length of 2s; a
    dyadic seed ``c`` near ``u**(-1/(2s))`` (``_seed``, 1 when it rounds
    there) and ``d = u * c**(2s) - 1`` (``_distance``), ``H = G + log2(G)``;
    then ``m1 * c * (1 + d)**(-1/(2s))`` by the binomial series
    (``_binomial``).  Where the series would take more than ``g + 2``
    terms of ``H - log2|D|`` bits each, about what a power takes
    squarings, c is refined first: the chain's own root of u at
    ``bits // 2 + 32`` bits (m1 = 1, u scaled by ``2**(2s q)`` with
    ``2**q`` the seed's leading power of 2, so the root lies near ``[1, 2)``
    and keeps its relative precision).
    """
    k = 2 * s
    G = bits + k.bit_length()
    H = G + G.bit_length()
    pm, pe = _fp_pow(m1, k, G)
    drop = max(0, sq.bit_length() - G)
    um, ue = (sq >> drop) * pm, exp + drop + pe
    drop = max(0, um.bit_length() - G)
    um, ue = um >> drop, ue + drop
    cm, ce = _seed(um, ue, k)
    if ce < 0 and cm == 1 << -ce:
        # c = 1: u is within about 2**-53 of 1 already
        cm, ce = 1, 0
    D = _distance(um, ue, cm, ce, k, G, H)
    half = bits // 2 + 32
    if half < bits and (H - abs(D).bit_length()) * (k.bit_length() + 2) < H:
        q = ce + cm.bit_length() - 1
        cm, ce = _chain(um, ue + k * q, 1, s, half), q - half
        D = _distance(um, ue, cm, ce, k, G, H)
    v, shift = m1 * cm * _binomial(D, k, H), H - bits - ce
    return v >> shift if shift >= 0 else v << -shift


def _finish(
    n: int, s: int, chi: DirichletCharacter, ctx: PrecisionContext, terms: tuple, ball: tuple, target: int
) -> EstimateResult:
    """The estimate, error and margin against ``target`` from the residual's ball at ``ctx``."""
    re, im, W, radius = ball
    if abs(re) <= radius and abs(im) <= radius:
        raise PrecisionLossError(
            f"the residual is not resolved from zero at working precision ({ctx.prec_bits} bits) "
            f"for n={n}, s={s}; retry with a larger prec_bits (--precision)"
        )
    warning = None
    if chi(target).is_zero:
        warning = (
            f"character (modulus {chi.modulus}, label {chi.label}) vanishes at "
            f"the target prime {target}; the limit degenerates away from it"
        )
    if len(terms) == 1:
        # the residual is exactly chi(m1) * m1**-s
        m1 = terms[0]
        est, rounded, error, margin = ctx.from_int(m1), m1, ctx.from_int(abs(target - m1)), ZERO
    else:
        # |residual|**2 = sq * 2**(-2W) exactly, and
        # top(|residual|) = (top(|residual|**2) + 1) // 2
        sq = re * re + im * im
        width = min(max(ctx.prec_bits + (sq.bit_length() - 2 * W + 1) // 2 + 64, 64), ctx.prec_bits)
        chain = PrecisionContext(width)
        bits = width + 160
        est = chain.from_fixed(_chain(sq, -2 * W, terms[0], s, bits), bits)
        rounded = nearest_int(est)
        # est = man * 2**-f exactly, so the differences are exact integers,
        # each rounded once (f = 0 when est is an integer: 6 = 3 * 2**1)
        f = max(0, -est.exp)
        man = est.man << (est.exp + f)
        error = chain.from_fixed(abs((target << f) - man), f)
        margin = chain.from_fixed(abs(man - (rounded << f)), f)
    return EstimateResult(
        n=n,
        s=s,
        modulus=chi.modulus,
        label=chi.label,
        residual=_to_complex(ctx, (re, im), W),
        estimate=est,
        rounded=rounded,
        target=target,
        error=error,
        margin=margin,
        prec_bits=ctx.prec_bits,
        warning=warning,
    )
