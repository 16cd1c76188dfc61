"""Arbitrary-precision binary floating point on top of Python integers.

Representation
--------------
A ``BigFloat`` is ``sign * man * 2**exp`` with

 * ``sign`` in {-1, 0, +1},
 * ``man`` a non-negative arbitrary-size integer,
 * ``exp`` a signed integer.

Zero is canonical (``sign == 0`` iff ``man == 0``, with ``exp == 0``), and a
nonzero mantissa never carries trailing zero bits, so structural equality is
value equality.  A ``BigComplex`` is a pair of ``BigFloat`` components, the
value type of complex results; all arithmetic is on ``BigFloat``.

Precision model
---------------
All arithmetic is driven by a ``PrecisionContext(prec_bits)``.  Operations
round internally to ``prec_bits + GUARD_BITS`` (96) mantissa bits
(round-half-even), so every result is faithful (within 1 ulp, relative error
``<= 2**(1 - prec_bits)``) at the contracted precision with a wide margin.
There are no NaNs or infinities; domain violations raise ``DomainError`` and
exponent-range violations raise ``RangeError``.

Algorithms
----------
 * ``exp``   - ``x = q ln 2 + r`` with ``0 <= r < ln 2``, so ``exp x`` is
   ``2**q exp(r)``; ``exp(r)`` comes from ``_fp_exp``: argument reduction
   ``r -> r / 2**k`` until the argument is below ``2**-sqrt(bits)``, the
   Taylor series in fixed point with ``k + 16`` extra guard bits, then ``k``
   squarings (each doubles the relative error), a negative argument
   inverted once at the end.  Arguments with magnitude above ``2**48`` are
   rejected.
 * ``ln``    - ``_fp_ln``: exponent extraction ``ln(f * 2**e) = ln f + e*ln 2``
   with the significand normalised into ``[sqrt(1/2), sqrt(2))`` so the
   ``e*ln 2`` contribution never cancels catastrophically, then the odd
   atanh series of ``u = (f-1)/(f+1)`` (``|u| < 0.172``) in fixed point; a
   power of two has ``u = 0`` and takes the same path.
 * ``pi``    - Machin's formula ``16*atan(1/5) - 4*atan(1/239)``; an
   independent Euler split ``4*(atan(1/2) + atan(1/3))`` is exposed so the
   two can be cross-checked.
 * ``ln 2``  - ``2*atanh(1/3)``.
 * ``fixed_root`` - a root of unity as a fixed-point (cos, sin) pair of
   integers: the exponent fraction is folded exactly into the first octant
   (tracking sign swaps), then the sine's Taylor series and the cosine as
   the integer square root of ``1 - sin**2`` run 32 bits past the requested
   scale and are truncated toward zero.  The folding makes conjugate
   exponents give equal cosines and exactly negated sines, and quarter and
   half turns exact; the cache is keyed by the folded angle, so a value and
   its conjugate share one series.

The fixed-point kernels take and return integers scaled by ``2**bits``:
``_fp_ln`` and ``_fp_exp`` serve only the context's ``ln`` and ``exp``, and
the truncated power ``_fp_pow`` serves ``recursion``'s estimate chain, which
needs no ln or exp.

Constants (pi, ln 2) and first-octant roots of unity are memoised per
precision in bounded ``functools.lru_cache``s, safe for concurrent readers
(threads that miss together compute the same value); only the most recently
used entries are kept.  Values are immutable; all operations are pure
functions of (inputs, context).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DomainError, RangeError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BigFloat",
    "BigComplex",
    "PrecisionContext",
    "ZERO",
    "ONE",
    "fixed_root",
    "format_decimal",
    "to_float",
    "nearest_int",
]


class BigFloat:
    """Immutable sign/mantissa/exponent triple; construct via a context."""

    __slots__ = ("sign", "man", "exp")

    def __init__(self, sign: int, man: int, exp: int):
        self.sign = sign
        self.man = man
        self.exp = exp

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def to_fraction(self) -> Fraction:
        """Exact rational value of this float."""
        from fractions import Fraction

        if self.sign == 0:
            return Fraction(0)
        if self.exp >= 0:
            return Fraction(self.sign * (self.man << self.exp))
        return Fraction(self.sign * self.man, 1 << -self.exp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigFloat):
            return NotImplemented
        return (
            self.sign == other.sign
            and self.man == other.man
            and self.exp == other.exp
        )

    def __hash__(self):
        return hash((self.sign, self.man, self.exp))

    def __reduce__(self):
        return (BigFloat, (self.sign, self.man, self.exp))

    def __repr__(self):
        return f"BigFloat({format_decimal(self, 20)})"


ZERO = BigFloat(0, 0, 0)
ONE = BigFloat(1, 1, 0)


class BigComplex:
    """Immutable pair of BigFloat components."""

    __slots__ = ("re", "im")

    def __init__(self, re: BigFloat, im: BigFloat):
        self.re = re
        self.im = im

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    def conjugate(self) -> "BigComplex":
        im = self.im
        return BigComplex(self.re, BigFloat(-im.sign, im.man, im.exp))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigComplex):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __reduce__(self):
        return (BigComplex, (self.re, self.im))

    def __repr__(self):
        return f"BigComplex({format_decimal(self.re, 20)}, {format_decimal(self.im, 20)})"


def _norm(sign: int, man: int, exp: int, wp: int) -> BigFloat:
    """Canonicalise and round a raw triple to wp mantissa bits (half-even)."""
    if man == 0 or sign == 0:
        return ZERO
    tz = (man & -man).bit_length() - 1
    if tz:
        man >>= tz
        exp += tz
    drop = man.bit_length() - wp
    if drop > 0:
        keep = man >> drop
        rem = man & ((1 << drop) - 1)
        half = 1 << (drop - 1)
        if rem > half or (rem == half and keep & 1):
            keep += 1
        man = keep
        exp += drop
        tz = (man & -man).bit_length() - 1
        if tz:
            man >>= tz
            exp += tz
    return BigFloat(sign, man, exp)


def _from_signed(v: int, exp: int, wp: int) -> BigFloat:
    if v == 0:
        return ZERO
    if v > 0:
        return _norm(1, v, exp, wp)
    return _norm(-1, -v, exp, wp)


def _top(x: BigFloat) -> int:
    """Exclusive top exponent: 2**(t-1) <= |x| < 2**t.  Nonzero x only."""
    return x.exp + x.man.bit_length()


def _add(x: BigFloat, y: BigFloat, wp: int) -> BigFloat:
    if x.sign == 0:
        return y
    if y.sign == 0:
        return x
    tx, ty = _top(x), _top(y)
    # A term more than wp+4 bits below the other only matters as a sticky
    # nudge; clamp it so alignment shifts stay bounded.
    if tx - ty > wp + 4:
        y = BigFloat(y.sign, 1, tx - wp - 6)
    elif ty - tx > wp + 4:
        x = BigFloat(x.sign, 1, ty - wp - 6)
    e = min(x.exp, y.exp)
    v = x.sign * (x.man << (x.exp - e)) + y.sign * (y.man << (y.exp - e))
    return _from_signed(v, e, wp)


def _neg(x: BigFloat) -> BigFloat:
    if x.sign == 0:
        return x
    return BigFloat(-x.sign, x.man, x.exp)


def _abs(x: BigFloat) -> BigFloat:
    if x.sign >= 0:
        return x
    return BigFloat(1, x.man, x.exp)


def _mul(x: BigFloat, y: BigFloat, wp: int) -> BigFloat:
    if x.sign == 0 or y.sign == 0:
        return ZERO
    return _norm(x.sign * y.sign, x.man * y.man, x.exp + y.exp, wp)


def _div(x: BigFloat, y: BigFloat, wp: int) -> BigFloat:
    if y.sign == 0:
        raise DomainError("division by zero")
    if x.sign == 0:
        return ZERO
    # Scale the numerator so the quotient carries wp+2 significant bits,
    # append a sticky bit when inexact, then round once.
    k = wp + 2 + max(0, y.man.bit_length() - x.man.bit_length())
    q, r = divmod(x.man << k, y.man)
    exp = x.exp - y.exp - k
    if r:
        q = (q << 1) | 1
        exp -= 1
    return _norm(x.sign * y.sign, q, exp, wp)


# ---------------------------------------------------------------------------
# Fixed-point constant kernels.  All return floor-accurate integers scaled by
# 2**bits; per-iteration floor error is < 1 unit and the iteration counts are
# far below the 32-bit margin callers reserve.
# ---------------------------------------------------------------------------

# Each constant is cached for the few most recently used precisions; a sweep
# over s visits a new precision at every s.  Roots are cached per (first-octant
# angle, width), and the characters of one modulus share their angles: a
# ``dtable`` over n = 3..8 and moduli 4,5,8,9,113 computes 329 of them, which
# 256 entries could not hold (they recomputed 1110).
_CACHED_CONSTANTS = 16
_CACHED_ROOTS = 512


def _fp_atan_inv(k: int, bits: int) -> int:
    """atan(1/k) * 2**bits by the alternating Gregory series."""
    term = (1 << bits) // k
    total = term
    ksq = k * k
    j = 1
    while term:
        term //= ksq
        frac = term // (2 * j + 1)
        total += -frac if j & 1 else frac
        j += 1
    return total


@lru_cache(maxsize=_CACHED_CONSTANTS)
def _fp_pi(bits: int) -> int:
    """pi * 2**bits, Machin: 16 atan(1/5) - 4 atan(1/239)."""
    return 16 * _fp_atan_inv(5, bits) - 4 * _fp_atan_inv(239, bits)


@lru_cache(maxsize=_CACHED_CONSTANTS)
def _fp_pi_euler(bits: int) -> int:
    """pi * 2**bits, Euler split: 4 (atan(1/2) + atan(1/3))."""
    return 4 * (_fp_atan_inv(2, bits) + _fp_atan_inv(3, bits))


@lru_cache(maxsize=_CACHED_CONSTANTS)
def _fp_ln2(bits: int) -> int:
    """ln 2 * 2**bits via 2 atanh(1/3)."""
    x = (1 << bits) // 3
    total = x
    j = 3
    while x:
        x //= 9
        total += x // j
        j += 2
    return total << 1


def _ln_split(man: int, exp: int) -> tuple[int, int, int]:
    """``(e, num, den)`` with ``man * 2**exp = 2**e * f``, f in
    ``[sqrt(1/2), sqrt(2))`` and ``(f - 1) / (f + 1) = num / den`` (man > 0).

    With f in that range a nonzero ``e ln 2`` never cancels against ``ln f``.
    """
    bl = man.bit_length()
    if man * man < 1 << (2 * bl - 1):  # f0 < sqrt(2)
        half = 1 << (bl - 1)
        return exp + bl - 1, man - half, man + half
    return exp + bl, man - (1 << bl), man + (1 << bl)


def _fp_ln(man: int, exp: int, bits: int) -> int:
    """ln(man * 2**exp) * 2**bits for man > 0.

    Within ``3 T + 4`` units of ``2**-bits`` for T series terms (each gains
    at least 5 bits, about ``2 log2(1/|u|)`` near 1), plus ``|e|`` times
    ``_fp_ln2``'s error (under ``0.7 bits + 8`` units) for the e that
    ``_ln_split`` takes out: within ``(|e| + 1) bits`` units for bits >= 64.
    """
    e, num, den = _ln_split(man, exp)
    # atanh is odd; run the series on |u| so floor division terminates.
    u = (abs(num) << bits) // den
    usq = (u * u) >> bits
    term = u
    acc = u
    j = 3
    while term:
        term = (term * usq) >> bits
        acc += term // j
        j += 2
    total = (acc << 1) if num > 0 else -(acc << 1)
    if e:
        total += e * _fp_ln2(bits)
    return total


def _fp_exp(v: int, bits: int) -> int:
    """exp(v * 2**-bits) * 2**bits, truncated.

    The argument is divided by ``2**k`` until it is below ``2**-sqrt(bits)``,
    the Taylor series and the ``k`` squarings run ``k + 16`` bits wider, and
    a negative argument is inverted once at the end: within 2 units of
    ``2**-bits`` relative for ``v >= 0``, and ``2 + exp(-x)`` for
    ``x = v * 2**-bits < 0``, whose final division truncates.
    """
    if v < 0:
        return (1 << 2 * bits) // _fp_exp(-v, bits)
    k = max(0, v.bit_length() - bits + max(8, math.isqrt(bits)))
    wp2 = bits + k + 16
    r = v << 16  # v / 2**k at the scale 2**wp2
    term = r
    acc = (1 << wp2) + r
    j = 2
    while term:
        term = ((term * r) >> wp2) // j
        acc += term
        j += 1
    for _ in range(k):
        acc = (acc * acc) >> wp2
    return acc >> (k + 16)


def _fp_pow(m: int, k: int, bits: int) -> tuple[int, int]:
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


def _fp_sin_cos(p: int, q: int, wp2: int) -> tuple[int, int]:
    """(sin, cos) of 2*pi*p/q scaled by 2**wp2, for 0 <= p/q <= 1/8.

    The sine comes from its Taylor series, the cosine from the integer
    square root of 1 - sin**2; its error is at most the sine's (the angle
    is at most pi/4) plus 1 unit.
    """
    if p == 0:
        return 0, 1 << wp2
    theta = (2 * _fp_pi(wp2) * p) // q
    tsq = (theta * theta) >> wp2
    term = theta
    sin_acc = theta
    i = 1
    while term:
        term = ((term * tsq) >> wp2) // ((2 * i) * (2 * i + 1))
        sin_acc += -term if i & 1 else term
        i += 1
    return sin_acc, math.isqrt((1 << 2 * wp2) - sin_acc * sin_acc)


def _first_octant(a: int, m: int) -> tuple:
    """``(p, q, swap, cos_sign, sin_sign)``: a/m (m >= 1) folded exactly into
    the first octant, 0 <= p/q <= 1/8, with p/q in lowest terms.

    (cos, sin) of 2 pi a / m is ``(cos_sign * c, sin_sign * s)``, where
    (c, s) is (cos, sin) of 2 pi p / q, exchanged when ``swap``.  p = 0
    (and q = 1) exactly for the multiples of a quarter turn.  Reducing p/q
    gives one cache key per angle and leaves the bits unchanged:
    ``2 pi_fp p // q`` is the same integer for every multiple of (p, q).
    """
    p, q = a % m, m
    sin_sign = cos_sign = 1
    if 2 * p > q:  # a/m -> 1 - a/m
        p, sin_sign = q - p, -1
    if 4 * p > q:  # -> 1/2 - p/q
        p, q, cos_sign = q - 2 * p, 2 * q, -1
    swap = 8 * p > q  # -> 1/4 - p/q, sine and cosine exchanged
    if swap:
        p, q = q - 4 * p, 4 * q
    g = math.gcd(p, q)
    return p // g, q // g, swap, cos_sign, sin_sign


@lru_cache(maxsize=_CACHED_ROOTS)
def _octant_root(p: int, q: int, bits: int) -> tuple[int, int]:
    """(sin, cos) of a first-octant 2 pi p / q, scaled by 2**bits and truncated."""
    sin_fp, cos_fp = _fp_sin_cos(p, q, bits + 32)
    return sin_fp >> 32, cos_fp >> 32


def fixed_root(a: int, m: int, bits: int) -> tuple[int, int]:
    """(cos, sin) of 2 pi a / m as integers scaled by 2**bits, each truncated
    toward zero and within 2 units of the exact value (a reduced mod m).

    Conjugate exponents (a and m-a) give equal cosines and exactly negated
    sines, and quarter and half turns are exact, by construction.  The cache
    holds the folded first-octant angle, so a value and its conjugate share
    one series.
    """
    if m < 1:
        raise DomainError(f"root of unity modulus must be positive, got {m}")
    p, q, swap, cos_sign, sin_sign = _first_octant(a, m)
    sin_fp, cos_fp = _octant_root(p, q, bits)
    if swap:
        sin_fp, cos_fp = cos_fp, sin_fp
    return cos_sign * cos_fp, sin_sign * sin_fp


GUARD_BITS = 96


class PrecisionContext:
    """Precision policy plus the arithmetic operating under it.

    ``prec_bits`` is the contracted precision (>= 64); ``GUARD_BITS`` extra
    bits are carried by every intermediate so composite operations remain
    faithful at the contract.  Contexts are immutable and shareable.
    """

    __slots__ = ("prec_bits", "_wp")

    def __init__(self, prec_bits: int):
        if not isinstance(prec_bits, int) or prec_bits < 64:
            raise DomainError(f"prec_bits must be an integer >= 64, got {prec_bits!r}")
        self.prec_bits = prec_bits
        self._wp = prec_bits + GUARD_BITS

    def __eq__(self, other):
        if not isinstance(other, PrecisionContext):
            return NotImplemented
        return self.prec_bits == other.prec_bits

    def __hash__(self):
        return hash(self.prec_bits)

    def __repr__(self):
        return f"PrecisionContext(prec_bits={self.prec_bits})"

    # -- constructors -------------------------------------------------------

    def from_int(self, n: int) -> BigFloat:
        return _from_signed(n, 0, self._wp)

    def from_fixed(self, v: int, bits: int) -> BigFloat:
        """The fixed-point integer v scaled by 2**-bits, rounded to the context."""
        return _from_signed(v, -bits, self._wp)

    def from_fraction(self, fr: Fraction) -> BigFloat:
        return _div(self.from_int(fr.numerator), self.from_int(fr.denominator), self._wp)

    # -- ring operations -----------------------------------------------------

    def add(self, x: BigFloat, y: BigFloat) -> BigFloat:
        return _add(x, y, self._wp)

    def sub(self, x: BigFloat, y: BigFloat) -> BigFloat:
        return self.add(x, _neg(y))

    def neg(self, x: BigFloat) -> BigFloat:
        return _neg(x)

    def abs(self, x: BigFloat) -> BigFloat:
        return _abs(x)

    def mul(self, x: BigFloat, y: BigFloat) -> BigFloat:
        return _mul(x, y, self._wp)

    def div(self, x: BigFloat, y: BigFloat) -> BigFloat:
        return _div(x, y, self._wp)

    # -- algebraic / transcendental ----------------------------------------

    def ln(self, x: BigFloat) -> BigFloat:
        if x.sign <= 0:
            raise DomainError("ln requires a positive argument")
        e, num, _ = _ln_split(x.man, x.exp)
        # Near x == 1 the leading zeros of u eat into the fixed-point budget.
        extra = max(0, x.man.bit_length() - abs(num).bit_length()) if e == 0 else 0
        wp2 = self._wp + 32 + extra
        return _from_signed(_fp_ln(x.man, x.exp, wp2), -wp2, self._wp)

    def exp(self, x: BigFloat) -> BigFloat:
        if x.sign == 0:
            return ONE
        top = _top(x)
        if top > 48:
            raise RangeError("exp argument magnitude exceeds 2**48")
        # x = q ln 2 + r, 0 <= r < ln 2; q ln 2 takes top more bits
        bits = self._wp + 32 + max(0, top)
        shift = x.exp + bits
        v = x.man << shift if shift >= 0 else x.man >> -shift
        q, r = divmod(x.sign * v, _fp_ln2(bits))
        return _norm(1, _fp_exp(r, bits), q - bits, self._wp)

    def pi(self) -> BigFloat:
        wp2 = self._wp + 32
        return _norm(1, _fp_pi(wp2), -wp2, self._wp)

    def pi_euler(self) -> BigFloat:
        """pi from the independent Euler arctangent split (for cross-checks)."""
        wp2 = self._wp + 32
        return _norm(1, _fp_pi_euler(wp2), -wp2, self._wp)

    def ln2(self) -> BigFloat:
        wp2 = self._wp + 32
        return _norm(1, _fp_ln2(wp2), -wp2, self._wp)


# ---------------------------------------------------------------------------
# Conversions and rendering
# ---------------------------------------------------------------------------


def to_float(x: BigFloat) -> float:
    """Round a BigFloat to the nearest IEEE double."""
    # int / int and float(int) round correctly, as Fraction.__float__ does
    try:
        if x.exp >= 0:
            return float(x.sign * (x.man << x.exp))
        return x.sign * x.man / (1 << -x.exp)
    except OverflowError as exc:
        raise RangeError("value exceeds double range") from exc


def nearest_int(x: BigFloat) -> int:
    """Nearest integer, halves away from zero."""
    if x.sign == 0:
        return 0
    if x.exp >= 0:
        return x.sign * (x.man << x.exp)
    q, r = divmod(x.man, 1 << -x.exp)
    if (r << 1) >= (1 << -x.exp):
        q += 1
    return x.sign * q


_LOG10_2 = math.log10(2)


def format_decimal(x: BigFloat, digits: int) -> str:
    """Scientific-notation decimal string with the given significant digits.

    Rounding is half-even on the decimal digit string, so rendering is exact
    and locale-independent.
    """
    if digits < 1:
        raise DomainError("digits must be >= 1")
    if x.sign == 0:
        return "0"
    e10 = math.floor((_top(x) - 1) * _LOG10_2)
    for _ in range(4):
        k = digits - 1 - e10
        num = x.man
        den = 1
        if k >= 0:
            num *= 10**k
        else:
            den *= 10**-k
        if x.exp >= 0:
            num <<= x.exp
        else:
            den <<= -x.exp
        q, r = divmod(num, den)
        r2 = r << 1
        if r2 > den or (r2 == den and q & 1):
            q += 1
        s = str(q)
        if len(s) == digits:
            break
        # first guess at the decimal exponent was off by one
        e10 += len(s) - digits
    else:  # pragma: no cover
        raise AssertionError("decimal exponent search failed to converge")
    sign = "-" if x.sign < 0 else ""
    mantissa = s[0] if digits == 1 else f"{s[0]}.{s[1:]}"
    return f"{sign}{mantissa}e{e10:+03d}"
