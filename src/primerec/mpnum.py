"""Arbitrary-precision binary floating point on top of Python integers.

Representation
--------------
A ``BigFloat`` is ``sign * man * 2**exp`` with

 * ``sign`` in {-1, 0, +1},
 * ``man`` a non-negative arbitrary-size integer,
 * ``exp`` a signed integer.

Zero is canonical (``sign == 0`` iff ``man == 0``, with ``exp == 0``), and a
nonzero mantissa never carries trailing zero bits, so structural equality is
value equality.  A ``BigComplex`` is a pair of ``BigFloat`` components.

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
 * ``exp``   - argument reduction ``x -> x / 2**t`` until the argument is
   below ``2**-sqrt(wp)``, Taylor series in fixed point, then ``t`` squarings
   carried with ``t + 16`` extra guard bits (each squaring doubles the
   relative error).  Arguments with magnitude above ``2**48`` are rejected.
 * ``ln``    - exponent extraction ``ln(f * 2**e) = ln f + e*ln 2`` with the
   significand normalised into ``[sqrt(1/2), sqrt(2))`` so the ``e*ln 2``
   contribution never cancels catastrophically, then the odd atanh series of
   ``u = (f-1)/(f+1)`` (``|u| < 0.172``) in fixed point.
 * ``pi``    - Machin's formula ``16*atan(1/5) - 4*atan(1/239)``; an
   independent Euler split ``4*(atan(1/2) + atan(1/3))`` is exposed so the
   two can be cross-checked.
 * ``ln 2``  - ``2*atanh(1/3)``.
 * ``root_of_unity`` - the exponent fraction is folded exactly into the
   first octant (tracking sign swaps), then sine and cosine Taylor series in
   fixed point.  The folding guarantees conjugate arguments produce
   bit-identical real parts and bit-negated imaginary parts.

Constants (pi, ln 2) and roots of unity are memoised per working precision
behind a lock, safe for concurrent readers; only the few most recently
created precisions are kept.  Values are immutable; all operations are pure
functions of (inputs, context).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .errors import DomainError, RangeError

__all__ = [
    "BigFloat",
    "BigComplex",
    "PrecisionContext",
    "ZERO",
    "ONE",
    "C_ZERO",
    "C_ONE",
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


C_ZERO = BigComplex(ZERO, ZERO)
C_ONE = BigComplex(ONE, ZERO)


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


def _mul_int(x: BigFloat, n: int, wp: int) -> BigFloat:
    if x.sign == 0 or n == 0:
        return ZERO
    if n > 0:
        return _norm(x.sign, x.man * n, x.exp, wp)
    return _norm(-x.sign, x.man * -n, x.exp, wp)


def _div_int(x: BigFloat, n: int, wp: int) -> BigFloat:
    if n == 0:
        raise DomainError("division by zero")
    if x.sign == 0:
        return ZERO
    k = wp + 2 + max(0, n.bit_length() - x.man.bit_length())
    q, r = divmod(x.man << k, abs(n))
    exp = x.exp - k
    if r:
        q = (q << 1) | 1
        exp -= 1
    sign = x.sign if n > 0 else -x.sign
    return _norm(sign, q, exp, wp)


# ---------------------------------------------------------------------------
# Fixed-point constant kernels.  All return floor-accurate integers scaled by
# 2**bits; per-iteration floor error is < 1 unit and the iteration counts are
# far below the 32-bit margin callers reserve.
# ---------------------------------------------------------------------------

# Both caches hold one sub-dict per working precision.  Hits only happen
# within one precision, and a sweep over s visits a new one at every s, so
# only the most recently created few are kept: enough for the eight residual
# precisions a ``dtable`` row cycles through (n = 3..8, raised for some
# characters), which would otherwise recompute every root at every cell.
_CACHED_PRECISIONS = 16
_CACHE_LOCK = threading.Lock()
_CONST_CACHE: dict = {}  # bits -> {name: fixed-point int}
_ROOT_CACHE: dict = {}  # working bits -> {(a, m): BigComplex}


def _level(cache: dict, bits: int) -> dict:
    """The sub-dict of ``cache`` for ``bits``, evicting the oldest precision."""
    level = cache.get(bits)
    if level is None:
        with _CACHE_LOCK:
            level = cache.get(bits)
            if level is None:
                level = cache[bits] = {}
                while len(cache) > _CACHED_PRECISIONS:
                    del cache[next(iter(cache))]
    return level


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


def _fp_pi(bits: int) -> int:
    """pi * 2**bits, Machin: 16 atan(1/5) - 4 atan(1/239)."""
    return 16 * _fp_atan_inv(5, bits) - 4 * _fp_atan_inv(239, bits)


def _fp_pi_euler(bits: int) -> int:
    """pi * 2**bits, Euler split: 4 (atan(1/2) + atan(1/3))."""
    return 4 * (_fp_atan_inv(2, bits) + _fp_atan_inv(3, bits))


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


def _const(name: str, bits: int) -> int:
    level = _level(_CONST_CACHE, bits)
    got = level.get(name)
    if got is not None:
        return got
    with _CACHE_LOCK:
        got = level.get(name)
        if got is None:
            if name == "pi":
                got = _fp_pi(bits)
            elif name == "pi_euler":
                got = _fp_pi_euler(bits)
            elif name == "ln2":
                got = _fp_ln2(bits)
            else:  # pragma: no cover
                raise KeyError(name)
            level[name] = got
    return got


def _fp_sin_cos(p: int, q: int, wp2: int) -> tuple[int, int]:
    """(sin, cos) of 2*pi*p/q scaled by 2**wp2, for 0 <= p/q <= 1/8."""
    if p == 0:
        return 0, 1 << wp2
    theta = (2 * _const("pi", wp2) * p) // q
    tsq = (theta * theta) >> wp2
    # sine
    term = theta
    sin_acc = theta
    i = 1
    while term:
        term = ((term * tsq) >> wp2) // ((2 * i) * (2 * i + 1))
        sin_acc += -term if i & 1 else term
        i += 1
    # cosine
    term = 1 << wp2
    cos_acc = term
    i = 1
    while term:
        term = ((term * tsq) >> wp2) // ((2 * i - 1) * (2 * i))
        cos_acc += -term if i & 1 else term
        i += 1
    return sin_acc, cos_acc


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
        if n == 0:
            return ZERO
        if n > 0:
            return _norm(1, n, 0, self._wp)
        return _norm(-1, -n, 0, self._wp)

    def from_fraction(self, fr: Fraction) -> BigFloat:
        return _div(self.from_int(fr.numerator), self.from_int(fr.denominator), self._wp)

    def _promote(self, x):
        if isinstance(x, BigFloat):
            return BigComplex(x, ZERO)
        return x

    # -- ring operations ----------------------------------------------------

    def add(self, x, y):
        if isinstance(x, BigFloat) and isinstance(y, BigFloat):
            return _add(x, y, self._wp)
        x, y = self._promote(x), self._promote(y)
        return BigComplex(_add(x.re, y.re, self._wp), _add(x.im, y.im, self._wp))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def neg(self, x):
        if isinstance(x, BigFloat):
            return _neg(x)
        return BigComplex(_neg(x.re), _neg(x.im))

    def abs(self, x: BigFloat) -> BigFloat:
        return _abs(x)

    def mul(self, x, y):
        if isinstance(x, BigFloat) and isinstance(y, BigFloat):
            return _mul(x, y, self._wp)
        x, y = self._promote(x), self._promote(y)
        wp = self._wp
        re = _add(_mul(x.re, y.re, wp), _neg(_mul(x.im, y.im, wp)), wp)
        im = _add(_mul(x.re, y.im, wp), _mul(x.im, y.re, wp), wp)
        return BigComplex(re, im)

    def div(self, x, y):
        if isinstance(x, BigFloat) and isinstance(y, BigFloat):
            return _div(x, y, self._wp)
        x, y = self._promote(x), self._promote(y)
        if y.is_zero:
            raise DomainError("complex division by zero")
        wp = self._wp
        den = _add(_mul(y.re, y.re, wp), _mul(y.im, y.im, wp), wp)
        re_num = _add(_mul(x.re, y.re, wp), _mul(x.im, y.im, wp), wp)
        im_num = _add(_mul(x.im, y.re, wp), _neg(_mul(x.re, y.im, wp)), wp)
        return BigComplex(_div(re_num, den, wp), _div(im_num, den, wp))

    # -- algebraic / transcendental ----------------------------------------

    def sqrt(self, x: BigFloat) -> BigFloat:
        if x.sign < 0:
            raise DomainError("sqrt of a negative value")
        if x.sign == 0:
            return ZERO
        wp = self._wp
        man, exp = x.man, x.exp
        shift = max(0, 2 * (wp + 2) - man.bit_length())
        if (exp - shift) & 1:
            shift += 1
        m2 = man << shift
        r = math.isqrt(m2)
        exp = (exp - shift) >> 1
        if r * r != m2:
            # sticky bit: the doubled representative (2r+1) sits at half ulp
            r = (r << 1) | 1
            exp -= 1
        return _norm(1, r, exp, wp)

    def ln(self, x: BigFloat) -> BigFloat:
        if x.sign <= 0:
            raise DomainError("ln requires a positive argument")
        wp = self._wp
        bl = x.man.bit_length()
        # Normalise the significand into [sqrt(1/2), sqrt(2)) so that a
        # nonzero power-of-two exponent can never cancel against ln f.
        if x.man * x.man < 1 << (2 * bl - 1):  # f0 < sqrt(2)
            e = x.exp + bl - 1
            num = x.man - (1 << (bl - 1))
            den = x.man + (1 << (bl - 1))
        else:
            e = x.exp + bl
            num = x.man - (1 << bl)
            den = x.man + (1 << bl)
        if num == 0:
            if e == 0:
                return ZERO
            wp2 = wp + 32
            return _from_signed(e * _const("ln2", wp2), -wp2, wp)
        # Near x == 1 the leading zeros of u eat into the fixed-point budget.
        extra = max(0, bl - abs(num).bit_length()) if e == 0 else 0
        wp2 = wp + 32 + extra
        # atanh is odd; run the series on |u| so floor division terminates.
        u = (abs(num) << wp2) // den
        usq = (u * u) >> wp2
        term = u
        acc = u
        j = 3
        while term:
            term = (term * usq) >> wp2
            acc += term // j
            j += 2
        total = (acc << 1) if num > 0 else -(acc << 1)
        if e:
            total += e * _const("ln2", wp2)
        return _from_signed(total, -wp2, wp)

    def exp(self, x: BigFloat) -> BigFloat:
        wp = self._wp
        if x.sign == 0:
            return ONE
        top = _top(x)
        if top > 48:
            raise RangeError("exp argument magnitude exceeds 2**48")
        if x.sign < 0:
            # keeps the fixed-point series all-positive so floors terminate
            return _div(ONE, self.exp(_neg(x)), wp)
        rbits = max(8, math.isqrt(wp))
        k = max(0, top + rbits)
        wp2 = wp + k + 16
        # r = x / 2**k as fixed point scaled by 2**wp2; 0 < r < 2**-rbits.
        shift = x.exp - k + wp2
        r = x.man << shift if shift >= 0 else x.man >> -shift
        term = r
        acc = (1 << wp2) + r
        j = 2
        while term:
            term = ((term * r) >> wp2) // j
            acc += term
            j += 1
        result = _from_signed(acc, -wp2, wp2)
        for _ in range(k):
            result = _mul(result, result, wp2)
        return _norm(result.sign, result.man, result.exp, wp)

    def pi(self) -> BigFloat:
        wp2 = self._wp + 32
        return _norm(1, _const("pi", wp2), -wp2, self._wp)

    def pi_euler(self) -> BigFloat:
        """pi from the independent Euler arctangent split (for cross-checks)."""
        wp2 = self._wp + 32
        return _norm(1, _const("pi_euler", wp2), -wp2, self._wp)

    def ln2(self) -> BigFloat:
        wp2 = self._wp + 32
        return _norm(1, _const("ln2", wp2), -wp2, self._wp)

    def root_of_unity(self, a: int, m: int) -> BigComplex:
        """e**(2 pi i a / m) with a reduced mod m.

        Conjugate exponents (a and m-a) yield bit-identical real parts and
        bit-negated imaginary parts by construction.
        """
        if m < 1:
            raise DomainError(f"root_of_unity modulus must be positive, got {m}")
        a %= m
        level = _level(_ROOT_CACHE, self._wp)
        got = level.get((a, m))
        if got is not None:
            return got
        f = Fraction(a, m)
        sin_sign = 1
        cos_sign = 1
        if f > Fraction(1, 2):
            f = 1 - f
            sin_sign = -1
        if f > Fraction(1, 4):
            f = Fraction(1, 2) - f
            cos_sign = -1
        swap = False
        if f > Fraction(1, 8):
            f = Fraction(1, 4) - f
            swap = True
        wp2 = self._wp + 32
        sin_fp, cos_fp = _fp_sin_cos(f.numerator, f.denominator, wp2)
        if swap:
            sin_fp, cos_fp = cos_fp, sin_fp
        re = _norm(cos_sign, cos_fp, -wp2, self._wp)
        im = _norm(sin_sign, sin_fp, -wp2, self._wp)
        val = BigComplex(re, im)
        with _CACHE_LOCK:
            return level.setdefault((a, m), val)

    def complex_abs(self, z: BigComplex) -> BigFloat:
        # computed 32 bits wide so the square/sum/sqrt chain stays well
        # inside 1 ulp at the contract
        wide = PrecisionContext(self.prec_bits + 32)
        wp2 = wide._wp
        sq = _add(_mul(z.re, z.re, wp2), _mul(z.im, z.im, wp2), wp2)
        r = wide.sqrt(sq)
        return _norm(r.sign, r.man, r.exp, self._wp) if r.sign else ZERO

    def inv_root(self, x: BigFloat, s: int) -> BigFloat:
        """x**(-1/s) = exp(-ln(x)/s) for positive x and integer s >= 1.

        The chained rounding between ln and exp scales with |ln x|, so the
        chain runs 64 bits wide of the context before the final rounding.
        """
        if not isinstance(s, int) or s < 1:
            raise DomainError(f"inv_root order must be a positive integer, got {s!r}")
        if x.sign <= 0:
            raise DomainError("inv_root requires a positive argument")
        wide = PrecisionContext(self.prec_bits + 64)
        r = wide.exp(_div_int(_neg(wide.ln(x)), s, wide._wp))
        return _norm(r.sign, r.man, r.exp, self._wp)


# ---------------------------------------------------------------------------
# Conversions and rendering
# ---------------------------------------------------------------------------


def to_float(x: BigFloat) -> float:
    """Round a BigFloat to the nearest IEEE double."""
    if x.sign == 0:
        return 0.0
    try:
        return float(x.to_fraction())
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
