"""Dirichlet characters modulo k with exact root-of-unity values.

A character mod k is a completely multiplicative, k-periodic map from the
integers to the complex numbers that vanishes exactly on the residues
sharing a factor with k.  On the units it takes root-of-unity values, which
this module keeps exact: a ``CharValue`` is either ``zero`` or the reduced
exponent pair ``(a, m)`` standing for ``e**(2 pi i a/m)``.  No floating
point enters character algebra; conversion to complex numbers happens in
the consumers.

Group structure and labelling
-----------------------------
The unit group mod k is decomposed by CRT into prime-power components.
For an odd prime power the smallest primitive root is used as the single
generator; the powers of two contribute no generator for 2, the generator
``(3, order 2)`` for 4, and the fixed pair ``(2**a - 1, order 2)``,
``(5, order 2**(a-2))`` for 2**a with a >= 3, listed in that order.

Characters are enumerated by mixed-radix counting over the generator
exponent tuple ``(t_1, ..., t_r)`` with the *last* generator's exponent
varying fastest, and ``label = 1 + sum t_i * (product of later radices)``.
Label 1 is always the principal character, and for a cyclic unit group with
generator g this makes character j send g to ``e**(2 pi i (j-1)/phi(k))``.

Values
------
Every value of a group is ``e(a/lam)`` with ``lam`` the lcm of the generator
orders ``o_i`` (the Carmichael exponent of k): the character with exponents
``t_i`` sends a unit with discrete logs ``d_i`` to
``a = sum t_i * d_i * (lam/o_i) mod lam``.  The ``lam`` values are built
once per group and shared by every cell holding them, so enumeration is an
integer dot product and a list index, with no ``Fraction`` arithmetic.
Tables are dense and indexed by residue (modulus cap 10**4), so evaluation
is a table lookup and group identities can be checked cell by cell.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DomainError, UnsupportedSizeError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CharValue",
    "CHAR_ZERO",
    "CHAR_ONE",
    "UnitGroupComponent",
    "UnitGroupStructure",
    "DirichletCharacter",
    "CharacterGroup",
    "unit_group",
    "enumerate_characters",
    "keller_one",
    "char_product",
]

MODULUS_CAP = 10**4
# Groups kept by ``enumerate_characters``: enough for the moduli one analysis
# run touches (a ``chars`` table plus a five-modulus ``dtable`` and the
# trivial group), while a process enumerating many large moduli stays bounded.
_CACHED_GROUPS = 8


@dataclass(frozen=True)
class CharValue:
    """Exact character value: zero, or the root of unity e**(2 pi i a/m)."""

    kind: str  # "zero" or "root"
    a: int = 0
    m: int = 1

    @staticmethod
    def zero() -> "CharValue":
        return CHAR_ZERO

    @staticmethod
    def root(a: int, m: int) -> "CharValue":
        if m < 1:
            raise DomainError("root-of-unity denominator must be positive")
        a %= m
        if a == 0:
            return CHAR_ONE
        g = math.gcd(a, m)
        return CharValue("root", a // g, m // g)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_one(self) -> bool:
        return self.kind == "root" and self.a == 0

    @property
    def is_real(self) -> bool:
        """True when the value is 0, 1 or -1."""
        return self.kind == "zero" or self.m <= 2

    def exponent(self) -> Fraction:
        from fractions import Fraction

        if self.is_zero:
            raise DomainError("the zero value has no root-of-unity exponent")
        return Fraction(self.a, self.m)

    def mul(self, other: "CharValue") -> "CharValue":
        if self.is_zero or other.is_zero:
            return CHAR_ZERO
        return CharValue.root(self.a * other.m + other.a * self.m, self.m * other.m)

    def conjugate(self) -> "CharValue":
        if self.is_zero:
            return CHAR_ZERO
        return CharValue.root(self.m - self.a, self.m)

    def __str__(self):
        if self.is_zero:
            return "0"
        if self.m == 1:
            return "1"
        if self.m == 2:
            return "-1"
        if self.m == 4:
            return "i" if self.a == 1 else "-i"
        return f"e({self.a}/{self.m})"


CHAR_ZERO = CharValue("zero")
CHAR_ONE = CharValue("root", 0, 1)


@dataclass(frozen=True)
class UnitGroupComponent:
    prime_power: int
    generators: tuple  # of (residue, order) pairs


@dataclass(frozen=True)
class UnitGroupStructure:
    modulus: int
    components: tuple  # of UnitGroupComponent

    def generator_orders(self) -> tuple:
        return tuple(o for c in self.components for _, o in c.generators)

    def phi(self) -> int:
        return math.prod(self.generator_orders())


@dataclass(frozen=True)
class DirichletCharacter:
    """One character mod k: label, generator exponents and the dense table."""

    modulus: int
    label: int
    exponents: tuple  # one exponent per generator, in group order
    table: tuple  # CharValue for residues 0 .. k-1

    def __call__(self, n: int) -> CharValue:
        return self.table[n % self.modulus]

    @property
    def is_principal(self) -> bool:
        return all(t == 0 for t in self.exponents)

    @property
    def has_complex_values(self) -> bool:
        return any(not v.is_real for v in self.table)

    def conjugate_label(self) -> int:
        orders = enumerate_characters(self.modulus).structure.generator_orders()
        return _label(tuple(-t for t in self.exponents), orders)

    def __repr__(self):
        return f"DirichletCharacter(modulus={self.modulus}, label={self.label})"


@dataclass(frozen=True)
class CharacterGroup:
    modulus: int
    structure: UnitGroupStructure
    characters: tuple  # of DirichletCharacter, in label order

    def __len__(self):
        return len(self.characters)

    def by_label(self, label: int) -> DirichletCharacter:
        if not 1 <= label <= len(self.characters):
            raise DomainError(
                f"label {label} out of range 1..{len(self.characters)} for modulus {self.modulus}"
            )
        return self.characters[label - 1]


def _factorize(k: int) -> list:
    out = []
    p = 2
    while p * p <= k:
        if k % p == 0:
            a = 0
            while k % p == 0:
                k //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if k > 1:
        out.append((k, 1))
    return out


def _prime_factors(n: int) -> list:
    return [p for p, _ in _factorize(n)]


def _smallest_primitive_root(q: int, p: int) -> int:
    phi_q = q // p * (p - 1)
    checks = [phi_q // ell for ell in _prime_factors(phi_q)]
    g = 2
    while True:
        if g % p != 0 and all(pow(g, c, q) != 1 for c in checks):
            return g
        g += 1


def _validate_modulus(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"modulus must be a positive integer, got {k!r}")
    if k > MODULUS_CAP:
        raise UnsupportedSizeError(f"modulus {k} exceeds the dense-table cap of {MODULUS_CAP}")


def unit_group(k: int) -> UnitGroupStructure:
    """CRT decomposition of (Z/k)* with deterministic generators."""
    _validate_modulus(k)
    components = []
    for p, a in _factorize(k):
        q = p**a
        if p == 2:
            if a == 1:
                gens = ()
            elif a == 2:
                gens = ((3, 2),)
            else:
                gens = ((q - 1, 2), (5, q // 4))
        else:
            g = _smallest_primitive_root(q, p)
            gens = ((g, q // p * (p - 1)),)
        components.append(UnitGroupComponent(q, gens))
    return UnitGroupStructure(k, tuple(components))


def _component_dlogs(comp: UnitGroupComponent) -> dict:
    """residue -> exponent tuple over this component's generators."""
    q = comp.prime_power
    table = {1 % q: ()}
    for g, order in comp.generators:
        extended = {}
        for acc, exps in table.items():
            for i in range(order):
                extended[acc] = exps + (i,)
                acc = acc * g % q
        table = extended
    return table


def _label(exponents: tuple, orders: tuple) -> int:
    """Mixed-radix label of an exponent tuple, each exponent taken mod its order."""
    idx = 0
    for t, o in zip(exponents, orders):
        idx = idx * o + t % o
    return idx + 1


def _exponents(label: int, orders: tuple) -> tuple:
    """Inverse of ``_label``: the exponent tuple of a label."""
    idx = label - 1
    exponents = [0] * len(orders)
    for pos in range(len(orders) - 1, -1, -1):
        idx, exponents[pos] = divmod(idx, orders[pos])
    return tuple(exponents)


@lru_cache(maxsize=_CACHED_GROUPS)
def enumerate_characters(k: int) -> CharacterGroup:
    """All phi(k) characters mod k, labelled per the mixed-radix convention."""
    structure = unit_group(k)
    orders = structure.generator_orders()
    lam = math.lcm(*orders)
    roots = [CharValue.root(a, lam) for a in range(lam)]
    comp_dlogs = [_component_dlogs(c) for c in structure.components]
    qs = [c.prime_power for c in structure.components]

    # discrete logs scaled to the common denominator lam; None off the units
    scaled_dlogs = []
    for n in range(k):
        if math.gcd(n, k) == 1:
            vec = []
            for q, dl in zip(qs, comp_dlogs):
                vec.extend(dl[n % q])
            scaled_dlogs.append(tuple(d * (lam // o) for d, o in zip(vec, orders)))
        else:
            scaled_dlogs.append(None)

    characters = []
    for label in range(1, math.prod(orders) + 1):
        exponents = _exponents(label, orders)
        table = tuple(
            CHAR_ZERO if vec is None else roots[sum(map(operator.mul, exponents, vec)) % lam]
            for vec in scaled_dlogs
        )
        characters.append(DirichletCharacter(k, label, exponents, table))
    return CharacterGroup(k, structure, tuple(characters))


def keller_one() -> DirichletCharacter:
    """The modulus-1 character: identically 1 (gcd(n, 1) = 1 for every n).

    With every value 1 the L-sum degenerates to the plain zeta partial sum,
    so this character selects the classical form of the recursion.  Note it
    maps 0 to 1 as well.
    """
    return enumerate_characters(1).characters[0]


def char_product(x: DirichletCharacter, y: DirichletCharacter) -> DirichletCharacter:
    """Pointwise product, returned as the group member with matching table."""
    if x.modulus != y.modulus:
        raise DomainError(
            f"cannot multiply characters of different moduli ({x.modulus} and {y.modulus})"
        )
    group = enumerate_characters(x.modulus)
    orders = group.structure.generator_orders()
    return group.by_label(_label(tuple(a + b for a, b in zip(x.exponents, y.exponents)), orders))

