"""Built-in verification suites: character properties and oracle equivalence.

These are the same checks the test battery runs, packaged so a deployed
installation can validate itself from the command line.  Each check prints
one PASS/FAIL line; the entry point returns the number of failures.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter

from . import oracle, recursion
from .characters import CHAR_ZERO, CharValue, enumerate_characters
from .mpnum import fixed_root

__all__ = ["run_selftest", "character_property_failures", "oracle_equivalence_failures"]

CHARACTER_K_MAX = 50
BRUTE_FORCE_K = (3, 4, 5, 8)
ORACLE_MODULI = (1, 4, 8)
ORACLE_N = range(1, 7)
ORACLE_S = (5, 10, 20, 40)
ORACLE_REL_BITS = 64


def _generators(k: int, units: list) -> list:
    """Ascending units mod k, each outside the subgroup the earlier ones generate.

    The subgroup is grown by closure alone: every element reached is
    multiplied by every generator kept so far until nothing new appears.
    Together the returned units generate ``units``; ``[]`` for k = 1 and 2.
    """
    gens, subgroup = [], {1 % k}
    for u in units:
        if u in subgroup:
            continue
        gens.append(u)
        subgroup.add(u)
        frontier = [u]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % k
                if y not in subgroup:
                    subgroup.add(y)
                    frontier.append(y)
    return gens


def _first_nonmultiplicative_pair(e: list, k: int, lcm: int):
    """The first (m, n), m-major, with chi(m n) != chi(m) chi(n), or None."""
    for m in range(k):
        em = e[m]
        row = [e[m * n % k] for n in range(k)]
        want = [None] * k if em is None else [None if x is None else (em + x) % lcm for x in e]
        if row != want:
            return m, next(n for n in range(k) if row[n] != want[n])
    return None


def character_property_failures(k_max: int = CHARACTER_K_MAX) -> list:
    """Count, distinct tables, multiplicativity, orthogonality, zeros; k <= k_max.

    Each value e(a/m) of the group mod k is held as the exponent
    ``a * (lam / m)`` of e(1/lam), for lam the lcm of the group's value
    denominators (None for zero), and complete multiplicativity is proved
    from a generating set of the units rather than by comparing every pair:

    * The zero pattern is checked first: chi(n) = 0 exactly when
      gcd(n, k) > 1.  Then a pair with a non-unit factor has a non-unit
      product, and both sides of chi(m n) = chi(m) chi(n) are zero.
    * Let H be the set of units n with chi(m n) = chi(m) chi(n) for every
      unit m.  H is closed under products: for n1, n2 in H,
      chi(m n1 n2) = chi(m n1) chi(n2) = chi(m) chi(n1) chi(n2)
      = chi(m) chi(n1 n2), the last step being n2's property at m = n1.
    * In a finite group a nonempty subset closed under products is a
      subgroup.  Checking chi(m g) = chi(m) chi(g) for every unit m and
      every generator g (found by ``_generators``, which does not consult
      ``characters``) puts the generators in H, so H holds every unit.
    * chi(1) = 1 puts 1 in H, which settles the trivial unit groups of
      k = 1 and 2, where there is no generator.

    That is O(k * r) work per character for r generators.  Only when the
    proof or the zero pattern fails is every pair scanned, m-major, to name
    the first failing (m, n).  Label 1 must be 1 on every unit; every other
    label's values must sum to zero, with each root e(a/lam) taken once per
    modulus.  No table may repeat an earlier label's.
    """
    failures = []
    for k in range(1, k_max + 1):
        group = enumerate_characters(k)
        zeros = [math.gcd(n, k) != 1 for n in range(k)]
        units = [n for n in range(k) if not zeros[n]]
        # each generator g with the residues m * g of the units m
        images = [(g, [m * g % k for m in units]) for g in _generators(k, units)]
        if len(group) != len(units):
            failures.append(f"modulus {k}: expected {len(units)} characters, got {len(group)}")
        values = set().union(*(ch.table for ch in group.characters))
        lam = math.lcm(*(v.m for v in values))
        exponent = {v: None if v.is_zero else v.a * (lam // v.m) for v in values}
        roots = {x: fixed_root(x, lam, 256) for x in exponent.values() if x is not None}
        labels = {}
        for ch in group.characters:
            e = [exponent[v] for v in ch.table]
            zeros_hold = [x is None for x in e] == zeros
            proved = zeros_hold and e[1 % k] == 0 and all(
                [e[i] for i in mg] == [(e[m] + e[g]) % lam for m in units] for g, mg in images
            )
            if not proved:
                pair = _first_nonmultiplicative_pair(e, k, lam)
                if pair is not None:
                    m, n = pair
                    failures.append(
                        f"modulus {k} label {ch.label}: multiplicativity fails at ({m},{n})"
                    )
            if not zeros_hold:
                n = next(n for n in range(k) if (e[n] is None) != zeros[n])
                failures.append(f"modulus {k} label {ch.label}: zero pattern fails at n={n}")
            if ch.label == 1:
                n = next((n for n in units if e[n] != 0), None)
                if n is not None:
                    failures.append(f"modulus {k} label 1: value at unit n={n} is not 1")
            else:
                # the sum of the values, scaled by 2**256, must be below 2**-200
                re = im = 0
                for x, count in Counter(e).items():
                    if x is not None:
                        cos, sin = roots[x]
                        re += count * cos
                        im += count * sin
                if re * re + im * im > 1 << 112:
                    failures.append(
                        f"modulus {k} label {ch.label}: orthogonality sum is "
                        f"({re} + {im}i) * 2**-256"
                    )
            first = labels.setdefault(ch.table, ch.label)
            if first != ch.label:
                failures.append(f"modulus {k} label {ch.label}: table repeats label {first}")
    return failures


def _brute_force_tables(k: int) -> set:
    """Every completely multiplicative unit-valued table mod k, by search.

    Exhaustively assigns each unit a phi(k)-th root of unity (exponents
    0..phi-1, with f(1) fixed to 1), keeps the assignments that are
    completely multiplicative, and fills non-units with 0.  Unit values of
    any such table are roots of unity of order dividing phi(k), so the
    search space is a superset of all valid tables.
    """
    units = [n for n in range(k) if math.gcd(n, k) == 1]
    phi = len(units)
    free_units = [u for u in units if u != 1]
    tables = set()
    for combo in itertools.product(range(phi), repeat=len(free_units)):
        f = {1: 0}
        f.update(zip(free_units, combo))
        if all(f[(a * b) % k] == (f[a] + f[b]) % phi for a in units for b in units):
            tables.add(
                tuple(
                    CharValue.root(f[n], phi) if math.gcd(n, k) == 1 else CHAR_ZERO
                    for n in range(k)
                )
            )
    return tables


def brute_force_equivalence_failures(ks=BRUTE_FORCE_K) -> list:
    failures = []
    for k in ks:
        found = {ch.table for ch in enumerate_characters(k).characters}
        expected = _brute_force_tables(k)
        if found != expected:
            failures.append(
                f"modulus {k}: enumerated tables disagree with brute-force search "
                f"({len(found)} vs {len(expected)})"
            )
    return failures


def oracle_equivalence_failures() -> list:
    """Multiprecision residual vs the exact Gaussian-rational route."""
    failures = []
    for k in ORACLE_MODULI:
        for ch in enumerate_characters(k).characters:
            for n in ORACLE_N:
                for s in ORACLE_S:
                    value = recursion.residual(n, s, ch)
                    exact = oracle.residual_exact(n, s, ch)
                    if not oracle.abs2_delta_within(value, exact, ORACLE_REL_BITS):
                        failures.append(
                            f"residual(n={n}, s={s}, modulus {k} label {ch.label}) "
                            f"deviates from the exact oracle beyond 2**-{ORACLE_REL_BITS}"
                        )
    return failures


def run_selftest(stream=None) -> int:
    """Run all suites, print one line per suite, return the failure count."""
    stream = stream or sys.stdout

    def report(name: str, failures: list) -> int:
        tag = "PASS" if not failures else "FAIL"
        print(f"{tag}  {name}", file=stream)
        for f in failures[:20]:
            print(f"      {f}", file=stream)
        return len(failures)

    total = 0
    total += report(
        f"character properties (count, multiplicativity, orthogonality, zeros; k <= {CHARACTER_K_MAX})",
        character_property_failures(),
    )
    total += report(
        f"brute-force character equivalence (k in {BRUTE_FORCE_K})",
        brute_force_equivalence_failures(),
    )
    total += report(
        f"oracle equivalence (moduli {ORACLE_MODULI}, n in [1,6], s in {ORACLE_S})",
        oracle_equivalence_failures(),
    )
    return total
