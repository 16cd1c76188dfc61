"""Exact-oracle arithmetic tests and the built-in verification suites."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primerec import selftest
from primerec.characters import CHAR_ONE, CHAR_ZERO, CharacterGroup, CharValue, enumerate_characters
from primerec.errors import DomainError
from primerec.mpnum import fixed_root
from primerec.oracle import (
    G_ONE,
    GaussianRational,
    char_value_exact,
    euler_product_exact,
    l_partial_sum_exact,
)
from primerec.selftest import (
    CHARACTER_K_MAX,
    _generators,
    brute_force_equivalence_failures,
    character_property_failures,
    oracle_equivalence_failures,
)


class TestGaussianRational:
    def test_field_ops(self):
        i = GaussianRational(Fraction(0), Fraction(1))
        assert i * i == GaussianRational(Fraction(-1), Fraction(0))
        z = GaussianRational(Fraction(3), Fraction(4))
        assert z * z.reciprocal() == G_ONE
        assert z.abs2() == 25

    def test_reciprocal_of_zero(self):
        with pytest.raises(DomainError):
            GaussianRational().reciprocal()

    def test_char_value_mapping(self):
        assert char_value_exact(CharValue.root(1, 4)).im == 1
        assert char_value_exact(CharValue.root(1, 2)).re == -1
        assert char_value_exact(CharValue.zero()) == GaussianRational()
        with pytest.raises(DomainError):
            char_value_exact(CharValue.root(1, 6))

    def test_partial_sum_head(self):
        chi2 = enumerate_characters(5).by_label(2)
        got = l_partial_sum_exact(chi2, 1, 4)
        assert got == GaussianRational(Fraction(3, 4), Fraction(1, 6))

    def test_euler_product_value(self):
        chi2 = enumerate_characters(5).by_label(2)
        got = euler_product_exact(chi2, 2, 1)
        assert got == GaussianRational(Fraction(16, 17), Fraction(4, 17))


class TestSuites:
    def test_character_properties_small(self):
        assert character_property_failures(20) == []

    def test_brute_force_agreement(self):
        assert brute_force_equivalence_failures() == []

    def test_oracle_equivalence(self):
        assert oracle_equivalence_failures() == []

    def test_cli_selftest_exit_code(self, capsys):
        from primerec.cli import run

        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_cli_selftest_reflects_failures(self, capsys, monkeypatch):
        from primerec import selftest
        from primerec.cli import run

        monkeypatch.setattr(
            selftest, "character_property_failures", lambda *a, **k: ["forced failure"]
        )
        assert run(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    @pytest.mark.parametrize("k, label, cell", [(7, 3, 5), (16, 6, 9), (45, 20, 44)])
    def test_corrupted_cell_fails_multiplicativity(self, capsys, monkeypatch, k, label, cell):
        from primerec import selftest
        from primerec.cli import run

        group = enumerate_characters(k)
        ch = group.by_label(label)
        table = list(ch.table)
        table[cell] = table[cell].mul(CharValue.root(1, 3))
        bad = ch._replace(table=tuple(table))
        chars = tuple(bad if c.label == label else c for c in group.characters)
        corrupt = CharacterGroup(group.modulus, group.structure, chars)
        real = selftest.enumerate_characters
        monkeypatch.setattr(selftest, "enumerate_characters", lambda m: corrupt if m == k else real(m))
        # the first (m, n), m-major, with chi(m n) != chi(m) chi(n), by CharValue algebra
        m, n = next(
            (m, n) for m in range(k) for n in range(k) if bad(m * n % k) != bad(m).mul(bad(n))
        )
        message = f"modulus {k} label {label}: multiplicativity fails at ({m},{n})"
        assert character_property_failures(k)[0] == message
        assert run(["selftest"]) >= 1
        out = capsys.readouterr().out
        assert "FAIL  character properties" in out and message in out


def _all_pairs_failures(group) -> list:
    """The character suite on one group by the all-pairs scan.

    Every (m, n) is compared, m-major, and every cell's root is summed: the
    reference that the generator proof in ``character_property_failures``
    must reproduce message for message.
    """
    k = group.modulus
    failures = []
    phi = sum(1 for n in range(k) if math.gcd(n, k) == 1)
    if len(group) != phi:
        failures.append(f"modulus {k}: expected {phi} characters, got {len(group)}")
    for ch in group.characters:
        lcm = math.lcm(*(v.m for v in ch.table))
        e = [None if v.is_zero else v.a * (lcm // v.m) for v in ch.table]
        for m in range(k):
            em = e[m]
            row = [e[m * n % k] for n in range(k)]
            want = [None] * k if em is None else [None if x is None else (em + x) % lcm for x in e]
            if row != want:
                n = next(n for n in range(k) if row[n] != want[n])
                failures.append(f"modulus {k} label {ch.label}: multiplicativity fails at ({m},{n})")
                break
        for n in range(k):
            if ch(n).is_zero != (k > 1 and math.gcd(n, k) > 1):
                failures.append(f"modulus {k} label {ch.label}: zero pattern fails at n={n}")
                break
        if not ch.is_principal:
            roots = [fixed_root(v.a, v.m, 256) for v in map(ch, range(k)) if not v.is_zero]
            re, im = sum(r[0] for r in roots), sum(r[1] for r in roots)
            if re * re + im * im > 1 << 112:
                failures.append(
                    f"modulus {k} label {ch.label}: orthogonality sum is ({re} + {im}i) * 2**-256"
                )
    return failures


def _corrupt(k: int, label: int, cell: int, value: CharValue) -> CharacterGroup:
    group = enumerate_characters(k)
    ch = group.by_label(label)
    bad = ch._replace(table=ch.table[:cell] + (value,) + ch.table[cell + 1 :])
    chars = tuple(bad if c.label == label else c for c in group.characters)
    return CharacterGroup(k, group.structure, chars)


@st.composite
def _corruptions(draw):
    """(k, label, cell, value): a zero put on a unit, a root put on a
    non-unit, or a unit's root shifted by a root of order 2..12."""
    k = draw(st.integers(min_value=1, max_value=CHARACTER_K_MAX))
    group = enumerate_characters(k)
    label = draw(st.integers(min_value=1, max_value=len(group)))
    cell = draw(st.integers(min_value=0, max_value=k - 1))
    old = group.by_label(label).table[cell]
    order = draw(st.integers(min_value=2, max_value=12))
    shift = CharValue.root(draw(st.integers(min_value=1, max_value=order - 1)), order)
    if old.is_zero:
        value = draw(st.sampled_from([CHAR_ONE, shift]))
    else:
        value = draw(st.sampled_from([CHAR_ZERO, old.mul(shift)]))
    return k, label, cell, value


class TestGeneratorProof:
    def test_generators_span_the_units(self):
        for k in range(1, 301):
            units = [n for n in range(k) if math.gcd(n, k) == 1]
            gens = _generators(k, units)
            assert gens == sorted(gens) and all(g in units for g in gens), k
            closure, frontier = {1 % k}, [1 % k]
            while frontier:
                x = frontier.pop()
                for y in (x * g % k for g in gens):
                    if y not in closure:
                        closure.add(y)
                        frontier.append(y)
            assert closure == set(units), k

    @given(_corruptions())
    @example((1, 1, 0, CHAR_ZERO))
    @example((1, 1, 0, CharValue.root(1, 3)))
    @example((2, 1, 0, CHAR_ONE))
    @example((2, 1, 1, CharValue.root(1, 2)))
    @example((3, 2, 2, CharValue.root(1, 1)))
    @settings(max_examples=200, deadline=None)
    def test_failures_match_the_all_pairs_scan(self, corruption):
        corrupt = _corrupt(*corruption)
        k = corrupt.modulus
        with pytest.MonkeyPatch.context() as mp:
            real = selftest.enumerate_characters
            mp.setattr(selftest, "enumerate_characters", lambda m: corrupt if m == k else real(m))
            assert character_property_failures(k) == _all_pairs_failures(corrupt)
