"""Character algebra tests: construction, labelling, group laws, export."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primerec.characters import (
    CHAR_ONE,
    CHAR_ZERO,
    CharValue,
    char_product,
    character,
    enumerate_characters,
    keller_one,
    unit_group,
)
from primerec.cli import run
from primerec.errors import DomainError, UnsupportedSizeError

R = CharValue.root


def phi(k: int) -> int:
    return max(1, sum(1 for n in range(k) if math.gcd(n, k) == 1))


def crt_lift(g: int, q: int, k: int) -> int:
    """The residue mod k that is g mod q and 1 mod k/q."""
    m = k // q
    return (g * m * pow(m, -1, q) + q * pow(q, -1, m)) % k


def multiplicative_order(g: int, q: int) -> int:
    acc = g % q
    order = 1
    while acc != 1:
        acc = acc * g % q
        order += 1
    return order


class TestCharValue:
    def test_reduction(self):
        assert R(2, 4) == R(1, 2)
        assert R(4, 4) == CHAR_ONE
        assert R(6, 4) == R(1, 2)
        assert R(-1, 4) == R(3, 4)

    def test_zero_absorbs(self):
        assert CHAR_ZERO.mul(R(1, 3)) == CHAR_ZERO
        assert R(1, 3).mul(CHAR_ZERO) == CHAR_ZERO

    def test_conjugate_inverse(self):
        v = R(2, 7)
        assert v.mul(v.conjugate()) == CHAR_ONE

    def test_real_detection(self):
        assert R(0, 1).is_real and R(1, 2).is_real and CHAR_ZERO.is_real
        assert not R(1, 4).is_real

    def test_str_forms(self):
        assert str(CHAR_ZERO) == "0"
        assert str(CHAR_ONE) == "1"
        assert str(R(1, 2)) == "-1"
        assert str(R(1, 4)) == "i"
        assert str(R(3, 4)) == "-i"
        assert str(R(1, 6)) == "e(1/6)"

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_mul_matches_exponent_addition(self, a1, m1, a2, m2):
        x, y = R(a1, m1), R(a2, m2)
        prod = x.mul(y)
        expect = (x.exponent() + y.exponent()) % 1
        assert prod.exponent() == expect
        assert x.mul(y) == y.mul(x)
        assert math.gcd(prod.a, prod.m) == 1 or prod.a == 0


class TestUnitGroup:
    def test_examples(self):
        assert unit_group(5).components[0].generators == ((2, 4),)
        assert unit_group(4).components[0].generators == ((3, 2),)
        assert unit_group(8).components[0].generators == ((7, 2), (5, 2))

    def test_generator_orders_verified_by_brute_force(self):
        for k in (3, 4, 5, 7, 8, 9, 15, 16, 21, 24, 40, 45):
            for comp in unit_group(k).components:
                q = comp.prime_power
                for g, order in comp.generators:
                    assert multiplicative_order(g, q) == order, (k, q, g)

    def test_order_product_is_phi(self):
        for k in range(1, 121):
            assert unit_group(k).phi() == phi(k), k

    def test_caps(self):
        with pytest.raises(DomainError):
            unit_group(0)
        with pytest.raises(UnsupportedSizeError):
            unit_group(10**4 + 1)
        assert unit_group(10**4).modulus == 10**4


EXPECTED_MOD5 = {
    1: (CHAR_ZERO, CHAR_ONE, CHAR_ONE, CHAR_ONE, CHAR_ONE),
    2: (CHAR_ZERO, CHAR_ONE, R(1, 4), R(3, 4), R(1, 2)),
    3: (CHAR_ZERO, CHAR_ONE, R(1, 2), R(1, 2), CHAR_ONE),
    4: (CHAR_ZERO, CHAR_ONE, R(3, 4), R(1, 4), R(1, 2)),
}


class TestEnumeration:
    def test_mod5_matches_reference_table(self):
        group = enumerate_characters(5)
        assert len(group) == 4
        for ch in group.characters:
            assert ch.table == EXPECTED_MOD5[ch.label], ch.label

    def test_mod4(self):
        group = enumerate_characters(4)
        assert len(group) == 2
        assert group.by_label(2)(3) == R(1, 2)

    def test_mod9(self):
        group = enumerate_characters(9)
        assert len(group) == 6
        assert group.by_label(2)(2) == R(1, 6)
        complex_labels = [ch.label for ch in group.characters if ch.has_complex_values]
        assert complex_labels == [2, 3, 5, 6]

    def test_counts_up_to_200(self):
        for k in range(1, 201):
            assert len(enumerate_characters(k)) == phi(k), k

    def test_zero_pattern_up_to_200(self):
        for k in range(1, 201):
            for ch in enumerate_characters(k).characters:
                for n in range(k):
                    assert ch(n).is_zero == (k > 1 and math.gcd(n, k) > 1), (k, ch.label, n)
                break  # the pattern is shared by the whole group's table mask

    def test_complete_multiplicativity_small_moduli(self):
        for k in list(range(1, 31)) + [45, 48]:
            for ch in enumerate_characters(k).characters:
                for m in range(k):
                    for n in range(k):
                        assert ch((m * n) % k) == ch(m).mul(ch(n)), (k, ch.label, m, n)

    def test_table_one_at_unity(self):
        for k in (2, 3, 12, 35):
            for ch in enumerate_characters(k).characters:
                assert ch(1).is_one

    def test_principal_is_label_one(self):
        for k in (3, 8, 9, 24):
            group = enumerate_characters(k)
            assert group.by_label(1).is_principal
            assert sum(ch.is_principal for ch in group.characters) == 1

    def test_by_label_range(self):
        with pytest.raises(DomainError):
            enumerate_characters(5).by_label(5)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 400), pick=st.integers(0, 10**6))
    def test_one_character_alone(self, k, pick):
        # the one table, equal and hashed alike, from the group's logs
        want = enumerate_characters(k).characters[pick % phi(k)]
        got = character(k, want.label)
        assert got == want and hash(got) == hash(want)
        assert got.exponents == want.exponents

    def test_one_character_label_range(self):
        for label in (0, 5):
            with pytest.raises(DomainError) as alone:
                character(5, label)
            with pytest.raises(DomainError) as grouped:
                enumerate_characters(5).by_label(label)
            assert str(alone.value) == str(grouped.value)

    def test_one_character_without_its_group(self):
        # the group mod 4999 holds 4998 tables of 4999 cells; one is built
        # alone, and no group is enumerated for it
        enumerate_characters.cache_clear()
        chi = character(4999, 2)
        assert enumerate_characters.cache_info().currsize == 0
        ((g, order),) = unit_group(4999).components[0].generators
        assert chi(g) == R(1, order) and order == 4998 and chi(4999).is_zero

    def test_group_cache_is_bounded(self):
        # one tables run touches 7 moduli: chars K, then dtable 4, 5, 8, 9, P
        # and the trivial group
        maxsize = enumerate_characters.cache_info().maxsize
        assert maxsize is not None and maxsize >= 7
        for k in range(300, 300 + maxsize + 3):
            enumerate_characters(k)
        assert enumerate_characters.cache_info().currsize == maxsize


class TestEvaluation:
    def test_periodicity_and_lookup(self):
        chi2 = enumerate_characters(5).by_label(2)
        assert chi2(3) == R(3, 4)
        assert chi2(10) == CHAR_ZERO
        assert chi2(8) == chi2(3)

    def test_negative_arguments_true_mod(self):
        chi2 = enumerate_characters(5).by_label(2)
        assert chi2(-2) == chi2(3)
        assert chi2(-10) == CHAR_ZERO

    def test_keller_one(self):
        k1 = keller_one()
        assert k1.modulus == 1
        assert k1(6).is_one
        assert k1(0).is_one
        assert len(enumerate_characters(1)) == 1


class TestProduct:
    def test_reference_products(self):
        g = enumerate_characters(5)
        assert char_product(g.by_label(2), g.by_label(4)).label == 1
        assert char_product(g.by_label(2), g.by_label(2)).label == 3

    def test_principal_is_identity(self):
        for k in (5, 8, 9):
            g = enumerate_characters(k)
            for ch in g.characters:
                assert char_product(g.by_label(1), ch).label == ch.label

    def test_group_closure_by_table(self):
        for k in (5, 8, 9, 12):
            g = enumerate_characters(k)
            for a in g.characters:
                for b in g.characters:
                    p = char_product(a, b)
                    assert p.table == tuple(x.mul(y) for x, y in zip(a.table, b.table))

    def test_modulus_mismatch(self):
        with pytest.raises(DomainError):
            char_product(enumerate_characters(4).by_label(1), enumerate_characters(5).by_label(1))

    def test_conjugate_label(self):
        g = enumerate_characters(5)
        assert g.by_label(2).conjugate_label() == 4
        assert g.by_label(1).conjugate_label() == 1
        g9 = enumerate_characters(9)
        assert g9.by_label(2).conjugate_label() == 6
        assert g9.by_label(3).conjugate_label() == 5


# every k <= 60, plus groups whose generator orders differ from their lcm
LABELLING_MODULI = list(range(1, 61)) + [720, 997, 1000]


class TestLabelling:
    def test_generators_map_to_exponent_roots(self):
        for k in LABELLING_MODULI:
            group = enumerate_characters(k)
            gens = [
                (crt_lift(g, c.prime_power, k), order)
                for c in group.structure.components
                for g, order in c.generators
            ]
            for ch in group.characters:
                assert len(ch.exponents) == len(gens)
                for (x, order), t in zip(gens, ch.exponents):
                    assert ch(x) == R(t, order), (k, ch.label, x)

    def test_conjugate_label_matches_table_scan(self):
        for k in LABELLING_MODULI:
            group = enumerate_characters(k)
            label_of_table = {ch.table: ch.label for ch in group.characters}
            for ch in group.characters:
                conj = tuple(v.conjugate() for v in ch.table)
                assert ch.conjugate_label() == label_of_table[conj], (k, ch.label)


class TestExport:
    def test_csv_shape_and_zero_cells(self, capsys):
        assert run(["chars", "--modulus", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "label,n,kind,a,m"
        assert len(lines) == 1 + 4 * 5
        assert lines[1] == "1,0,zero,,"
        assert "2,2,root,1,4" in lines
