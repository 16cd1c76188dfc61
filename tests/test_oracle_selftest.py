"""Exact-oracle arithmetic tests and the built-in verification suites."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primerec import selftest
from primerec.characters import CHAR_ONE, CHAR_ZERO, CharacterGroup, CharValue, enumerate_characters
from primerec.errors import DomainError
from primerec.mpnum import ZERO, BigComplex, BigFloat, fixed_root
from primerec.oracle import (
    G_ONE,
    GaussianRational,
    abs2_delta_within,
    char_value_exact,
    euler_product_exact,
    l_partial_sum_exact,
    residual_exact,
)
from primerec.primes import first_n_primes, nth_prime
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

    def test_euler_product_with_a_zero_factor(self):
        # at s = 0 the factor 1 - chi(2) / 2**0 of the trivial character is 0
        with pytest.raises(DomainError, match="reciprocal of zero"):
            euler_product_exact(enumerate_characters(1).characters[0], 0, 1)


# The Fraction route the oracle used before it ran on integers: every term
# and every Euler factor a GaussianRational, normalised at each step.
_EXACT_ROOTS = {
    CHAR_ONE: G_ONE,
    CharValue.root(1, 4): GaussianRational(Fraction(0), Fraction(1)),
    CharValue.root(1, 2): GaussianRational(Fraction(-1), Fraction(0)),
    CharValue.root(3, 4): GaussianRational(Fraction(0), Fraction(-1)),
}


def _fraction_l_partial_sum(chi, s: int, J: int) -> GaussianRational:
    acc = GaussianRational()
    for j in range(1, J + 1):
        v = chi(j)
        if not v.is_zero:
            acc = acc + _EXACT_ROOTS[v].scale(Fraction(1, j**s))
    return acc


def _fraction_euler_product(chi, s: int, n: int) -> GaussianRational:
    acc = G_ONE
    for p in first_n_primes(n):
        v = chi(p)
        if not v.is_zero:
            acc = acc * (G_ONE - _EXACT_ROOTS[v].scale(Fraction(1, p**s))).reciprocal()
    return acc


def _fraction_abs2_delta_within(value, exact, rel_bits: int) -> bool:
    dre = value.re.to_fraction() - exact.re
    dim = value.im.to_fraction() - exact.im
    tol = Fraction(1, 1 << rel_bits)
    return dre * dre + dim * dim <= tol * tol * exact.abs2()


# every character mod a divisor of 240: all of their values are fourth roots
_FOURTH_ROOT_CHARACTERS = [
    ch for k in range(1, 241) if 240 % k == 0 for ch in enumerate_characters(k).characters
]


def _assert_routes_agree(chi, n: int, s: int) -> None:
    J = 2 * nth_prime(n) - 1
    got = (l_partial_sum_exact(chi, s, J), euler_product_exact(chi, s, n), residual_exact(n, s, chi))
    want_l, want_e = _fraction_l_partial_sum(chi, s, J), _fraction_euler_product(chi, s, n)
    assert got == (want_l, want_e, want_l - want_e), (chi, n, s)
    assert all(type(part) is Fraction for g in got for part in (g.re, g.im))


class TestIntegerOracle:
    def test_every_character_mod_a_divisor_of_240(self):
        assert len(_FOURTH_ROOT_CHARACTERS) == 240  # sum of phi(k) over k | 240
        assert all(v.is_zero or 4 % v.m == 0 for ch in _FOURTH_ROOT_CHARACTERS for v in ch.table)
        # i cycles n through 1..8 and s through 1..60 (7 is prime to 60)
        for i, chi in enumerate(_FOURTH_ROOT_CHARACTERS):
            _assert_routes_agree(chi, 1 + i % 8, 1 + 7 * i % 60)

    @given(st.sampled_from(_FOURTH_ROOT_CHARACTERS), st.integers(1, 8), st.integers(1, 60))
    @example(_FOURTH_ROOT_CHARACTERS[-1], 8, 60)
    @example(_FOURTH_ROOT_CHARACTERS[0], 1, 1)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_route(self, chi, n, s):
        _assert_routes_agree(chi, n, s)

    def test_refuses_values_beyond_fourth_roots(self):
        chi = enumerate_characters(7).by_label(2)  # sixth roots
        for call in (
            lambda: l_partial_sum_exact(chi, 2, 5),
            lambda: euler_product_exact(chi, 2, 4),
            lambda: residual_exact(3, 2, chi),
        ):
            with pytest.raises(DomainError, match="fourth roots of unity only"):
                call()


def _bigfloat(v: int, exp: int) -> BigFloat:
    """v * 2**exp in canonical form (no trailing zero bits; zero is ZERO)."""
    if v == 0:
        return ZERO
    tz = (v & -v).bit_length() - 1
    return BigFloat(1 if v > 0 else -1, abs(v) >> tz, exp + tz)


@st.composite
def _values_near_exact(draw):
    """(value, exact): an exact Gaussian rational, either part possibly zero,
    and a value whose parts round it to 2**-b (b < 0 gives positive
    exponents), then move by up to two units of 2**-b."""
    parts = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10**40))
    exact = GaussianRational(draw(parts), draw(parts))
    value = []
    for part in (exact.re, exact.im):
        b = draw(st.integers(min_value=-80, max_value=400))
        value.append(_bigfloat(round(part * Fraction(2) ** b) + draw(st.integers(-2, 2)), -b))
    return BigComplex(*value), exact


class TestAbs2DeltaWithin:
    @given(_values_near_exact(), st.integers(min_value=0, max_value=200))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_fraction_comparison(self, pair, rel_bits):
        value, exact = pair
        assert abs2_delta_within(value, exact, rel_bits) == _fraction_abs2_delta_within(
            value, exact, rel_bits
        )

    @pytest.mark.parametrize("re, im", [(3, 4), (3, 0), (0, -5)])
    @pytest.mark.parametrize("scale", [-40, 0, 70])
    def test_the_tolerance_boundary_is_accepted(self, re, im, scale):
        exact = GaussianRational(Fraction(re) * Fraction(2) ** scale, Fraction(im) * Fraction(2) ** scale)
        for r in range(201):
            # exact * (1 + 2**-r): |value - exact| is 2**-r |exact| exactly
            on = BigComplex(_bigfloat(re * (2**r + 1), scale - r), _bigfloat(im * (2**r + 1), scale - r))
            # one unit of 2**(scale - r - 1) further out on the real axis
            off = BigComplex(_bigfloat(2 * re * (2**r + 1) + 1, scale - r - 1), on.im)
            for value, rel_bits, want in ((on, r, True), (on, r + 1, False), (off, r, False)):
                assert abs2_delta_within(value, exact, rel_bits) is want, (r, rel_bits)
                assert _fraction_abs2_delta_within(value, exact, rel_bits) is want, (r, rel_bits)

    def test_an_exact_zero_accepts_only_zero(self):
        exact = GaussianRational()
        tiny = BigComplex(ZERO, _bigfloat(1, -10**4))
        for rel_bits in (0, 64, 200):
            assert abs2_delta_within(BigComplex(ZERO, ZERO), exact, rel_bits)
            assert not abs2_delta_within(tiny, exact, rel_bits)


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

    def test_cli_selftest_fails_on_a_repeated_table(self, capsys, monkeypatch):
        from primerec import selftest
        from primerec.cli import run

        # -1 at residue 5 turns mod 6 label 1 into a copy of label 2: a valid
        # character, so only the principal and the distinct-table checks see it
        corrupt = _corrupt(6, 1, 5, CharValue.root(1, 2))
        real = selftest.enumerate_characters
        monkeypatch.setattr(selftest, "enumerate_characters", lambda m: corrupt if m == 6 else real(m))
        assert run(["selftest"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines() == [
            f"FAIL  character properties (count, multiplicativity, orthogonality, zeros; k <= {CHARACTER_K_MAX})",
            "      modulus 6 label 1: value at unit n=5 is not 1",
            "      modulus 6 label 2: table repeats label 1",
            "PASS  brute-force character equivalence (k in (3, 4, 5, 8))",
            "PASS  oracle equivalence (moduli (1, 4, 8), n in [1,6], s in (5, 10, 20, 40))",
        ]

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

    Every (m, n) is compared, m-major, every cell's root is summed for
    labels other than 1, label 1 must be 1 on every unit, and each table is
    compared with every earlier label's: the reference that the generator
    proof in ``character_property_failures`` must reproduce message for
    message.
    """
    k = group.modulus
    failures = []
    phi = sum(1 for n in range(k) if math.gcd(n, k) == 1)
    if len(group) != phi:
        failures.append(f"modulus {k}: expected {phi} characters, got {len(group)}")
    for i, ch in enumerate(group.characters):
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
        if ch.label == 1:
            for n in range(k):
                if math.gcd(n, k) == 1 and not ch(n).is_one:
                    failures.append(f"modulus {k} label 1: value at unit n={n} is not 1")
                    break
        else:
            roots = [fixed_root(v.a, v.m, 256) for v in map(ch, range(k)) if not v.is_zero]
            re, im = sum(r[0] for r in roots), sum(r[1] for r in roots)
            if re * re + im * im > 1 << 112:
                failures.append(
                    f"modulus {k} label {ch.label}: orthogonality sum is ({re} + {im}i) * 2**-256"
                )
        for other in group.characters[:i]:
            if other.table == ch.table:
                failures.append(f"modulus {k} label {ch.label}: table repeats label {other.label}")
                break
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
    @example((6, 1, 5, CharValue.root(1, 2)))
    @settings(max_examples=200, deadline=None)
    def test_failures_match_the_all_pairs_scan(self, corruption):
        corrupt = _corrupt(*corruption)
        k = corrupt.modulus
        with pytest.MonkeyPatch.context() as mp:
            real = selftest.enumerate_characters
            mp.setattr(selftest, "enumerate_characters", lambda m: corrupt if m == k else real(m))
            assert character_property_failures(k) == _all_pairs_failures(corrupt)
