"""Exact-oracle arithmetic tests and the built-in verification suites."""

from fractions import Fraction

import pytest

from primerec.characters import CharacterGroup, CharValue, enumerate_characters
from primerec.errors import DomainError
from primerec.oracle import (
    G_ONE,
    GaussianRational,
    char_value_exact,
    euler_product_exact,
    l_partial_sum_exact,
)
from primerec.selftest import (
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
