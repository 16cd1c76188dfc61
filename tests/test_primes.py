"""Prime generation tests against a trial-division oracle."""

import pytest

from primerec.errors import DomainError
from primerec.primes import first_n_primes, is_prime, nth_prime


def trial_division_primes(count: int) -> list:
    """Independent oracle: grow the list by direct divisibility checks."""
    out = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in out if p * p <= candidate):
            out.append(candidate)
        candidate += 1
    return out


class TestFirstN:
    def test_small(self):
        assert first_n_primes(5) == [2, 3, 5, 7, 11]

    def test_known_indices(self):
        assert first_n_primes(8)[-1] == 19
        assert nth_prime(9) == 23
        assert nth_prime(21) == 73

    def test_against_oracle(self):
        assert first_n_primes(200) == trial_division_primes(200)
        assert [nth_prime(n) for n in range(1, 201)] == trial_division_primes(200)

    def test_domain(self):
        # nth_prime indexes the sieve, where a count below 1 would read it from its end
        for count in (0, -1, 10**6 + 1, 2.0, "3"):
            for f in (first_n_primes, nth_prime):
                with pytest.raises(DomainError):
                    f(count)

    def test_no_composite_gaps(self):
        ps = first_n_primes(100)
        for a, b in zip(ps, ps[1:]):
            assert is_prime(a)
            for m in range(a + 1, b):
                assert not is_prime(m)

    def test_bertrand(self):
        ps = first_n_primes(10**4 + 1)
        for a, b in zip(ps, ps[1:]):
            assert b < 2 * a


class TestIsPrime:
    def test_cases(self):
        assert not is_prime(1)
        assert is_prime(2)
        assert is_prime(23)
        assert not is_prime(91)  # 7 * 13
        assert not is_prime(10**6)
        assert is_prime(104729)

    def test_domain(self):
        with pytest.raises(DomainError):
            is_prime(0)
        with pytest.raises(DomainError):
            is_prime(-7)
