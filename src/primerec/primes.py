"""Prime generation and deterministic primality testing.

Sizes here are tiny (the recursion never needs more than a few hundred
primes), so everything is deterministic: a growable sieve of Eratosthenes
for prime lists and trial division for primality checks.
"""

from __future__ import annotations

import math
import threading

from .errors import DomainError

__all__ = ["first_n_primes", "nth_prime", "is_prime"]

_MAX_N = 10**6

_cache_lock = threading.Lock()
_primes: list[int] = []


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if flags[i]]


def _ensure(n: int) -> list[int]:
    """The sieved primes, at least the first n of them."""
    global _primes
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"prime count must be a positive integer, got {n!r}")
    if n > _MAX_N:
        raise DomainError(f"prime count {n} exceeds the supported cap of {_MAX_N}")
    if len(_primes) >= n:
        return _primes
    with _cache_lock:
        if len(_primes) >= n:
            return _primes
        # standard overestimate of p_n, padded for small n
        limit = 24 if n < 10 else int(n * (math.log(n) + math.log(math.log(n)))) + 16
        primes = _sieve(limit)
        while len(primes) < n:
            limit *= 2
            primes = _sieve(limit)
        _primes = primes
        return primes


def first_n_primes(n: int) -> list[int]:
    """Ascending list of the first n primes."""
    return _ensure(n)[:n]


def nth_prime(n: int) -> int:
    """The n-th prime, p_1 = 2."""
    return _ensure(n)[n - 1]


def is_prime(m: int) -> bool:
    """Deterministic trial division up to sqrt(m)."""
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"is_prime expects a positive integer, got {m!r}")
    if m == 1:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    for d in range(3, math.isqrt(m) + 1, 2):
        if m % d == 0:
            return False
    return True
