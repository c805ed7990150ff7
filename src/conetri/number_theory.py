"""Prime machinery, the multiplicative potential function, and coefficient repair.

The potential phi(n) = 2*(log2(n) - eta(n)), with eta the number of prime
factors counted with multiplicity, is the quantity the subdivision engine
drives down to zero: phi(n) >= 0 always, and floor(phi(n)) == 0 exactly when
n is a power of two. odd_adjust rewrites an inconvenient odd coefficient m
as 2**s * t - k*p, trading it for a power of two times a small factor.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

# Rosser-Schoenfeld: pi(x) < ROSSER_CONSTANT * x / ln(x) for x > 1.
ROSSER_CONSTANT = 1.25506

_primes: list[int] = []
_sieve_limit = 0


def _ensure_sieve(limit: int) -> None:
    """Grow the cached prime list to cover [2, limit]."""
    global _primes, _sieve_limit
    if limit <= _sieve_limit:
        return
    limit = max(limit, 2 * _sieve_limit, 1 << 10)
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray((limit - i * i) // i + 1)
    _primes = [i for i in range(limit + 1) if sieve[i]]
    _sieve_limit = limit


@dataclass(frozen=True)
class Factorization:
    """A positive integer together with its sorted prime factorization."""

    n: int
    factors: tuple[tuple[int, int], ...]


def factorize(n: int) -> Factorization:
    """Full prime factorization by trial division.

    Args:
        n: positive integer.

    Returns:
        Factorization with factors sorted by prime.

    Raises:
        ValueError: if n <= 0.
    """
    if n <= 0:
        raise ValueError(f"cannot factor {n}: expected a positive integer")
    original = n
    _ensure_sieve(math.isqrt(n) + 1)
    factors: list[tuple[int, int]] = []
    for p in _primes:
        if p * p > n:
            break
        if n % p == 0:
            exp = 0
            while n % p == 0:
                n //= p
                exp += 1
            factors.append((p, exp))
    if n > 1:
        factors.append((n, 1))
    return Factorization(original, tuple(factors))


def eta(f: Factorization) -> int:
    """Number of prime factors counted with multiplicity."""
    return sum(exp for _, exp in f.factors)


def phi(f: Factorization) -> float:
    """Potential 2*(log2(n) - eta(n)); zero exactly on powers of two."""
    return 2.0 * (math.log2(f.n) - eta(f))


def p_max(f: Factorization) -> int:
    """Largest prime factor.

    Raises:
        ValueError: if f.n == 1 (no prime factors).
    """
    if not f.factors:
        raise ValueError("1 has no largest prime factor")
    return f.factors[-1][0]


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division against cached primes."""
    if n < 2:
        return False
    if n <= _sieve_limit:
        i = bisect_left(_primes, n)
        return i < len(_primes) and _primes[i] == n
    _ensure_sieve(math.isqrt(n) + 1)
    for p in _primes:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    return True


def odd_adjust(m: int, p: int) -> tuple[int, int, int]:
    """Rewrite an odd coefficient p/2 < m < p as 2**s * t - k*p.

    Writes p - m = 2**(s-1) * q with q odd and returns (s, t, k) where
    t = (p - q) // 2 and k = 2**(s-1) - 1, so that

        2**s * t == k * p + m,    s <= log2(p),    0 < t < p / 2.

    Args:
        m: odd integer with p/2 < m < p.
        p: odd integer >= 3.

    Returns:
        The triple (s, t, k).

    Raises:
        ValueError: if the preconditions on m and p fail.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be odd and >= 3, got {p}")
    if m % 2 == 0:
        raise ValueError(f"m must be odd, got {m}")
    if not (p < 2 * m and m < p):
        raise ValueError(f"m must satisfy p/2 < m < p, got m={m}, p={p}")
    diff = p - m
    val = (diff & -diff).bit_length() - 1
    q = diff >> val
    s = val + 1
    t = (p - q) // 2
    k = (1 << (s - 1)) - 1
    assert (1 << s) * t == k * p + m
    assert (1 << s) <= p and 2 * t < p
    return s, t, k
