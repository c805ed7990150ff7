"""Prime machinery, the multiplicative potential function, and coefficient repair.

The potential phi(n) = 2*(log2(n) - eta(n)), with eta the number of prime
factors counted with multiplicity, is the quantity the subdivision engine
drives down to zero: phi(n) >= 0 always, and floor(phi(n)) == 0 exactly when
n is a power of two. odd_adjust rewrites an inconvenient odd coefficient m
as 2**s * t - k*p, trading it for a power of two times a small factor.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Rosser-Schoenfeld: pi(x) < ROSSER_CONSTANT * x / ln(x) for x > 1.
ROSSER_CONSTANT = 1.25506


class Factorization(NamedTuple):
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
    factors: list[tuple[int, int]] = []
    twos = (n & -n).bit_length() - 1  # trailing zero bits
    if twos:
        n >>= twos
        factors.append((2, twos))
    # Then 3 and every 6k - 1 and 6k + 1: 5, 7, 11, 13, 17, 19, 23, 25, ...
    p, gap = 3, 2
    while p * p <= n:
        if n % p == 0:
            exp = 0
            while n % p == 0:
                n //= p
                exp += 1
            factors.append((p, exp))
        p += gap
        gap = 6 - gap if p > 5 else 2
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
    """Deterministic primality test by trial division by 2, 3 and every
    6k - 1 and 6k + 1 up to sqrt(n)."""
    if n < 4:
        return n >= 2
    if n % 2 == 0 or n % 3 == 0:
        return False
    p = 5
    while p * p <= n:
        if n % p == 0 or n % (p + 2) == 0:
            return False
        p += 6
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
