"""Prime utilities, the potential function, and the odd-adjustment identity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetri.number_theory import (
    ROSSER_CONSTANT,
    eta,
    factorize,
    is_prime,
    odd_adjust,
    p_max,
    phi,
)

from conftest import prime_pi, rosser_bound


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(1024).factors == ((2, 10),)
    assert factorize(97).factors == ((97, 1),)
    assert factorize(2 * 3 * 5 * 7 * 11).factors == (
        (2, 1),
        (3, 1),
        (5, 1),
        (7, 1),
        (11, 1),
    )


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    f = factorize(n)
    prod = 1
    for p, a in f.factors:
        assert is_prime(p)
        assert a >= 1
        prod *= p**a
    assert prod == n
    assert list(f.factors) == sorted(f.factors)


def test_eta_examples():
    assert eta(factorize(1)) == 0
    assert eta(factorize(8)) == 3
    assert eta(factorize(12)) == 3
    assert eta(factorize(97)) == 1


def test_phi_examples():
    assert phi(factorize(1)) == 0.0
    assert phi(factorize(2)) == 0.0
    assert phi(factorize(8)) == 0.0
    assert abs(phi(factorize(12)) - 2 * (math.log2(12) - 3)) < 1e-12
    assert abs(phi(factorize(12)) - 1.16993) < 1e-4


def test_phi_properties_up_to_1e5():
    for n in range(2, 100001):
        f = factorize(n)
        val = phi(f)
        assert val >= -1e-9
        is_pow2 = n & (n - 1) == 0
        assert (math.floor(val + 1e-9) == 0) == is_pow2
        assert val <= 2 * math.log2(n) - 2 + 1e-9


@given(
    st.integers(min_value=2, max_value=10**4),
    st.integers(min_value=2, max_value=10**4),
)
def test_phi_additive(a, b):
    assert abs(
        phi(factorize(a * b)) - phi(factorize(a)) - phi(factorize(b))
    ) < 1e-9


def test_p_max_examples():
    assert p_max(factorize(12)) == 3
    assert p_max(factorize(32)) == 2
    assert p_max(factorize(35)) == 7
    with pytest.raises(ValueError):
        p_max(factorize(1))


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(-3, 31):
        assert is_prime(n) == (n in primes)
    assert not is_prime(91)
    assert is_prime(7919)


def test_prime_pi_examples():
    assert prime_pi(2) == 0
    assert prime_pi(3) == 1
    assert prime_pi(10) == 4
    assert prime_pi(100) == 25
    assert prime_pi(2.5) == 1
    with pytest.raises(ValueError):
        prime_pi(0)


def test_prime_pi_matches_trial_division():
    count = 0
    for n in range(2, 500):
        expected = count  # primes strictly below n
        assert prime_pi(n) == expected
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            count += 1


def test_rosser_bound_examples():
    assert abs(rosser_bound(100) - ROSSER_CONSTANT * 100 / math.log(100)) < 1e-12
    assert abs(rosser_bound(100) - 27.2533) < 1e-3
    assert abs(rosser_bound(10) - 5.4506) < 1e-3
    assert abs(rosser_bound(2) - 3.6214) < 1e-3
    with pytest.raises(ValueError):
        rosser_bound(1)
    with pytest.raises(ValueError):
        rosser_bound(0.5)


def test_odd_adjust_examples():
    assert odd_adjust(5, 7) == (2, 3, 1)
    assert odd_adjust(7, 11) == (3, 5, 3)
    assert odd_adjust(3, 5) == (2, 2, 1)


def test_odd_adjust_rejects_bad_input():
    with pytest.raises(ValueError):
        odd_adjust(4, 7)  # even m
    with pytest.raises(ValueError):
        odd_adjust(3, 7)  # m below p/2
    with pytest.raises(ValueError):
        odd_adjust(7, 7)  # m not below p
    with pytest.raises(ValueError):
        odd_adjust(5, 8)  # even p


def test_odd_adjust_postconditions_exhaustive_small():
    for p in range(3, 102, 2):
        for m in range(p // 2 + 1, p):
            if m % 2 == 0:
                continue
            s, t, k = odd_adjust(m, p)
            assert (1 << s) * t == k * p + m
            assert s >= 2 and (1 << s) <= p
            assert 0 < t and 2 * t < p
            assert k == (1 << (s - 1)) - 1


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=2000))
def test_is_prime_matches_trial_division(n):
    expected = n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))
    assert is_prime(n) == expected
