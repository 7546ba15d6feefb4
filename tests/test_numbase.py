import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmreduce.errors import DomainError
from cmreduce.numbase import (
    exact_sqrt_fraction,
    factorize,
    is_prime,
    kronecker,
    primes_up_to,
    squarefree_part,
)


def test_kronecker_examples():
    assert kronecker(-23, 5) == -1
    assert kronecker(-23, 2) == 1  # -23 = 1 mod 8
    for a in (-7, -1, 0, 1, 2, 10**30):
        assert kronecker(a, 1) == 1


def test_kronecker_zero_modulus():
    with pytest.raises(DomainError):
        kronecker(3, 0)


def test_kronecker_matches_quadratic_residues():
    # exhaustive against square tables for every odd prime p <= 100
    for p in primes_up_to(100):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(2 * p):
            expect = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert kronecker(a, p) == expect
            assert kronecker(a - 2 * p, p) == expect


def test_kronecker_multiplicative_seeded():
    rng = random.Random(12345)
    for _ in range(1000):
        a = rng.randrange(-10**6, 10**6)
        b = rng.randrange(-10**6, 10**6)
        n = rng.randrange(1, 10**6)
        assert kronecker(a, n) * kronecker(b, n) == kronecker(a * b, n)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9), st.integers(1, 10**9))
@settings(max_examples=200, deadline=None)
def test_kronecker_multiplicative_property(a, b, n):
    assert kronecker(a, n) * kronecker(b, n) == kronecker(a * b, n)


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(91)  # 7 * 13
    assert is_prime(97)
    assert not is_prime(0) and not is_prime(1)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**19 - 1))


def test_is_prime_matches_sieve():
    sieve = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve)


def test_factorize_and_squarefree():
    assert factorize(84) == [(2, 2), (3, 1), (7, 1)]
    assert squarefree_part(-12) == -3
    assert squarefree_part(-23) == -23
    assert squarefree_part(360) == 10


def test_exact_sqrt_fraction():
    assert exact_sqrt_fraction(Fraction(4, 9)) == Fraction(2, 3)
    with pytest.raises(DomainError):
        exact_sqrt_fraction(Fraction(2, 1))
