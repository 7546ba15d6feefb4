"""Exact integer and rational primitives shared by all modules.

Integers are plain Python ints (arbitrary precision); rationals are
``fractions.Fraction`` (always stored reduced, positive denominator).
Everything here is pure and thread-safe.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "kronecker",
    "is_prime",
    "exact_sqrt_fraction",
    "frac_str",
    "float_str",
    "squarefree_part",
    "factorize",
    "primes_up_to",
    "least_nonresidue_prime_3mod4",
]

# The first 13 primes as Miller-Rabin bases: no composite below psi_13 is a
# strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)); the first 12
# alone pass the composite psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13
_FACTOR_BOUND = 10**7


def kronecker(a: int, n: int) -> int:
    """Extended Kronecker symbol (a|n), multiplicative in both arguments."""
    if n == 0:
        raise DomainError("kronecker symbol undefined for n = 0")
    if n < 0:
        sign = -1 if a < 0 else 1
        return sign * kronecker(a, -n)
    # split off the even part of n via (a|2)
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    if n == 1:
        return result
    # Jacobi symbol for odd n > 1 by quadratic reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < psi_13 = 3317044064679887385961981:
    Miller-Rabin to the bases 2, 3, ..., 41.  Raises DomainError for larger
    n, where these bases certify nothing."""
    if n < 0:
        raise DomainError("is_prime expects n >= 0")
    if n >= _MR_BOUND:
        raise DomainError(f"is_prime is certified only below {_MR_BOUND}")
    if n < 2 or n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(2, limit + 1) if sieve[i]]


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor |n| by trial division up to 10^7; raises if a cofactor survives.

    Desk-scale inputs (discriminants, small norms) stay far below the bound.
    """
    n = abs(n)
    if n == 0:
        raise DomainError("cannot factor 0")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= n and d <= _FACTOR_BOUND:
        for q in (d, d + 2):
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            if e:
                out.append((q, e))
        d += 6
    if n > 1:
        if n > _FACTOR_BOUND**2 and not is_prime(n):
            raise DomainError(f"factorization bound {_FACTOR_BOUND} exceeded for residue {n}")
        out.append((n, 1))
    return out


def least_nonresidue_prime_3mod4(p: int) -> int:
    """The least prime q = 3 mod 4 with (p/q) = -1, for a prime p
    (Dirichlet and reciprocity give one)."""
    q = 3
    while not (is_prime(q) and kronecker(p, q) == -1):
        q += 4
    return q


def squarefree_part(n: int) -> int:
    """Squarefree part of n (sign preserved)."""
    if n == 0:
        raise DomainError("squarefree part of 0")
    s = -1 if n < 0 else 1
    out = 1
    for p, e in factorize(n):
        if e % 2 == 1:
            out *= p
    return s * out


def frac_str(x: Fraction) -> str:
    """An exact rational as printed everywhere: "a/b", also when b = 1."""
    return f"{x.numerator}/{x.denominator}"


def float_str(x: float) -> str:
    """An approximate quantity (chi2, a CM point's height, a median) as
    printed everywhere: 12 significant digits."""
    return f"{x:.12g}"


def exact_sqrt_fraction(q: Fraction) -> Fraction:
    """Square root of a rational that must be a perfect square of a rational."""
    if q < 0:
        raise DomainError("square root of negative rational")
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        raise DomainError(f"{q} is not the square of a rational")
    return Fraction(rn, rd)
