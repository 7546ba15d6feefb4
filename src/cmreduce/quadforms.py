"""Imaginary quadratic discriminants, reduced binary quadratic forms and
Gauss composition realizing the Picard group, CM points, splitting
predicates, genus characters and admissible-discriminant search.

Conventions: a form (a, b, c) has b^2 - 4ac = D < 0, a > 0, and is reduced
iff |b| <= a <= c with b >= 0 whenever |b| = a or a = c.  Reduced
representatives are canonical; class index = position in the (a, b)-sorted
list with the principal form first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import CertificateError, ConfigError, DomainError
from .numbase import factorize, is_prime, kronecker, squarefree_part

__all__ = [
    "Discriminant",
    "QuadForm",
    "CMPoint",
    "reduced_forms",
    "class_number",
    "class_number_table",
    "compose",
    "cm_point",
    "splitting",
    "admissible_discriminants",
    "genus_character",
    "genus_decompositions",
    "is_fundamental",
    "field_discriminant",
]


def field_discriminant(n: int) -> int:
    """The discriminant of Q(sqrt n) for n != 0: s if s = 1 mod 4, else 4s,
    for s the squarefree part of n (1 when n is a square)."""
    s = squarefree_part(n)
    return s if s % 4 == 1 else 4 * s


def is_fundamental(D: int) -> bool:
    """True iff D is the discriminant of a quadratic field, real or
    imaginary."""
    return D not in (0, 1) and field_discriminant(D) == D


@dataclass(frozen=True)
class Discriminant:
    """Negative quadratic discriminant D = field_discriminant(D) * conductor^2."""

    D: int
    conductor: int

    @classmethod
    def of(cls, D: int) -> "Discriminant":
        D = _as_D(D)
        d0 = field_discriminant(D)
        c = math.isqrt(D // d0)
        if c * c * d0 != D:
            raise CertificateError(f"{D} is not {d0} times a square")
        return cls(D=D, conductor=c)

    def __int__(self) -> int:
        return self.D


def _as_D(D) -> int:
    d = int(D)
    if not (d < 0 and d % 4 in (0, 1)):
        raise DomainError(f"{d} is not a negative quadratic discriminant")
    return d


@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (a > 0 and abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def inverse(self) -> "QuadForm":
        return reduce_form(QuadForm(self.a, -self.b, self.c))

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def reduce_form(f: QuadForm) -> QuadForm:
    """Canonical reduced representative of the class of f."""
    a, b, c = f.a, f.b, f.c
    if a <= 0 or f.discriminant >= 0:
        raise DomainError("reduction requires a positive definite form")
    while True:
        if -a < b <= a <= c:
            break
        if a > c:
            a, b, c = c, -b, a
            continue
        # normalize b into (-a, a]
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, a * r * r + b * r + c
    if b < 0 and a == c:
        b = -b
    return QuadForm(a, b, c)


def principal_form(D: int) -> QuadForm:
    D = _as_D(D)
    k = D % 2
    return QuadForm(1, k, (k * k - D) // 4)


@lru_cache(maxsize=4096)
def reduced_forms(D) -> tuple[QuadForm, ...]:
    """All primitive reduced forms of discriminant D, sorted by (a, b),
    principal form first.  Computed once per D per process (a scan asks
    for the forms of each D at every stage), so the result is a tuple."""
    d = _as_D(D)
    forms = []
    amax = math.isqrt(-d // 3)
    for a in range(1, amax + 1):
        b0 = d % 2
        for b in range(b0, a + 1, 2):
            for sb in ((b, -b) if 0 < b < a else (b,)):
                num = sb * sb - d
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c < a:
                    continue
                if sb < 0 and a == c:
                    continue
                g = math.gcd(math.gcd(a, sb), c)
                if g == 1:
                    forms.append(QuadForm(a, sb, c))
    forms.sort(key=lambda f: (f.a, f.b))
    p = principal_form(d)
    forms.remove(p)
    return (p, *forms)


def class_number(D) -> int:
    """h(D) = number of primitive reduced forms of discriminant D."""
    return len(reduced_forms(D))


def class_number_table(limit: int) -> dict[int, int]:
    """h(D) for every discriminant -limit <= D < 0 in one sieve pass.

    Counts reduced primitive triples directly; used for bulk searches where
    per-discriminant enumeration would be quadratically slower.
    """
    h: dict[int, int] = {}
    gcd = math.gcd
    amax = math.isqrt(limit // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            bb = b * b
            c = a
            while True:
                D = bb - 4 * a * c
                if D < -limit:
                    break
                if D < 0 and not (b < 0 and a == c):
                    if gcd(gcd(a, b), c) == 1:
                        h[D] = h.get(D, 0) + 1
                c += 1
    return h


def compose(f: QuadForm, g: QuadForm, D) -> QuadForm:
    """Reduced Gauss composite of two primitive forms of discriminant D."""
    d = _as_D(D)
    if f.discriminant != d or g.discriminant != d:
        raise DomainError("composition requires matching discriminants")
    if not (f.is_primitive() and g.is_primitive()):
        raise DomainError("composition requires primitive forms")
    return _compose(f, g)


def _compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """compose without its checks, for two primitive forms already known to
    share their discriminant."""
    a1, b1, c1 = f.a, f.b, f.c
    a2, b2, c2 = g.a, g.b, g.c
    if a1 > a2:
        a1, b1, c1, a2, b2, c2 = a2, b2, c2, a1, b1, c1
    s = (b1 + b2) // 2
    n = b2 - s
    # d1 = gcd(a1, a2, s) with Bezout data, solving the composition congruences
    d0, y1, _ = _xgcd(a2, a1)
    d1, x2, y2 = _xgcd(s, d0)
    v1, v2 = a1 // d1, a2 // d1
    r = -(y1 * y2 * n + x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    c3 = (c2 * d1 + r * (b2 + v2 * r)) // v1
    return reduce_form(QuadForm(a3, b3, c3))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


@dataclass(frozen=True)
class CMPoint:
    """tau = (-b + i*sqrt(|D|)) / (2a) in the standard fundamental domain."""

    minus_b: int
    abs_D: int
    two_a: int

    @property
    def im(self) -> float:
        return math.sqrt(self.abs_D) / self.two_a


def cm_point(f: QuadForm, D) -> CMPoint:
    d = _as_D(D)
    if f.discriminant != d:
        raise DomainError("form/discriminant mismatch")
    if not f.is_reduced():
        raise DomainError("cm_point expects a reduced form")
    return CMPoint(minus_b=-f.b, abs_D=-d, two_a=2 * f.a)


def splitting(D, p: int) -> str:
    """'split', 'inert' or 'ramified' behaviour of the prime p in Q(sqrt(D))."""
    d = _as_D(D)
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    k = kronecker(d, p)
    return {1: "split", -1: "inert", 0: "ramified"}[k]


def admissible_discriminants(
    inert: list[int] | tuple[int, ...] = (),
    split: list[int] | tuple[int, ...] = (),
    coprime_to: list[int] | tuple[int, ...] = (),
    abs_range: tuple[int, int] = (3, 1000),
    fundamental_only: bool = False,
) -> Iterator[Discriminant]:
    """Discriminants D with |D| in `abs_range` satisfying the splitting and
    coprimality constraints, in ascending |D|."""
    inert, split = tuple(inert), tuple(split)
    if set(inert) & set(split):
        raise ConfigError("inert and split prime lists overlap")
    for p in inert + split:
        if not is_prime(p):
            raise ConfigError(f"{p} is not prime")
    lo, hi = abs_range
    for n in range(max(3, lo), hi + 1):
        D = -n
        if D % 4 not in (0, 1):
            continue
        if any(n % m == 0 for m in coprime_to):
            continue
        if any(kronecker(D, p) != -1 for p in inert):
            continue
        if any(kronecker(D, p) != 1 for p in split):
            continue
        if fundamental_only and not is_fundamental(D):
            continue
        yield Discriminant.of(D)


def genus_decompositions(D) -> list[tuple[int, int]]:
    """All factorizations D = d1*d2 with both factors discriminants (or 1)."""
    d = _as_D(D)
    out = []
    n = abs(d)
    for e in _divisors(n):
        for d1 in (e, -e):
            if d % d1:
                continue
            d2 = d // d1
            if (d1 == 1 or d1 % 4 in (0, 1)) and (d2 == 1 or d2 % 4 in (0, 1)):
                out.append((d1, d2))
    out.sort()
    return out


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# the primitive vectors (x, y) with max(|x|, |y|) = 1, in lexicographic order
_UNIT_RING = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def _coprime_ring_point(f: QuadForm, q: int) -> tuple[int, int]:
    """The first (x, y) on `_UNIT_RING` with q not dividing f(x, y), for a
    prime q.

    One exists when f is primitive at q: if q divides both a = f(1, 0) and
    c = f(0, 1), then q does not divide b, so it does not divide
    a + b + c = f(1, 1)."""
    for x, y in _UNIT_RING:
        if f.value(x, y) % q:
            return x, y
    raise DomainError(f"form {f.as_tuple()} is not primitive at {q}")


def genus_character(f: QuadForm, d1: int, D) -> int:
    """Genus character chi_{d1} evaluated on the class of f.

    Computed as kronecker(d1, m) for one value m = f(X, Y) coprime to 2D
    (any such value gives the same answer): (X, Y) agrees modulo each prime
    q | 2D with a ring point where q does not divide f (Chinese remainder
    theorem), and m > 0 because f is positive definite.
    """
    d = _as_D(D)
    if f.discriminant != d:
        raise DomainError("form/discriminant mismatch")
    if d % d1 or not (d1 % 4 in (0, 1)):
        raise DomainError(f"{d1} does not induce a genus decomposition of {d}")
    d2 = d // d1
    if not (d2 == 1 or d2 % 4 in (0, 1)):
        raise DomainError(f"{d1} does not induce a genus decomposition of {d}")
    qs = [q for q, _ in factorize(-2 * d)]
    M = math.prod(qs)
    X = Y = 0
    for q in qs:
        x, y = _coprime_ring_point(f, q)
        e = M // q * pow(M // q, -1, q)  # 1 mod q, 0 mod the other primes
        X, Y = X + x * e, Y + y * e
    return kronecker(d1, f.value(X % M, Y % M))
