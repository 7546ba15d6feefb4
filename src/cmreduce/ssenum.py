"""Enumeration of the supersingular locus over F_{p^2} with automorphism
weights, the total mass, and the weighted probability measure on it.

The locus is found by a breadth-first walk on the 2-isogeny graph, which
is connected on the supersingular j-invariants (Pizer 1990): the
neighbours of j are the roots of the cubic Phi_2(j, Y) in F_{p^2}.  The
walk starts at a root of H_D mod p for the least |D| with (D/p) = -1, and
two certificates make the result exact: the start passes the Hasse test
(so every point the walk reaches is supersingular), and the weights meet
the Eichler mass sum 1/w = (p-1)/12 (so the walk reached every point).

A j-invariant is supersingular iff the coefficient of x^(p-1) in
(x^3 + Ax + B)^((p-1)/2) vanishes, where y^2 = x^3 + Ax + B is a short
Weierstrass model with that j.  The coefficient is evaluated through its
closed-form multinomial expansion in O(p) per j.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .classpoly import classpoly_mod, hilbert_class_poly
from .errors import BudgetError, CertificateError, DomainError
from .ffield import FfPoly, Fp2, Fp2Ctx, fp2_construct, roots_with_multiplicity
from .numbase import is_prime, kronecker

__all__ = [
    "SupersingularPoint",
    "SupersingularLocus",
    "is_supersingular_j",
    "enumerate_ss",
    "nu_p",
    "weierstrass_from_j",
]

# the walk finds O(p) points with one cubic root-finding each: about half
# a minute at this p on one core
_MAX_P = 100003

# the classical modular polynomial of level 2: _PHI2[b][a] is the
# coefficient of X^a Y^b in Phi_2(X, Y), which is symmetric in X and Y
_PHI2 = (
    (-157464000000000, 8748000000, -162000, 1),
    (8748000000, 40773375, 1488, 0),
    (-162000, 1488, -1, 0),
    (1, 0, 0, 0),
)


@dataclass(frozen=True)
class SupersingularPoint:
    j: Fp2
    weight: int
    A: Fp2
    B: Fp2


@dataclass(frozen=True)
class SupersingularLocus:
    p: int
    ctx: Fp2Ctx
    points: tuple[SupersingularPoint, ...]

    @property
    def mass(self) -> Fraction:
        return sum((Fraction(1, pt.weight) for pt in self.points), Fraction(0))

    @property
    def size(self) -> int:
        return len(self.points)

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "points": [{"j": self.ctx.serialize(pt.j), "w": pt.weight} for pt in self.points],
                "mass": f"{self.mass.numerator}/{self.mass.denominator}",
            },
            sort_keys=True,
        )


def weierstrass_from_j(j: Fp2, ctx: Fp2Ctx) -> tuple[Fp2, Fp2]:
    """Short Weierstrass pair (A, B) with the given j-invariant (p >= 5)."""
    zero, _1728 = (0, 0), ctx.el(1728)
    if j == zero:
        return (0, 0), (1, 0)
    if j == _1728:
        return (1, 0), (0, 0)
    u = ctx.sub(_1728, j)
    A = ctx.mul(ctx.el(3), ctx.mul(j, u))
    B = ctx.mul(ctx.el(2), ctx.mul(j, ctx.mul(u, u)))
    return A, B


class _HasseEvaluator:
    """Coefficient of x^(p-1) in (x^3 + Ax + B)^((p-1)/2) over F_{p^2}.

    Multinomial expansion: the x^(p-1) terms are those with (i, j, k),
    i + j + k = m = (p-1)/2 and 3i + j = p - 1, i.e. j = 2m - 3i and
    k = 2i - m for ceil(m/2) <= i <= floor(2m/3).
    """

    def __init__(self, ctx: Fp2Ctx):
        self.ctx = ctx
        p = ctx.p
        m = (p - 1) // 2
        fact = [1] * (m + 1)
        for i in range(1, m + 1):
            fact[i] = fact[i - 1] * i % p
        inv_fact = [1] * (m + 1)
        inv_fact[m] = pow(fact[m], p - 2, p)
        for i in range(m, 0, -1):
            inv_fact[i - 1] = inv_fact[i] * i % p
        self.m = m
        self.fact = fact
        self.inv_fact = inv_fact

    def hasse_coefficient(self, A: Fp2, B: Fp2) -> Fp2:
        ctx, m, p = self.ctx, self.m, self.ctx.p
        fact, inv_fact = self.fact, self.inv_fact
        nu = ctx.nu
        i_lo = (m + 1) // 2
        i_hi = (2 * m) // 3
        if A == (0, 0):
            # only terms with j-exponent 0 survive: need 3i = p - 1
            if (p - 1) % 3:
                return (0, 0)
            i = (p - 1) // 3
            if not (m // 2 <= i <= m) or 2 * i - m < 0:
                return (0, 0)
            coef = fact[m] * inv_fact[i] % p * inv_fact[2 * i - m] % p  # j = 0 here
            return ctx.mul((coef, 0), ctx.pow(B, 2 * i - m))
        if B == (0, 0):
            # (x^3 + Ax)^m: need j-exponent with 3i + j = 2m, i + j = m -> i = m/2
            if m % 2:
                return (0, 0)
            i = m // 2
            coef = fact[m] * inv_fact[i] % p * inv_fact[m - i] % p
            return ctx.mul((coef, 0), ctx.pow(A, m - i))
        acc0 = acc1 = 0
        powA = ctx.pow(A, 2 * m - 3 * i_lo)
        powB = ctx.pow(B, 2 * i_lo - m)
        a_inv = ctx.inv(A)
        a_inv3 = ctx.pow(a_inv, 3)
        b_sq = ctx.mul(B, B)
        fm = fact[m]
        for i in range(i_lo, i_hi + 1):
            jj = 2 * m - 3 * i
            kk = 2 * i - m
            coef = fm * inv_fact[i] % p * inv_fact[jj] % p * inv_fact[kk] % p
            t0, t1 = powA
            u0, u1 = powB
            # term = coef * powA * powB
            w0 = (t0 * u0 + nu * t1 * u1) % p
            w1 = (t0 * u1 + t1 * u0) % p
            acc0 += coef * w0
            acc1 += coef * w1
            if i < i_hi:
                powA = ctx.mul(powA, a_inv3)
                powB = ctx.mul(powB, b_sq)
        return (acc0 % p, acc1 % p)


@lru_cache(maxsize=None)
def _evaluator(p: int) -> _HasseEvaluator:
    return _HasseEvaluator(fp2_construct(p))


def is_supersingular_j(j: Fp2 | int, p: int) -> bool:
    """Hasse-invariant test for the curve with the given j over F_{p^2}."""
    if p < 5 or not is_prime(p):
        raise DomainError(f"supersingularity test requires a prime p >= 5, got {p}")
    ev = _evaluator(p)
    ctx = ev.ctx
    jj = j if isinstance(j, tuple) else ctx.el(j)
    A, B = weierstrass_from_j(jj, ctx)
    # nonsingular: 4A^3 + 27B^2 != 0 always holds for these models
    return ev.hasse_coefficient(A, B) == (0, 0)


def _weight(j: Fp2, ctx: Fp2Ctx) -> int:
    if j == (0, 0):
        return 3
    if j == ctx.el(1728):
        return 2
    return 1


def _phi2_neighbours(j: Fp2, ctx: Fp2Ctx) -> list[Fp2]:
    """Roots in F_{p^2} of the cubic Phi_2(j, Y): the 2-isogenous j."""
    cubic = []
    for row in _PHI2:
        c = (0, 0)
        for coef in reversed(row):
            c = ctx.add(ctx.mul(c, j), ctx.el(coef))
        cubic.append(c)
    return list(roots_with_multiplicity(FfPoly(cubic, ctx)))


def _start_j(p: int, ctx: Fp2Ctx) -> Fp2:
    """Least root in F_{p^2} of H_D mod p for the least |D| with (D/p) = -1;
    p is inert in Q(sqrt D), so the root is supersingular (Deuring)."""
    D = -3
    while D % 4 not in (0, 1) or kronecker(D, p) != -1:
        D -= 1
    H = FfPoly(classpoly_mod(hilbert_class_poly(D), p), ctx)
    return min(roots_with_multiplicity(H))


@lru_cache(maxsize=None)
def enumerate_ss(p: int) -> SupersingularLocus:
    """Walk the 2-isogeny graph from a supersingular start; attach
    automorphism weights 3 / 2 / 1; certify the start and the mass."""
    if p < 5 or not is_prime(p):
        raise DomainError(f"supersingular locus requires a prime p >= 5, got {p}")
    if p > _MAX_P:
        raise BudgetError(f"supersingular locus capped at p <= {_MAX_P}")
    ctx = fp2_construct(p)
    start = _start_j(p, ctx)
    if not is_supersingular_j(start, p):
        raise CertificateError(
            f"walk start j = {ctx.serialize(start)} is not supersingular at p={p}"
        )
    seen = {start}
    queue = [start]
    for j in queue:
        for nb in _phi2_neighbours(j, ctx):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    pts = []
    for j in sorted(seen):
        A, B = weierstrass_from_j(j, ctx)
        pts.append(SupersingularPoint(j=j, weight=_weight(j, ctx), A=A, B=B))
    locus = SupersingularLocus(p=p, ctx=ctx, points=tuple(pts))
    if locus.mass != Fraction(p - 1, 12):
        raise CertificateError(f"mass formula violated at p={p}: {locus.mass} != ({p}-1)/12")
    return locus


def nu_p(locus: SupersingularLocus) -> list[Fraction]:
    """The weighted probability measure: nu_p(E) = (12/(p-1)) / w_E."""
    scale = Fraction(12, locus.p - 1)
    out = [scale / pt.weight for pt in locus.points]
    if sum(out) != 1:
        raise CertificateError(f"nu_p at p={locus.p} has total mass {sum(out)}")
    return out
