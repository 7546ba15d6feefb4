"""Arithmetic in F_p and F_{p^2} and univariate polynomial algebra over them.

F_{p^2} is realized as F_p[t]/(t^2 - nu) for the least positive quadratic
non-residue nu mod p, so element encodings are reproducible across runs.
Elements are pairs (x, y) meaning x + y*t with 0 <= x, y < p.  Polynomials
are dense coefficient lists of such pairs, lowest degree first, with no
trailing zero coefficients.  p = 2, 3 are excluded everywhere.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from .errors import DomainError
from .numbase import is_prime, kronecker

__all__ = ["Fp2Ctx", "fp2_construct", "FfPoly", "roots_with_multiplicity", "frobenius"]

Fp2 = tuple[int, int]


@dataclass(frozen=True)
class Fp2Ctx:
    p: int
    nu: int

    @property
    def q(self) -> int:
        return self.p * self.p

    # -- element arithmetic ------------------------------------------------
    def el(self, x: int, y: int = 0) -> Fp2:
        return (x % self.p, y % self.p)

    def add(self, a: Fp2, b: Fp2) -> Fp2:
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a: Fp2, b: Fp2) -> Fp2:
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def neg(self, a: Fp2) -> Fp2:
        p = self.p
        return (-a[0] % p, -a[1] % p)

    def mul(self, a: Fp2, b: Fp2) -> Fp2:
        p, nu = self.p, self.nu
        return ((a[0] * b[0] + nu * a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p)

    def inv(self, a: Fp2) -> Fp2:
        p, nu = self.p, self.nu
        n = (a[0] * a[0] - nu * a[1] * a[1]) % p
        if n == 0:
            raise ZeroDivisionError("inverse of zero in F_p^2")
        ninv = pow(n, p - 2, p)
        return (a[0] * ninv % p, -a[1] * ninv % p)

    def pow(self, a: Fp2, e: int) -> Fp2:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result: Fp2 = (1, 0)
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def in_prime_field(self, a: Fp2) -> bool:
        return a[1] == 0

    def all_elements(self):
        for x in range(self.p):
            for y in range(self.p):
                yield (x, y)

    def serialize(self, a: Fp2) -> str:
        return f"{a[0]}+{a[1]}*t"

    def parse(self, s: str) -> Fp2:
        x, rest = s.split("+", 1)
        y = rest.split("*", 1)[0]
        return self.el(int(x), int(y))


def fp2_construct(p: int) -> Fp2Ctx:
    """Context for F_{p^2} with the minimal positive non-residue nu."""
    if p < 5 or p % 2 == 0 or not is_prime(p):
        raise DomainError(f"F_p^2 context requires an odd prime p >= 5, got {p}")
    nu = 2
    while kronecker(nu, p) != -1:
        nu += 1
    return Fp2Ctx(p=p, nu=nu)


def frobenius(a: Fp2, ctx: Fp2Ctx) -> Fp2:
    """x + y*t -> (x + y*t)^p = x - y*t (t^p = -t since nu is a non-residue)."""
    return (a[0], -a[1] % ctx.p)


class FfPoly:
    """Dense univariate polynomial over F_{p^2} (F_p embeds via y = 0)."""

    __slots__ = ("coeffs", "ctx")

    def __init__(self, coeffs, ctx: Fp2Ctx, normalize: bool = True):
        cs = [c if isinstance(c, tuple) else ctx.el(c) for c in coeffs]
        if normalize:
            while cs and cs[-1] == (0, 0):
                cs.pop()
        self.coeffs = cs
        self.ctx = ctx

    # -- basics ------------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, FfPoly) and self.coeffs == other.coeffs and self.ctx == other.ctx

    def __hash__(self):
        return hash((tuple(self.coeffs), self.ctx))

    def __repr__(self):
        return f"FfPoly({self.coeffs}, p={self.ctx.p})"

    @classmethod
    def x(cls, ctx: Fp2Ctx) -> "FfPoly":
        return cls([(0, 0), (1, 0)], ctx)

    @classmethod
    def const(cls, c, ctx: Fp2Ctx) -> "FfPoly":
        return cls([c], ctx)

    def monic(self) -> "FfPoly":
        if self.is_zero():
            raise DomainError("monic form of the zero polynomial")
        lead = self.coeffs[-1]
        if lead == (1, 0):
            return self
        inv = self.ctx.inv(lead)
        return FfPoly([self.ctx.mul(c, inv) for c in self.coeffs], self.ctx)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "FfPoly") -> "FfPoly":
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return FfPoly(out, ctx)

    def __sub__(self, other: "FfPoly") -> "FfPoly":
        ctx = self.ctx
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            x = self.coeffs[i] if i < len(self.coeffs) else (0, 0)
            y = other.coeffs[i] if i < len(other.coeffs) else (0, 0)
            out.append(ctx.sub(x, y))
        return FfPoly(out, ctx)

    def __mul__(self, other: "FfPoly") -> "FfPoly":
        ctx = self.ctx
        if self.is_zero() or other.is_zero():
            return FfPoly([], ctx)
        p, nu = ctx.p, ctx.nu
        a, b = self.coeffs, other.coeffs
        out = [[0, 0] for _ in range(len(a) + len(b) - 1)]
        for i, (x1, y1) in enumerate(a):
            if x1 == 0 and y1 == 0:
                continue
            for j, (x2, y2) in enumerate(b):
                cell = out[i + j]
                cell[0] += x1 * x2 + nu * y1 * y2
                cell[1] += x1 * y2 + y1 * x2
        return FfPoly([(c[0] % p, c[1] % p) for c in out], ctx)

    def scale(self, c: Fp2) -> "FfPoly":
        ctx = self.ctx
        return FfPoly([ctx.mul(c, x) for x in self.coeffs], ctx)

    def divmod(self, other: "FfPoly") -> tuple["FfPoly", "FfPoly"]:
        ctx = self.ctx
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        lead_inv = ctx.inv(den[-1])
        if len(num) - 1 < dd:
            return FfPoly([], ctx), FfPoly(num, ctx)
        q = [(0, 0)] * (len(num) - dd)
        for k in range(len(num) - 1, dd - 1, -1):
            coef = ctx.mul(num[k], lead_inv)
            if coef == (0, 0):
                continue
            q[k - dd] = coef
            for i in range(dd + 1):
                num[k - dd + i] = ctx.sub(num[k - dd + i], ctx.mul(coef, den[i]))
        return FfPoly(q, ctx), FfPoly(num[:dd], ctx)

    def __mod__(self, other: "FfPoly") -> "FfPoly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "FfPoly") -> "FfPoly":
        return self.divmod(other)[0]

    def gcd(self, other: "FfPoly") -> "FfPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def pow_mod(self, e: int, mod: "FfPoly") -> "FfPoly":
        result = FfPoly([(1, 0)], self.ctx)
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result


def _stable_seed(p: int, f: FfPoly) -> int:
    blob = repr((p, f.coeffs)).encode()
    return zlib.crc32(blob) ^ (p << 16)


def _distinct_roots(g: FfPoly, rng: random.Random) -> list[Fp2]:
    """Roots of a monic product of distinct linear factors over F_{p^2}."""
    ctx = g.ctx
    if g.degree == 0:
        return []
    if g.degree == 1:
        return [ctx.neg(g.coeffs[0])]
    q = ctx.q
    while True:
        c = (rng.randrange(ctx.p), rng.randrange(ctx.p))
        shift = FfPoly([c, (1, 0)], ctx)  # X + c
        h = shift.pow_mod((q - 1) // 2, g) - FfPoly([(1, 0)], ctx)
        g1 = g.gcd(h)
        if 0 < g1.degree < g.degree:
            g2 = g // g1
            return _distinct_roots(g1, rng) + _distinct_roots(g2, rng)


def roots_with_multiplicity(f: FfPoly, ctx: Fp2Ctx | None = None) -> dict[Fp2, int]:
    """All roots of f in F_{p^2} with exact multiplicities.

    Distinct roots come from gcd(f, X^{q} - X) (computed by square-and-multiply
    in the quotient ring) followed by seeded equal-degree splitting;
    multiplicities by repeated deflation.
    """
    ctx = ctx or f.ctx
    if f.is_zero():
        raise DomainError("roots of the zero polynomial")
    if f.degree == 0:
        return {}
    fm = f.monic()
    q = ctx.q
    x = FfPoly.x(ctx)
    xq = x.pow_mod(q, fm)
    g = fm.gcd(xq - x)
    rng = random.Random(_stable_seed(ctx.p, fm))
    roots = _distinct_roots(g, rng)
    out: dict[Fp2, int] = {}
    for r in sorted(roots):
        lin = FfPoly([ctx.neg(r), (1, 0)], ctx)
        m = 0
        cur = fm
        while True:
            quo, rem = cur.divmod(lin)
            if not rem.is_zero():
                break
            m += 1
            cur = quo
        out[r] = m
    return out
