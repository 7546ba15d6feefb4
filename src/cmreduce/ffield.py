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
from functools import lru_cache

from .errors import CertificateError, DomainError
from .numbase import is_prime, kronecker

__all__ = [
    "Fp2Ctx",
    "fp2_construct",
    "FfPoly",
    "roots_with_multiplicity",
    "frobenius",
    "quadratic_roots",
]

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

    def serialize(self, a: Fp2) -> str:
        return f"{a[0]}+{a[1]}*t"


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

    def __init__(self, coeffs, ctx: Fp2Ctx):
        cs = [c if isinstance(c, tuple) else ctx.el(c) for c in coeffs]
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

    def divmod(self, other: "FfPoly") -> tuple["FfPoly", "FfPoly"]:
        ctx = self.ctx
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        den = other.coeffs
        dd = len(den) - 1
        if len(self.coeffs) - 1 < dd:
            return FfPoly([], ctx), FfPoly(self.coeffs, ctx)
        p, nu = ctx.p, ctx.nu
        li0, li1 = ctx.inv(den[-1])
        # the working coefficients are unreduced integers; each is reduced
        # mod p only when it becomes the leading term or part of the remainder
        xs = [c[0] for c in self.coeffs]
        ys = [c[1] for c in self.coeffs]
        low = den[:dd]
        q = [(0, 0)] * (len(xs) - dd)
        for k in range(len(xs) - 1, dd - 1, -1):
            a, b = xs[k] % p, ys[k] % p
            cx, cy = (a * li0 + nu * b * li1) % p, (a * li1 + b * li0) % p
            if cx == 0 and cy == 0:
                continue
            q[k - dd] = (cx, cy)
            ncy = nu * cy
            j = k - dd
            for u, v in low:
                xs[j] -= cx * u + ncy * v
                ys[j] -= cx * v + cy * u
                j += 1
        return FfPoly(q, ctx), FfPoly([(x % p, y % p) for x, y in zip(xs[:dd], ys)], ctx)

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
        base = self % mod
        if mod.degree >= _PACKED_MIN_DEGREE:
            return _PackedModulus(mod).pow(base, e)
        result = FfPoly([(1, 0)], self.ctx)
        for bit in bin(e)[2:]:
            result = (result * result) % mod
            if bit == "1":
                result = (result * base) % mod
        return result


# From this modulus degree on, pow_mod multiplies packed integers; below it
# the pack and unpack cost more than the schoolbook products they replace
# (the cubics of the 2-isogeny walk take the schoolbook path).
_PACKED_MIN_DEGREE = 8


class _PackedModulus:
    """Products modulo f of degree n >= 2 as single integer products
    (Kronecker substitution).

    A polynomial sum (x_i + y_i t) X^i with x_i, y_i in [0, p) is the
    integer with x_i in slot 3i and y_i in slot 3i + 1, each slot W bytes,
    slot 3i + 2 empty: X = 256^(3W) and t = 256^W.  In a product, slot 3k
    holds the sum of x x', slot 3k + 1 that of x y' + y x', and slot 3k + 2
    that of y y', the t^2 part, which unpacking folds into slot 3k times nu.
    For factors of at most n coefficients every slot is below
    2n(p - 1)^2 < 256^W, so no slot carries into the next.

    With mu = floor(X^(2n-2) / f), a = a_hi X^n + a_lo of degree <= 2n - 2
    has quotient floor(a / f) = floor(a_hi mu / X^(n-2)) exactly: the rest
    of a / f, a_hi (X^(2n-2)/f - mu) / X^(n-2) + a_lo / f, has no
    polynomial part.  So a mod f = a_lo - (q f) mod X^n, with no correction.
    """

    def __init__(self, f: FfPoly):
        ctx = f.ctx
        n = f.degree
        self.ctx, self.n = ctx, n
        self.width = ((2 * n * (ctx.p - 1) ** 2).bit_length() + 7) // 8
        mu = FfPoly([(0, 0)] * (2 * n - 2) + [(1, 0)], ctx) // f
        self.mu = self.pack(mu.coeffs)
        self.f_low = self.pack(f.coeffs[:n])

    def pack(self, coeffs) -> int:
        w = self.width
        empty = bytes(w)
        return int.from_bytes(
            b"".join(x.to_bytes(w, "little") + y.to_bytes(w, "little") + empty for x, y in coeffs),
            "little",
        )

    def unpack(self, v: int, lo: int, hi: int) -> list[Fp2]:
        """Coefficients lo .. hi - 1 of the packed product v, reduced."""
        p, nu, w = self.ctx.p, self.ctx.nu, self.width
        raw = v.to_bytes((v.bit_length() + 7) // 8, "little")
        get = int.from_bytes
        s = 3 * w
        return [
            ((get(raw[i : i + w], "little") + nu * get(raw[i + 2 * w : i + s], "little")) % p,
             get(raw[i + w : i + 2 * w], "little") % p)
            for i in range(s * lo, s * hi, s)
        ]

    def mulmod(self, a: int, b: int) -> int:
        n, p = self.n, self.ctx.p
        c = self.unpack(a * b, 0, 2 * n - 1)
        q = self.unpack(self.pack(c[n:]) * self.mu, n - 2, 2 * n - 3)
        qf = self.unpack(self.pack(q) * self.f_low, 0, n)
        return self.pack([((x - u) % p, (y - v) % p) for (x, y), (u, v) in zip(c, qf)])

    def pow(self, base: FfPoly, e: int) -> FfPoly:
        """base^e mod f for base of degree < n, left to right."""
        if e == 0:
            return FfPoly([(1, 0)], self.ctx)
        b = r = self.pack(base.coeffs)
        for bit in bin(e)[3:]:
            r = self.mulmod(r, r)
            if bit == "1":
                r = self.mulmod(r, b)
        return FfPoly(self.unpack(r, 0, self.n), self.ctx)


def _stable_seed(p: int, f: FfPoly) -> int:
    blob = repr((p, f.coeffs)).encode()
    return zlib.crc32(blob) ^ (p << 16)


@lru_cache(maxsize=None)
def _tonelli_shanks_data(ctx: Fp2Ctx) -> tuple[int, int, Fp2]:
    """(s, m, z) with q - 1 = 2^s m, m odd, and z = n^m for the non-square
    n = x + t of least x >= 0: a is a square in F_{p^2} exactly when its
    norm a^(p+1) is a square mod p, and x + t has norm x^2 - nu."""
    m, s = ctx.q - 1, 0
    while m % 2 == 0:
        m, s = m // 2, s + 1
    x = 0
    while kronecker(x * x - ctx.nu, ctx.p) != -1:
        x += 1
    return s, m, ctx.pow((x, 1), m)


def _fp2_sqrt(a: Fp2, ctx: Fp2Ctx) -> Fp2:
    """A square root of a in F_{p^2} (Tonelli-Shanks on the 2-part of
    q - 1); CertificateError when a has none."""
    s, m, z = _tonelli_shanks_data(ctx)
    one = (1, 0)
    # invariant r^2 = a b; b has order dividing 2^(k-1) when a is a nonzero
    # square, and z has order exactly 2^k
    r, b, k = ctx.pow(a, (m + 1) // 2), ctx.pow(a, m), s
    while b != one:
        i, bb = 0, b
        while bb != one and i < k:
            bb = ctx.mul(bb, bb)
            i += 1
        if i == k:
            break  # a is zero or not a square: the check below decides
        w = z
        for _ in range(k - i - 1):
            w = ctx.mul(w, w)
        r, z = ctx.mul(r, w), ctx.mul(w, w)
        b, k = ctx.mul(b, z), i
    if ctx.mul(r, r) != a:
        raise CertificateError(f"{ctx.serialize(a)} has no square root in F_{ctx.p}^2")
    return r


def quadratic_roots(b: Fp2, c: Fp2, ctx: Fp2Ctx) -> tuple[Fp2, Fp2]:
    """The roots (-b +- r)/2, r^2 = b^2 - 4c, of X^2 + bX + c in F_{p^2};
    CertificateError when the quadratic does not split there."""
    r = _fp2_sqrt(ctx.sub(ctx.mul(b, b), ctx.mul(ctx.el(4), c)), ctx)
    half, nb = ctx.el((ctx.p + 1) // 2), ctx.neg(b)
    return ctx.mul(ctx.add(nb, r), half), ctx.mul(ctx.sub(nb, r), half)


# (r + c)^((q-1)/2) differs between two distinct roots r for about half
# of all c (a Jacobsthal sum), so a correct split fails this many draws in
# a row with probability about 2^-64
_MAX_DRAWS = 64


def _split_power(g: FfPoly, xp: FfPoly, c: Fp2) -> FfPoly:
    """(X + c)^((q-1)/2) mod g from xp = X^p mod g, as the norm
    ((X + c)(X^p + c^p))^((p-1)/2): (q-1)/2 = (p+1)(p-1)/2, and a -> a^p
    is a ring map of F_{p^2}[X]/(g), so (X + c)^p = X^p + c^p."""
    ctx = g.ctx
    norm = FfPoly([c, (1, 0)], ctx) * (xp + FfPoly([frobenius(c, ctx)], ctx))
    return norm.pow_mod((ctx.p - 1) // 2, g)


def _distinct_roots(g: FfPoly, xp: FfPoly, rng: random.Random) -> list[Fp2]:
    """Roots of a monic product of distinct linear factors over F_{p^2},
    given xp = X^p mod g."""
    ctx = g.ctx
    if g.degree == 0:
        return []
    if g.degree == 1:
        return [ctx.neg(g.coeffs[0])]
    if g.degree == 2:
        return list(quadratic_roots(g.coeffs[1], g.coeffs[0], ctx))
    one = FfPoly([(1, 0)], ctx)
    for _ in range(_MAX_DRAWS):
        c = (rng.randrange(ctx.p), rng.randrange(ctx.p))
        g1 = g.gcd(_split_power(g, xp, c) - one)
        if 0 < g1.degree < g.degree:
            g2 = g // g1
            return _distinct_roots(g1, xp % g1, rng) + _distinct_roots(g2, xp % g2, rng)
    raise CertificateError(f"no split of a degree-{g.degree} factor in {_MAX_DRAWS} draws")


def roots_with_multiplicity(f: FfPoly, ctx: Fp2Ctx | None = None) -> dict[Fp2, int]:
    """All roots of f in F_{p^2} with exact multiplicities.

    X^p mod f is computed once and raised to the p-th power for X^q, and
    the distinct roots are those of g = gcd(f, X^q - X).  Seeded
    equal-degree splitting takes gcd(g, (X + c)^((q-1)/2) - 1) for random
    c, with the power computed as the norm ((X + c)(X^p + c^p))^((p-1)/2)
    from X^p mod g; a factor of degree 2 is solved by the quadratic
    formula with one square root in F_{p^2}.  Multiplicities come from
    deflating f / g, which holds each root once less.
    """
    ctx = ctx or f.ctx
    if f.is_zero():
        raise DomainError("roots of the zero polynomial")
    if f.degree == 0:
        return {}
    fm = f.monic()
    x = FfPoly.x(ctx)
    xp = x.pow_mod(ctx.p, fm)
    g = fm.gcd(xp.pow_mod(ctx.p, fm) - x)
    rng = random.Random(_stable_seed(ctx.p, fm))
    roots = sorted(_distinct_roots(g, xp % g, rng))
    out = dict.fromkeys(roots, 1)
    rest = fm // g
    for r in roots:
        lin = FfPoly([ctx.neg(r), (1, 0)], ctx)
        while rest.degree > 0:
            quo, rem = rest.divmod(lin)
            if not rem.is_zero():
                break
            out[r] += 1
            rest = quo
    return out
