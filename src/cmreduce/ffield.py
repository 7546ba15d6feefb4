"""Arithmetic in F_p and F_{p^2}, univariate polynomials over them, and
their roots in F_{p^2}.

F_{p^2} is realized as F_p[t]/(t^2 - nu) for the least positive quadratic
non-residue nu mod p, so element encodings are reproducible across runs.
Elements are pairs (x, y) meaning x + y*t with 0 <= x, y < p.  Polynomials
are dense coefficient lists of such pairs, lowest degree first, with no
trailing zero coefficients.  p = 2, 3 are excluded everywhere.

Root finding runs in F_p[X] (roots_with_multiplicity): the powering
(FfPoly.pow_mod, on packed integers from degree 8 on), the gcds and the
splitting work on lists of integer coefficients, and only the roots are
elements of F_{p^2}.
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

    def pow_mod(self, e: int, mod: "FfPoly") -> "FfPoly":
        """self^e mod `mod` for self and mod in F_p[X]; DomainError when a
        coefficient of either lies outside F_p.  From modulus degree
        _PACKED_MIN_DEGREE on, each product is one integer product
        (_PackedModulus)."""
        p = self.ctx.p
        f = _fp_coeffs(mod.monic())
        base = _fp_divmod(_fp_coeffs(self), f, p)[1]
        if len(f) - 1 >= _PACKED_MIN_DEGREE:
            out = _PackedModulus(f, p).pow(base, e)
        else:
            out = [1]
            for bit in bin(e)[2:]:
                out = _fp_divmod(_fp_mul(out, out), f, p)[1]
                if bit == "1":
                    out = _fp_divmod(_fp_mul(out, base), f, p)[1]
        return FfPoly([(c, 0) for c in out], self.ctx)


# -- F_p[X] on coefficient lists: integers in [0, p), lowest degree first,
# no trailing zeros --------------------------------------------------------


def _fp_coeffs(a: FfPoly) -> list[int]:
    if any(y for _, y in a.coeffs):
        raise DomainError(f"{a!r} has a coefficient outside F_{a.ctx.p}")
    return [x for x, _ in a.coeffs]


def _fp_mul(a: list[int], b: list[int]) -> list[int]:
    """The product, coefficients not reduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + len(b)] = [u + x * v for u, v in zip(out[i : i + len(b)], b)]
    return out


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a (coefficients in any range) by b != 0."""
    db = len(b) - 1
    rem = list(a)
    if len(rem) <= db:
        quo = []
    else:
        inv = pow(b[-1], -1, p)
        low = b[:db]
        quo = [0] * (len(rem) - db)
        # the working coefficients are unreduced; each is reduced mod p only
        # when it becomes the leading term or part of the remainder
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k] % p * inv % p
            if c:
                quo[k - db] = c
                rem[k - db : k] = [u - c * v for u, v in zip(rem[k - db : k], low)]
        del rem[db:]
    rem = [u % p for u in rem]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _fp_gcd(a: FfPoly, b: FfPoly) -> FfPoly:
    """The monic gcd of a and b in F_p[X], not both zero."""
    p = a.ctx.p
    u, v = _fp_coeffs(a), _fp_coeffs(b)
    while v:
        u, v = v, _fp_divmod(u, v, p)[1]
    inv = pow(u[-1], -1, p)
    return FfPoly([(c * inv % p, 0) for c in u], a.ctx)


# From this modulus degree on, pow_mod multiplies packed integers; below it
# the pack and unpack cost more than the schoolbook products they replace
# (H_D of degree 1 to 3 and the cubic that start the 2-isogeny walk take
# the schoolbook path).
_PACKED_MIN_DEGREE = 8


class _PackedModulus:
    """Products modulo a monic f in F_p[X] of degree n >= 2 as single
    integer products (Kronecker substitution).

    A polynomial sum a_i X^i with a_i in [0, p) is the integer with a_i in
    slot i, each slot W bytes: X = 256^W.  In a product of two factors of
    at most n coefficients every slot is below n(p - 1)^2 < 256^W, so no
    slot carries into the next.

    With mu = floor(X^(2n-2) / f), a = a_hi X^n + a_lo of degree <= 2n - 2
    has quotient floor(a / f) = floor(a_hi mu / X^(n-2)) exactly: the rest
    of a / f, a_hi (X^(2n-2)/f - mu) / X^(n-2) + a_lo / f, has no
    polynomial part.  So a mod f = a_lo - (q f) mod X^n, with no correction.
    """

    def __init__(self, f: list[int], p: int):
        n = len(f) - 1
        self.p, self.n = p, n
        self.width = ((n * (p - 1) ** 2).bit_length() + 7) // 8
        self.mu = self.pack(_fp_divmod([0] * (2 * n - 2) + [1], f, p)[0])
        self.f_low = self.pack(f[:n])

    def pack(self, coeffs: list[int]) -> int:
        w = self.width
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs), "little")

    def unpack(self, v: int, lo: int, hi: int) -> list[int]:
        """Slots lo .. hi - 1 of v, not reduced."""
        w = self.width
        raw = v.to_bytes((v.bit_length() + 7) // 8, "little")
        get = int.from_bytes
        return [get(raw[i : i + w], "little") for i in range(w * lo, w * hi, w)]

    def mulmod(self, a: int, b: int) -> int:
        n, p = self.n, self.p
        c = self.unpack(a * b, 0, 2 * n - 1)
        q = self.unpack(self.pack([u % p for u in c[n:]]) * self.mu, n - 2, 2 * n - 3)
        qf = self.unpack(self.pack([u % p for u in q]) * self.f_low, 0, n)
        return self.pack([(u - v) % p for u, v in zip(c, qf)])

    def pow(self, base: list[int], e: int) -> list[int]:
        """base^e mod f for base of degree < n, left to right."""
        if e == 0:
            return [1]
        b = r = self.pack(base)
        for bit in bin(e)[3:]:
            r = self.mulmod(r, r)
            if bit == "1":
                r = self.mulmod(r, b)
        out = self.unpack(r, 0, self.n)
        while out and out[-1] == 0:
            out.pop()
        return out


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


# a correct split fails with probability about 1/2 per draw (see _split),
# so this many draws in a row fail with probability about 2^-64
_MAX_DRAWS = 64


def _split(g: FfPoly, xp: FfPoly | None, rng: random.Random) -> list[Fp2]:
    """Roots in F_{p^2} of g, a monic product of distinct irreducibles over
    F_p that are all linear (xp is None) or all quadratic (xp = X^p mod g).

    For c in F_p, s = (X + c)^((p-1)/2), or for quadratics the norm
    ((X + c)(X^p + c))^((p-1)/2), is +-1 modulo each factor: at a root r it
    is the Legendre symbol of r + c, or of the norm (r + c)(r^p + c^p) of
    r + c, since c^p = c.  So gcd(g, s - 1) splits g for about half of all
    c.  A factor of degree 2 is solved by the quadratic formula.
    """
    ctx = g.ctx
    if g.degree == 0:
        return []
    if g.degree == 1:
        return [ctx.neg(g.coeffs[0])]
    if g.degree == 2:
        return list(quadratic_roots(g.coeffs[1], g.coeffs[0], ctx))
    x, one = FfPoly.x(ctx), FfPoly([1], ctx)
    for _ in range(_MAX_DRAWS):
        c = FfPoly([rng.randrange(ctx.p)], ctx)
        base = x + c if xp is None else (x + c) * (xp + c)
        g1 = _fp_gcd(g, base.pow_mod((ctx.p - 1) // 2, g) - one)
        if 0 < g1.degree < g.degree:
            return [r for h in (g1, g // g1) for r in _split(h, None if xp is None else xp % h, rng)]
    raise CertificateError(f"no split of a degree-{g.degree} factor in {_MAX_DRAWS} draws")


def roots_with_multiplicity(f: FfPoly, ctx: Fp2Ctx | None = None) -> dict[Fp2, int]:
    """All roots of f in F_{p^2} with exact multiplicities.

    The root finding runs in F_p[X], on F = f when every coefficient of f
    lies in F_p and on F = f f^sigma otherwise (sigma is Frobenius on the
    coefficients), whose roots hold those of f.  With xp = X^p mod F and
    X^(p^2) = xp^p mod F, g = gcd(F, X^(p^2) - X) is the product of the
    distinct roots, g_lin = gcd(g, xp - X) that of the roots in F_p, and
    g / g_lin a product of distinct quadratics irreducible over F_p; _split
    takes each apart.  A root r of F counts when f(r) = 0, and its
    multiplicity comes from deflating f by X - r.  ctx, when given, must be
    the context of f.
    """
    if ctx is not None and ctx != f.ctx:
        raise DomainError(f"roots over F_{ctx.p}^2 of a polynomial over F_{f.ctx.p}^2")
    ctx = f.ctx
    if f.is_zero():
        raise DomainError("roots of the zero polynomial")
    if f.degree == 0:
        return {}
    fm = f.monic()
    conj = FfPoly([frobenius(c, ctx) for c in fm.coeffs], ctx)
    F = fm if conj == fm else fm * conj
    x = FfPoly.x(ctx)
    xp = x.pow_mod(ctx.p, F)
    g = _fp_gcd(F, xp.pow_mod(ctx.p, F) - x)
    xp = xp % g
    g_lin = _fp_gcd(g, xp - x)
    g_quad = g // g_lin
    rng = random.Random(_stable_seed(ctx.p, fm))
    roots = sorted(_split(g_lin, None, rng) + _split(g_quad, xp % g_quad, rng))
    if F is fm:
        out, rest = dict.fromkeys(roots, 1), fm // g
    else:
        out, rest = {}, fm
        for r in roots:
            quo, rem = rest.divmod(FfPoly([ctx.neg(r), (1, 0)], ctx))
            if rem.is_zero():
                out[r], rest = 1, quo
    for r in out:
        lin = FfPoly([ctx.neg(r), (1, 0)], ctx)
        while rest.degree > 0:
            quo, rem = rest.divmod(lin)
            if not rem.is_zero():
                break
            out[r] += 1
            rest = quo
    return out
