"""Arithmetic in F_p and F_{p^2}, and the roots in F_{p^2} of polynomials
over F_p.

F_{p^2} is realized as F_p[t]/(t^2 - nu) for the least positive quadratic
non-residue nu mod p, so element encodings are reproducible across runs.
Elements are pairs (x, y) meaning x + y*t with 0 <= x, y < p.  p = 2, 3 are
excluded everywhere.

Root finding (roots_with_multiplicity) takes a polynomial over F_p: every
polynomial whose roots the package needs, H_D mod p and the cubic
Phi_2(j, Y) at an F_p-rational j, has its coefficients there.  The
powering (FfPoly.pow_mod, on packed integers from degree 8 on), the gcds,
the splitting and the deflation all run on lists of integer coefficients;
only the roots are elements of F_{p^2}.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

from .errors import CertificateError, DomainError
from .numbase import is_prime, kronecker

__all__ = [
    "Fp2Ctx",
    "fp2_construct",
    "FfPoly",
    "roots_with_multiplicity",
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

    def pow(self, a: Fp2, e: int) -> Fp2:
        """a^e for e >= 0."""
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


class FfPoly:
    """A polynomial over F_p: its coefficients are integers in [0, p),
    lowest degree first, with no trailing zeros.  A coefficient may be given
    as an element (x, 0) of F_{p^2}; one with a nonzero t-part raises
    DomainError."""

    __slots__ = ("coeffs", "ctx")

    def __init__(self, coeffs, ctx: Fp2Ctx):
        p = ctx.p
        cs = []
        for c in coeffs:
            if isinstance(c, tuple):
                if c[1] % p:
                    raise DomainError(f"coefficient {ctx.serialize(ctx.el(*c))} lies outside F_{p}")
                c = c[0]
            cs.append(c % p)
        self.coeffs = _trim(cs)
        self.ctx = ctx

    def pow_mod(self, e: int, mod: "FfPoly") -> "FfPoly":
        """self^e mod `mod` (a nonzero polynomial).  From modulus degree
        _PACKED_MIN_DEGREE on, each product is one integer product
        (_PackedModulus)."""
        p = self.ctx.p
        f = _fp_monic(mod.coeffs, p)
        base = _fp_divmod(self.coeffs, f, p)[1]
        if len(f) - 1 >= _PACKED_MIN_DEGREE:
            out = _PackedModulus(f, p).pow(base, e)
        else:
            out = [1]
            for bit in bin(e)[2:]:
                out = _fp_divmod(_fp_mul(out, out), f, p)[1]
                if bit == "1":
                    out = _fp_divmod(_fp_mul(out, base), f, p)[1]
        return FfPoly(out, self.ctx)


# -- F_p[X] on coefficient lists: integers in [0, p), lowest degree first,
# no trailing zeros --------------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    """a - b, reduced."""
    return _trim([(u - v) % p for u, v in zip_longest(a, b, fillvalue=0)])


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
    return quo, _trim([u % p for u in rem])


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return _fp_monic(a, p)


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


def _stable_seed(p: int, f: list[int]) -> int:
    return zlib.crc32(repr((p, f)).encode()) ^ (p << 16)


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
    # square, and z has order exactly 2^k.  r = a^((m+1)/2) and b = a^m
    # come from one power u = a^((m-1)/2): r = u a and b = u r
    u = ctx.pow(a, (m - 1) // 2)
    r = ctx.mul(u, a)
    b, k = ctx.mul(u, r), s
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


def _split(g: list[int], xp: list[int] | None, ctx: Fp2Ctx, rng: random.Random) -> list[Fp2]:
    """Roots in F_{p^2} of g, a monic product of distinct irreducibles over
    F_p that are all linear (xp is None) or all quadratic (xp = X^p modulo
    a multiple of g).

    For c in F_p, s = (X + c)^((p-1)/2), or for quadratics the norm
    ((X + c)(X^p + c))^((p-1)/2), is +-1 modulo each factor: at a root r it
    is the Legendre symbol of r + c, or of the norm (r + c)(r^p + c^p) of
    r + c, since c^p = c.  So gcd(g, s - 1) splits g for about half of all
    c.  A factor of degree 2 is solved by the quadratic formula.
    """
    p = ctx.p
    if len(g) == 1:
        return []
    if len(g) == 2:
        return [(-g[0] % p, 0)]
    if len(g) == 3:
        return list(quadratic_roots(ctx.el(g[1]), ctx.el(g[0]), ctx))
    if xp is not None:
        xp = _fp_divmod(xp, g, p)[1]
    mod = FfPoly(g, ctx)
    for _ in range(_MAX_DRAWS):
        c = rng.randrange(p)
        base = [c, 1] if xp is None else _fp_mul([c, 1], [xp[0] + c, *xp[1:]])
        s = FfPoly(base, ctx).pow_mod((p - 1) // 2, mod).coeffs
        g1 = _fp_gcd(g, _fp_sub(s, [1], p), p)
        if 1 < len(g1) < len(g):
            return [r for h in (g1, _fp_divmod(g, g1, p)[0]) for r in _split(h, xp, ctx, rng)]
    raise CertificateError(f"no split of a degree-{len(g) - 1} factor in {_MAX_DRAWS} draws")


def roots_with_multiplicity(f: FfPoly, ctx: Fp2Ctx | None = None) -> dict[Fp2, int]:
    """All roots in F_{p^2} of f, a polynomial over F_p, with exact
    multiplicities.

    With F = f made monic, xp = X^p mod F and X^(p^2) = xp^p mod F,
    g = gcd(F, X^(p^2) - X) is the product of the distinct roots,
    g_lin = gcd(g, xp - X) that of the roots in F_p, and g / g_lin a product
    of distinct quadratics irreducible over F_p; _split takes each apart.
    The multiplicity of a root r in F_p comes from deflating F / g by X - r.
    A root r = x + y t outside F_p has the conjugate r^p = x - y t with the
    same multiplicity, and both come from one deflation of F / g by
    (X - r)(X - r^p) = X^2 - 2x X + x^2 - nu y^2.  ctx, when given, must be
    the context of f.
    """
    if ctx is not None and ctx != f.ctx:
        raise DomainError(f"roots over F_{ctx.p}^2 of a polynomial over F_{f.ctx.p}")
    ctx = f.ctx
    p = ctx.p
    if not f.coeffs:
        raise DomainError("roots of the zero polynomial")
    F = _fp_monic(f.coeffs, p)
    x = [0, 1]
    xp = FfPoly(x, ctx).pow_mod(p, f).coeffs
    g = _fp_gcd(F, _fp_sub(FfPoly(xp, ctx).pow_mod(p, f).coeffs, x, p), p)
    xp = _fp_divmod(xp, g, p)[1]
    g_lin = _fp_gcd(g, _fp_sub(xp, x, p), p)
    g_quad = _fp_divmod(g, g_lin, p)[0]
    rng = random.Random(_stable_seed(p, F))
    roots = sorted(_split(g_lin, None, ctx, rng) + _split(g_quad, xp, ctx, rng))
    out = dict.fromkeys(roots, 0)
    rest = _fp_divmod(F, g, p)[0]
    for r in roots:
        if out[r]:
            continue  # r is the conjugate of a root counted before it
        rx, ry = r
        factor = [-rx % p, 1] if ry == 0 else [(rx * rx - ctx.nu * ry * ry) % p, -2 * rx % p, 1]
        m = 1
        while len(rest) >= len(factor):
            quo, rem = _fp_divmod(rest, factor, p)
            if rem:
                break
            rest, m = quo, m + 1
        out[r] = out[(rx, -ry % p)] = m
    return out
