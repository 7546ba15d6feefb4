"""Arithmetic in F_p and F_{p^2}, and the roots in F_{p^2} of polynomials
over F_p.

F_{p^2} is realized as F_p[t]/(t^2 - nu) for the least positive quadratic
non-residue nu mod p, so element encodings are reproducible across runs.
Elements are pairs (x, y) meaning x + y*t with 0 <= x, y < p.  p = 2, 3 are
excluded everywhere.

Root finding (roots_with_multiplicity) takes a polynomial over F_p: every
polynomial whose roots the package needs, H_D mod p and the cubic
Phi_2(j, Y) at an F_p-rational j, has its coefficients there.  Every
division, Euclid's gcds and the powering (FfPoly.pow_mod, from degree 2
on) run on packed integers, one coefficient per slot (_Slots); the
polynomials between them, and the few products of the split, are lists of
integer coefficients.  Only the roots are elements of F_{p^2}.

Every quadratic, a degree-2 factor here or one of the 2-isogeny walk, is
solved by quadratic_roots, whose square root in F_{p^2} comes from square
roots mod p by one Tonelli-Shanks loop (_fp2_sqrt, _fp_sqrt).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
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

    # -- element arithmetic ------------------------------------------------
    def el(self, x: int, y: int = 0) -> Fp2:
        return (x % self.p, y % self.p)

    def add(self, a: Fp2, b: Fp2) -> Fp2:
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a: Fp2, b: Fp2) -> Fp2:
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

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

    __slots__ = ("coeffs", "ctx", "_packed")

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
        self._packed = None

    def pow_mod(self, e: int, mod: "FfPoly") -> "FfPoly":
        """self^e mod `mod` (a nonzero polynomial).  Modulo a constant every
        polynomial is 0, and modulo X - r, self is the constant self(r).
        From degree 2 on, each product is one integer product
        (_PackedModulus), and the first such call builds the packed modulus
        once and keeps it on `mod` for later powers modulo the same
        object."""
        p = self.ctx.p
        f = _fp_monic(mod.coeffs, p)
        base = _fp_divmod(self.coeffs, f, p)[1]
        if len(f) <= 2:
            # base is [] or [self(r)], so sum(base) is the constant
            return FfPoly([pow(sum(base), e, p)] if len(f) == 2 else [], self.ctx)
        if mod._packed is None:
            mod._packed = _PackedModulus(f, p)
        return FfPoly(mod._packed.pow(base, e), self.ctx)


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
    """Quotient and remainder of a (coefficients in any range) by b != 0
    (coefficients in [0, p)), by one packed long division (_Slots.divide):
    both are reduced mod p, so the slots stay below p + min(q, db) (p - 1)^2
    for q quotient coefficients."""
    a = [u % p for u in a]
    db = len(b) - 1
    if len(a) <= db:
        return [], _trim(a)
    s = _Slots(p, p + min(len(a) - db, db) * (p - 1) ** 2, 0)
    quo, rem = s.divide(s.pack(a), len(a) - 1, s.pack(b[:db]), db, pow(b[-1], -1, p))
    return quo, _trim(s.unpack(rem, db))


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b (coefficients in [0, p), no trailing zeros),
    not both zero: Euclid with both operands packed.  Each remainder is
    brought back to slots in [0, 2p) (_Slots._reduce) and its top slots
    that vanish mod p are masked off (_Slots.degree) before it divides, so
    every division starts from slots below 2p, by a divisor of degree at
    most db, the shorter operand's: the slots stay below
    2p + db (p - 1)(2p - 1).  Only the gcd is unpacked."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _fp_monic(a, p)
    db = len(b) - 1
    s = _Slots(p, 2 * p + db * (p - 1) * (2 * p - 1), db)
    u, du, v, dv, lead = s.pack(a), len(a) - 1, s.pack(b), db, b[-1]
    while dv >= 0:
        low = v ^ lead << s.bits * dv
        rem = s._reduce(s.divide(u, du, low, dv, pow(lead, -1, p))[1])
        u, du = v, dv
        v, dv, lead = s.degree(rem, dv - 1)
    return _fp_monic(s.unpack(u, du + 1), p)


class _Slots:
    """Polynomials over F_p as integers (Kronecker substitution; Harvey,
    J. Symb. Comput. 44 (2009)): sum a_i X^i is the integer with a_i in
    slot i, each slot W bytes, so that X = 256^W.  Each layout is sized by
    a bound S on every slot value it meets: S < 2^k <= 256^W, k the bit
    length of S, so no slot carries into the next.

    Division (divide) is the schoolbook long division (von zur Gathen and
    Gerhard, Modern Computer Algebra, Alg. 2.5), with O(1) integer
    operations per quotient coefficient.  The top slot x of the dividend
    gives the next quotient coefficient c = x / lc mod p, lc the divisor's
    leading coefficient; that slot is masked off, and (p - c) times the
    divisor's low slots, shifted into place, is added: -c times them mod p,
    with no slot going negative.  With the divisor's low slots below beta,
    each quotient coefficient adds at most (p - 1)(beta - 1) to a slot, and
    slot j is reached only by the steps at dividend slots j + 1 .. j + db,
    db the divisor's degree: by min(q, db) of the q steps.  So slots that
    start below alpha stay below alpha + min(q, db) (p - 1)(beta - 1), the
    bound each caller sizes its layout by.

    Reduction (_reduce) is Barrett's, on all even slots at once and then on
    all odd ones.  For a slot x < 2^k and m = floor(2^k / p), x m < 2^(2k)
    fits the double slot that one slot in two leaves empty, and k <= 8W, so
    the integer times m, shifted right by k and masked to the even slots,
    holds qh = floor(x m / 2^k) in each.  qh is q = floor(x / p) or q - 1:
    x m / 2^k <= x / p, and x m / 2^k > x (2^k / p - 1) / 2^k > x / p - 1.
    So x - p qh lies in [0, 2p), and the subtraction borrows from no slot.
    """

    def __init__(self, p: int, bound: int, count: int):
        """Slots for values below `bound`, and _reduce for `count` slots."""
        self.p = p
        self.k = bound.bit_length()
        self.width = (self.k + 7) // 8
        self.m = (1 << self.k) // p
        self.bits = 8 * self.width
        self.even = int.from_bytes((b"\xff" * self.width + bytes(self.width)) * ((count + 1) // 2), "little")

    def pack(self, coeffs: list[int]) -> int:
        """The integer with coeffs[i] in slot i; each must be below 256^W."""
        w = self.width
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs), "little")

    def unpack(self, v: int, count: int) -> list[int]:
        """Slots 0 .. count - 1 of v, each reduced mod p."""
        w, p = self.width, self.p
        raw = v.to_bytes((v.bit_length() + 7) // 8, "little")
        get = int.from_bytes
        return [get(raw[i : i + w], "little") % p for i in range(0, w * count, w)]

    def _reduce(self, v: int) -> int:
        """v with every slot x, x < 2^k, replaced by one in [0, 2p) and
        congruent to x mod p."""
        even, k, m, p, bits = self.even, self.k, self.m, self.p, self.bits
        e = v & even
        o = v >> bits & even
        e -= p * (e * m >> k & even)
        o -= p * (o * m >> k & even)
        return e | o << bits

    def divide(self, v: int, d: int, low: int, db: int, inv: int) -> tuple[list[int], int]:
        """The quotient, coefficients in [0, p), and the packed remainder,
        slots not reduced, of v of degree d by a divisor of degree db <= d
        with low slots `low` and leading coefficient 1/inv mod p."""
        p, bits = self.p, self.bits
        quo = [0] * (d - db + 1)
        for i in range(d, db - 1, -1):
            top = bits * i
            x = v >> top
            v ^= x << top
            c = x * inv % p
            if c:
                quo[i - db] = c
                v += (p - c) * low << top - bits * db
        return quo, v

    def degree(self, v: int, d: int) -> tuple[int, int, int]:
        """(v, its degree over F_p, its top slot) for v with slots 0 .. d in
        [0, 2p), its top slots that vanish mod p masked off; (0, -1, 0) for
        v = 0 mod p."""
        bits, p = self.bits, self.p
        slot = (1 << bits) - 1
        while d >= 0 and (v >> bits * d & slot) % p == 0:
            d -= 1
        return v & (1 << bits * (d + 1)) - 1, d, v >> bits * d & slot if d >= 0 else 0


class _PackedModulus(_Slots):
    """Products modulo a monic f in F_p[X] of degree n >= 2 as single
    integer products on packed slots (_Slots), reduced mod p in the
    integer.

    With mu = floor(X^(2n-2) / f), taken by one packed division,
    c = c_hi X^n + c_lo of degree <= 2n - 2 has quotient floor(c / f) =
    q = floor(c_hi mu / X^(n-2)) exactly: the rest of c / f,
    c_hi (X^(2n-2)/f - mu) / X^(n-2) + c_lo / f, has no polynomial part.
    So c mod f = c_lo - (q f) mod X^n, with no correction.

    Slots.  The factors of a product have slots in [0, 2p): mulmod returns
    such slots, and pow packs coefficients in [0, p).  So the slots of
    c = a b are below n (2p)^2 = 4 n p^2.  c is reduced to slots in
    [0, 2p) (_reduce), so those of c_hi mu, and of q, are below
    (n - 1) 2p p.  q is reduced too, so those of q f_low are below
    (n - 1) 2p p as well, and the bias B = 2 n p^2, a multiple of p, in
    every slot keeps r = c_lo + B - (q f_low) mod X^n nonnegative slot by
    slot, below B + 2p.  r is reduced last.  The division for mu, from
    slots below 2 by low slots below p, stays below 2 + n (p - 1)^2.  So
    no slot reaches S = 4 n p^2.  pow reduces the slots mod p once, at the
    end.
    """

    def __init__(self, f: list[int], p: int):
        n = len(f) - 1
        super().__init__(p, 4 * n * p * p, 2 * n)
        self.n = n
        bits = self.bits
        self.f_low = self.pack(f[:n])
        self.mu = self.pack(self.divide(1 << bits * (2 * n - 2), 2 * n - 2, self.f_low, n, 1)[0])
        self.bias = self.pack([2 * n * p * p] * n)
        self.low_mask = (1 << (bits * n)) - 1

    def mulmod(self, a: int, b: int) -> int:
        """a b mod f, for slots of a and b in [0, 2p); the slots returned
        lie in [0, 2p)."""
        n, bits = self.n, self.bits
        c = self._reduce(a * b)
        q = self._reduce((c >> (bits * n)) * self.mu >> (bits * (n - 2)))
        return self._reduce((c & self.low_mask) + self.bias - (q * self.f_low & self.low_mask))

    def pow(self, base: list[int], e: int) -> list[int]:
        """base^e mod f for base of degree < n, left to right."""
        if e == 0:
            return [1]
        b = r = self.pack(base)
        for bit in bin(e)[3:]:
            r = self.mulmod(r, r)
            if bit == "1":
                r = self.mulmod(r, b)
        return _trim(self.unpack(r, self.n))


def _stable_seed(p: int, f: list[int]) -> int:
    return zlib.crc32(repr((p, f)).encode()) ^ (p << 16)


def _fp_sqrt(a: int, p: int, nu: int) -> int:
    """A square root of a mod p when a is a square, else some r that the
    caller's check rejects (Tonelli-Shanks; Cohen, GTM 138, Alg. 1.5.1).

    With p - 1 = 2^s m, m odd, z = nu^m has order exactly 2^s, since
    nu^((p-1)/2) = -1 for the non-residue nu.  For p = 3 mod 4 (s = 1) the
    result is a^((p+1)/4), with no loop."""
    s = ((p - 1) & (1 - p)).bit_length() - 1  # 2^s is the 2-part of p - 1
    m = (p - 1) >> s
    # invariant r^2 = a b; b has order dividing 2^(k-1) when a is a nonzero
    # square, and z has order exactly 2^k.  r = a^((m+1)/2) and b = a^m
    # come from one power u = a^((m-1)/2): r = u a and b = u r
    u = pow(a, (m - 1) // 2, p)
    r = u * a % p
    b, z, k = u * r % p, pow(nu, m, p), s
    while b != 1:
        i, bb = 0, b
        while bb != 1 and i < k:
            bb = bb * bb % p
            i += 1
        if i == k:
            break
        w = pow(z, 1 << (k - i - 1), p)
        r, z = r * w % p, w * w % p
        b, k = b * z % p, i
    return r


def _fp2_sqrt(a: Fp2, ctx: Fp2Ctx) -> Fp2:
    """A square root r = c + d t of a = x + y t in F_{p^2} from square
    roots mod p (the norm method; Adj and Rodriguez-Henriquez, IEEE Trans.
    Computers 63 (2014)); CertificateError when a has none.

    y = 0: r = (sqrt x, 0) when x is a square mod p, else r = (0, d) with
    d^2 = x / nu, since (d t)^2 = nu d^2.  y != 0: r^2 = a means
    c^2 + nu d^2 = x and 2cd = y, and the norm c^2 - nu d^2 of r is +-n
    for n^2 = x^2 - nu y^2, the norm of a.  So c^2 is (x + n)/2 or
    (x - n)/2, whose product (x^2 - n^2)/4 = nu (y/2)^2 is not a square:
    exactly one is, c is its root (c != 0 as y != 0), and d = y / (2c).
    The check r^2 = a certifies r, and no r passes it for a non-square a."""
    p, nu = ctx.p, ctx.nu
    x, y = a
    if y == 0:
        if kronecker(x, p) >= 0:
            r = (_fp_sqrt(x, p, nu), 0)
        else:
            r = (0, _fp_sqrt(x * pow(nu, -1, p) % p, p, nu))
    else:
        half = (p + 1) // 2
        n = _fp_sqrt((x * x - nu * y * y) % p, p, nu)
        c2 = (x + n) * half % p
        if kronecker(c2, p) < 0:
            c2 = (x - n) * half % p
        c = _fp_sqrt(c2, p, nu)
        # c = 0 only for a non-square a; its inverse is then taken as 0
        r = (c, y * half * pow(c, p - 2, p) % p)
    if ctx.mul(r, r) != a:
        raise CertificateError(f"{ctx.serialize(a)} has no square root in F_{p}^2")
    return r


def quadratic_roots(b: Fp2, c: Fp2, ctx: Fp2Ctx) -> tuple[Fp2, Fp2]:
    """The roots (-b +- r)/2, r^2 = b^2 - 4c, of X^2 + bX + c in F_{p^2};
    CertificateError when the quadratic does not split there."""
    p, (b0, b1), (c0, c1) = ctx.p, b, c
    r0, r1 = _fp2_sqrt(((b0 * b0 + ctx.nu * b1 * b1 - 4 * c0) % p, (2 * b0 * b1 - 4 * c1) % p), ctx)
    h = (p + 1) // 2
    return ((r0 - b0) * h % p, (r1 - b1) * h % p), ((-r0 - b0) * h % p, (-r1 - b1) * h % p)


# a correct split fails with probability about 1/2 per draw (see _split),
# so this many draws in a row fail with probability about 2^-64
_MAX_DRAWS = 64

# A node of at most this many quadratic factors is split by their traces
# and norms (_trace_split), with no norm draw.  Set by timing root finding
# over the 51 polynomials of the classpoly-roots pool: 2, 3 and 4 took the
# same time within the noise (0.46-0.48 s), 6 took 2% and 8 6% more
_TRACE_SPLIT_MAX = 3


def _split(g: list[int], xp: list[int] | None, ctx: Fp2Ctx, rng: random.Random) -> list[Fp2]:
    """Roots in F_{p^2} of g, a monic product of distinct irreducibles over
    F_p that are all linear (xp is None) or all quadratic (xp = X^p modulo
    a multiple of g).

    A product of at most _TRACE_SPLIT_MAX quadratics with distinct traces is
    taken apart by _trace_split.  Otherwise, for c in F_p,
    s = (X + c)^((p-1)/2), or for quadratics the norm
    ((X + c)(X^p + c))^((p-1)/2), is +-1 modulo each factor: at a root r it
    is the Legendre symbol of r + c, or of the norm (r + c)(r^p + c^p) of
    r + c, since c^p = c.  So gcd(g, s - 1) splits g for about half of all
    c.  The norm's base is N + cT + c^2 for T = X + X^p and N = X X^p
    modulo g, which the trace split takes too.  A factor of degree 2 is
    solved by the quadratic formula (quadratic_roots).
    """
    p = ctx.p
    if len(g) == 1:
        return []
    if len(g) == 2:
        return [(-g[0] % p, 0)]
    if len(g) == 3:
        return [*quadratic_roots((g[1], 0), (g[0], 0), ctx)]
    if xp is not None:
        xp = _fp_divmod(xp, g, p)[1]
        t = _fp_sub(xp, [0, -1], p)  # X^p + X
        norm = _fp_divmod([0, *xp], g, p)[1]  # X X^p
        if len(g) - 1 <= 2 * _TRACE_SPLIT_MAX:
            factors = _trace_split(g, t, norm, ctx, rng)
            if factors is not None:
                return [r for h in factors for r in _split(h, xp, ctx, rng)]
    mod = FfPoly(g, ctx)
    for _ in range(_MAX_DRAWS):
        c = rng.randrange(p)
        base = [c, 1] if xp is None else [u + c * v + w for u, v, w in zip_longest(norm, t, [c * c], fillvalue=0)]
        s = FfPoly(base, ctx).pow_mod((p - 1) // 2, mod).coeffs
        g1 = _fp_gcd(g, _fp_sub(s, [1], p), p)
        if 1 < len(g1) < len(g):
            return [r for h in (g1, _fp_divmod(g, g1, p)[0]) for r in _split(h, xp, ctx, rng)]
    raise CertificateError(f"no split of a degree-{len(g) - 1} factor in {_MAX_DRAWS} draws")


def _trace_split(g: list[int], t: list[int], norm: list[int], ctx: Fp2Ctx, rng: random.Random) -> list[list[int]] | None:
    """The factors of g, a monic product of k >= 2 distinct quadratics
    irreducible over F_p, from their traces and norms, for t = X + X^p and
    norm = X X^p modulo g; None when two factors share a trace.

    Modulo a factor with roots r and r^p, T = X + X^p is r + r^p = s, its
    trace, and N = X X^p = X^(p+1) is r r^p = n, its norm, both in F_p.  So,
    by the Chinese remainder theorem, T^j is s_i^j modulo the i-th factor,
    and when the s_i are distinct, T^0, ..., T^(k-1) are independent (a
    Vandermonde matrix in the s_i), R(Y) = prod (Y - s_i) is the monic
    polynomial of degree k with R(T) = 0 mod g, and N = phi(T) for the phi
    of degree < k with phi(s_i) = n_i (_trace_resolvent).  R's roots, found
    by the F_p-linear path of _split, are the traces, and the factor of
    trace s is X^2 - sX + phi(s).  Their product must be g, which certifies
    them whatever the solve did; anything else raises CertificateError.
    """
    p = ctx.p
    k = (len(g) - 1) // 2
    powers = [[1], t]
    for _ in range(k - 1):
        powers.append(_fp_divmod(_fp_mul(powers[-1], t), g, p)[1])
    solved = _trace_resolvent(powers, norm, p)
    if solved is None:
        return None
    resolvent, phi = solved
    traces = _split(resolvent, None, ctx, rng)
    if len({s for s, y in traces if y == 0}) != k:
        raise CertificateError("the trace resolvent does not have k distinct roots in F_p")
    factors = [[sum(c * pow(s, j, p) for j, c in enumerate(phi)) % p, -s % p, 1] for s, _ in traces]
    product = factors[0]
    for h in factors[1:]:
        product = _fp_mul(product, h)
    if [u % p for u in product] != g:
        raise CertificateError("the quadratics of the traces do not multiply to the node")
    return factors


def _trace_resolvent(powers: list[list[int]], norm: list[int], p: int) -> tuple[list[int], list[int]] | None:
    """(R, phi), ascending, for powers = [T^0, ..., T^k] and norm = N modulo
    g of degree 2k: the monic R of degree k with R(T) = 0, and phi of
    degree < k with phi(T) = N; None when T^0, ..., T^(k-1) have rank
    below k.

    T^k = sum_(j < k) a_j T^j and N = sum_(j < k) b_j T^j are systems of 2k
    equations, one per coefficient of X, in the k unknowns a_j or b_j,
    solved together by Gauss-Jordan elimination mod p, with two right-hand
    columns.  At rank k the solutions are unique, and a remaining row that
    is not 0 = 0 shows T^k or N outside the span: CertificateError.
    """
    k = len(powers) - 1
    columns = [*powers, norm]
    n = max(map(len, columns))  # the rows past the last coefficient are 0 = 0
    rows = [[c[i] if i < len(c) else 0 for c in columns] for i in range(n)]
    for col in range(k):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        top = rows[col] = [v * inv % p for v in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                c = row[col]
                rows[i] = [(v - c * w) % p for v, w in zip(row, top)]
    if any(row[k] for row in rows[k:]):
        raise CertificateError("T^k is not a combination of lower powers of T")
    if any(row[k + 1] for row in rows[k:]):
        raise CertificateError("X^(p+1) is not a polynomial in T")
    return [-row[k] % p for row in rows[:k]] + [1], [row[k + 1] for row in rows[:k]]


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
