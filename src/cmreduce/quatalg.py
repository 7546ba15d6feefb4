"""Definite rational quaternion algebras B_{inf,p}: construction with
certified ramification, maximal orders, rank-4 lattice and ideal
arithmetic, ideal class sets with mass certificates, Gross lattices,
optimal embeddings, Killing-form and discriminant computations, and local
norm surjectivity.

Lattices are stored as (denominator, integer HNF basis matrix) against the
1, i, j, k frame, so lattice equality is matrix equality.  All arithmetic
is exact and every lattice coordinate is an integer: lattice products,
right multiplication, ideal formation, neighbour ideals and maximal-order
saturation multiply the integer rows with the structure constants of the
algebra, and one back-substitution on the HNF rows (`_hnf_coordinates`)
decides membership.  The right order of a left ideal I of a maximal order
is conj(I) I / Nr(I).
Short-vector search runs integral LLL on the integer trace Gram matrix,
then Fincke-Pohst enumeration through scaled integer Schur complements, and
maps the vectors found back to HNF coordinates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

from .errors import BudgetError, CertificateError, DomainError, NotRepresented
from .numbase import exact_sqrt_fraction, factorize, is_prime, kronecker
from .quadforms import Discriminant, QuadForm, _xgcd

__all__ = [
    "QuaternionAlgebra",
    "QuatElement",
    "Lattice4",
    "Order",
    "LeftIdeal",
    "IdealClassSet",
    "GrossLattice",
    "Embedding",
    "hilbert_symbol",
    "construct_Bp",
    "mat2_model",
    "maximal_order",
    "gross_lattice",
    "find_optimal_embedding",
    "left_ideal_from_class",
    "is_same_class",
    "ideal_classes",
    "right_order",
    "unit_weight",
    "killing_check",
    "packet_discriminant",
    "hs_norm_ratio",
    "local_norm_surjectivity",
]


# ---------------------------------------------------------------------------
# Hilbert symbols and algebra construction
# ---------------------------------------------------------------------------


def _eps2(u: int) -> int:
    return ((u - 1) // 2) % 2


def _omega2(u: int) -> int:
    return ((u * u - 1) // 8) % 2


def _split_prime_power(n: int, p: int) -> tuple[int, int]:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def hilbert_symbol(a: int, b: int, place) -> int:
    """Local Hilbert symbol (a, b)_v for v a prime or the string/float 'inf'."""
    if a == 0 or b == 0:
        raise DomainError("hilbert symbol requires nonzero arguments")
    if place in ("inf", "infty", math.inf):
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not (isinstance(p, int) and is_prime(p)):
        raise DomainError(f"invalid place {place!r}")
    if p == 2:
        alpha, u = _split_prime_power(a, 2)
        beta, v = _split_prime_power(b, 2)
        exp = _eps2(u) * _eps2(v) + alpha * _omega2(v) + beta * _omega2(u)
        return -1 if exp % 2 else 1
    alpha, u = _split_prime_power(a, p)
    beta, v = _split_prime_power(b, p)
    result = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        result = -result
    if beta % 2:
        result *= kronecker(u, p)
    if alpha % 2:
        result *= kronecker(v, p)
    return result


@dataclass(frozen=True)
class QuaternionAlgebra:
    """Basis 1, i, j, k with i^2 = a, j^2 = b, k = ij = -ji."""

    a: int
    b: int
    ramified: frozenset = field(default_factory=frozenset)

    @property
    def is_definite(self) -> bool:
        return self.a < 0 and self.b < 0

    def one(self) -> "QuatElement":
        return QuatElement(self, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))

    def element(self, x0, x1, x2, x3) -> "QuatElement":
        return QuatElement(self, (Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3)))

    def basis_elements(self) -> list["QuatElement"]:
        e = [self.element(1, 0, 0, 0), self.element(0, 1, 0, 0),
             self.element(0, 0, 1, 0), self.element(0, 0, 0, 1)]
        return e


def ramified_places(a: int, b: int) -> frozenset:
    """Certified ramification set via Hilbert symbols at inf, 2 and all
    primes dividing 2ab."""
    places = {2} | {p for p, _ in factorize(2 * a * b)}
    out = set()
    if hilbert_symbol(a, b, "inf") == -1:
        out.add("inf")
    for q in sorted(places):
        if hilbert_symbol(a, b, q) == -1:
            out.add(q)
    return frozenset(out)


_BP_SEARCH_BOUND = 200


def construct_Bp(p: int) -> QuaternionAlgebra:
    """The quaternion algebra ramified exactly at inf and p, found by a
    deterministic search over negative pairs (a, b) with certified
    ramification."""
    if p in (2, 3) or not is_prime(p):
        raise DomainError(f"construct_Bp requires a prime p >= 5, got {p}")
    for s in range(2, 2 * _BP_SEARCH_BOUND + 1):
        for a in range(-1, -s, -1):
            b = -(s - abs(a))
            if b >= 0:
                continue
            ram = ramified_places(a, b)
            if ram == frozenset({"inf", p}):
                return QuaternionAlgebra(a=a, b=b, ramified=ram)
    raise CertificateError(f"no (a, b) pair with |a|+|b| <= {2 * _BP_SEARCH_BOUND} found for p={p}")


def mat2_model() -> QuaternionAlgebra:
    """The split algebra (1, 1) = Mat_2(Q), used only for cross-checks."""
    return QuaternionAlgebra(a=1, b=1, ramified=frozenset())


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class QuatElement:
    """Quaternion with rational coordinates in the 1, i, j, k frame."""

    __slots__ = ("alg", "c")

    def __init__(self, alg: QuaternionAlgebra, coords):
        self.alg = alg
        self.c = tuple(Fraction(x) for x in coords)

    def __repr__(self):
        return f"QuatElement{self.c}"

    def __eq__(self, other):
        return isinstance(other, QuatElement) and self.alg == other.alg and self.c == other.c

    def __hash__(self):
        return hash((self.alg.a, self.alg.b, self.c))

    def __add__(self, other):
        return QuatElement(self.alg, tuple(x + y for x, y in zip(self.c, other.c)))

    def __sub__(self, other):
        return QuatElement(self.alg, tuple(x - y for x, y in zip(self.c, other.c)))

    def __neg__(self):
        return QuatElement(self.alg, tuple(-x for x in self.c))

    def __mul__(self, other):
        if isinstance(other, QuatElement):
            return QuatElement(self.alg, _qmul(self.alg.a, self.alg.b, self.c, other.c))
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar):
        s = Fraction(scalar)
        return QuatElement(self.alg, tuple(s * x for x in self.c))

    def conj(self) -> "QuatElement":
        x0, x1, x2, x3 = self.c
        return QuatElement(self.alg, (x0, -x1, -x2, -x3))

    def trace(self) -> Fraction:
        return 2 * self.c[0]

    def norm(self) -> Fraction:
        a, b = self.alg.a, self.alg.b
        x0, x1, x2, x3 = self.c
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def inverse(self) -> "QuatElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of a norm-zero quaternion")
        return self.conj().scale(Fraction(1, 1) / n)

    def numerator(self) -> tuple[int, list[int]]:
        """(den, n) with self = n / den and den the least common denominator."""
        den = math.lcm(*(x.denominator for x in self.c))
        return den, [x.numerator * (den // x.denominator) for x in self.c]


def _qmul(a: int, b: int, x, y) -> list:
    """Coordinates of x * y in the 1, i, j, k frame of the algebra (a, b)."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return [
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    ]


# ---------------------------------------------------------------------------
# Integer HNF and rank-4 lattices
# ---------------------------------------------------------------------------


def hnf_rows(rows: list[list[int]], width: int = 4) -> list[list[int]]:
    """Row-style Hermite normal form: pivots positive on the diagonal of
    successive pivot columns, entries above each pivot reduced into
    [0, pivot)."""
    work = [list(r) for r in rows if any(r)]
    out: list[list[int]] = []
    for col in range(width):
        pivot = None
        rest = []
        for r in work:
            if r[col] == 0:
                rest.append(r)
                continue
            if pivot is None:
                pivot = r
                continue
            if r[col] % pivot[col] == 0:
                q = r[col] // pivot[col]
                new_r = [u - q * v for u, v in zip(r, pivot)]
                if any(new_r):
                    rest.append(new_r)
                continue
            g, x, y = _xgcd(pivot[col], r[col])
            pc, rc = pivot[col] // g, r[col] // g
            new_p = [x * u + y * v for u, v in zip(pivot, r)]
            new_r = [-rc * u + pc * v for u, v in zip(pivot, r)]
            pivot = new_p
            if any(new_r):
                rest.append(new_r)
        work = rest
        if pivot is not None:
            if pivot[col] < 0:
                pivot = [-u for u in pivot]
            out.append(pivot)
    # reduce entries above each pivot, increasing pivot column so later
    # reductions cannot spoil earlier ones
    for upper in range(len(out)):
        for idx in range(upper + 1, len(out)):
            pcol = next(c for c in range(width) if out[idx][c] != 0)
            piv = out[idx][pcol]
            q = out[upper][pcol] // piv
            if q:
                out[upper] = [u - q * v for u, v in zip(out[upper], out[idx])]
    return out


def _hnf_coordinates(mat, target, den: int) -> list[int] | None:
    """Integer c with c . mat = target / den for HNF rows `mat` of width 3
    or 4 and an integer vector `target`, or None when there is none.  A
    pivot that does not divide its entry leaves a nonzero remainder in t."""
    t = list(target)
    coords = []
    for row in mat:
        pcol = next(col for col, x in enumerate(row) if x)
        c = t[pcol] // (den * row[pcol])
        coords.append(c)
        t = [u - c * den * x for u, x in zip(t, row)]
    return None if any(t) else coords


@dataclass(frozen=True)
class Lattice4:
    """Full-rank lattice (1/den) * rowspan_Z(mat) in the 1, i, j, k frame."""

    alg: QuaternionAlgebra
    den: int
    mat: tuple[tuple[int, int, int, int], ...]

    @classmethod
    def from_rows(cls, alg: QuaternionAlgebra, rows: list[list[int]], den: int) -> "Lattice4":
        h = hnf_rows(rows)
        if len(h) != 4:
            raise DomainError("lattice generators do not have full rank")
        g = den
        for r in h:
            for x in r:
                g = math.gcd(g, x)
        if g > 1:
            den //= g
            h = [[x // g for x in r] for r in h]
        return cls(alg=alg, den=den, mat=tuple(tuple(r) for r in h))

    @classmethod
    def from_elements(cls, alg: QuaternionAlgebra, elements: list[QuatElement]) -> "Lattice4":
        den = math.lcm(*(x.denominator for e in elements for x in e.c))
        rows = [[x.numerator * (den // x.denominator) for x in e.c] for e in elements]
        return cls.from_rows(alg, rows, den)

    def basis(self) -> list[QuatElement]:
        return [
            QuatElement(self.alg, tuple(Fraction(x, self.den) for x in row)) for row in self.mat
        ]

    def vector(self, coords) -> QuatElement:
        """The lattice vector with integer coordinates `coords` in the HNF basis."""
        return QuatElement(self.alg, [Fraction(x, self.den) for x in _unreduce(self.mat, coords)])

    def det_fraction(self) -> Fraction:
        return Fraction(abs(_det4(self.mat)), self.den**4)

    def contains(self, x: QuatElement) -> bool:
        return self.coordinates(x) is not None

    def coordinates(self, x: QuatElement) -> list[int] | None:
        """Integer coordinates of x in the HNF basis, or None if x is not in
        the lattice."""
        d, n = x.numerator()
        return _hnf_coordinates(self.mat, [v * self.den for v in n], d)

    def scaled(self, s) -> "Lattice4":
        s = Fraction(s)
        rows = [[x * s.numerator for x in r] for r in self.mat]
        return Lattice4.from_rows(self.alg, rows, self.den * s.denominator)

    def conjugate(self) -> "Lattice4":
        rows = [[r[0], -r[1], -r[2], -r[3]] for r in self.mat]
        return Lattice4.from_rows(self.alg, rows, self.den)

    def right_multiply(self, x: QuatElement) -> "Lattice4":
        den, n = x.numerator()
        a, b = self.alg.a, self.alg.b
        return Lattice4.from_rows(self.alg, [_qmul(a, b, r, n) for r in self.mat], self.den * den)

    def product(self, other: "Lattice4") -> "Lattice4":
        a, b = self.alg.a, self.alg.b
        rows = [_qmul(a, b, x, y) for x in self.mat for y in other.mat]
        return Lattice4.from_rows(self.alg, rows, self.den * other.den)

    def trace_gram(self) -> list[list[int]]:
        """Integer matrix T with T[i][j] = Tr(m_i conj(m_j)) for the scaled
        integer rows m_i; Nr((1/den) c.M) = c^T T c / (2 den^2)."""
        a, b = self.alg.a, self.alg.b
        T = [[0] * 4 for _ in range(4)]
        for i in range(4):
            xi = self.mat[i]
            for j in range(i, 4):
                yj = self.mat[j]
                v = 2 * (xi[0] * yj[0] - a * xi[1] * yj[1] - b * xi[2] * yj[2] + a * b * xi[3] * yj[3])
                T[i][j] = T[j][i] = v
        return T


def _det3(a):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def _det4(m) -> int:
    # cofactor expansion, exact
    total = 0
    for col in range(4):
        minor = [[m[r][c] for c in range(4) if c != col] for r in range(1, 4)]
        term = m[0][col] * _det3(minor)
        total += term if col % 2 == 0 else -term
    return total


# ---------------------------------------------------------------------------
# Exact LLL reduction and Fincke-Pohst enumeration
# ---------------------------------------------------------------------------


def _lll_gram(G: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Integral LLL reduction (delta = 3/4) of a positive definite integer
    Gram matrix, after Cohen, GTM 138, Algorithm 2.6.7.

    Returns (H, R): H is unimodular, its rows are the reduced basis in the
    coordinates of G, and R = H G H^T.  Only integers are used: d[i + 1] is
    the Gram determinant of the first i + 1 basis vectors and lam[k][j] =
    d[j + 1] mu[k][j] for the Gram-Schmidt coefficients mu.
    """
    n = len(G)
    if G[0][0] <= 0:
        raise DomainError("form is not positive definite")
    H = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1, G[0][0]] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def redi(k, l):
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        H[k] = [x - q * y for x, y in zip(H[k], H[l])]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                # row k of H is still the unit vector e_k
                u = sum(g * h for g, h in zip(G[k], H[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise DomainError("form is not positive definite")
                else:
                    d[k + 1] = u
        redi(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            H[k], H[k - 1] = H[k - 1], H[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            m = lam[k][k - 1]
            B = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (B * t + m * lam[i][k]) // d[k + 1]
            d[k] = B
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                redi(k, l)
            k += 1
    HG = [[sum(h * g for h, g in zip(u, col)) for col in zip(*G)] for u in H]
    return H, [[sum(x * y for x, y in zip(u, v)) for v in H] for u in HG]


def _fincke_pohst(G: list[list[int]], bound: int, exact: bool = False):
    """Every nonzero integer x with x^T G x <= bound, or == bound when
    `exact`, for a positive definite integer G of size n >= 2; yields
    (x, x^T G x).

    Works through scaled integer Schur complements: with a = G[0][0],
    a x^T G x = (a x_0 + g.x')^2 + x'^T (a G' - g g^T) x', and the pruning
    bound at each level is the product of the earlier pivots times `bound`.
    In exact mode the first coordinate is solved from a perfect square.
    """
    n = len(G)
    piv, rows = [], []
    S = [list(r) for r in G]
    for _ in range(n):
        a = S[0][0]
        if a <= 0:
            raise DomainError("form is not positive definite")
        piv.append(a)
        rows.append(S[0][1:])
        S = [[a * S[i][j] - S[0][i] * S[0][j] for j in range(1, len(S))] for i in range(1, len(S))]
    caps = [bound]
    for a in piv[:-1]:
        caps.append(caps[-1] * a)
    if bound >= 0:
        yield from _fp_level(n - 1, 0, [0] * n, piv, rows, caps, exact)


def _fp_level(k, tail, x, piv, rows, caps, exact):
    # x[k], ..., x[0] for every completion of x[k + 1:], whose value under
    # the k-th Schur complement is `tail`, within the pruning bound caps[k]
    a = piv[k]
    lin = sum(map(operator.mul, rows[k], x[k + 1 :]))
    room = a * caps[k] - tail
    if room < 0:
        return
    s = math.isqrt(room)
    for z in range(-((s + lin) // a), (s - lin) // a + 1):
        x[k] = z
        value = ((a * z + lin) ** 2 + tail) // a
        if k > 1:
            yield from _fp_level(k - 1, value, x, piv, rows, caps, exact)
            continue
        for x[0], v in _fp_first(value, x, piv[0], rows[0], caps[0], exact):
            if any(x):
                yield tuple(x), v
        x[0] = 0
    x[k] = 0


def _fp_first(tail, x, a, row, bound, exact):
    # (x_0, value) for every x_0 that completes x[1:] within the bound
    lin = sum(map(operator.mul, row, x[1:]))
    room = a * bound - tail
    if room < 0:
        return ()
    s = math.isqrt(room)
    if exact:
        if s * s != room:
            return ()
        return [((w - lin) // a, bound) for w in ((s, -s) if s else (0,)) if (w - lin) % a == 0]
    return [(z, ((a * z + lin) ** 2 + tail) // a) for z in range(-((s + lin) // a), (s - lin) // a + 1)]


def _unreduce(H: list[list[int]], y) -> tuple[int, ...]:
    """The combination y . H of the rows of H: coordinates y in the basis H
    (an LLL basis, or HNF rows) as coordinates in the frame of H's rows."""
    return tuple(sum(c * row[j] for c, row in zip(y, H)) for j in range(len(H[0])))


def _scaled_norm(lat: Lattice4, target) -> int | None:
    """2 den^2 target, the value of the trace Gram form on lattice vectors of
    reduced norm `target`, or None when it is not an integer."""
    scaled = 2 * lat.den**2 * Fraction(target)
    return scaled.numerator if scaled.denominator == 1 else None


def lattice_vectors_with_norm(lat: Lattice4, target) -> list[QuatElement]:
    """All v in the lattice with Nr(v) = target (exact), canonical order."""
    scaled = _scaled_norm(lat, target)
    if scaled is None:
        return []
    H, R = _lll_gram(lat.trace_gram())
    hits = sorted(_unreduce(H, y) for y, _ in _fincke_pohst(R, scaled, exact=True))
    return [lat.vector(c) for c in hits]


def lattice_min_norm_hits(lat: Lattice4, bound) -> bool:
    """True iff some nonzero lattice vector has Nr exactly `bound` -- used
    for the principality test where `bound` = Nr(lattice) is the a priori
    minimum of the norm on the lattice."""
    scaled = _scaled_norm(lat, bound)
    if scaled is None:
        return False
    _, R = _lll_gram(lat.trace_gram())
    return next(_fincke_pohst(R, scaled, exact=True), None) is not None


def lattice_shortest_vectors(lat: Lattice4) -> list[QuatElement]:
    """Nonzero vectors of minimal norm, sorted by their HNF coordinates."""
    H, R = _lll_gram(lat.trace_gram())
    found = list(_fincke_pohst(R, min(R[i][i] for i in range(4))))
    least = min(value for _, value in found)
    hits = sorted(_unreduce(H, y) for y, value in found if value == least)
    return [lat.vector(c) for c in hits]


# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Order:
    lattice: Lattice4

    @property
    def alg(self) -> QuaternionAlgebra:
        return self.lattice.alg

    def basis(self) -> list[QuatElement]:
        return self.lattice.basis()

    def contains(self, x: QuatElement) -> bool:
        return self.lattice.contains(x)

    @property
    def reduced_discriminant(self) -> int:
        det = Fraction(abs(_det4(self.lattice.trace_gram())), self.lattice.den**8)
        rd = exact_sqrt_fraction(det)
        if rd.denominator != 1:
            raise CertificateError("non-integral reduced discriminant")
        return rd.numerator

    def is_multiplicatively_closed(self) -> bool:
        lat = self.lattice
        a, b = lat.alg.a, lat.alg.b
        rows = [_qmul(a, b, x, y) for x in lat.mat for y in lat.mat]
        rows += [[lat.den * x for x in r] for r in lat.mat]
        return Lattice4.from_rows(lat.alg, rows, lat.den**2) == lat

    @property
    def unit_weight(self) -> int:
        return unit_weight(self)


def unit_weight(order: Order) -> int:
    """|O^x / {+-1}| = half the number of norm-1 lattice vectors."""
    if not order.alg.is_definite:
        raise DomainError("unit counting needs a definite algebra")
    units = lattice_vectors_with_norm(order.lattice, 1)
    if len(units) % 2:
        raise CertificateError("odd number of norm-1 vectors")
    return len(units) // 2


def maximal_order(B: QuaternionAlgebra) -> Order:
    """Saturate Z<1,i,j,k> at the primes dividing the reduced discriminant
    until it equals p; certified by the trace-pairing Gram determinant."""
    if not B.is_definite:
        raise DomainError("maximal_order expects a definite algebra")
    if B.ramified != frozenset({"inf"}) and len(B.ramified) != 2:
        raise DomainError("algebra must be ramified at exactly {inf, p}")
    p = next(q for q in B.ramified if q != "inf")
    lat = Lattice4.from_elements(B, B.basis_elements())
    order = Order(lattice=lat)
    rd = order.reduced_discriminant
    while rd != p:
        enlarged = False
        for q, _ in factorize(rd):
            bigger = _enlarge_at(order, q)
            if bigger is not None:
                order = bigger
                rd = order.reduced_discriminant
                enlarged = True
                break
        if not enlarged:
            break
    if order.reduced_discriminant != p:
        raise CertificateError(
            f"saturation stalled at reduced discriminant {order.reduced_discriminant}, "
            f"expected {p}; ramification certificate is suspect"
        )
    return order


def _enlarge_at(order: Order, q: int) -> Order | None:
    """One superorder step of index q, if any: scan x in (1/q)O \\ O with
    integral trace and norm whose span with O is multiplicatively closed."""
    lat = order.lattice
    a, b = lat.alg.a, lat.alg.b
    qd = q * lat.den
    rows = [[q * x for x in r] for r in lat.mat]
    for c in product(range(q), repeat=4):
        if not any(c):
            continue
        n = _unreduce(lat.mat, c)  # x = n / (q den)
        if 2 * n[0] % qd or (n[0] ** 2 - a * n[1] ** 2 - b * n[2] ** 2 + a * b * n[3] ** 2) % (qd * qd):
            continue
        candidate = Order(lattice=Lattice4.from_rows(lat.alg, rows + [n], qd))
        if candidate.lattice != lat and candidate.is_multiplicatively_closed():
            return candidate
    return None


# ---------------------------------------------------------------------------
# Gross lattice and optimal embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrossLattice:
    """Rank-3 lattice {2x - Tr(x): x in O} inside the traceless subspace,
    stored as (den, 3 rows in (i, j, k) coordinates)."""

    alg: QuaternionAlgebra
    den: int
    mat: tuple[tuple[int, int, int], ...]

    def basis(self) -> list[QuatElement]:
        return [
            QuatElement(self.alg, (Fraction(0),) + tuple(Fraction(x, self.den) for x in row))
            for row in self.mat
        ]

    def gram(self) -> list[list[int]]:
        a, b = self.alg.a, self.alg.b
        T = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                xi, yj = self.mat[i], self.mat[j]
                v = 2 * (-a * xi[0] * yj[0] - b * xi[1] * yj[1] + a * b * xi[2] * yj[2])
                T[i][j] = T[j][i] = v
        return T

    def coordinates(self, v: QuatElement) -> list[int] | None:
        """Integer coordinates of v in this basis, or None if v is not in
        the lattice."""
        if v.c[0] != 0:
            return None
        d, n = v.numerator()
        return _hnf_coordinates(self.mat, [x * self.den for x in n[1:]], d)

    def contains_primitive(self, v: QuatElement) -> bool:
        coords = self.coordinates(v)
        return coords is not None and math.gcd(*coords) == 1


def gross_lattice(order: Order) -> GrossLattice:
    """Basis of {2x - Tr(x) : x in O} with its positive definite norm Gram."""
    den = order.lattice.den
    rows = []
    for row in order.lattice.mat:
        rows.append([2 * row[1], 2 * row[2], 2 * row[3]])
    h = hnf_rows([[0] + r for r in rows])  # embed in 4 cols with leading zero
    # drop the leading zero column; rank must be 3
    mat = [r[1:] for r in h]
    if len(mat) != 3:
        raise CertificateError("Gross lattice is not of rank 3")
    g = den
    for r in mat:
        for x in r:
            g = math.gcd(g, x)
    if g > 1:
        den //= g
        mat = [[x // g for x in r] for r in mat]
    return GrossLattice(alg=order.alg, den=den, mat=tuple(tuple(r) for r in mat))


def reconstruct_order_from_gross(gl: GrossLattice) -> Lattice4:
    """(1/2){x in Z + O^T : Nr(x) in 4Z} as a lattice; equals O for orders.

    The set is 4L-periodic for L = Z + O^T, so it is assembled from the
    residues of L/4L with norm divisible by 4.
    """
    alg = gl.alg
    gens4 = [QuatElement(alg, (1, 0, 0, 0))] + gl.basis()
    L = Lattice4.from_elements(alg, gens4)
    Lbasis = L.basis()
    reps = []
    for c in product(range(4), repeat=4):
        x = QuatElement(alg, (0, 0, 0, 0))
        for coef, b in zip(c, Lbasis):
            if coef:
                x = x + b.scale(coef)
        n = x.norm()
        if n.denominator == 1 and n.numerator % 4 == 0:
            reps.append(x)
    gens = [b.scale(4) for b in Lbasis] + reps
    span = Lattice4.from_elements(alg, gens)
    return span.scaled(Fraction(1, 2))


@dataclass(frozen=True)
class Embedding:
    """Optimal embedding of the quadratic order of discriminant D recorded
    as the Gross-lattice vector v = iota(sqrt(D))."""

    disc: Discriminant
    v: QuatElement
    order: Order

    def iota(self, m, n) -> QuatElement:
        """Image of m + n * (D + sqrt(D)) / 2."""
        D = self.disc.D
        one = self.order.alg.element(1, 0, 0, 0)
        return one.scale(Fraction(m) + Fraction(n) * Fraction(D, 2)) + self.v.scale(Fraction(n, 2))


def find_optimal_embedding(order: Order, D) -> Embedding:
    """First primitive Gross-lattice vector of norm |D| under canonical
    coordinate ordering; NotRepresented if none exists."""
    disc = D if isinstance(D, Discriminant) else Discriminant.of(int(D))
    gl = gross_lattice(order)
    T = gl.gram()
    target = -disc.D
    scaled = 2 * gl.den**2 * target
    H, R = _lll_gram(T)
    hits = (_unreduce(H, y) for y, _ in _fincke_pohst(R, scaled, exact=True))
    # the least primitive solution, signed so its first nonzero coordinate is positive
    c = min(
        (c if next(x for x in c if x) > 0 else tuple(-x for x in c) for c in hits if math.gcd(*c) == 1),
        default=None,
    )
    if c is None:
        raise NotRepresented(f"|D| = {-disc.D} is not a primitive norm on the Gross lattice")
    v = QuatElement(gl.alg, [0] + [Fraction(x, gl.den) for x in _unreduce(gl.mat, c)])
    emb = Embedding(disc=disc, v=v, order=order)
    # contract: iota lands in the order
    w = emb.iota(0, 1)
    if not order.contains(w):
        raise CertificateError("(D + v)/2 fails to land in the order")
    return emb


def embedding_preimage_lattice(order: Order, v: QuatElement) -> list[list[Fraction]]:
    """Basis (rows, coordinates in (1, v)) of {m + n v : m, n in Q} cap O."""
    b_one = order.lattice.coordinates(order.alg.one())
    b_v = order.lattice.coordinates(v)
    if b_one is None or b_v is None:
        raise DomainError("1 and v must lie in O")
    # m + n v lies in O iff m b_one + n b_v is integral: the preimage is the
    # dual of the lattice spanned by the condition columns (b_one[i], b_v[i])
    g = [r[:2] for r in hnf_rows([[u, w, 0, 0] for u, w in zip(b_one, b_v)])]
    if len(g) != 2:
        raise CertificateError("expected rank-2 condition lattice")
    # dual basis: the rows of (G^{-1})^T
    (a, b), (c, d) = g
    det = Fraction(a * d - b * c)
    return [[d / det, -c / det], [-b / det, a / det]]


# ---------------------------------------------------------------------------
# Left ideals and ideal classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeftIdeal:
    lattice: Lattice4
    left_order: Order

    @cached_property
    def reduced_norm(self) -> Fraction:
        ratio = self.lattice.det_fraction() / self.left_order.lattice.det_fraction()
        return exact_sqrt_fraction(ratio)

    @cached_property
    def conjugate_lattice(self) -> Lattice4:
        return self.lattice.conjugate()


def order_as_ideal(order: Order) -> LeftIdeal:
    return LeftIdeal(lattice=order.lattice, left_order=order)


def left_ideal_from_class(base: LeftIdeal, emb: Embedding, f: QuadForm) -> LeftIdeal:
    """base * (Z a + Z (-b + sqrt(D))/2) = base a + base iota((-b + sqrt(D))/2),
    of reduced norm Nr(base) a; `emb` embeds D into the right order of
    `base`.  For base = order_as_ideal(O) this is O a + O iota(...)."""
    if f.discriminant != emb.disc.D:
        raise DomainError("form discriminant does not match the embedding")
    alg = base.lattice.alg
    p = next(q for q in alg.ramified if q != "inf")
    g = f
    if math.gcd(g.a, p) != 1:
        g = _equivalent_form_coprime_to(f, p)
        if g is None:
            raise CertificateError(f"no equivalent form with leading value coprime to {p}")
    # 2 vden iota((-b + sqrt(D))/2) = -b vden + vnum for iota(sqrt(D)) = vnum / vden
    vden, vnum = emb.v.numerator()
    w = [vnum[0] - g.b * vden, vnum[1], vnum[2], vnum[3]]
    mat = base.lattice.mat
    rows = [[2 * vden * g.a * x for x in r] for r in mat] + [_qmul(alg.a, alg.b, r, w) for r in mat]
    lat = Lattice4.from_rows(alg, rows, 2 * vden * base.lattice.den)
    ideal = LeftIdeal(lattice=lat, left_order=base.left_order)
    if ideal.reduced_norm != base.reduced_norm * g.a:
        raise CertificateError(f"ideal norm {ideal.reduced_norm} != Nr(base) * {g.a}")
    return ideal


def _equivalent_form_coprime_to(f: QuadForm, p: int) -> QuadForm | None:
    """Equivalent form whose leading coefficient is coprime to p, via a
    primitively represented value and a unimodular completion."""
    for s in range(1, 30):
        for x in range(-s, s + 1):
            for y in (-s, s) if abs(x) != s else range(-s, s + 1):
                if math.gcd(x, y) != 1:
                    continue
                a2 = f.value(x, y)
                if a2 > 0 and math.gcd(a2, p) == 1:
                    g, u, wv = _xgcd(x, y)
                    # complete (x, y) to a determinant-1 matrix [[x, -wv], [y, u]]
                    b2 = 2 * (f.a * x * (-wv) + f.c * y * u) + f.b * (x * u - wv * y)
                    c2 = f.value(-wv, u)
                    return QuadForm(a2, b2, c2)
    return None


def is_same_class(I: LeftIdeal, J: LeftIdeal) -> bool:
    """True iff J = I x for some invertible x; decided by whether conj(I)*J
    contains a vector of norm Nr(I)*Nr(J) (its a priori minimum)."""
    if I.left_order.lattice != J.left_order.lattice:
        raise DomainError("class comparison requires identical left orders")
    if I.lattice == J.lattice:
        return True
    M = I.conjugate_lattice.product(J.lattice)
    return lattice_min_norm_hits(M, I.reduced_norm * J.reduced_norm)


@dataclass(frozen=True)
class IdealClassSet:
    order: Order
    representatives: tuple[LeftIdeal, ...]
    right_orders: tuple[Order, ...]
    weights: tuple[int, ...]

    @property
    def h(self) -> int:
        return len(self.representatives)

    @property
    def mass(self) -> Fraction:
        return sum((Fraction(1, w) for w in self.weights), Fraction(0))

    def index_of(self, I: LeftIdeal) -> int:
        for idx, rep in enumerate(self.representatives):
            if is_same_class(I, rep):
                return idx
        raise CertificateError("ideal matches no enumerated class")


def right_order(I: LeftIdeal) -> Order:
    """{x : I x subseteq I} = I^-1 I = conj(I) I / Nr(I): every left ideal of
    a maximal order is invertible (Kirschmer-Voight, SIAM J. Comput. 39
    (2010)).  Certified by I O_R = I and reduced discriminant p, which
    together force O_R to be the maximal order {x : I x subseteq I}."""
    lat = I.conjugate_lattice.product(I.lattice).scaled(1 / I.reduced_norm)
    Or = Order(lattice=lat)
    p = next(q for q in lat.alg.ramified if q != "inf")
    if I.lattice.product(lat) != I.lattice or Or.reduced_discriminant != p:
        raise CertificateError("conj(I) I / Nr(I) is not the right order of I")
    return Or


def _neighbor_ideals(I: LeftIdeal, ell: int) -> list[LeftIdeal]:
    """The ell + 1 left subideals J with ell I < J < I of index ell^2,
    found as O-stable dimension-2 subspaces of I / ell I."""
    lat = I.lattice
    a, b = lat.alg.a, lat.alg.b
    order = I.left_order
    # matrices of left multiplication by O's basis on I / ell I
    mats = []
    for g in order.lattice.mat:
        rows = []
        for r in lat.mat:
            coords = _hnf_coordinates(lat.mat, _qmul(a, b, g, r), order.lattice.den)
            if coords is None:
                raise CertificateError("order does not stabilize the ideal")
            rows.append([c % ell for c in coords])
        mats.append(rows)
    subspaces = _stable_subspaces_dim2(mats, ell)
    if len(subspaces) != ell + 1:
        raise CertificateError(f"{len(subspaces)} stable subspaces, expected {ell + 1}")
    ell_rows = [[ell * x for x in r] for r in lat.mat]
    out = []
    for pair in subspaces:
        rows = ell_rows + [_unreduce(lat.mat, v) for v in pair]
        out.append(LeftIdeal(lattice=Lattice4.from_rows(lat.alg, rows, lat.den), left_order=order))
    return out


def _stable_subspaces_dim2(mats, ell: int):
    """Dimension-2 subspaces of F_ell^4 stable under all matrices (row
    convention: vector v maps to [sum_k v_k m[k][j]]_j)."""
    vecs = [v for v in product(range(ell), repeat=4) if any(v)]
    seen = set()
    out = []
    for i, v1 in enumerate(vecs):
        for v2 in vecs[i + 1 :]:
            basis = _rref2(v1, v2, ell)
            if basis is None or basis in seen:
                continue
            seen.add(basis)
            if all(_in_span2(_apply(m, v, ell), basis, ell) for m in mats for v in basis):
                out.append(basis)
    return out


def _apply(m, v, ell):
    return tuple(sum(v[k] * m[k][j] for k in range(4)) % ell for j in range(4))


def _rref2(v1, v2, ell):
    rows = [list(v1), list(v2)]
    pivots = []
    r = 0
    for c in range(4):
        pr = None
        for i in range(r, 2):
            if rows[i][c] % ell:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, ell)
        rows[r] = [(x * inv) % ell for x in rows[r]]
        for i in range(2):
            if i != r and rows[i][c] % ell:
                f = rows[i][c]
                rows[i] = [(x - f * y) % ell for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == 2:
            break
    if r != 2:
        return None
    return (tuple(rows[0]), tuple(rows[1]))


def _in_span2(v, basis, ell):
    b1, b2 = basis
    # reduce v against the RREF basis
    v = list(v)
    for b in (b1, b2):
        pc = next((c for c in range(4) if b[c]), None)
        if pc is not None and v[pc]:
            f = v[pc]
            v = [(x - f * y) % ell for x, y in zip(v, b)]
    return not any(v)


def _reduce_ideal(I: LeftIdeal) -> LeftIdeal:
    """Equivalent ideal of small norm: multiply by the inverse of a
    canonical shortest vector."""
    shorts = lattice_shortest_vectors(I.lattice)
    x = shorts[0]
    lat = I.lattice.right_multiply(x.inverse())
    return LeftIdeal(lattice=lat, left_order=I.left_order)


def ideal_classes(order: Order) -> IdealClassSet:
    """BFS over 2-neighbors with the mass formula as completeness
    certificate: stop exactly when sum 1/w = (p - 1)/12."""
    p = next(q for q in order.alg.ramified if q != "inf")
    ell = 2 if p != 2 else 3
    target = Fraction(p - 1, 12)
    start = order_as_ideal(order)
    reps = [start]
    orders = [order]
    weights = [unit_weight(order)]
    mass = Fraction(1, weights[0])
    queue = [start]
    while mass < target and queue:
        current = queue.pop(0)
        for J in _neighbor_ideals(current, ell):
            J = _reduce_ideal(J)
            if any(is_same_class(J, R) for R in reps):
                continue
            Or = right_order(J)
            w = unit_weight(Or)
            reps.append(J)
            orders.append(Or)
            weights.append(w)
            mass += Fraction(1, w)
            queue.append(J)
            if mass == target:
                break
            if mass > target:
                raise CertificateError(f"mass overshoot at p={p}: {mass} > {target}")
    if mass != target:
        raise CertificateError(f"class-set enumeration incomplete at p={p}: {mass} != {target}")
    return IdealClassSet(
        order=order,
        representatives=tuple(reps),
        right_orders=tuple(orders),
        weights=tuple(weights),
    )


@lru_cache(maxsize=None)
def quaternion_data(p: int) -> tuple[QuaternionAlgebra, Order, IdealClassSet]:
    """Cached (algebra, maximal order, class set) for B_{inf,p}."""
    B = construct_Bp(p)
    O = maximal_order(B)
    cls = ideal_classes(O)
    return B, O, cls


# ---------------------------------------------------------------------------
# Killing form, packet discriminants, Hilbert-Schmidt ratio
# ---------------------------------------------------------------------------


def _ad_matrix(x: QuatElement) -> list[list[Fraction]]:
    """Matrix of v -> xv - vx on the traceless subspace in basis (i, j, k)."""
    alg = x.alg
    cols = []
    for e in alg.basis_elements()[1:]:
        img = x * e - e * x
        if img.c[0] != 0:
            raise CertificateError("commutator with a basis element has nonzero trace")
        cols.append(img.c[1:])
    # cols[j] = image of basis vector j; matrix M[i][j] = cols[j][i]
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def killing_check(B: QuaternionAlgebra, x: QuatElement) -> tuple[Fraction, Fraction]:
    """(trace(ad_x^2), -8 Nr(x)) for traceless x; equal identically.

    ad_x has spectrum {0, +2 sqrt(x^2), -2 sqrt(x^2)} on the traceless
    subspace and x^2 = -Nr(x), so trace(ad_x^2) = 8 x^2 = -8 Nr(x).
    """
    if x.trace() != 0:
        raise DomainError("killing_check requires a traceless element")
    M = _ad_matrix(x)
    tr = sum(M[i][j] * M[j][i] for i in range(3) for j in range(3))
    return tr, -8 * x.norm()


def packet_discriminant(emb: Embedding) -> int:
    """Finite part prod_q |D|_q^{-1} = |D| of the packet discriminant, with
    the archimedean factor normalized to 1; requires v primitive in the
    host Gross lattice."""
    gl = gross_lattice(emb.order)
    if not gl.contains_primitive(emb.v):
        raise DomainError("embedding vector is not primitive in the Gross lattice")
    D = emb.disc.D
    out = 1
    for q, e in factorize(-D):
        out *= q**e  # |D|_q^{-1} = q^{v_q(D)}
    return out


def hs_norm_ratio(D) -> float:
    """Hilbert-Schmidt norm of ad_{iota(sqrt(D))} on traceless Mat_2(R),
    divided by sqrt(|D|); the spectrum {0, +-2 sqrt(D)} gives sqrt(8).

    Computed from the exact characteristic polynomial of the ad matrix in
    the split model (eigenvalues are similarity invariants, so the ratio
    does not depend on the choice of conjugate embedding).
    """
    disc = D if isinstance(D, Discriminant) else Discriminant.of(int(D))
    d = disc.D
    M = _mat2_ad_matrix(d)
    return _hs_from_ad(M, d)


def _mat2_ad_matrix(d: int):
    """ad of w = [[0, 1], [d, 0]] on traceless 2x2 matrices in the basis
    H, E, F."""
    w = ((Fraction(0), Fraction(1)), (Fraction(d), Fraction(0)))
    H = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    E = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    F = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    cols = []
    for X in (H, E, F):
        img = _msub(_mm(w, X), _mm(X, w))
        # traceless [[alpha, beta], [gamma, -alpha]] -> (alpha, beta, gamma)
        cols.append((img[0][0], img[0][1], img[1][0]))
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def _mm(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def _msub(A, B):
    return tuple(tuple(A[i][j] - B[i][j] for j in range(2)) for i in range(2))


def _hs_from_ad(M, d: int) -> float:
    # characteristic polynomial l^3 + c2 l^2 + c1 l + c0, exact
    tr = M[0][0] + M[1][1] + M[2][2]
    c2 = -tr
    c1 = (
        M[0][0] * M[1][1] - M[0][1] * M[1][0]
        + M[0][0] * M[2][2] - M[0][2] * M[2][0]
        + M[1][1] * M[2][2] - M[1][2] * M[2][1]
    )
    c0 = -_det3(M)
    if c2 != 0 or c0 != 0:
        raise CertificateError("ad matrix is not of the expected semisimple shape")
    # spectrum {0, mu, -mu} with mu^2 = -c1; sum |lambda|^2 = 2 |c1|
    hs_sq = 2 * abs(c1)
    return math.sqrt(hs_sq / abs(d))


# ---------------------------------------------------------------------------
# Local norm surjectivity
# ---------------------------------------------------------------------------

_LOCAL_BUDGET = 10**5
_EXHAUSTIVE_RING_CAP = 2 * 10**6


def local_norm_surjectivity(order: Order, q: int, k: int) -> bool:
    """True iff reduced norms of units of O/q^k O cover (Z/q^k)^x.

    For rings small enough the unit norms are enumerated exhaustively.
    Beyond that the answer at level q^k equals the answer at level q (odd
    q) or 2^3 (q = 2): a unit-norm witness Hensel-lifts its norm across
    the whole fiber, since B(x, x) = 2 Nr(x) is a q-unit for odd q and
    h = x gives a valid Newton step modulo 8 and beyond.  Both paths agree
    wherever both are feasible.
    """
    if not is_prime(q) or k < 1:
        raise DomainError("local_norm_surjectivity expects a prime q and k >= 1")
    if q**k > _LOCAL_BUDGET:
        raise BudgetError(f"q^k = {q**k} exceeds the budget {_LOCAL_BUDGET}")
    lift_level = 3 if q == 2 else 1
    level = k
    if q ** (4 * k) > _EXHAUSTIVE_RING_CAP:
        level = max(lift_level, 1)
        while q ** (4 * (level + 1)) <= _EXHAUSTIVE_RING_CAP and level < k:
            level += 1
    return _norms_cover(order, q, level)


def _norms_cover(order: Order, q: int, level: int) -> bool:
    mod = q**level
    bas = order.basis()
    # integer quadratic form data for Nr on the basis
    diag = [int(b.norm()) for b in bas]
    cross = {}
    for i in range(4):
        for j in range(i + 1, 4):
            v = (bas[i] * bas[j].conj()).trace()
            if v.denominator != 1:
                raise CertificateError("norm form of the order is not integral")
            cross[(i, j)] = int(v)
    needed = {u for u in range(mod) if math.gcd(u, q) == 1}
    seen = set()
    rng = range(mod)
    for x0 in rng:
        for x1 in rng:
            for x2 in rng:
                base01 = (
                    diag[0] * x0 * x0 + diag[1] * x1 * x1 + diag[2] * x2 * x2
                    + cross[(0, 1)] * x0 * x1 + cross[(0, 2)] * x0 * x2 + cross[(1, 2)] * x1 * x2
                )
                lin = cross[(0, 3)] * x0 + cross[(1, 3)] * x1 + cross[(2, 3)] * x2
                for x3 in rng:
                    n = (base01 + lin * x3 + diag[3] * x3 * x3) % mod
                    if n in needed and n not in seen:
                        seen.add(n)
                        if len(seen) == len(needed):
                            return True
    return seen == needed
