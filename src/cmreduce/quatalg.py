"""Definite rational quaternion algebras B_{inf,p} for every prime p >= 5:
construction and maximal orders by Pizer's closed forms, certified by
ramification, discriminant and closure, rank-4 lattice and ideal
arithmetic, ideal class sets with mass certificates, Gross lattices,
optimal embeddings, Killing-form and discriminant computations, and local
norm surjectivity.

An element x / d of the algebra is the integer row (d, x) of its
coordinates in the 1, i, j, k frame, and a lattice is stored as
(denominator, integer HNF basis matrix) against the same frame, so lattice
equality is matrix equality.  All arithmetic is exact and every element and
lattice coordinate is an integer: lattice products, right multiplication,
ideal formation and neighbour ideals multiply the integer rows with the
structure constants of the algebra, and one back-substitution on the HNF
rows (`_hnf_coordinates`) decides membership.  The right order of a left
ideal I of a maximal order is conj(I) I / Nr(I), spanned by the products
conj(r_i) r_j of I's rows.
The ell-neighbours of I are the ideals O x + ell I for the x in I that are
of rank 1 in I / ell I = M_2(F_ell), that is ell | Nr(x) / Nr(I)
(Pizer, Bull. AMS 23 (1990); Kirschmer-Voight, SIAM J. Comput. 39 (2010)).
One helper, `_line`, names each of them by a line in O_R(I) mod ell: the
class-set BFS takes that of conj(x) y x / Nr(I) for y of the left order,
the reduction walk that of conj(x') y' x' for y' of O_R(I) and the x' in
O_R(I) with I x' + ell I the neighbour (`_kernel_line`).  Each y has an
irreducible characteristic polynomial mod ell, and the two lines agree.
Short-vector search runs integral LLL on the integer trace Gram matrix,
then Fincke-Pohst enumeration through scaled integer Schur complements, and
returns the vectors found as sorted integer HNF coordinates; only
`lattice_shortest_vectors` calls it, also for the units of an order.  An
optimal embedding comes from one other search: the least primitive
Gross-lattice vector of norm |D|, walked slice by slice in its first
coordinate up to the bound of the norm-|D| ellipsoid, so that a miss means
no vector exists.
Ideal classes are compared through their reduced lattices I m^-1 for the m
of least reduced norm in I: that set of lattices is a class invariant, and
the BFS maps each lattice of each class's set to the class, so classifying
an ideal is one short-vector search and one lookup.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product

from .errors import CertificateError, DomainError, NotRepresented
from .numbase import exact_sqrt_fraction, factorize, is_prime, kronecker, least_nonresidue_prime_3mod4
from .quadforms import Discriminant, QuadForm, _xgcd

__all__ = [
    "QuaternionAlgebra",
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
    """Local Hilbert symbol (a, b)_v for v a prime or the string 'inf'."""
    if a == 0 or b == 0:
        raise DomainError("hilbert symbol requires nonzero arguments")
    if place == "inf":
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
    ramified: frozenset

    @property
    def is_definite(self) -> bool:
        return self.a < 0 and self.b < 0

    @property
    def ramified_prime(self) -> int | None:
        """The finite prime where the algebra ramifies (p for B_(inf,p)),
        None where it ramifies at none."""
        return next((q for q in self.ramified if q != "inf"), None)


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


def construct_Bp(p: int) -> QuaternionAlgebra:
    """The algebra (a, -p) ramified exactly at inf and p, for any prime
    p >= 5, by Pizer's closed form (J. Algebra 64 (1980)): a = -1 for
    p = 3 mod 4, a = -2 for p = 5 mod 8, else a = -q for the least prime
    q = 3 mod 4 with (p/q) = -1 (Dirichlet and reciprocity give one).
    The ramification is certified by Hilbert symbols."""
    if p in (2, 3) or not is_prime(p):
        raise DomainError(f"construct_Bp requires a prime p >= 5, got {p}")
    if p % 4 == 3:
        a = -1
    elif p % 8 == 5:
        a = -2
    else:
        a = -least_nonresidue_prime_3mod4(p)
    ram = ramified_places(a, -p)
    if ram != frozenset({"inf", p}):
        raise CertificateError(f"({a}, {-p}) is ramified at {sorted(map(str, ram))}, not at inf and {p}")
    return QuaternionAlgebra(a=a, b=-p, ramified=ram)


def mat2_model() -> QuaternionAlgebra:
    """The split algebra (1, 1) = Mat_2(Q), used only for cross-checks."""
    return QuaternionAlgebra(a=1, b=1, ramified=frozenset())


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


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


def _qnorm(a: int, b: int, x):
    """Reduced norm of x in the 1, i, j, k frame of the algebra (a, b)."""
    x0, x1, x2, x3 = x
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


# ---------------------------------------------------------------------------
# Integer HNF and rank-4 lattices
# ---------------------------------------------------------------------------


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form: pivots positive on the diagonal of
    successive pivot columns, entries above each pivot reduced into
    [0, pivot)."""
    work = [r for r in rows if any(r)]
    out: list[list[int]] = []
    pcols: list[int] = []
    for col in range(4):
        pivot = None
        rest = []
        for r in work:
            x = r[col]
            if not x:
                rest.append(r)
            elif pivot is None:
                pivot = r
            else:
                pc = pivot[col]
                q, m = divmod(x, pc)
                if not m:
                    new_r = [u - q * v for u, v in zip(r, pivot)]
                else:
                    g, s, t = _xgcd(pc, x)
                    pc, x = pc // g, x // g
                    pivot, new_r = [s * u + t * v for u, v in zip(pivot, r)], [pc * v - x * u for u, v in zip(pivot, r)]
                if any(new_r):
                    rest.append(new_r)
        work = rest
        if pivot is not None:
            out.append([-u for u in pivot] if pivot[col] < 0 else list(pivot))
            pcols.append(col)
    # reduce entries above each pivot, increasing pivot column so later
    # reductions cannot spoil earlier ones
    for upper in range(len(out)):
        for idx in range(upper + 1, len(out)):
            q = out[upper][pcols[idx]] // out[idx][pcols[idx]]
            if q:
                out[upper] = [u - q * v for u, v in zip(out[upper], out[idx])]
    return out


def _hnf_coordinates(mat, target, den: int) -> list[int] | None:
    """Integer c with c . mat = target / den for HNF rows `mat` and an
    integer vector `target`, or None when there is none.

    Every HNF the package builds has rank 4, or rank 3 with a zero first
    column (the Gross lattice), so row k's pivot is in column 4 - rank + k
    and the rows are triangular: column 4 - rank + k of c . mat involves
    c_0, ..., c_k alone.  Back-substitution solves for c_k there, and a
    nonzero remainder, or a nonzero target entry left of the first pivot,
    means there is no integer c."""
    off = 4 - len(mat)
    if any(target[:off]):
        return None
    cols = tuple(zip(*mat))
    coords: list[int] = []
    for k in range(len(mat)):
        col = cols[off + k]
        c, r = divmod(target[off + k] - den * sum(map(operator.mul, coords, col)), den * col[k])
        if r:
            return None
        coords.append(c)
    return coords


@dataclass(frozen=True)
class Lattice4:
    """Lattice (1/den) * rowspan_Z(mat) in the 1, i, j, k frame, of rank
    `rank`: full rank except in GrossLattice."""

    alg: QuaternionAlgebra
    den: int
    mat: tuple[tuple[int, int, int, int], ...]
    rank = 4

    @classmethod
    def from_rows(cls, alg: QuaternionAlgebra, rows: list[list[int]], den: int) -> "Lattice4":
        h = hnf_rows(rows)
        if len(h) != cls.rank:
            raise DomainError(f"lattice generators do not have rank {cls.rank}")
        # the gcd of den and every entry divided out makes (den, HNF rows) canonical
        g = math.gcd(den, *chain.from_iterable(h))
        return cls(alg=alg, den=den // g, mat=tuple(tuple(x // g for x in r) for r in h))

    @classmethod
    def from_elements(cls, alg: QuaternionAlgebra, elements) -> "Lattice4":
        """The lattice spanned by the elements x / d, each given as the
        integer row (d, x)."""
        den = math.lcm(*(d for d, _ in elements))
        return cls.from_rows(alg, [[v * (den // d) for v in x] for d, x in elements], den)

    def covolume(self) -> tuple[int, int]:
        """(n, d) with covolume n / d in the span: the product of the HNF
        pivots, the first nonzero entry of each row, and den^rank."""
        return math.prod(next(filter(None, r)) for r in self.mat), self.den ** len(self.mat)

    def product(self, other: "Lattice4") -> "Lattice4":
        a, b = self.alg.a, self.alg.b
        rows = [_qmul(a, b, x, y) for x in self.mat for y in other.mat]
        return Lattice4.from_rows(self.alg, rows, self.den * other.den)

    def trace_gram(self) -> list[list[int]]:
        """Integer matrix T with T[i][j] = Tr(m_i conj(m_j)) for the scaled
        integer rows m_i; Nr((1/den) c.M) = c^T T c / (2 den^2)."""
        a, b = self.alg.a, self.alg.b
        n = len(self.mat)
        T = [[0] * n for _ in range(n)]
        for i in range(n):
            xi = self.mat[i]
            for j in range(i, n):
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
                u = sum(map(operator.mul, G[k], H[j]))
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
    # G is symmetric, so its rows are its columns; R is symmetric too, so
    # its upper triangle is computed and mirrored
    HG = [[sum(map(operator.mul, u, g)) for g in G] for u in H]
    R = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            R[i][j] = R[j][i] = sum(map(operator.mul, HG[i], H[j]))
    return H, R


def _fincke_pohst(G: list[list[int]], bound: int):
    """Every nonzero integer x with x^T G x <= bound, for a positive
    definite integer G of size n >= 2; yields (x, x^T G x).

    Works through scaled integer Schur complements: with a = G[0][0],
    a x^T G x = (a x_0 + g.x')^2 + x'^T (a G' - g g^T) x', and the pruning
    bound at each level is the product of the earlier pivots times `bound`.
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
        yield from _fp_level(n - 1, 0, [0] * n, piv, rows, caps)


def _fp_level(k, tail, x, piv, rows, caps):
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
            yield from _fp_level(k - 1, value, x, piv, rows, caps)
            continue
        for x[0], v in _fp_first(value, x, piv[0], rows[0], caps[0]):
            if any(x):
                yield tuple(x), v
        x[0] = 0
    x[k] = 0


def _fp_first(tail, x, a, row, bound):
    # (x_0, value) for every x_0 that completes x[1:] within the bound
    lin = sum(map(operator.mul, row, x[1:]))
    room = a * bound - tail
    if room < 0:
        return ()
    s = math.isqrt(room)
    return [(z, ((a * z + lin) ** 2 + tail) // a) for z in range(-((s + lin) // a), (s - lin) // a + 1)]


def _unreduce(H: list[list[int]], y) -> tuple[int, ...]:
    """The combination y . H of the rows of H: coordinates y in the basis H
    (an LLL basis, or HNF rows) as coordinates in the frame of H's rows."""
    return tuple(sum(map(operator.mul, y, col)) for col in zip(*H))


def lattice_shortest_vectors(lat: Lattice4) -> list[tuple[int, ...]]:
    """HNF coordinates of the nonzero vectors of minimal norm, sorted."""
    H, R = _lll_gram(lat.trace_gram())
    found = list(_fincke_pohst(R, min(R[i][i] for i in range(4))))
    least = min(value for _, value in found)
    return sorted(_unreduce(H, y) for y, value in found if value == least)


# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Order:
    lattice: Lattice4

    @property
    def alg(self) -> QuaternionAlgebra:
        return self.lattice.alg

    @property
    def reduced_discriminant(self) -> int:
        """The square root of |det Trd(e_i conj(e_j))| over a basis e: the
        trace form has determinant 16 a^2 b^2 on the 1, i, j, k frame, so
        this is 4 |ab| times the covolume of the lattice."""
        n, d = self.lattice.covolume()
        rd, r = divmod(4 * abs(self.alg.a * self.alg.b) * n, d)
        if r:
            raise CertificateError("non-integral reduced discriminant")
        return rd

    def anisotropic_element(self, ell: int) -> tuple[int, ...]:
        """The first y = c . H over c in [0, ell)^4 in product order, H the
        HNF rows, whose reduced characteristic polynomial
        X^2 - Trd(y) X + Nrd(y) is irreducible mod the prime ell (for
        ell = 2: Trd(y) and Nrd(y) odd), as an integer row: the element is
        y / den.  Kept per ell on the order.  When O / ell O = M_2(F_ell)
        (ell != p) such a residue exists; none raises CertificateError."""
        if ell not in self._anisotropic:
            lat = self.lattice
            a, b, den = lat.alg.a, lat.alg.b, lat.den
            for c in product(range(ell), repeat=4):
                y = _unreduce(lat.mat, c)
                trd, nrd = 2 * y[0] // den, _qnorm(a, b, y) // (den * den)
                if ell == 2:
                    irreducible = trd % 2 == 1 and nrd % 2 == 1  # X^2 + X + 1
                else:
                    irreducible = kronecker(trd * trd - 4 * nrd, ell) == -1
                if irreducible:
                    self._anisotropic[ell] = y
                    break
            else:
                raise CertificateError(f"no element of the order has an irreducible characteristic polynomial mod {ell}")
        return self._anisotropic[ell]

    @cached_property
    def _anisotropic(self) -> dict[int, tuple[int, ...]]:
        return {}

    @cached_property
    def units(self) -> tuple[tuple[int, ...], ...]:
        """The elements of reduced norm 1, as integer rows over the lattice's
        den, sorted.  The order holds 1 and every nonzero element has a
        positive integral reduced norm, so these are its shortest vectors.
        The set is closed under negation, which reverses the sorted order,
        so the second half holds one of each pair +-u: the u whose first
        nonzero entry is positive.  One search per order."""
        lat = self.lattice
        return tuple(sorted(_unreduce(lat.mat, c) for c in lattice_shortest_vectors(lat)))

    def is_multiplicatively_closed(self) -> bool:
        lat = self.lattice
        a, b = lat.alg.a, lat.alg.b
        rows = [_qmul(a, b, x, y) for x in lat.mat for y in lat.mat]
        rows += [[lat.den * x for x in r] for r in lat.mat]
        return Lattice4.from_rows(lat.alg, rows, lat.den**2) == lat


def _line(order: Order, z, ell: int) -> tuple[int, ...]:
    """The line in O / ell O of the element z of the order O, given as the
    integer row (zden, znum) in the frame of O's HNF rows (z is
    znum / (zden den)): its coordinates mod ell in the HNF basis of O,
    scaled so that the first nonzero one is 1.  z outside O, or in ell O,
    raises CertificateError."""
    zden, znum = z
    c = _hnf_coordinates(order.lattice.mat, znum, zden)
    if c is None:
        raise CertificateError("the element is not in the order")
    for i, lead in enumerate(c):
        if lead % ell:
            inv = pow(lead, -1, ell)
            return tuple([0] * i + [v * inv % ell for v in c[i:]])
    raise CertificateError(f"the element is 0 mod {ell}")


def _kernel_line(order: Order, x, ell: int) -> tuple[int, ...]:
    """The `_line` of conj(x) y x, for x = xnum / xden in the order O with
    ell | Nr(x), x not in ell O and ell != p, and y the order's
    `anisotropic_element` at ell.  It names the ell-neighbour
    J (O x + ell O) of any left ideal J with right order O.

    Proof.  O / ell O = M_2(F_ell), and x maps to X of rank 1 (its
    determinant Nr(x) is 0 mod ell, and X != 0), X = u v^T.  O x + ell O
    is the preimage of the left ideal M_2(F_ell) X, the matrices whose rows
    are multiples of v^T, so the neighbour depends on [v] alone, and each
    [v] gives a different one.  With S = [[0, 1], [-1, 0]],
    conj(X) = S X^T S^T, so conj(X) Y X = ((S u)^T Y u) (S v) v^T: every
    nonzero value is a multiple of (S v) v^T, which [v] fixes and which
    fixes [v].  The scalar is (S u)^T Y u = -det[u | Y u], 0 only when u is
    an eigenvector of Y.  Y's characteristic polynomial is y's reduced one
    mod ell, irreducible, so Y has no eigenvalue in F_ell and no
    eigenvector: one product pair and one coordinate solve give the line,
    and any y of the order with an irreducible characteristic polynomial
    gives the same one.  A value outside O, or 0 mod ell, raises
    CertificateError."""
    alg = order.alg
    xden, xnum = x
    y = order.anisotropic_element(ell)
    # conj(x) (y / den) x = conj(xnum) y xnum / (xden^2 den)
    conj = (xnum[0], -xnum[1], -xnum[2], -xnum[3])
    return _line(order, (xden * xden, _qmul(alg.a, alg.b, conj, _qmul(alg.a, alg.b, y, xnum))), ell)


def unit_weight(order: Order) -> int:
    """|O^x / {+-1}| = half the number of norm-1 lattice vectors."""
    if not order.alg.is_definite:
        raise DomainError("unit counting needs a definite algebra")
    units = order.units
    if len(units) % 2:
        raise CertificateError("odd number of norm-1 vectors")
    return len(units) // 2


def maximal_order(B: QuaternionAlgebra) -> Order:
    """The maximal order of Pizer (J. Algebra 64 (1980), Prop. 5.2) for the
    algebra (a, -p) that `construct_Bp(p)` builds: Z<1, i, (1+j)/2, (i+k)/2>
    for a = -1, Z<(1+j+k)/2, (i+2j+k)/4, j, k> for a = -2, and
    Z<(1+i)/2, (j-k)/2, (i-ck)/q, k> for a = -q, with c the larger root in
    [0, q) of c^2 p = -1 mod q.  Certified by reduced discriminant p and
    multiplicative closure: the lattice then lies in its left order, whose
    reduced discriminant is a multiple of p, so the two are equal."""
    p = B.ramified_prime
    if p is None or B != construct_Bp(p):
        raise DomainError("maximal_order expects the algebra construct_Bp(p)")
    if B.a == -1:
        gens = [(1, (1, 0, 0, 0)), (1, (0, 1, 0, 0)), (2, (1, 0, 1, 0)), (2, (0, 1, 0, 1))]
    elif B.a == -2:
        gens = [(2, (1, 0, 1, 1)), (4, (0, 1, 2, 1)), (1, (0, 0, 1, 0)), (1, (0, 0, 0, 1))]
    else:
        q = -B.a
        c = max(c for c in range(q) if (c * c * p + 1) % q == 0)
        gens = [(2, (1, 1, 0, 0)), (2, (0, 0, 1, -1)), (q, (0, 1, 0, -c)), (1, (0, 0, 0, 1))]
    order = Order(lattice=Lattice4.from_elements(B, gens))
    if order.reduced_discriminant != p or not order.is_multiplicatively_closed():
        raise CertificateError(f"Pizer's basis for ({B.a}, {B.b}) is not a maximal order")
    return order


# ---------------------------------------------------------------------------
# Gross lattice and optimal embeddings
# ---------------------------------------------------------------------------


class GrossLattice(Lattice4):
    """Rank-3 lattice {2x - Tr(x): x in O} inside the traceless subspace,
    stored like a Lattice4 with HNF rows whose first column is zero."""

    rank = 3

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """`trace_gram`, kept with the lattice for every search on it."""
        return tuple(map(tuple, self.trace_gram()))

    def contains_primitive(self, v: tuple[int, tuple[int, ...]]) -> bool:
        """True iff the element x / d of the row v = (d, x) is a primitive
        vector of the lattice."""
        d, x = v
        coords = _hnf_coordinates(self.mat, [self.den * c for c in x], d)
        return coords is not None and math.gcd(*coords) == 1


@lru_cache(maxsize=None)
def gross_lattice(order: Order) -> GrossLattice:
    """Basis of {2x - Tr(x) : x in O} with its positive definite norm Gram;
    it depends on the order alone, so it is built once per order."""
    return GrossLattice.from_rows(order.alg, [[0, 2 * r[1], 2 * r[2], 2 * r[3]] for r in order.lattice.mat],
                                  order.lattice.den)


@dataclass(frozen=True)
class Embedding:
    """Optimal embedding of the quadratic order of discriminant D recorded
    as the Gross-lattice vector v = iota(sqrt(D)), the integer row
    (vden, vnum) in lowest terms: v = vnum / vden."""

    disc: Discriminant
    v: tuple[int, tuple[int, ...]]
    order: Order


def _lagrange(a: int, h: int, c: int) -> tuple[list[list[int]], int, int, int]:
    """Lagrange reduction of the positive definite binary form with Gram
    [[a, h], [h, c]]: (U, a', h', c') with U unimodular, U G U^T the Gram
    [[a', h'], [h', c']], |2h'| <= a' <= c'."""
    U = [[1, 0], [0, 1]]
    while True:
        q = (2 * h + a) // (2 * a)
        U[1] = [x - q * y for x, y in zip(U[1], U[0])]
        h, c = h - q * a, c - 2 * q * h + q * q * a
        if c >= a:
            return U, a, h, c
        a, c = c, a
        U.reverse()


def _least_primitive_solution(T: list[list[int]], N: int) -> tuple[int, int, int] | None:
    """The least primitive c (lexicographically) with c^T T c = N and first
    nonzero coordinate positive, for a positive definite integer 3x3 T, or
    None when there is no such c.

    Each slice c_0 = 0, 1, ..., top is a binary problem in (c_1, c_2).  Put
    (c_1, c_2) = (y_1, y_2) U for the Lagrange basis U of the block T[1:, 1:],
    whose Gram is [[a, h], [h, c]] with Delta = ac - h^2 > 0, and
    (b_1, b_2) = U (T_01, T_02).  Completing the square twice turns
    c^T T c = N into

        Delta (a y_1 + h y_2 + c_0 b_1)^2 = span - (Delta y_2 + g)^2,
        span = a (Delta N - det(T) c_0^2),  g = c_0 (a b_2 - h b_1),

    whose right side is Delta times an integer for every integer y_2.  So
    y_2 runs over the integers with (Delta y_2 + g)^2 <= span, and y_1 is
    each root of the square that a divides.  span >= 0 exactly when
    c_0 <= top = isqrt(Delta N // det(T)), the bound of the ellipsoid in c_0.
    Every term of c^T T c except T_00 c_0^2 is a multiple of
    m = gcd(2 T_01, 2 T_02, T_11, 2 T_12, T_22), so a slice with
    T_00 c_0^2 != N (mod m) is empty and is skipped.  On a Gross lattice of
    (a, -p) the rows 1 and 2 have no i-part, so m is a multiple of 2p, and
    the test sieves c_0 by a quadratic congruence mod p.

    Proof that the result is the lexicographic minimum M of the set S of
    such c, or None when S is empty:
    - S lies in c_0 >= 0, since its first nonzero coordinate is positive.
      The slices are visited in ascending c_0, so the first slice that meets
      S holds the least c_0 of S.
    - Each slice collects all of its solutions; a skipped slice has none.
      y -> y U is a bijection of Z^2.  Every solution has y_2 in the
      interval, because a square is not negative, and the square root fixes
      a y_1 + h y_2 + c_0 b_1 up to sign.  The filter keeps exactly S's part
      of the slice: gcd(c) = 1, and at c_0 = 0 the sign rule c_1 > 0, or
      c_1 = 0 < c_2.  Its least (c_1, c_2) is then the least element of S
      with that c_0.
    - Every solution has span >= 0, so c_0 <= top: when no slice up to `top`
      meets S, S is empty.
    """
    (u, w), a, h, c = _lagrange(T[1][1], T[1][2], T[2][2])
    b1, b2 = u[0] * T[0][1] + u[1] * T[0][2], w[0] * T[0][1] + w[1] * T[0][2]
    delta = a * c - h * h
    g1, det = a * b2 - h * b1, _det3(T)
    m = math.gcd(2 * T[0][1], 2 * T[0][2], T[1][1], 2 * T[1][2], T[2][2])
    t00, n = T[0][0] % m, N % m
    for c0 in range(math.isqrt(delta * N // det) + 1):
        if (t00 * c0 * c0 - n) % m:
            continue
        span = a * (delta * N - det * c0 * c0)
        s, g, e1 = math.isqrt(span), g1 * c0, b1 * c0
        found = []
        for y2 in range(-((s + g) // delta), (s - g) // delta + 1):
            room = (span - (delta * y2 + g) ** 2) // delta
            r = math.isqrt(room)
            if r * r != room:
                continue
            for t in (r, -r) if r else (0,):
                y1, rem = divmod(t - h * y2 - e1, a)
                c1, c2 = y1 * u[0] + y2 * w[0], y1 * u[1] + y2 * w[1]
                if rem == 0 and math.gcd(c0, c1, c2) == 1 and (c0 or c1 > 0 or (c1 == 0 and c2 > 0)):
                    found.append((c1, c2))
        if found:
            return (c0, *min(found))
    return None


def find_optimal_embedding(order: Order, D) -> Embedding:
    """The optimal embedding for the least primitive Gross-lattice vector v
    of norm |D|, in HNF coordinates signed so that the first nonzero one is
    positive; NotRepresented if none exists.

    One search decides existence and finds v: `_least_primitive_solution`
    walks the slices of the first coordinate up to the bound of the norm-|D|
    ellipsoid, so a miss means that no slice holds a primitive vector.  The
    contract, (D + v)/2 in the order, is checked on integer rows.
    """
    disc = D if isinstance(D, Discriminant) else Discriminant.of(int(D))
    gl = gross_lattice(order)
    c = _least_primitive_solution(gl.gram, 2 * gl.den**2 * -disc.D)
    if c is None:
        raise NotRepresented(f"|D| = {-disc.D} is not a primitive norm on the Gross lattice")
    row = _unreduce(gl.mat, c)
    # contract: (D + v)/2 = (D den, row[1:]) / (2 den) lies in the order
    lat = order.lattice
    if _hnf_coordinates(lat.mat, [lat.den * x for x in (disc.D * gl.den, *row[1:])], 2 * gl.den) is None:
        raise CertificateError("(D + v)/2 fails to land in the order")
    g = math.gcd(gl.den, *row)
    return Embedding(disc=disc, v=(gl.den // g, tuple(x // g for x in row)), order=order)


# ---------------------------------------------------------------------------
# Left ideals and ideal classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeftIdeal:
    lattice: Lattice4
    left_order: Order

    @cached_property
    def reduced_norm(self) -> Fraction:
        (n, d), (m, e) = self.lattice.covolume(), self.left_order.lattice.covolume()
        return exact_sqrt_fraction(Fraction(n * e, d * m))

    @cached_property
    def shortest_vectors(self) -> list[tuple[int, ...]]:
        """HNF coordinates of the elements of least reduced norm in I, sorted;
        one search serves `reduced_lattice` and `reduced_lattices`."""
        return lattice_shortest_vectors(self.lattice)

    @cached_property
    def reduced_lattice(self) -> Lattice4:
        """I m^-1 for the canonical (sorted first) m of `shortest_vectors`:
        a key of `reduced_lattices` with a fixed HNF."""
        lat = self.lattice
        return _divided_by(lat, _unreduce(lat.mat, self.shortest_vectors[0]))

    @cached_property
    def reduced_lattices(self) -> dict[Lattice4, tuple[int, ...]]:
        """R(I) = {I n^-1 : n of least reduced norm in I}, a class invariant,
        each lattice mapped to one of its n as an integer row over den: for
        J = I y the least vectors of J are those of I times y, and
        J (n y)^-1 = I n^-1, so R(J) = R(I)."""
        lat = self.lattice
        return {_divided_by(lat, n): n for n in (_unreduce(lat.mat, c) for c in self.shortest_vectors)}


def _divided_by(lat: Lattice4, n) -> Lattice4:
    """The lattice L x^-1 for x = n / den: as x^-1 = conj(x) / Nr(x), its
    rows are the integer rows of L times conj(n), over N(n) = den^2 Nr(x)."""
    a, b = lat.alg.a, lat.alg.b
    conj = (n[0], -n[1], -n[2], -n[3])
    return Lattice4.from_rows(lat.alg, [_qmul(a, b, r, conj) for r in lat.mat], _qnorm(a, b, n))


def order_as_ideal(order: Order) -> LeftIdeal:
    return LeftIdeal(lattice=order.lattice, left_order=order)


def left_ideal_from_class(base: LeftIdeal, v: tuple[int, tuple[int, ...]], f: QuadForm) -> LeftIdeal:
    """base * (Z a + Z (-b + v)/2) = base a + base (-b + v)/2 for the form
    f = (a, b, c), where v = iota(sqrt(D)) = vnum / vden, given as the
    integer row (vden, vnum) of `Embedding.v`, embeds the order of
    discriminant D = disc(f) into the right order of `base`.  Its
    reduced norm is Nr(base) a, which callers certify.  For
    base = order_as_ideal(O) and v = emb.v this is O a + O iota((-b + sqrt(D))/2).
    Requires p not dividing a, which holds whenever p is inert in Q(sqrt(D)):
    p | a would give D = b^2 mod p."""
    alg = base.lattice.alg
    vden, vnum = v
    if vnum[0] or _qnorm(alg.a, alg.b, vnum) != -f.discriminant * vden * vden:
        raise DomainError("form discriminant does not match the embedding")
    p = alg.ramified_prime
    if f.a % p == 0:
        raise DomainError(f"p = {p} divides the leading coefficient of {f.as_tuple()}")
    # 2 vden (-b + v)/2 = -b vden + vnum
    w = [-f.b * vden, vnum[1], vnum[2], vnum[3]]
    mat = base.lattice.mat
    rows = [[2 * vden * f.a * x for x in r] for r in mat] + [_qmul(alg.a, alg.b, r, w) for r in mat]
    return LeftIdeal(lattice=Lattice4.from_rows(alg, rows, 2 * vden * base.lattice.den), left_order=base.left_order)


def is_same_class(I: LeftIdeal, J: LeftIdeal) -> bool:
    """True iff J = I x for some invertible x.  The reduced lattice of I
    lies in R(I), which equals R(J) when I ~ J; conversely I m^-1 = J n^-1
    gives J = I m^-1 n.  So I ~ J iff I's reduced lattice lies in R(J)."""
    if I.left_order.lattice != J.left_order.lattice:
        raise DomainError("class comparison requires identical left orders")
    return I.reduced_lattice in J.reduced_lattices


@dataclass(frozen=True)
class IdealClassSet:
    order: Order
    representatives: tuple[LeftIdeal, ...]
    right_orders: tuple[Order, ...]
    weights: tuple[int, ...]
    # every lattice of R(J_s) -> s, filled by `ideal_classes`
    index: dict[Lattice4, int] = field(compare=False, repr=False)

    @property
    def h(self) -> int:
        return len(self.representatives)

    @property
    def mass(self) -> Fraction:
        return sum((Fraction(1, w) for w in self.weights), Fraction(0))

    def index_of(self, I: LeftIdeal) -> int:
        """The s with I ~ J_s: one lookup of I's reduced lattice in `index`,
        certified by `is_same_class(I, J_s)`.  A lattice missing from the
        index is checked against J_0, so an ideal of another left order
        raises DomainError there, and one of no listed class
        CertificateError."""
        s = self.index.get(I.reduced_lattice, 0)
        if not is_same_class(I, self.representatives[s]):
            raise CertificateError("ideal matches no enumerated class")
        return s


def right_order(I: LeftIdeal) -> Order:
    """{x : I x subseteq I} = I^-1 I = conj(I) I / Nr(I): every left ideal of
    a maximal order is invertible (Kirschmer-Voight, SIAM J. Comput. 39
    (2010)).  Certified by I O_R = I and reduced discriminant p, which
    together force O_R to be the maximal order {x : I x subseteq I}.

    For I's integer rows r_i over den and Nr(I) = n / d, conj(I) I / Nr(I)
    is spanned by the d conj(r_i) r_j over den^2 n."""
    L = I.lattice
    a, b = L.alg.a, L.alg.b
    nrm = I.reduced_norm
    conj = [(r[0], -r[1], -r[2], -r[3]) for r in L.mat]
    rows = [[nrm.denominator * x for x in _qmul(a, b, c, r)] for c in conj for r in L.mat]
    lat = Lattice4.from_rows(L.alg, rows, L.den**2 * nrm.numerator)
    Or = Order(lattice=lat)
    p = lat.alg.ramified_prime
    if L.product(lat) != L or Or.reduced_discriminant != p:
        raise CertificateError("conj(I) I / Nr(I) is not the right order of I")
    return Or


def _neighbor_ideals(I: LeftIdeal, ell: int, right: Order) -> dict[tuple[int, ...], LeftIdeal]:
    """The ell + 1 left ideals J with ell I < J < I of index ell^2, for a
    prime ell != p and right = O_R(I), each keyed by its line: the `_line`
    of conj(x) y x / Nr(I) in right / ell right, for y the left order O's
    `anisotropic_element` at ell and any x that spans J.

    I / ell I is free of rank 1 over O / ell O = M_2(F_ell), so the J are
    O x + ell I for the x of rank 1, i.e. ell | Nr(x) / Nr(I), and every
    x of rank 1 lies in exactly one J.  The residues x = c . I.mat with c
    in [0, ell)^4 are walked in product order, so the J come out ordered by
    their least residue.

    Proof that the line names J.  conj(x) y x lies in conj(I) O I =
    conj(I) I = Nr(I) O_R, so z = conj(x) y x / Nr(I) lies in O_R.  Locally
    at ell, I = O m = m O_R with Nr(m) = Nr(I) up to a unit, so x = m x'
    with x' in O_R, and z = conj(x') (m^-1 y m) x' up to a unit.  m^-1 y m
    lies in O_R with y's characteristic polynomial, irreducible mod ell, so
    by `_kernel_line`'s proof (which holds for any such y) z is not in
    ell O_R and its line names the neighbour I (O_R x' + ell O_R) =
    O m x' + ell m O_R = O x + ell I.  It is the line
    `_kernel_line(O_R, x', ell)` of the walk for any x' in O_R with
    J = ell I + I x', and two neighbours never share one, so one dict
    lookup replaces a membership test against every neighbour found."""
    lat, order = I.lattice, I.left_order
    a, b = lat.alg.a, lat.alg.b
    den = order.lattice.den * lat.den
    ell_rows = [[ell * order.lattice.den * x for x in r] for r in lat.mat]
    nrm = I.reduced_norm
    y = order.anisotropic_element(ell)
    # z = d conj(x) y x / (lat.den^2 order.den n) for x / lat.den and
    # Nr(I) = n / d, times right.den in the frame of right's HNF rows
    zden = lat.den * lat.den * order.lattice.den * nrm.numerator
    scale = right.lattice.den * nrm.denominator
    # Nr(J) = ell Nr(I) iff J's covolume is ell^2 times I's
    inum, iden = lat.covolume()
    out: dict[tuple[int, ...], LeftIdeal] = {}
    for c in product(range(ell), repeat=4):
        if not any(c):
            continue
        x = _unreduce(lat.mat, c)  # the element x / lat.den of I
        # Nr(x) / Nr(I) = N(x) nrm.denominator / (lat.den^2 nrm.numerator)
        if _qnorm(a, b, x) * nrm.denominator % (ell * lat.den**2 * nrm.numerator):
            continue
        z = _qmul(a, b, (x[0], -x[1], -x[2], -x[3]), _qmul(a, b, y, x))
        key = _line(right, (zden, [scale * v for v in z]), ell)
        if key in out:
            continue
        rows = ell_rows + [_qmul(a, b, g, x) for g in order.lattice.mat]
        J = LeftIdeal(lattice=Lattice4.from_rows(lat.alg, rows, den), left_order=order)
        jnum, jden = J.lattice.covolume()
        if jnum * iden != ell * ell * inum * jden:
            raise CertificateError(f"neighbour of covolume {jnum}/{jden}, expected {ell * ell} * {inum}/{iden}")
        out[key] = J
    if len(out) != ell + 1:
        raise CertificateError(f"{len(out)} neighbour ideals, expected {ell + 1}")
    return out


def ideal_classes(order: Order) -> IdealClassSet:
    """BFS over 2-neighbors with the mass formula as completeness
    certificate: stop exactly when sum 1/w = (p - 1)/12.  The list of
    representatives is the BFS queue, and a new class is represented by
    the reduced lattice of the neighbour that found it.  `seen` maps every
    lattice of R(J) to the index of J, over the representatives J, taken
    from the neighbour as R is a class invariant, so by `is_same_class` a
    neighbour is in a known class iff its reduced lattice is in `seen`.
    R(J) of a new class must not meet `seen`, else two classes share a
    lattice and CertificateError is raised; the map becomes the class
    set's `index`."""
    p = order.alg.ramified_prime
    target = Fraction(p - 1, 12)
    reps = [order_as_ideal(order)]
    seen = dict.fromkeys(reps[0].reduced_lattices, 0)
    orders = [order]
    weights = [unit_weight(order)]
    mass = Fraction(1, weights[0])
    for t, current in enumerate(reps):
        if mass == target:
            break
        for J in _neighbor_ideals(current, 2, orders[t]).values():
            if J.reduced_lattice in seen:
                continue
            if not seen.keys().isdisjoint(J.reduced_lattices):
                raise CertificateError(f"a reduced lattice of a new class at p={p} lies in a known class")
            seen.update(dict.fromkeys(J.reduced_lattices, len(reps)))
            J = LeftIdeal(lattice=J.reduced_lattice, left_order=order)
            Or = right_order(J)
            w = unit_weight(Or)
            reps.append(J)
            orders.append(Or)
            weights.append(w)
            mass += Fraction(1, w)
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
        index=seen,
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


def killing_check(B: QuaternionAlgebra, x) -> tuple[int, int]:
    """(trace(ad_x^2), -8 Nr(x)) for the traceless x with integer
    coordinates x in the 1, i, j, k frame; equal identically.

    ad_x has spectrum {0, +2 sqrt(x^2), -2 sqrt(x^2)} on the traceless
    subspace and x^2 = -Nr(x), so trace(ad_x^2) = 8 x^2 = -8 Nr(x).
    """
    if x[0]:
        raise DomainError("killing_check requires a traceless element")
    a, b = B.a, B.b
    # cols[j][i] is entry (i, j) of ad_x in the basis i, j, k: the i, j, k
    # coordinates of x e_j - e_j x
    cols = [
        [u - v for u, v in zip(_qmul(a, b, x, e), _qmul(a, b, e, x))][1:]
        for e in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    ]
    return sum(cols[j][i] * cols[i][j] for i in range(3) for j in range(3)), -8 * _qnorm(a, b, x)


def packet_discriminant(emb: Embedding) -> int:
    """Finite part prod_q |D|_q^{-1} = |D| of the packet discriminant, with
    the archimedean factor normalized to 1; requires v primitive in the
    host Gross lattice."""
    gl = gross_lattice(emb.order)
    if not gl.contains_primitive(emb.v):
        raise DomainError("embedding vector is not primitive in the Gross lattice")
    return -emb.disc.D


def hs_norm_ratio(D) -> float:
    """Hilbert-Schmidt norm of ad_{iota(sqrt(D))} on traceless Mat_2(R),
    divided by sqrt(|D|); the spectrum {0, +-2 sqrt(D)} gives sqrt(8).

    Computed from the exact characteristic polynomial of the ad matrix in
    the split model (eigenvalues are similarity invariants, so the ratio
    does not depend on the choice of conjugate embedding).
    """
    d = Discriminant.of(D).D
    M = _mat2_ad_matrix(d)
    return _hs_from_ad(M, d)


def _mat2_ad_matrix(d: int) -> list[list[int]]:
    """ad of w = [[0, 1], [d, 0]] on traceless 2x2 matrices in the basis
    H, E, F: [w, H] = -2E + 2dF, [w, E] = -dH and [w, F] = H."""
    return [[0, -d, 1], [-2, 0, 0], [2 * d, 0, 0]]


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

def local_norm_surjectivity(order: Order, q: int, k: int) -> bool:
    """True iff reduced norms of units of O/q^k O cover (Z/q^k)^x.

    The unit norms are counted exhaustively at level L = min(k, 1), or
    min(k, 3) for q = 2, and the answer at q^L is the answer at q^k.
    Reduction mod q^L carries a cover at q^k down to q^L.  Conversely, let
    u be a q-unit and Nr(x) = u mod q^L.  Then u / Nr(x) lies in 1 + qZ_q
    (odd q) or 1 + 8Z_2 (q = 2), where every element is the square s^2 of a
    unit s of Z_q, and Nr(s x) = s^2 Nr(x) = u; an integer s' = s mod q^k
    gives s' x in O with Nr(s' x) = u mod q^k.
    """
    if not is_prime(q) or k < 1:
        raise DomainError("local_norm_surjectivity expects a prime q and k >= 1")
    return _norms_cover(order, q, min(k, 3 if q == 2 else 1))


def _norms_cover(order: Order, q: int, level: int) -> bool:
    mod = q**level
    # Nr(c . M / den) = c^T T c / (2 den^2) for the integer trace Gram T:
    # the coefficients of x_i^2 and of x_i x_j are T[i][i] / (2 den^2) and
    # T[i][j] / den^2
    T = order.lattice.trace_gram()
    dd = order.lattice.den**2
    if any(T[i][i] % (2 * dd) for i in range(4)) or any(T[i][j] % dd for i in range(4) for j in range(i + 1, 4)):
        raise CertificateError("norm form of the order is not integral")
    diag = [T[i][i] // (2 * dd) for i in range(4)]
    cross = {(i, j): T[i][j] // dd for i in range(4) for j in range(i + 1, 4)}
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
