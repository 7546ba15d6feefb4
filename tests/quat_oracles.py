"""Independent constructions that the quaternion tests compare against,
written on the integer HNF rows (`mat`, `den`) of the lattices, and the
`Fraction` reference for the integer element rows (d, x) of
`cmreduce.quatalg`: `QuatElement` arithmetic, a lattice's basis, the
coordinates of an element by a `Fraction` solve, and the lattice spanned by
elements."""

import math
from fractions import Fraction
from itertools import product

from cmreduce.errors import CertificateError, DomainError, NotRepresented
from cmreduce.numbase import factorize
from cmreduce.quadforms import reduced_forms
from cmreduce.quatalg import (
    Embedding,
    GrossLattice,
    Lattice4,
    LeftIdeal,
    Order,
    QuaternionAlgebra,
    _det3,
    _hnf_coordinates,
    _lll_gram,
    _qmul,
    _qnorm,
    _unreduce,
    find_optimal_embedding,
    gross_lattice,
    hnf_rows,
    is_same_class,
    left_ideal_from_class,
    quaternion_data,
    ramified_places,
)


class QuatElement:
    """Quaternion with rational coordinates in the 1, i, j, k frame, with
    its own product and norm formulas."""

    __slots__ = ("alg", "c")

    def __init__(self, alg: QuaternionAlgebra, coords):
        self.alg = alg
        self.c = tuple(Fraction(x) for x in coords)

    def __repr__(self):
        return f"QuatElement{self.c}"

    def __eq__(self, other):
        return isinstance(other, QuatElement) and self.alg == other.alg and self.c == other.c

    def __add__(self, other):
        return QuatElement(self.alg, [x + y for x, y in zip(self.c, other.c)])

    def __sub__(self, other):
        return QuatElement(self.alg, [x - y for x, y in zip(self.c, other.c)])

    def __mul__(self, other):
        a, b = self.alg.a, self.alg.b
        x0, x1, x2, x3 = self.c
        y0, y1, y2, y3 = other.c
        return QuatElement(self.alg, [
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        ])

    def scale(self, scalar):
        s = Fraction(scalar)
        return QuatElement(self.alg, [s * x for x in self.c])

    def conj(self) -> "QuatElement":
        x0, x1, x2, x3 = self.c
        return QuatElement(self.alg, (x0, -x1, -x2, -x3))

    def trace(self) -> Fraction:
        return 2 * self.c[0]

    def norm(self) -> Fraction:
        a, b = self.alg.a, self.alg.b
        x0, x1, x2, x3 = self.c
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def numerator(self) -> tuple[int, tuple[int, ...]]:
        """The integer row (den, n) in lowest terms: self = n / den."""
        den = math.lcm(*(x.denominator for x in self.c))
        return den, tuple(x.numerator * (den // x.denominator) for x in self.c)


def element(alg: QuaternionAlgebra, *coords) -> QuatElement:
    return QuatElement(alg, coords)


def from_row(alg: QuaternionAlgebra, v) -> QuatElement:
    """The element x / d of the integer row v = (d, x)."""
    d, x = v
    return QuatElement(alg, [Fraction(c, d) for c in x])


def basis_of(L: Lattice4) -> list[QuatElement]:
    """The elements of L's HNF basis."""
    return [from_row(L.alg, (L.den, row)) for row in L.mat]


def fraction_solve(mat, target, den) -> list[int] | None:
    """c with c . mat = target / den by Gauss-Jordan over Fraction on the
    transposed system, or None when there is no solution or it is not
    integral; independent of the HNF shape of mat."""
    n = len(mat)
    rows = [[Fraction(mat[k][j]) for k in range(n)] + [Fraction(target[j], den)] for j in range(4)]
    r = 0
    for col in range(n):
        piv = next(i for i in range(r, 4) if rows[i][col])  # mat has rank n
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(4):
            if i != r and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][n] for i in range(n, 4)):
        return None
    c = [rows[k][n] for k in range(n)]
    return [int(x) for x in c] if all(x.denominator == 1 for x in c) else None


def coordinates_in(L: Lattice4, x: QuatElement) -> list[int] | None:
    """Integer coordinates of x in L's HNF basis, or None if x is not in L."""
    d, n = x.numerator()
    return fraction_solve(L.mat, [v * L.den for v in n], d)


def span(alg: QuaternionAlgebra, elements, cls=Lattice4) -> Lattice4:
    """The lattice of class `cls` spanned by the elements."""
    den = math.lcm(*(x.denominator for e in elements for x in e.c))
    return cls.from_rows(alg, [[int(x * den) for x in e.c] for e in elements], den)


def _det4(m) -> int:
    # cofactor expansion, exact
    total = 0
    for col in range(4):
        minor = [[m[r][c] for c in range(4) if c != col] for r in range(1, 4)]
        term = m[0][col] * _det3(minor)
        total += term if col % 2 == 0 else -term
    return total


def least_bp_pair(p: int) -> tuple[int, int]:
    """The least pair of negative (a, b), by |a| + |b| and then by |a|, with
    (a, b) ramified exactly at inf and p.  (a, b)_p = 1 for two p-units, so
    a pair that works has p | ab and |a| + |b| >= p + 1."""
    s = p + 1
    while True:
        for m in range(1, s):
            a, b = -m, m - s
            if a * b % p == 0 and ramified_places(a, b) == frozenset({"inf", p}):
                return a, b
        s += 1


def saturated_maximal_order(B: QuaternionAlgebra) -> Order:
    """A maximal order of B found by search: Z<1, i, j, k> is enlarged, one
    superorder of prime index q dividing its reduced discriminant at a time,
    until the reduced discriminant is p.  Each step takes the first x in
    (1/q)O \\ O, over HNF coordinates in [0, q)^4 in product order, with
    integral trace and norm whose span with O is multiplicatively closed."""
    p = B.ramified_prime
    a, b = B.a, B.b
    order = Order(lattice=Lattice4.from_rows(B, [[int(i == j) for j in range(4)] for i in range(4)], 1))
    while order.reduced_discriminant != p:
        for q, _ in factorize(order.reduced_discriminant):
            lat = order.lattice
            qd = q * lat.den
            rows = [[q * x for x in r] for r in lat.mat]
            bigger = None
            for c in product(range(q), repeat=4):
                n = _unreduce(lat.mat, c)  # x = n / (q den)
                if not any(c) or 2 * n[0] % qd or _qnorm(a, b, n) % (qd * qd):
                    continue
                candidate = Order(lattice=Lattice4.from_rows(B, rows + [n], qd))
                if candidate.lattice != lat and candidate.is_multiplicatively_closed():
                    bigger = candidate
                    break
            if bigger is not None:
                order = bigger
                break
        else:
            raise CertificateError(f"saturation stalled at reduced discriminant {order.reduced_discriminant}")
    return order


def conjugate(L: Lattice4) -> Lattice4:
    """conj(L), from the conjugated integer rows of L."""
    return Lattice4.from_rows(L.alg, [[r[0], -r[1], -r[2], -r[3]] for r in L.mat], L.den)


def reconstruct_order_from_gross(gl: GrossLattice) -> Lattice4:
    """(1/2){x in Z + O^T : Nr(x) in 4Z} as a lattice; equals O for orders.

    The set is 4L-periodic for L = Z + O^T, so it is assembled from the
    residues of L/4L with norm divisible by 4.
    """
    alg = gl.alg
    L = Lattice4.from_rows(alg, [[gl.den, 0, 0, 0]] + [list(r) for r in gl.mat], gl.den)
    reps = []
    for c in product(range(4), repeat=4):
        x = _unreduce(L.mat, c)  # the element x / L.den, of norm N(x) / L.den^2
        if _qnorm(alg.a, alg.b, x) % (4 * L.den**2) == 0:
            reps.append(x)
    return Lattice4.from_rows(alg, [[4 * v for v in r] for r in L.mat] + reps, 2 * L.den)


def iota(emb: Embedding, m, n) -> QuatElement:
    """The image of m + n (D + sqrt(D))/2 under the embedding, with
    iota(sqrt(D)) = emb.v."""
    alg = emb.order.alg
    one = element(alg, 1, 0, 0, 0)
    return one.scale(Fraction(m) + Fraction(n) * Fraction(emb.disc.D, 2)) + from_row(alg, emb.v).scale(Fraction(n, 2))


def embedding_preimage_lattice(order: Order, v) -> list[list[Fraction]]:
    """Basis (rows, coordinates in (1, v)) of {m + n v : m, n in Q} cap O,
    for v given as the integer row (d, x)."""
    b_one = coordinates_in(order.lattice, element(order.alg, 1, 0, 0, 0))
    b_v = coordinates_in(order.lattice, from_row(order.alg, v))
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


def exact_norm_vectors(G, bound) -> list[tuple[int, ...]]:
    """Every integer x with x^T G x = bound exactly, for a positive definite
    integer G of size n >= 2.

    The levels are those of `_fincke_pohst`: with a = G[0][0],
    a x^T G x = (a x_0 + g.x')^2 + x'^T (a G' - g g^T) x', down to x_1.
    The first coordinate is solved, not enumerated: (a x_0 + lin)^2 must be
    room = a bound - tail, so room is a perfect square s^2 and
    x_0 = (+-s - lin) / a for each sign at which a divides the numerator.
    """
    n = len(G)
    piv, rows = [], []
    S = [list(r) for r in G]
    for _ in range(n):
        a = S[0][0]
        piv.append(a)
        rows.append(S[0][1:])
        S = [[a * S[i][j] - S[0][i] * S[0][j] for j in range(1, len(S))] for i in range(1, len(S))]
    caps = [bound]
    for a in piv[:-1]:
        caps.append(caps[-1] * a)
    x, out = [0] * n, []

    def level(k, tail):
        a = piv[k]
        lin = sum(u * v for u, v in zip(rows[k], x[k + 1 :]))
        room = a * caps[k] - tail
        if room < 0:
            return
        s = math.isqrt(room)
        if k == 0:
            if s * s == room:
                for w in (s, -s) if s else (0,):
                    if (w - lin) % a == 0:
                        x[0] = (w - lin) // a
                        if any(x):
                            out.append(tuple(x))
                x[0] = 0
            return
        for z in range(-((s + lin) // a), (s - lin) // a + 1):
            x[k] = z
            level(k - 1, ((a * z + lin) ** 2 + tail) // a)
        x[k] = 0

    if bound >= 0:
        level(n - 1, 0)
    return out


def vectors_with_norm(lat: Lattice4, target) -> list[tuple[int, ...]]:
    """HNF coordinates of every v in the lattice with Nr(v) = target,
    sorted: LLL, then the vectors of trace-form value exactly
    2 den^2 target (exact_norm_vectors)."""
    scaled = 2 * lat.den**2 * Fraction(target)
    if scaled.denominator != 1:
        return []
    H, R = _lll_gram(lat.trace_gram())
    return sorted(_unreduce(H, y) for y in exact_norm_vectors(R, scaled.numerator))


def same_class_by_product(I: LeftIdeal, J: LeftIdeal) -> bool:
    """I ~ J iff conj(I) J holds a vector of norm Nr(I) Nr(J), the least norm
    on it; for J = I x it holds Nr(I) x."""
    M = conjugate(I.lattice).product(J.lattice)
    return bool(vectors_with_norm(M, I.reduced_norm * J.reduced_norm))


def box_radii(G, bound):
    """|x_i| <= sqrt(bound adj(G)_ii / det G) for every x with x^T G x <= bound."""
    n = len(G)
    det = _det4(G) if n == 4 else _det3(G)
    minors = [[[G[a][b] for b in range(n) if b != i] for a in range(n) if a != i] for i in range(n)]
    adj = [(_det3(m) if n == 4 else m[0][0] * m[1][1] - m[0][1] * m[1][0]) for m in minors]
    return [math.isqrt(bound * adj[i] // det) for i in range(n)]


def box_vectors(G, bound):
    """Brute force: every nonzero x in the adjugate box with x^T G x <= bound."""
    n = len(G)
    out = []
    for x in product(*(range(-r, r + 1) for r in box_radii(G, bound))):
        value = sum(x[i] * G[i][j] * x[j] for i in range(n) for j in range(n))
        if value <= bound and any(x):
            out.append((x, value))
    return out


def box_size(G, bound):
    return math.prod(2 * r + 1 for r in box_radii(G, bound))


def least_primitive_gross_vectors(gl: GrossLattice, nmax: int) -> dict[int, tuple[int, ...]]:
    """For every n <= nmax that is the norm of a primitive vector of the
    Gross lattice, the least such vector in HNF coordinates, signed so that
    its first nonzero coordinate is positive; one box enumeration serves
    every n."""
    scale = 2 * gl.den**2  # Nr(c . mat / den) = c^T T c / (2 den^2)
    least: dict[int, tuple[int, ...]] = {}
    for x, value in box_vectors(gl.trace_gram(), scale * nmax):
        if value % scale or math.gcd(*x) != 1 or next(c for c in x if c) < 0:
            continue
        n = value // scale
        if n not in least or x < least[n]:
            least[n] = x
    return least


def least_embedding_vector_by_enumeration(order: Order, D: int) -> tuple[int, ...] | None:
    """The Gross-lattice vector behind `find_optimal_embedding(order, D)`,
    found by collecting every vector of norm |D| (LLL and Fincke-Pohst in
    `vectors_with_norm`) and keeping the least primitive one, in HNF
    coordinates signed so that the first nonzero one is positive; None when
    no vector of norm |D| is primitive."""
    hits = vectors_with_norm(gross_lattice(order), -D)
    return min(
        (c if next(x for x in c if x) > 0 else tuple(-x for x in c) for c in hits if math.gcd(*c) == 1),
        default=None,
    )


def neighbor_ideals_by_membership(I: LeftIdeal, ell: int) -> list[LeftIdeal]:
    """The ell + 1 left ideals J with ell I < J < I of index ell^2, by HNF
    membership: the residues x = c . I.mat with c in [0, ell)^4 are walked
    in product order, an x that lies in a neighbour found already is
    skipped, and each other x of rank 1 (ell | Nr(x) / Nr(I)) spans a new
    neighbour O x + ell I."""
    lat, order = I.lattice, I.left_order
    a, b = lat.alg.a, lat.alg.b
    den = order.lattice.den * lat.den
    ell_rows = [[ell * order.lattice.den * x for x in r] for r in lat.mat]
    nrm = I.reduced_norm
    out: list[LeftIdeal] = []
    for c in product(range(ell), repeat=4):
        if not any(c):
            continue
        x = _unreduce(lat.mat, c)  # the element x / lat.den of I
        if any(_hnf_coordinates(J.lattice.mat, [J.lattice.den * v for v in x], lat.den) is not None for J in out):
            continue
        if _qnorm(a, b, x) * nrm.denominator % (ell * lat.den**2 * nrm.numerator):
            continue
        rows = ell_rows + [_qmul(a, b, g, x) for g in order.lattice.mat]
        out.append(LeftIdeal(lattice=Lattice4.from_rows(lat.alg, rows, den), left_order=order))
    if len(out) != ell + 1:
        raise CertificateError(f"{len(out)} neighbour ideals, expected {ell + 1}")
    return out


def class_index_by_scan(cls, I: LeftIdeal) -> int:
    """The index of the one representative J with `is_same_class(I, J)`,
    tested against every representative."""
    hits = [idx for idx, rep in enumerate(cls.representatives) if is_same_class(I, rep)]
    if len(hits) != 1:
        raise CertificateError(f"ideal matches {len(hits)} enumerated classes, expected 1")
    return hits[0]


def direct_prime_reduction(d: int, p: int) -> dict[tuple[int, int, int], int]:
    """The class of I_base iota(a_f) for every reduced form f of d, each by
    its own ideal, classified against every representative: the per-form
    route that the walk of `reduction._prime_reduction` replaces, from the
    same base (the first class whose right order embeds d)."""
    _, _, cls = quaternion_data(p)
    for base, Or in zip(cls.representatives, cls.right_orders):
        try:
            emb = find_optimal_embedding(Or, d)
        except NotRepresented:
            continue
        labels = {}
        for f in reduced_forms(d):
            ideal = left_ideal_from_class(base, emb.v, f)
            if ideal.reduced_norm != base.reduced_norm * f.a:
                raise CertificateError(f"ideal norm {ideal.reduced_norm} != Nr(base) * {f.a}")
            labels[f.as_tuple()] = class_index_by_scan(cls, ideal)
        return labels
    raise CertificateError(f"no ideal class hosts an embedding of D={d} at p={p}")
