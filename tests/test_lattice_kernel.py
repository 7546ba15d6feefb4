"""The integer lattice kernel of quatalg against independent references:
lattice products, right multiplication and ideal formation against the
span of `Fraction` element products, integer coordinates and embedding
rows against `Fraction` arithmetic, neighbour ideals against their defining
properties and against the HNF-membership route, with the walk's line as
each one's key, the LLL + Fincke-Pohst short-vector search against
brute-force box enumeration, the self-bounded slice walk against box
enumeration, and the optimal-embedding search against box enumeration and
against collecting every vector of norm |D|."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from cmreduce import quatalg
from cmreduce.errors import CertificateError, DomainError, NotRepresented
from cmreduce.numbase import kronecker, primes_up_to
from cmreduce.quadforms import QuadForm, admissible_discriminants, is_fundamental, reduced_forms
from cmreduce.quatalg import (
    GrossLattice,
    Lattice4,
    _det3,
    _fincke_pohst,
    _lagrange,
    _least_primitive_solution,
    _lll_gram,
    _neighbor_ideals,
    _unreduce,
    find_optimal_embedding,
    gross_lattice,
    lattice_shortest_vectors,
    left_ideal_from_class,
    order_as_ideal,
    quaternion_data,
    right_order,
)
from quat_oracles import (
    _det4,
    basis_of,
    box_size,
    box_vectors,
    conjugate,
    coordinates_in,
    element,
    exact_norm_vectors,
    fraction_solve,
    from_row,
    iota,
    least_embedding_vector_by_enumeration,
    least_primitive_gross_vectors,
    neighbor_ideals_by_membership,
    span,
)

PRIMES = (5, 11, 23, 37)
BOX_CAP = 10**5


def _class_lattices(p):
    _, O, cls = quaternion_data(p)
    return [I.lattice for I in cls.representatives] + [Or.lattice for Or in cls.right_orders]


def _two_neighbours(cls):
    return [J for I, Or in zip(cls.representatives, cls.right_orders) for J in _neighbor_ideals(I, 2, Or).values()]


def _product_reference(L1, L2):
    return span(L1.alg, [x * y for x in basis_of(L1) for y in basis_of(L2)])


@pytest.mark.parametrize("p", PRIMES)
def test_integer_product_matches_element_products(p):
    _, O, cls = quaternion_data(p)
    ideals = list(cls.representatives) + _two_neighbours(cls)
    for I in ideals:
        for J in cls.representatives:
            assert conjugate(I.lattice).product(J.lattice) == _product_reference(conjugate(I.lattice), J.lattice)
        for Or in cls.right_orders:
            assert I.lattice.product(Or.lattice) == _product_reference(I.lattice, Or.lattice)


@pytest.mark.parametrize("p", PRIMES)
def test_right_order_matches_element_products(p):
    # conj(b) c / Nr(I) over the basis pairs of I, for every class
    # representative and every 2-neighbour of one
    _, O, cls = quaternion_data(p)
    ideals = list(cls.representatives) + _two_neighbours(cls)
    for I in ideals:
        basis = basis_of(I.lattice)
        expected = span(O.alg, [(b.conj() * c).scale(1 / I.reduced_norm) for b in basis for c in basis])
        assert right_order(I).lattice == expected


@pytest.mark.parametrize("p", (11, 23))
def test_every_public_method_on_a_gross_lattice(p):
    _, O, cls = quaternion_data(p)
    for Or in cls.right_orders:
        gl = gross_lattice(Or)
        assert len(gl.mat) == 3 and all(r[0] == 0 for r in gl.mat)
        minor = [list(r[1:]) for r in gl.mat]
        assert Fraction(*gl.covolume()) == Fraction(abs(_det3(minor)), gl.den**3)
        basis = basis_of(gl)
        assert all(v.trace() == 0 for v in basis)
        assert GrossLattice.from_elements(O.alg, [v.numerator() for v in basis]) == gl
        assert span(O.alg, basis, GrossLattice) == gl
        assert GrossLattice.from_rows(O.alg, [[2 * x for x in r] for r in gl.mat], 2 * gl.den) == gl
        with pytest.raises(DomainError):
            GrossLattice.from_rows(O.alg, [list(r) for r in Or.lattice.mat], Or.lattice.den)
        for k, v in enumerate(basis):
            assert gl.contains_primitive(v.numerator())
            assert coordinates_in(gl, v) == [int(i == k) for i in range(3)]
        assert not gl.contains_primitive((1, (1, 0, 0, 0)))
        T = gl.trace_gram()
        assert [[2 * gl.den**2 * (x * y.conj()).c[0] for y in basis] for x in basis] == T
        assert gl.product(Or.lattice) == _product_reference(gl, Or.lattice)


def _kernel_coordinates(L, x):
    # the integer solve on the row (d, n) of x = n / d
    d, n = x.numerator()
    return quatalg._hnf_coordinates(L.mat, [L.den * v for v in n], d)


@pytest.mark.parametrize("p", PRIMES)
def test_integer_coordinates_on_class_sets(p):
    rng = random.Random(2000 + p)
    _, O, cls = quaternion_data(p)
    lattices = _class_lattices(p) + [J.lattice for J in _two_neighbours(cls)]
    grosses = [gross_lattice(Or) for Or in cls.right_orders]
    for L in lattices + grosses:
        basis = basis_of(L)
        for _ in range(8):
            c = [rng.randrange(-9, 10) for _ in basis]
            x = element(O.alg, 0, 0, 0, 0)
            for coef, b in zip(c, basis):
                x = x + b.scale(coef)
            coords = _kernel_coordinates(L, x)
            assert coords == c == coordinates_in(L, x)
            # coordinates(x) . mat / den == x in the 1, i, j, k frame
            back = [Fraction(sum(k * row[j] for k, row in zip(coords, L.mat)), L.den) for j in range(4)]
            assert back == list(x.c)
            # one non-integral coordinate puts the vector outside the lattice
            i = rng.randrange(len(basis))
            off = x + basis[i].scale(Fraction(1, rng.randrange(2, 6)))
            assert _kernel_coordinates(L, off) is None is coordinates_in(L, off)
            if isinstance(L, GrossLattice):
                assert L.contains_primitive(x.numerator()) == (math.gcd(*c) == 1)
                assert not L.contains_primitive(off.numerator())
        if isinstance(L, GrossLattice):
            assert _kernel_coordinates(L, element(O.alg, 1, 0, 0, 0)) is None  # not traceless


def _random_hnf(rng, rank):
    # rank 4, or rank 3 with a zero first column as on a Gross lattice
    while True:
        rows = [[0 if rank == 3 and j == 0 else rng.randrange(-12, 13) for j in range(4)] for _ in range(rank + 2)]
        h = quatalg.hnf_rows(rows)
        if len(h) == rank:
            return h


@pytest.mark.parametrize("rank", (4, 3))
def test_hnf_coordinates_matches_a_fraction_solve(rank):
    # c . M = t / den for seeded HNFs M; a target with one non-integral
    # coordinate in position k stops the back-substitution at row k, so
    # every remainder test runs and returns None
    rng = random.Random(40 + rank)
    for _ in range(150):
        M = _random_hnf(rng, rank)
        den = rng.randrange(1, 7)
        c = [rng.randrange(-30, 31) for _ in range(rank)]
        t = [den * sum(ci * row[j] for ci, row in zip(c, M)) for j in range(4)]
        assert quatalg._hnf_coordinates(M, t, den) == c == fraction_solve(M, t, den)
        for k in range(rank):
            q = rng.randrange(2, 6)
            off = [ci * q + (i == k) * rng.randrange(1, q) for i, ci in enumerate(c)]
            t = [den * sum(ci * row[j] for ci, row in zip(off, M)) for j in range(4)]
            # t / (q den) has the coordinates off / q, non-integral at k alone
            assert quatalg._hnf_coordinates(M, t, q * den) is None is fraction_solve(M, t, q * den)
        if rank == 3:
            # a target outside the span: a nonzero entry left of the pivots
            t = [den * sum(ci * row[j] for ci, row in zip(c, M)) for j in range(4)]
            t[0] = den * rng.choice((-1, 1)) * rng.randrange(1, 9)
            assert quatalg._hnf_coordinates(M, t, den) is None is fraction_solve(M, t, den)


def test_determinant_is_the_hnf_diagonal_product():
    # HNF rows of a full-rank lattice are upper triangular, so the covolume
    # reads the diagonal; four generators span a lattice of covolume |det|
    rng = random.Random(3)
    alg = quaternion_data(5)[1].alg
    cases = 0
    while cases < 200:
        count = rng.choice((4, 4, 5, 7))
        rows = [[rng.randrange(-20, 21) for _ in range(4)] for _ in range(count)]
        den = rng.randrange(1, 13)
        try:
            L = Lattice4.from_rows(alg, rows, den)
        except DomainError:
            continue
        assert all(L.mat[i][j] == 0 for i in range(4) for j in range(i))
        assert Fraction(*L.covolume()) == Fraction(abs(_det4(L.mat)), L.den**4)
        if count == 4:
            assert Fraction(*L.covolume()) == Fraction(abs(_det4(rows)), den**4)
        cases += 1


@pytest.mark.parametrize("p", PRIMES)
def test_integer_ideal_formation_matches_element_products(p):
    _, O, cls = quaternion_data(p)
    checked = 0
    for D in range(-3, -200, -1):
        if D % 4 not in (0, 1) or kronecker(D, p) != -1:
            continue
        for I, Or in zip(cls.representatives, cls.right_orders):
            try:
                emb = find_optimal_embedding(Or, D)
            except NotRepresented:
                continue
            for f in reduced_forms(D):
                w = iota(emb, (-f.b - D) // 2, 1)  # (-b + sqrt(D)) / 2
                bas = basis_of(I.lattice)
                expected = span(O.alg, [e.scale(f.a) for e in bas] + [e * w for e in bas])
                ideal = left_ideal_from_class(I, emb.v, f)
                assert ideal.lattice == expected
                assert ideal.reduced_norm == I.reduced_norm * f.a
                checked += 1
        if checked >= 40:
            break
    assert checked >= 40
    # the order itself is the base case
    emb = find_optimal_embedding(O, next(D for D in range(-3, -200, -1) if _hosts(O, D, p)))
    f = reduced_forms(emb.disc.D)[0]
    assert left_ideal_from_class(order_as_ideal(O), emb.v, f).reduced_norm == f.a


@pytest.mark.parametrize("p", PRIMES)
def test_neighbor_ideals_are_the_ell_neighbours(p):
    _, O, cls = quaternion_data(p)
    for ell in (2, 3):
        for I, Or in zip(cls.representatives, cls.right_orders):
            neighbours = list(_neighbor_ideals(I, ell, Or).values())
            assert len(neighbours) == ell + 1
            assert len({J.lattice for J in neighbours}) == ell + 1
            for J in neighbours:
                # ell I < J < I, J a left O-ideal of norm ell Nr(I)
                assert all(coordinates_in(J.lattice, b.scale(ell)) is not None for b in basis_of(I.lattice))
                assert all(coordinates_in(I.lattice, b) is not None for b in basis_of(J.lattice))
                assert O.lattice.product(J.lattice) == J.lattice
                assert J.reduced_norm == ell * I.reduced_norm
            # ordered by the least residue c in [0, ell)^4, in product order,
            # whose element c . basis(I) lies in J
            basis = basis_of(I.lattice)
            residues = [
                sum((e.scale(k) for k, e in zip(c, basis)), element(O.alg, 0, 0, 0, 0))
                for c in product(range(ell), repeat=4)
                if any(c)
            ]
            least = [next(i for i, x in enumerate(residues) if coordinates_in(J.lattice, x) is not None) for J in neighbours]
            assert least == sorted(least)


def _walk_lines(J, Or, ell):
    """Each ell-neighbour ell J + J x' of J over the residues x' of
    Or = O_R(J) mod ell with ell | Nr(x'), mapped to the walk's
    `_kernel_line(Or, x', ell)` for every such x'."""
    alg, lat, jlat = J.lattice.alg, Or.lattice, J.lattice
    lines = {}
    for c in product(range(ell), repeat=4):
        x = _unreduce(lat.mat, c)  # the element x / lat.den of Or
        if not any(c) or quatalg._qnorm(alg.a, alg.b, x) % (ell * lat.den**2):
            continue
        rows = [[ell * lat.den * v for v in r] for r in jlat.mat] + [quatalg._qmul(alg.a, alg.b, r, x) for r in jlat.mat]
        K = Lattice4.from_rows(alg, rows, lat.den * jlat.den)
        lines.setdefault(K, set()).add(quatalg._kernel_line(Or, (lat.den, x), ell))
    return lines


@pytest.mark.parametrize("p", primes_up_to(150)[2:])
def test_neighbor_ideals_keyed_by_the_walks_line_match_the_membership_oracle(p):
    # the same neighbours in the same order as the HNF-membership route, and
    # each keyed by the line the walk gives it from J's right order
    _, O, cls = quaternion_data(p)
    for ell in (2, 3):
        for J, Or in zip(cls.representatives, cls.right_orders):
            keyed = _neighbor_ideals(J, ell, Or)
            assert list(keyed.values()) == neighbor_ideals_by_membership(J, ell)
            lines = _walk_lines(J, Or, ell)
            assert len(lines) == ell + 1
            assert all(lines[K.lattice] == {key} for key, K in keyed.items())


def test_left_ideal_from_class_refuses_a_leading_coefficient_divisible_by_p():
    # p | a forces D = b^2 mod p, so D is not inert at p; D = -23 is
    # ramified at 23 and embeds into a maximal order of B_(inf,23)
    _, _, cls = quaternion_data(23)
    for I, Or in zip(cls.representatives, cls.right_orders):
        try:
            emb = find_optimal_embedding(Or, -23)
        except NotRepresented:
            continue
        assert left_ideal_from_class(I, emb.v, QuadForm(2, 1, 3)).reduced_norm == 2 * I.reduced_norm
        with pytest.raises(DomainError):
            left_ideal_from_class(I, emb.v, QuadForm(23, 23, 6))
        return
    pytest.fail("no class of B_(inf,23) hosts D = -23")


def _hosts(O, D, p):
    if D % 4 not in (0, 1) or kronecker(D, p) != -1:
        return False
    try:
        find_optimal_embedding(O, D)
    except NotRepresented:
        return False
    return True


@pytest.mark.parametrize("p", PRIMES)
def test_shortest_vectors_match_box_enumeration(p):
    tested = 0
    for L in _class_lattices(p):
        T = L.trace_gram()
        bound = min(T[i][i] for i in range(4))
        if box_size(T, bound) > BOX_CAP:
            continue
        found = box_vectors(T, bound)
        least = min(v for _, v in found)
        expected = sorted(x for x, v in found if v == least)
        assert lattice_shortest_vectors(L) == expected
        tested += 1
    assert tested >= 2


@pytest.mark.parametrize("p", PRIMES)
def test_unit_vectors_match_box_enumeration(p):
    _, _, cls = quaternion_data(p)
    for Or in cls.right_orders:
        T = Or.lattice.trace_gram()
        bound = 2 * Or.lattice.den**2
        if box_size(T, bound) > BOX_CAP:
            continue
        expected = sorted(x for x, v in box_vectors(T, bound) if v == bound)
        assert Or.units == tuple(sorted(_unreduce(Or.lattice.mat, x) for x in expected))


def _gross_coordinates(Or, D):
    # the HNF coordinates of find_optimal_embedding(Or, D).v on the Gross lattice
    gl = gross_lattice(Or)
    return tuple(coordinates_in(gl, from_row(Or.alg, find_optimal_embedding(Or, D).v)))


@pytest.mark.parametrize("p", (5, 11, 23, 37))
def test_optimal_embedding_is_the_least_primitive_box_vector(p):
    # every D = 0, 1 mod 4 with |D| <= 300, fundamental or not, inert at p
    # or not, on every right order of the class set, against one box
    # enumeration of the Gross lattice per order; the row of v is the
    # box vector's element in lowest terms
    discs = [D for D in range(-3, -301, -1) if D % 4 in (0, 1)]
    represented = missing = reduced = 0
    for Or in quaternion_data(p)[2].right_orders:
        gl = gross_lattice(Or)
        basis = basis_of(gl)
        least = least_primitive_gross_vectors(gl, 300)
        for D in discs:
            if -D not in least:
                with pytest.raises(NotRepresented):
                    find_optimal_embedding(Or, D)
                missing += 1
                continue
            v = sum((b.scale(k) for k, b in zip(least[-D], basis)), element(Or.alg, 0, 0, 0, 0))
            assert find_optimal_embedding(Or, D).v == v.numerator(), (p, D)
            represented += 1
            reduced += v.numerator()[0] < gl.den
    # some rows come out below the lattice's denominator, so a row left
    # unreduced would show
    assert represented and missing and reduced


def _check_against_enumeration(orders, discs):
    """find_optimal_embedding against the collect-all reference on every
    pair; returns (hits, misses)."""
    hits = misses = 0
    for Or in orders:
        for D in discs:
            expected = least_embedding_vector_by_enumeration(Or, D)
            if expected is None:
                with pytest.raises(NotRepresented):
                    find_optimal_embedding(Or, D)
                misses += 1
            else:
                assert _gross_coordinates(Or, D) == expected, D
                hits += 1
    return hits, misses


def test_optimal_embedding_matches_enumeration_at_the_papers_primes():
    # every right order at p = 11 and 23, for 200 seeded admissible D in
    # (10^4, 2 10^4] each; at p = 11 nearly every D embeds in both orders,
    # so the misses come from p = 23
    rng = random.Random(21)
    hits = misses = 0
    for p in (11, 23):
        discs = rng.sample([d.D for d in admissible_discriminants(inert=(p,), abs_range=(10001, 20000))], 200)
        assert {is_fundamental(D) for D in discs} == {True, False}
        h, m = _check_against_enumeration(quaternion_data(p)[2].right_orders, discs)
        hits, misses = hits + h, misses + m
    assert hits and misses


@pytest.mark.parametrize("p", (101, 1009))
def test_optimal_embedding_matches_enumeration_at_larger_primes(p):
    # the first six right orders, for every admissible |D| <= 2000
    discs = [d.D for d in admissible_discriminants(inert=(p,), abs_range=(3, 2000))]
    hits, misses = _check_against_enumeration(quaternion_data(p)[2].right_orders[:6], discs)
    assert hits and misses


@pytest.mark.parametrize(
    "D, coords",
    [
        (-3, (1, 0, -1)),  # c_0 > 0, c_1 = 0
        (-7, (2, -1, -1)),  # c_0 > 0, c_1 < 0
        (-15, (0, 1, -1)),  # c_0 = 0, c_1 > 0, c_2 < 0
        (-40, (0, 0, 1)),  # c_0 = c_1 = 0, c_2 > 0
    ],
)
def test_optimal_embedding_sign_branches(D, coords):
    # the first nonzero HNF coordinate is positive, the others take any sign
    Or = quaternion_data(5)[2].right_orders[0]
    assert _gross_coordinates(Or, D) == coords


def _least_primitive_by_box(G, N):
    # the least primitive x with x^T G x = N whose first nonzero coordinate
    # is positive, or None
    return min(
        (x for x, v in box_vectors(G, N) if v == N and math.gcd(*x) == 1 and next(c for c in x if c) > 0),
        default=None,
    )


def test_least_primitive_solution_matches_box_enumeration():
    # every N in [1, 40] on seeded random definite ternary forms: the walk
    # bounds its own slices, and None means no primitive vector of norm N
    hits = misses = 0
    for G, _ in _random_definite_grams(22, 3, 25):
        for N in range(1, 41):
            expected = _least_primitive_by_box(G, N)
            assert _least_primitive_solution(G, N) == expected, (G, N)
            hits, misses = hits + (expected is not None), misses + (expected is None)
    assert hits and misses


@pytest.mark.parametrize(
    "T, N, least",
    [
        ([[1, 0, 0], [0, 5, 0], [0, 0, 7]], 1, (1, 0, 0)),  # only at c_0 = top = 1
        ([[3, 1, 0], [1, 4, 1], [0, 1, 5]], 3, (1, 0, 0)),  # top = 1 again, off-diagonal
        ([[1, 0, 0], [0, 5, 0], [0, 0, 7]], 2, None),  # no vector of norm 2
        ([[1, 0, 0], [0, 5, 0], [0, 0, 7]], 4, None),  # 4 = 2^2 is not primitive
    ],
)
def test_least_primitive_solution_at_the_ellipsoid_bound(T, N, least):
    assert _least_primitive_solution(T, N) == least == _least_primitive_by_box(T, N)


def test_embedding_contract_agrees_with_element_arithmetic(monkeypatch):
    # on the Gross lattice every least vector v has (D + v)/2 in O; on half
    # of it some do not, and the integer check must raise exactly for those,
    # as Fraction arithmetic decides
    Or = quaternion_data(11)[2].right_orders[0]
    gl = gross_lattice(Or)
    half = GrossLattice.from_rows(gl.alg, [list(r) for r in gl.mat], 2 * gl.den)
    raised = passed = 0
    for L in (gl, half):
        monkeypatch.setattr(quatalg, "gross_lattice", lambda order: L)
        for D in range(-3, -60, -1):
            c = _least_primitive_solution(L.trace_gram(), 2 * L.den**2 * -D)
            if D % 4 not in (0, 1) or c is None:
                continue
            v = sum((b.scale(k) for k, b in zip(c, basis_of(L))), element(Or.alg, 0, 0, 0, 0))
            if coordinates_in(Or.lattice, (element(Or.alg, D, 0, 0, 0) + v).scale(Fraction(1, 2))) is None:
                with pytest.raises(CertificateError):
                    find_optimal_embedding(Or, D)
                raised += 1
            else:
                assert find_optimal_embedding(Or, D).v == v.numerator()
                passed += 1
    assert raised and passed


def test_lagrange_reduces_binary_forms():
    rng = random.Random(21)
    for _ in range(300):
        a, c = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
        h = rng.randrange(-math.isqrt(a * c), math.isqrt(a * c) + 1)
        if a * c == h * h:
            continue
        U, a2, h2, c2 = _lagrange(a, h, c)
        assert abs(U[0][0] * U[1][1] - U[0][1] * U[1][0]) == 1
        G = [[a, h], [h, c]]
        assert [[sum(U[i][k] * G[k][l] * U[j][l] for k in range(2) for l in range(2)) for j in range(2)]
                for i in range(2)] == [[a2, h2], [h2, c2]]
        assert 2 * abs(h2) <= a2 <= c2


def _random_unimodular(rng, n, steps=12):
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.choice([-3, -2, -1, 1, 2, 3])
        U[i] = [u + q * v for u, v in zip(U[i], U[j])]
        if rng.random() < 0.3:
            U[i], U[j] = U[j], U[i]
    return U


def _transform(U, G):
    n = len(G)
    return [[sum(U[i][a] * G[a][b] * U[j][b] for a in range(n) for b in range(n)) for j in range(n)] for i in range(n)]


def _minimal_vectors(G):
    H, R = _lll_gram(G)
    found = list(_fincke_pohst(R, min(R[i][i] for i in range(len(G)))))
    least = min(v for _, v in found)
    return least, sorted(_unreduce(H, y) for y, v in found if v == least)


@pytest.mark.parametrize("p", PRIMES)
def test_unimodular_change_of_basis_keeps_canonical_shortest_vector(p):
    rng = random.Random(1000 + p)
    for L in _class_lattices(p):
        T = L.trace_gram()
        least, canonical = _minimal_vectors(T)
        for _ in range(3):
            U = _random_unimodular(rng, 4)
            assert abs(_det4(U)) == 1
            least_u, found = _minimal_vectors(_transform(U, T))
            assert least_u == least
            # coordinates z in the basis U M are the coordinates z U in the basis M
            assert sorted(_unreduce(U, z) for z in found) == canonical
        # the public entry point sees the same lattice whatever basis generated it
        rows = [[sum(u * row[k] for u, row in zip(U_row, L.mat)) for k in range(4)] for U_row in _random_unimodular(rng, 4)]
        same = Lattice4.from_rows(L.alg, rows, L.den)
        assert same == L
        assert lattice_shortest_vectors(same)[0] == lattice_shortest_vectors(L)[0]


def test_lll_returns_a_reduced_unimodular_transform():
    rng = random.Random(5)
    for p in PRIMES:
        for L in _class_lattices(p):
            G = _transform(_random_unimodular(rng, 4, steps=20), L.trace_gram())
            H, R = _lll_gram(G)
            assert abs(_det4(H)) == 1
            assert R == _transform(H, G)
            # size reduction of the first off-diagonal entry and the Lovasz
            # condition on the first pair
            assert 2 * abs(R[0][1]) <= R[0][0]
            assert 4 * (R[0][0] * R[1][1] - R[0][1] ** 2) >= 3 * R[0][0] ** 2 - 4 * R[0][1] ** 2


def _random_definite_grams(seed, n, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        B = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        G = [[sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if (_det4(G) if n == 4 else _det3(G)) and box_size(G, 40) <= BOX_CAP:
            out.append((G, rng.randrange(0, 41)))
    return out


@pytest.mark.parametrize("G, bound", _random_definite_grams(7, 4, 60))
def test_fincke_pohst_matches_box_enumeration(G, bound):
    expected = sorted(box_vectors(G, bound))
    assert sorted(_fincke_pohst(G, bound)) == expected
    H, R = _lll_gram(G)
    assert sorted((_unreduce(H, y), v) for y, v in _fincke_pohst(R, bound)) == expected


@pytest.mark.parametrize("G, bound", _random_definite_grams(8, 3, 40))
def test_fincke_pohst_ternary_exact_values(G, bound):
    H, R = _lll_gram(G)
    got = sorted(_unreduce(H, y) for y, v in _fincke_pohst(R, bound) if v == bound)
    assert got == sorted(x for x, v in box_vectors(G, bound) if v == bound)


@pytest.mark.parametrize("G, bound", _random_definite_grams(8, 3, 40))
def test_exact_norm_vectors_match_box_enumeration(G, bound):
    # the test oracle's exact level, on the cases above, on G and on its
    # LLL reduction
    expected = sorted(x for x, v in box_vectors(G, bound) if v == bound)
    assert sorted(exact_norm_vectors(G, bound)) == expected
    H, R = _lll_gram(G)
    assert sorted(_unreduce(H, y) for y in exact_norm_vectors(R, bound)) == expected


def test_fincke_pohst_rejects_indefinite_forms():
    with pytest.raises(DomainError):
        list(_fincke_pohst([[1, 0], [0, -1]], 5))
    with pytest.raises(DomainError):
        _lll_gram([[1, 2], [2, 1]])
    with pytest.raises(DomainError):
        _lll_gram([[0, 0], [0, 1]])
