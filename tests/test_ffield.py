import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmreduce.errors import CertificateError, DomainError
from cmreduce.ffield import (
    FfPoly,
    _split_power,
    fp2_construct,
    frobenius,
    quadratic_roots,
    roots_with_multiplicity,
)
from cmreduce.numbase import kronecker


def test_fp2_construct_minimal_nonresidue():
    assert fp2_construct(13).nu == 2
    assert fp2_construct(7).nu == 3
    assert fp2_construct(11).nu == 2
    for bad in (2, 3, 4, 9, 15):
        with pytest.raises(DomainError):
            fp2_construct(bad)


def test_frobenius():
    ctx = fp2_construct(13)
    for x in range(13):
        assert frobenius((x, 0), ctx) == (x, 0)
    assert frobenius((0, 1), ctx) == (0, 12)
    rng = random.Random(5)
    for _ in range(100):
        a = (rng.randrange(13), rng.randrange(13))
        assert frobenius(frobenius(a, ctx), ctx) == a
        # frobenius is the p-power map
        assert frobenius(a, ctx) == ctx.pow(a, 13)


def test_roots_examples():
    ctx5 = fp2_construct(5)
    x3 = FfPoly([(0, 0), (0, 0), (0, 0), (1, 0)], ctx5)  # X^3 over F_25
    assert roots_with_multiplicity(x3) == {(0, 0): 3}

    ctx7 = fp2_construct(7)
    x = FfPoly.x(ctx7)
    one = FfPoly([(1, 0)], ctx7)
    three = FfPoly([(3, 0)], ctx7)
    f = (x - one) * (x - one) * (x - three)
    assert roots_with_multiplicity(f) == {(1, 0): 2, (3, 0): 1}

    ctx13 = fp2_construct(13)
    f = FfPoly([(-2 % 13, 0), (0, 0), (1, 0)], ctx13)  # X^2 - 2 over F_169
    roots = roots_with_multiplicity(f)
    assert len(roots) == 2 and all(m == 1 for m in roots.values())
    rs = sorted(roots)
    assert rs[0] == ctx13.neg(rs[1])
    for r in rs:
        assert r[1] != 0  # not in F_13: 2 is a non-residue mod 13
        assert ctx13.mul(r, r) == (2, 0)


def test_root_multiplicity_sum_on_random_split_products():
    rng = random.Random(42)
    ctx = fp2_construct(11)
    for _ in range(200):
        nlin = rng.randrange(1, 6)
        f = FfPoly([(rng.randrange(1, 11), rng.randrange(11))], ctx)
        expected: dict = {}
        for _ in range(nlin):
            r = (rng.randrange(11), rng.randrange(11))
            f = f * FfPoly([ctx.neg(r), (1, 0)], ctx)
            expected[r] = expected.get(r, 0) + 1
        # optionally mix in an irreducible quadratic (no roots in F_{p^2}? a
        # quadratic over F_{p^2} always splits over F_{p^4}; over F_{p^2} it
        # splits iff its discriminant is a square there -- skip, keep split)
        got = roots_with_multiplicity(f)
        assert got == expected
        assert sum(got.values()) == f.degree


def test_roots_seeded_determinism():
    ctx = fp2_construct(11)
    x = FfPoly.x(ctx)
    f = x * x * x - FfPoly([(5, 3)], ctx)
    assert roots_with_multiplicity(f) == roots_with_multiplicity(f)


def test_zero_polynomial_rejected():
    ctx = fp2_construct(5)
    with pytest.raises(DomainError):
        roots_with_multiplicity(FfPoly([], ctx))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_field_axioms(p):
    ctx = fp2_construct(p)
    rng = random.Random(p)
    els = [(rng.randrange(p), rng.randrange(p)) for _ in range(30)]
    for _ in range(1000):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.mul(a, b) == ctx.mul(b, a)
    for a in els:
        if a != (0, 0):
            assert ctx.mul(a, ctx.inv(a)) == (1, 0)


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_fp2_mul_matches_polynomial_model(x1, y1, x2, y2):
    # (x1 + y1 t)(x2 + y2 t) with t^2 = nu, reduced mod 11
    ctx = fp2_construct(11)
    a, b = (x1 % 11, y1 % 11), (x2 % 11, y2 % 11)
    got = ctx.mul(a, b)
    assert got == ((x1 * x2 + ctx.nu * y1 * y2) % 11, (x1 * y2 + y1 * x2) % 11)


def test_poly_divmod_roundtrip():
    ctx = fp2_construct(7)
    rng = random.Random(1)
    for _ in range(100):
        f = FfPoly([(rng.randrange(7), rng.randrange(7)) for _ in range(6)], ctx)
        g = FfPoly([(rng.randrange(7), rng.randrange(7)) for _ in range(3)], ctx)
        if g.is_zero():
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree or r.is_zero()


def _oracle_mulmod(a, b, f, p, nu):
    """a * b mod the monic f on (x, y) coefficient lists, schoolbook."""
    n = len(f) - 1
    prod = [[0, 0] for _ in range(max(len(a) + len(b) - 1, n))]
    for i, (x1, y1) in enumerate(a):
        for j, (x2, y2) in enumerate(b):
            cell = prod[i + j]
            cell[0] += x1 * x2 + nu * y1 * y2
            cell[1] += x1 * y2 + y1 * x2
    for k in range(len(prod) - 1, n - 1, -1):
        cx, cy = prod[k][0] % p, prod[k][1] % p
        for i, (fx, fy) in enumerate(f):
            cell = prod[k - n + i]
            cell[0] -= cx * fx + nu * cy * fy
            cell[1] -= cx * fy + cy * fx
    return [(x % p, y % p) for x, y in prod[:n]]


def _oracle_pow_mod(base, e, f, p, nu):
    """base^e mod the monic f by right-to-left square-and-multiply."""
    result = _oracle_mulmod([(1, 0)], [(1, 0)], f, p, nu)
    b = _oracle_mulmod(base, [(1, 0)], f, p, nu)
    while e:
        if e & 1:
            result = _oracle_mulmod(result, b, f, p, nu)
        b = _oracle_mulmod(b, b, f, p, nu)
        e >>= 1
    return result


@pytest.mark.parametrize("p", [5, 11, 1009, 100003])
def test_pow_mod_matches_schoolbook_oracle(p):
    # degrees on both sides of the packed-product crossover, up to 120;
    # the exponents of root finding (p for X^p and X^q, (p - 1)/2 for the
    # split), the older (p^2 - 1)/2 and p^2, and random ones
    ctx = fp2_construct(p)
    rng = random.Random(p)
    cases = 0
    for n in (1, 2, 3, 7, 8, 9, 16, 33, 64, 120):
        exponents = [p * p, (p * p - 1) // 2, rng.randrange(2, p**4), p, (p - 1) // 2]
        if n == 120:
            exponents = [exponents[p % 3]]
        for e in exponents:
            f = [(rng.randrange(p), rng.randrange(p)) for _ in range(n)] + [(1, 0)]
            base = [(rng.randrange(p), rng.randrange(p)) for _ in range(rng.randrange(1, 2 * n + 2))]
            expected = FfPoly(_oracle_pow_mod(base, e, f, p, ctx.nu), ctx)
            got = FfPoly(base, ctx).pow_mod(e, FfPoly(f, ctx))
            assert got == expected, (p, n, e)
            # a non-monic modulus generates the same ideal: same remainder
            lead = (rng.randrange(1, p), rng.randrange(p))
            assert FfPoly(base, ctx).pow_mod(e, FfPoly([ctx.mul(lead, c) for c in f], ctx)) == expected
            cases += 1
    assert cases == 46


def test_roots_of_large_split_products_with_planted_multiplicities():
    p = 100003
    ctx = fp2_construct(p)
    rng = random.Random(2024)
    for degree in (20, 57, 101, 150):
        expected: dict = {(0, 0): 2, (rng.randrange(1, p), 0): 1}  # a root in F_p
        while sum(expected.values()) < degree:
            r = (rng.randrange(p), rng.randrange(1, p))
            room = degree - sum(expected.values())
            expected[r] = expected.get(r, 0) + min(rng.choice((1, 1, 1, 2, 3, 7)), room)
        f = FfPoly([(rng.randrange(1, p), rng.randrange(p))], ctx)
        for r, m in expected.items():
            for _ in range(m):
                f = f * FfPoly([ctx.neg(r), (1, 0)], ctx)
        assert f.degree == degree
        assert roots_with_multiplicity(f) == expected


@pytest.mark.parametrize("p", [5, 11, 1009, 100003])
def test_norm_split_exponent_matches_the_direct_power(p):
    # ((X + c)(X^p mod g + c^p))^((p-1)/2) = (X + c)^((q-1)/2) mod g for
    # any monic g: a -> a^p is a ring map of F_(p^2)[X]/(g)
    ctx = fp2_construct(p)
    rng = random.Random(7 * p)
    x = [(0, 0), (1, 0)]
    for n in (2, 3, 7, 8, 9, 33, 64):
        g = [(rng.randrange(p), rng.randrange(p)) for _ in range(n)] + [(1, 0)]
        xp = _oracle_pow_mod(x, p, g, p, ctx.nu)
        for _ in range(2):
            c = (rng.randrange(p), rng.randrange(p))
            shifted_xp = [ctx.add(xp[0], frobenius(c, ctx))] + xp[1:]
            norm = _oracle_mulmod([c, (1, 0)], shifted_xp, g, p, ctx.nu)
            direct = _oracle_pow_mod([c, (1, 0)], (p * p - 1) // 2, g, p, ctx.nu)
            assert _oracle_pow_mod(norm, (p - 1) // 2, g, p, ctx.nu) == direct, (p, n, c)
            got = _split_power(FfPoly(g, ctx), FfPoly(xp, ctx), c)
            assert got == FfPoly(direct, ctx), (p, n, c)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_quadratic_roots_exhaustive(p):
    ctx = fp2_construct(p)
    field = list(product(range(p), repeat=2))
    for r1, r2 in combinations_with_replacement(field, 2):
        b = ctx.neg(ctx.add(r1, r2))
        assert sorted(quadratic_roots(b, ctx.mul(r1, r2), ctx)) == sorted((r1, r2))
    # X^2 - d splits exactly when d is a square, i.e. its norm is a square mod p
    squares = {ctx.mul(a, a) for a in field}
    non_squares = [d for d in field if d not in squares]
    assert len(non_squares) == (p * p - 1) // 2
    for d in non_squares:
        assert kronecker((d[0] * d[0] - ctx.nu * d[1] * d[1]) % p, p) == -1
        with pytest.raises(CertificateError):
            quadratic_roots((0, 0), ctx.neg(d), ctx)


@pytest.mark.parametrize("p", [1009, 100003])
def test_roots_of_planted_class_polynomial_shape(p):
    # like H_D mod p: coefficients in F_p, roots in F_p and conjugate pairs
    # (r, r^p), with multiplicities, times X^3 - a with a not a cube mod p,
    # which is irreducible over F_p and so over F_(p^2)
    assert p % 3 == 1
    ctx = fp2_construct(p)
    rng = random.Random(p + 1)
    expected: dict = {}
    for _ in range(4):
        expected[(rng.randrange(p), 0)] = rng.choice((1, 1, 2))
    for _ in range(15):
        r, m = (rng.randrange(p), rng.randrange(1, p)), rng.choice((1, 1, 1, 2, 3))
        expected[r] = expected[frobenius(r, ctx)] = m
    a = next(a for a in range(2, p) if pow(a, (p - 1) // 3, p) != 1)
    f = FfPoly([ctx.neg((a, 0)), (0, 0), (0, 0), (1, 0)], ctx)
    for r, m in expected.items():
        for _ in range(m):
            f = f * FfPoly([ctx.neg(r), (1, 0)], ctx)
    assert all(y == 0 for _, y in f.coeffs)
    assert roots_with_multiplicity(f) == expected


def test_serialize_roundtrip():
    ctx = fp2_construct(23)
    s = ctx.serialize((7, 19))
    assert s == "7+19*t"
