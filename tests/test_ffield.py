import inspect
import random
import sys
import types
from itertools import combinations_with_replacement, product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmreduce import ffield
from cmreduce.classpoly import classpoly_mod, hilbert_class_poly
from cmreduce.errors import CertificateError, DomainError
from cmreduce.ffield import (
    FfPoly,
    fp2_construct,
    quadratic_roots,
    roots_with_multiplicity,
)
from cmreduce.numbase import kronecker


# -- polynomials over F_p built in the test: integer lists, lowest first ------


def _mul(a, b, p):
    """The product of a and b over F_p, schoolbook."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _product(factors, p, lead=1):
    out = [lead % p]
    for f in factors:
        out = _mul(out, f, p)
    return out


def _pair(r, ctx):
    """(X - r)(X - r^p), multiplied out over F_(p^2) with r^p by powering;
    its coefficients lie in F_p."""
    s = ctx.pow(r, ctx.p)
    cs = [ctx.mul(r, s), ctx.sub((0, 0), ctx.add(r, s)), (1, 0)]
    assert all(y == 0 for _, y in cs)
    return [x for x, _ in cs]


def _planted(roots, ctx, lead=1):
    """lead times the product of (X - r)^m over roots = {r: m}, which must
    hold r^p with r's multiplicity for every r outside F_p."""
    p = ctx.p
    factors = []
    for r, m in roots.items():
        if r[1] == 0:
            factors += [[-r[0] % p, 1]] * m
        elif 2 * r[1] < p:
            assert roots[ctx.pow(r, p)] == m
            factors += [_pair(r, ctx)] * m
    return _product(factors, p, lead)


def test_fp2_construct_minimal_nonresidue():
    assert fp2_construct(13).nu == 2
    assert fp2_construct(7).nu == 3
    assert fp2_construct(11).nu == 2
    for bad in (2, 3, 4, 9, 15):
        with pytest.raises(DomainError):
            fp2_construct(bad)


def test_frobenius():
    # the p-power map sends x + y t to x - y t, since t^p = -t when nu is a
    # non-residue; root finding counts r and r^p by one deflation with
    # (X - r)(X - r^p) = X^2 - 2x X + x^2 - nu y^2
    ctx = fp2_construct(13)
    for x in range(13):
        assert ctx.pow((x, 0), 13) == (x, 0)
    assert ctx.pow((0, 1), 13) == (0, 12)
    rng = random.Random(5)
    for _ in range(100):
        a = (rng.randrange(13), rng.randrange(13))
        assert ctx.pow(a, 13) == (a[0], -a[1] % 13)
        assert ctx.pow(ctx.pow(a, 13), 13) == a
        x, y = a
        assert _pair(a, ctx) == [(x * x - ctx.nu * y * y) % 13, -2 * x % 13, 1]


def test_roots_examples():
    ctx5 = fp2_construct(5)
    x3 = FfPoly([0, 0, 0, 1], ctx5)  # X^3 over F_5
    assert roots_with_multiplicity(x3) == {(0, 0): 3}

    ctx7 = fp2_construct(7)
    f = FfPoly(_product([[-1, 1], [-1, 1], [-3, 1]], 7), ctx7)
    assert roots_with_multiplicity(f) == {(1, 0): 2, (3, 0): 1}

    ctx13 = fp2_construct(13)
    f = FfPoly([-2, 0, 1], ctx13)  # X^2 - 2 over F_13
    roots = roots_with_multiplicity(f)
    assert len(roots) == 2 and all(m == 1 for m in roots.values())
    rs = sorted(roots)
    assert rs[0] == ctx13.sub((0, 0), rs[1])
    for r in rs:
        assert r[1] != 0  # not in F_13: 2 is a non-residue mod 13
        assert ctx13.mul(r, r) == (2, 0)


def test_root_multiplicity_sum_on_random_split_products():
    # roots in F_p and conjugate pairs (r, r^p), each with a multiplicity,
    # under a random nonzero lead
    rng = random.Random(42)
    ctx = fp2_construct(11)
    for _ in range(200):
        expected: dict = {}
        for _ in range(rng.randrange(0, 4)):
            r = (rng.randrange(11), 0)
            expected[r] = expected.get(r, 0) + 1
        for _ in range(rng.randrange(0, 3)):
            r = (rng.randrange(11), rng.randrange(1, 11))
            expected[r] = expected[ctx.pow(r, 11)] = expected.get(r, 0) + 1
        f = FfPoly(_planted(expected, ctx, rng.randrange(1, 11)), ctx)
        got = roots_with_multiplicity(f)
        assert got == expected
        assert sum(got.values()) == len(f.coeffs) - 1


def test_roots_seeded_determinism():
    ctx = fp2_construct(11)
    f = FfPoly([-5, 0, 0, 1], ctx)  # X^3 - 5
    assert roots_with_multiplicity(f) == roots_with_multiplicity(f)


def test_zero_polynomial_rejected():
    ctx = fp2_construct(5)
    with pytest.raises(DomainError):
        roots_with_multiplicity(FfPoly([], ctx))


def test_coefficients_outside_f_p_rejected():
    ctx = fp2_construct(11)
    # an element of F_(p^2) with zero t-part is a coefficient in F_p
    assert FfPoly([(3, 0), (12, 0), 22, (0, 11), 0], ctx).coeffs == [3, 1]
    with pytest.raises(DomainError):
        FfPoly([(0, 0), (1, 1)], ctx)
    with pytest.raises(DomainError):
        FfPoly([1, (2, 3), (1, 0)], ctx)


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
            # the multiplicative group has order p^2 - 1
            assert ctx.mul(a, ctx.pow(a, p * p - 2)) == (1, 0)


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_fp2_mul_matches_polynomial_model(x1, y1, x2, y2):
    # (x1 + y1 t)(x2 + y2 t) with t^2 = nu, reduced mod 11
    ctx = fp2_construct(11)
    a, b = (x1 % 11, y1 % 11), (x2 % 11, y2 % 11)
    got = ctx.mul(a, b)
    assert got == ((x1 * x2 + ctx.nu * y1 * y2) % 11, (x1 * y2 + y1 * x2) % 11)


def test_poly_divmod_roundtrip():
    # the F_p[X] division root finding uses, on integer coefficient lists
    p = 7
    rng = random.Random(1)
    for _ in range(100):
        f = [rng.randrange(p) for _ in range(6)]
        g = FfPoly([rng.randrange(p) for _ in range(3)], fp2_construct(p)).coeffs
        if not g:
            continue
        q, r = ffield._fp_divmod(f, g, p)
        assert len(r) < len(g) and (not r or r[-1] != 0)
        assert [(u + v) % p for u, v in zip_longest(_mul(q, g, p), r, fillvalue=0)] == f


def _oracle_divmod(a, b, p):
    """Quotient and remainder of a (coefficients in any range) by b != 0 on
    integer coefficient lists over F_p, one list operation per quotient
    coefficient."""
    db = len(b) - 1
    rem = list(a)
    if len(rem) <= db:
        quo = []
    else:
        inv = pow(b[-1], -1, p)
        low = b[:db]
        quo = [0] * (len(rem) - db)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k] % p * inv % p
            if c:
                quo[k - db] = c
                rem[k - db : k] = [u - c * v for u, v in zip(rem[k - db : k], low)]
        del rem[db:]
    return quo, ffield._trim([u % p for u in rem])


def _oracle_gcd(a, b, p):
    """The monic gcd of a and b over F_p by Euclid on the list division."""
    while b:
        a, b = b, _oracle_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _ones_times(b, q, p):
    """b (1 + X + ... + X^(q-1)) over F_p, by prefix sums of b."""
    prefix = [0]
    for c in b:
        prefix.append(prefix[-1] + c)
    return [(prefix[min(i, len(b) - 1) + 1] - prefix[max(0, i - q + 1)]) % p for i in range(len(b) + q - 1)]


KERNEL_PRIMES = (5, 1013, 100003, 2**31 - 1)
KERNEL_DEGREES = (1, 2, 3, 79, 195)


def _check_kernel(module, primes):
    """`module`'s packed _fp_divmod and _fp_gcd against the list oracle at
    the primes, for divisors of KERNEL_DEGREES and dividends up to twice
    that degree."""
    for p in primes:
        rng = random.Random(p)
        for db in KERNEL_DEGREES:
            monic = [rng.randrange(p) for _ in range(db)] + [1]
            cases = [
                # every coefficient at p - 1, the divisor's lead too
                ([p - 1] * (2 * db + 1), [p - 1] * (db + 1)),
                # a divisor that is not monic
                ([rng.randrange(p) for _ in range(rng.randrange(db, 2 * db + 1))], monic[:-1] + [rng.randrange(2, p)]),
                # unreduced products, as _fp_mul leaves them, and negative
                # coefficients, as a difference before its reduction
                (ffield._fp_mul(monic, [rng.randrange(p) for _ in range(db + 1)]), monic),
                ([rng.randrange(-p * p, p * p) for _ in range(2 * db + 1)], monic),
            ]
            # an exact division, and a remainder whose top three
            # coefficients vanish mod p (its degree is at most db - 4)
            quo = [rng.randrange(p) for _ in range(db)] + [1]
            rem = [rng.randrange(p) for _ in range(max(db - 3, 0))]
            exact = [c % p for c in ffield._fp_mul(monic, quo)]
            cases.append((exact, monic))
            cases.append(([u + v for u, v in zip_longest(exact, rem, fillvalue=0)], monic))
            for a, b in cases:
                assert module._fp_divmod(a, b, p) == _oracle_divmod(a, b, p), (p, db)
                a = ffield._trim([u % p for u in a])
                b = ffield._trim([u % p for u in b])
                assert module._fp_gcd(a, b, p) == _oracle_gcd(a, b, p), (p, db)
            # a common factor of degree db, and Euclid's first remainder with
            # its top three slots 0 mod p
            h = [rng.randrange(p) for _ in range(db)] + [rng.randrange(1, p)]
            u, v = ([rng.randrange(p) for _ in range(n)] + [1] for n in (db, 1))
            a, b = ([c % p for c in ffield._fp_mul(h, w)] for w in (u, v))
            g = module._fp_gcd(a, b, p)
            assert g == _oracle_gcd(a, b, p) and len(g) > db, (p, db)
            if db >= 4:
                top = [rng.randrange(p) for _ in range(db - 4)] + [1]
                b = monic
                a = ffield._trim([(x + y) % p for x, y in zip_longest(exact, top, fillvalue=0)])
                assert module._fp_gcd(a, b, p) == _oracle_gcd(a, b, p), (p, db)
        # the slots at their bound: every quotient coefficient 1 against low
        # slots p - 1, so each step adds (p - 1)^2 to min(q, db) slots; every
        # quotient length q from 1 to db + 1, whatever the slot width
        for db in (3, 79, 195):
            b = [p - 1] * db + [1]
            for q in range(1, db + 2):
                assert module._fp_divmod(_ones_times(b, q, p), b, p) == ([1] * q, []), (p, db, q)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_packed_division_and_gcd_match_the_list_oracle(p):
    _check_kernel(ffield, (p,))


def _oracle_mulmod(a, b, f, p):
    """a * b mod the monic f on integer coefficient lists over F_p, schoolbook."""
    n = len(f) - 1
    prod = [0] * max(len(a) + len(b) - 1, n)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k] % p
        for i, fi in enumerate(f):
            prod[k - n + i] -= c * fi
    return [x % p for x in prod[:n]]


def _oracle_pow_mod(base, e, f, p):
    """base^e mod the monic f over F_p by right-to-left square-and-multiply."""
    result = _oracle_mulmod([1], [1], f, p)
    b = _oracle_mulmod(base, [1], f, p)
    while e:
        if e & 1:
            result = _oracle_mulmod(result, b, f, p)
        b = _oracle_mulmod(b, b, f, p)
        e >>= 1
    return result


@pytest.mark.parametrize("p", [5, 11, 1009, 100003])
def test_pow_mod_matches_schoolbook_oracle(p):
    # F_p[X] powering modulo polynomials of degree 1 to 120: degree 1 takes
    # the builtin pow at the root, degree 2 on the packed products; the
    # exponents of root finding (p for X^p and X^(p^2), (p - 1)/2 for the
    # split), p^2, (p^2 - 1)/2 and random ones
    ctx = fp2_construct(p)
    rng = random.Random(p)
    cases = 0
    for n in (1, 2, 3, 7, 8, 9, 16, 33, 64, 120):
        exponents = [p * p, (p * p - 1) // 2, rng.randrange(2, p**4), p, (p - 1) // 2]
        if n == 120:
            exponents = [exponents[p % 3]]
        for e in exponents:
            f = [rng.randrange(p) for _ in range(n)] + [1]
            base = [rng.randrange(p) for _ in range(rng.randrange(1, 2 * n + 2))]
            expected = FfPoly(_oracle_pow_mod(base, e, f, p), ctx).coeffs
            got = FfPoly(base, ctx).pow_mod(e, FfPoly(f, ctx)).coeffs
            assert got == expected, (p, n, e)
            # a non-monic modulus generates the same ideal: same remainder
            lead = rng.randrange(1, p)
            assert FfPoly(base, ctx).pow_mod(e, FfPoly([lead * c for c in f], ctx)).coeffs == expected
            cases += 1
    assert cases == 46
    # everything is 0 modulo a constant
    assert FfPoly([3, 1], ctx).pow_mod(5, FfPoly([4], ctx)).coeffs == []


@pytest.mark.parametrize("p", [5, 1009, 100003])
def test_pow_mod_modulo_constants_and_linear_polynomials(p):
    # below degree 2 no modulus is packed: everything is 0 modulo a
    # constant, and modulo X - r the power is the constant base(r)^e, also
    # for r = 0, for base(r) = 0 and for e = 0
    ctx = fp2_construct(p)
    rng = random.Random(3 * p)
    r = rng.randrange(1, p)
    moduli = [[1], [rng.randrange(p), 1], [0, 1], [-r % p, 1]]
    bases = [[], [rng.randrange(p)], [rng.randrange(p) for _ in range(5)], _mul([-r % p, 1], [2, 7, 1], p)]
    for f, base in product(moduli, bases):
        for e in (0, 1, 2, (p - 1) // 2, p, p * p, rng.randrange(p**4)):
            expected = FfPoly(_oracle_pow_mod(base, e, f, p), ctx).coeffs
            lead = rng.randrange(1, p)
            got = FfPoly(base, ctx).pow_mod(e, FfPoly([lead * c for c in f], ctx)).coeffs
            assert got == expected, (f, base, e)


def _slots(packed, v, count):
    """Slots 0 .. count - 1 of the packed integer v."""
    w = packed.width
    raw = v.to_bytes(w * count, "little")
    return [int.from_bytes(raw[i : i + w], "little") for i in range(0, w * count, w)]


class _LargestSlots(ffield._PackedModulus):
    """A packed modulus whose reduction returns every slot at the largest
    value it may take: x mod p + p in [p, 2p), congruent to x."""

    def _reduce(self, v):
        p = self.p
        return self.pack([x % p + p if x else 0 for x in _slots(self, v, 2 * self.n)])


@pytest.mark.parametrize("p", [5, 1013, 100003, 2**31 - 1])
@pytest.mark.parametrize("n", [2, 3, 8, 9, 79, 195])
def test_packed_product_matches_the_schoolbook_product(n, p):
    # mulmod takes and returns slots in [0, 2p), so the worst case, every
    # slot of a and b at 2p - 1 and every slot of f at p - 1, fills them
    # the most, all the more when each reduction leaves its slots at their
    # largest (_LargestSlots); the slots returned are reduced mod p only here
    rng = random.Random(n * p)
    cases = [([2 * p - 1] * n, [2 * p - 1] * n, [p - 1] * n)]
    cases += [[[rng.randrange(2 * p) for _ in range(n)] for _ in range(2)] + [[rng.randrange(p) for _ in range(n)]] for _ in range(3)]
    for a, b, f_low in cases:
        f = f_low + [1]
        expected = _oracle_divmod(ffield._fp_mul(a, b), f, p)[1]
        for packed in (ffield._PackedModulus(f, p), _LargestSlots(f, p)):
            got = _slots(packed, packed.mulmod(packed.pack(a), packed.pack(b)), n)
            assert all(0 <= u < 2 * p for u in got)
            assert ffield._trim([u % p for u in got]) == expected


def test_slot_reduction_at_the_slot_bound():
    # the 64 largest slots below the bound 4 n p^2 (at (2, 13), k one bit
    # short maps 1339 outside [0, 2p)), and random ones, come back in
    # [0, 2p) and congruent mod p
    for n, p in ((2, 5), (2, 13), (3, 1013), (79, 100003), (8, 2**31 - 1)):
        packed = ffield._PackedModulus([0] * n + [1], p)
        top = 4 * n * p * p
        rng = random.Random(p)
        values = [top - i for i in range(1, 65)] + [0, p, 2 * p - 1] + [rng.randrange(top) for _ in range(64)]
        for i in range(0, len(values), 2 * n - 1):
            slots = values[i : i + 2 * n - 1]
            got = _slots(packed, packed._reduce(packed.pack(slots)), len(slots))
            assert all(0 <= u < 2 * p for u in got), (n, p, slots)
            assert [u % p for u in got] == [x % p for x in slots], (n, p, slots)


@pytest.mark.parametrize("p", [5, 11, 1009, 100003])
def test_norm_split_exponent_matches_the_direct_power(p):
    # ((X + c)(X^p mod g + c))^((p-1)/2) = (X + c)^((p^2-1)/2) mod g for any
    # monic g in F_p[X] and c in F_p: a -> a^p is a ring map of F_p[X]/(g)
    # that fixes c, so (X + c)^(p+1) = (X + c)(X^p + c)
    ctx = fp2_construct(p)
    rng = random.Random(7 * p)
    x = [0, 1]
    for n in (2, 3, 7, 8, 9, 33, 64):
        g = [rng.randrange(p) for _ in range(n)] + [1]
        xp = _oracle_pow_mod(x, p, g, p)
        for _ in range(2):
            c = rng.randrange(p)
            norm = _oracle_mulmod([c, 1], [(xp[0] + c) % p] + xp[1:], g, p)
            direct = _oracle_pow_mod([c, 1], (p * p - 1) // 2, g, p)
            assert _oracle_pow_mod(norm, (p - 1) // 2, g, p) == direct, (p, n, c)
            # the norm as the split forms it, powered by pow_mod
            base = _mul([c, 1], [(xp[0] + c) % p] + xp[1:], p)
            got = FfPoly(base, ctx).pow_mod((p - 1) // 2, FfPoly(g, ctx)).coeffs
            assert got == FfPoly(direct, ctx).coeffs, (p, n, c)


def test_roots_of_large_split_products_with_planted_multiplicities():
    p = 100003
    ctx = fp2_construct(p)
    rng = random.Random(2024)
    for degree in (20, 57, 101, 150):
        expected: dict = {(0, 0): 2, (rng.randrange(1, p), 0): 1}  # roots in F_p
        while sum(expected.values()) < degree - 1:
            r = (rng.randrange(p), rng.randrange(1, p))
            room = (degree - sum(expected.values())) // 2
            expected[r] = expected[ctx.pow(r, p)] = min(rng.choice((1, 1, 1, 2, 3, 7)), room)
        if sum(expected.values()) < degree:
            expected[(0, 0)] += 1
        f = FfPoly(_planted(expected, ctx, rng.randrange(1, p)), ctx)
        assert len(f.coeffs) - 1 == degree
        assert roots_with_multiplicity(f) == expected


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_quadratic_roots_exhaustive(p):
    ctx = fp2_construct(p)
    field = list(product(range(p), repeat=2))
    for r1, r2 in combinations_with_replacement(field, 2):
        b = ctx.sub((0, 0), ctx.add(r1, r2))
        assert sorted(quadratic_roots(b, ctx.mul(r1, r2), ctx)) == sorted((r1, r2))
    # X^2 - d splits exactly when d is a square, i.e. its norm is a square mod p
    squares = {ctx.mul(a, a) for a in field}
    non_squares = [d for d in field if d not in squares]
    assert len(non_squares) == (p * p - 1) // 2
    for d in non_squares:
        assert kronecker((d[0] * d[0] - ctx.nu * d[1] * d[1]) % p, p) == -1
        with pytest.raises(CertificateError):
            quadratic_roots((0, 0), ctx.sub((0, 0), d), ctx)


# square roots mod p run Tonelli-Shanks on the 2-part 2^s of p - 1: s = 1
# for p = 3 mod 4 (7, 11), s = 2 for p = 5 mod 8 (5, 13) and s >= 3 for
# p = 1 mod 8 (41 and 73 with s = 3, 17 and 113 with s = 4, 97 with s = 5)
SQRT_PRIMES = [5, 7, 11, 13, 17, 41, 73, 97, 113]


@pytest.mark.parametrize("p", SQRT_PRIMES)
def test_fp2_sqrt_exhaustive(p):
    # a root comes back exactly for the squares a^((p^2-1)/2) in {0, 1},
    # and CertificateError for every other element of F_(p^2)
    ctx = fp2_construct(p)
    for a in product(range(p), repeat=2):
        if ctx.pow(a, (p * p - 1) // 2) in ((0, 0), (1, 0)):
            r = ffield._fp2_sqrt(a, ctx)
            assert ctx.mul(r, r) == a, (p, a, r)
        else:
            with pytest.raises(CertificateError):
                ffield._fp2_sqrt(a, ctx)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 41])
def test_fp_quadratic_roots_match_quadratic_roots(p):
    # every monic quadratic over F_p splits in F_(p^2): quadratic_roots
    # against the roots found by trying every element, a double root twice
    ctx = fp2_construct(p)
    field = list(product(range(p), repeat=2))
    for b, c in product(range(p), repeat=2):
        found = [r for r in field if ctx.add(ctx.mul(r, ctx.add(r, (b, 0))), (c, 0)) == (0, 0)]
        expected = found if len(found) == 2 else found * 2
        assert sorted(quadratic_roots((b, 0), (c, 0), ctx)) == expected, (b, c)


def test_a_wrong_square_root_mod_p_raises(monkeypatch):
    # a square root mod p off by one fails the check r^2 = d, for d a
    # square mod p, for d in F_p not a square, and for d outside F_p, and
    # so does the root finding that meets it
    p = 41
    ctx = fp2_construct(p)
    honest = ffield._fp_sqrt
    monkeypatch.setattr(ffield, "_fp_sqrt", lambda a, p, nu: (honest(a, p, nu) + 1) % p)
    for d in ((4, 0), (ctx.nu, 0), ctx.mul((3, 5), (3, 5))):
        with pytest.raises(CertificateError):
            quadratic_roots((0, 0), ctx.sub((0, 0), d), ctx)
    with pytest.raises(CertificateError):
        roots_with_multiplicity(FfPoly(_product([[-1, 1], [-2, 1], [-ctx.nu % p, 0, 1]], p), ctx))


@pytest.mark.parametrize("p", [1009, 100003])
def test_roots_of_planted_class_polynomial_shape(p):
    # like H_D mod p: roots in F_p and conjugate pairs (r, r^p), with
    # multiplicities, times X^3 - a with a not a cube mod p, which is
    # irreducible over F_p and so over F_(p^2)
    assert p % 3 == 1
    ctx = fp2_construct(p)
    rng = random.Random(p + 1)
    expected: dict = {}
    for _ in range(4):
        expected[(rng.randrange(p), 0)] = rng.choice((1, 1, 2))
    for _ in range(15):
        r, m = (rng.randrange(p), rng.randrange(1, p)), rng.choice((1, 1, 1, 2, 3))
        expected[r] = expected[ctx.pow(r, p)] = m
    a = next(a for a in range(2, p) if pow(a, (p - 1) // 3, p) != 1)
    f = _mul(_planted(expected, ctx), [-a % p, 0, 0, 1], p)
    assert roots_with_multiplicity(FfPoly(f, ctx)) == expected


def test_serialize_roundtrip():
    ctx = fp2_construct(23)
    s = ctx.serialize((7, 19))
    assert s == "7+19*t"


def test_roots_reject_a_context_that_is_not_the_polynomials():
    # (X - 1)(X - (2 + 3t))(X - (2 - 3t)) over F_11, asked over F_(13^2)
    ctx11 = fp2_construct(11)
    f = FfPoly(_planted({(1, 0): 1, (2, 3): 1, (2, 8): 1}, ctx11), ctx11)
    assert roots_with_multiplicity(f, ctx11) == {(1, 0): 1, (2, 3): 1, (2, 8): 1}
    with pytest.raises(DomainError):
        roots_with_multiplicity(f, fp2_construct(13))


# -- the exhaustive oracle ---------------------------------------------------

ORACLE_PRIMES = (5, 7, 11, 13, 17)


def _oracle_roots(coeffs, p, nu):
    """{r: multiplicity} over F_(p^2) for (x, y) coefficients, lowest first:
    f evaluated at all p^2 elements, each root's multiplicity counted by
    dividing by X - r while the remainder is zero."""

    def mul(a, b):
        return (a[0] * b[0] + nu * a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p

    def divide(cs, r):
        """Quotient and remainder of cs by X - r, by Horner."""
        out, acc = [], (0, 0)
        for c in reversed(cs):
            rx, ry = mul(acc, r)
            acc = ((rx + c[0]) % p, (ry + c[1]) % p)
            out.append(acc)
        return out[-2::-1], out[-1]

    roots = {}
    for r in product(range(p), repeat=2):
        cs, m = list(coeffs), 0
        while len(cs) > 1:
            quo, rem = divide(cs, r)
            if rem != (0, 0):
                break
            cs, m = quo, m + 1
        if m:
            roots[r] = m
    return roots


def _oracle_cases(ctx):
    """Coefficient lists over F_p: H_D mod p for every D with |D| <= 500,
    every monic quadratic, and seeded products of linear factors and
    conjugate pairs (X - r)(X - r^p) with multiplicities, F_p-irreducible
    cubics and a non-monic lead."""
    p = ctx.p
    for d in range(3, 501):
        if -d % 4 in (0, 1):
            yield classpoly_mod(hilbert_class_poly(-d), p)
    for c, b in product(range(p), repeat=2):
        yield [c, b, 1]
    rng = random.Random(p)
    for _ in range(30):
        factors = [[rng.randrange(p), 1] for _ in range(rng.randrange(0, 5))]
        for _ in range(rng.randrange(0, 3)):
            r = (rng.randrange(p), rng.randrange(1, p))
            factors += [_pair(r, ctx)] * rng.choice((1, 1, 2, 3))
        for _ in range(rng.randrange(0, 2)):
            while True:
                cubic = [rng.randrange(p) for _ in range(3)] + [1]
                if all(sum(c * x**i for i, c in enumerate(cubic)) % p for x in range(p)):
                    break
            factors.append(cubic)
        yield _product(factors, p, rng.randrange(1, p))
    # products of 1 to 8 distinct quadratics irreducible over F_p, some of
    # them repeated: up to _TRACE_SPLIT_MAX of them split by their traces,
    # more by norm draws first
    irreducible = _irreducible_quadratics(p)
    for k in range(1, 9):
        chosen = rng.sample(irreducible, k)
        yield _product([f for f in chosen for _ in range(rng.choice((1, 1, 1, 2, 3)))], p, rng.randrange(1, p))
    # pairs with one trace, X^2 - sX + n1 and X^2 - sX + n2, alone and with a
    # third quadratic or a linear factor: the traces do not separate them
    for s in range(p):
        f1, f2, *_ = [f for f in irreducible if f[1] == -s % p]
        f3 = next(f for f in irreducible if f[1] != -s % p)
        yield _product([f1, f2], p)
        yield _product([f1, f2, f3, f2], p, rng.randrange(1, p))
        yield _product([f1, f2, [s, 1]], p)


def _irreducible_quadratics(p):
    """The monic X^2 + bX + c irreducible over F_p, as [c, b, 1]."""
    return [[c, b, 1] for b in range(p) for c in range(p) if kronecker(b * b - 4 * c, p) == -1]


def _check_refusals(module):
    """`module`'s trace split takes a product of quadratics with distinct
    traces apart, and refuses, with CertificateError, a node that is not
    one, and factors that do not multiply to the node."""
    p = 1009
    ctx = module.fp2_construct(p)
    f1, f2 = ([next(c for c in range(p) if kronecker(s * s - 4 * c, p) == -1), -s % p, 1] for s in (2, 4))

    def trace_and_norm(g):
        """T = X + X^p and N = X X^p modulo g."""
        xp = module.FfPoly([0, 1], ctx).pow_mod(p, module.FfPoly(g, ctx)).coeffs
        return module._fp_sub(xp, [0, -1], p), module._fp_divmod([0, *xp], g, p)[1]

    g = _mul(f1, f2, p)
    t, norm = trace_and_norm(g)
    assert sorted(module._trace_split(g, t, norm, ctx, random.Random(0))) == sorted([f1, f2])
    # T = X^p in place of X + X^p: X^p generates F_p[X]/g as X does, so its
    # square lies outside the span of 1 and X^p, and the solve refuses it
    # (with N = 1, which that span holds)
    xp = module._fp_sub(t, [0, 1], p)
    powers = [[1], xp, module._fp_divmod(_mul(xp, xp, p), g, p)[1]]
    try:
        module._trace_resolvent(powers, [1], p)
    except CertificateError:
        pass
    else:
        raise AssertionError("the resolvent took T = X^p")
    # a fault in the solve that moves phi: X^2 - sX + phi(s) is then not a
    # factor, and only the product check sees it
    honest = module._trace_resolvent

    def shifted(*args):
        resolvent, phi = honest(*args)
        return resolvent, [(phi[0] + 1) % p, *phi[1:]]

    module._trace_resolvent = shifted
    try:
        module._trace_split(g, t, norm, ctx, random.Random(0))
    except CertificateError as exc:
        assert "multiply" in str(exc), exc
    else:
        raise AssertionError("the trace split took factors whose product is not the node")
    finally:
        module._trace_resolvent = honest
    # f1 (X - 1)(X - 5): T is 2 modulo f1 and modulo X - 1, and 10 modulo
    # X - 5, so the resolvent (Y - 2)(Y - 10) is consistent, but N is the
    # norm f1[0] != 1 modulo f1 and 1 modulo X - 1, where T takes the same
    # value: no phi has phi(T) = N
    g = _product([f1, [p - 1, 1], [p - 5, 1]], p)
    try:
        module._trace_split(g, *trace_and_norm(g), ctx, random.Random(0))
    except CertificateError as exc:
        assert "X^(p+1)" in str(exc) or "multiply" in str(exc), exc
    else:
        raise AssertionError("the trace split took a node with linear factors")


def _check_roots(module):
    """`module`'s roots_with_multiplicity against the exhaustive oracle at
    ORACLE_PRIMES, then at p = 1009 and 100003 on planted roots: five in
    F_p, where c = -r, which splits a block of roots in F_p under the norm
    by chance, is too rare to hide a missing F_p-linear separation, and
    four conjugate pairs, two of them double.  Then _check_refusals."""
    _check_refusals(module)
    for p in ORACLE_PRIMES:
        ctx = module.fp2_construct(p)
        for coeffs in _oracle_cases(ctx):
            got = module.roots_with_multiplicity(module.FfPoly(coeffs, ctx), ctx)
            assert got == _oracle_roots([(c, 0) for c in coeffs], p, ctx.nu), (p, coeffs)
    for p in (1009, 100003):
        ctx = module.fp2_construct(p)
        expected = {(r, 0): 1 for r in range(1, 6)}
        expected.update({(r, s): 1 for r in range(1, 3) for s in (1, p - 1)})
        expected.update({(r, s): 2 for r in (3, 4) for s in (2, p - 2)})
        f = module.FfPoly(_planted(expected, ctx), ctx)
        assert module.roots_with_multiplicity(f, ctx) == expected, p


def test_roots_match_the_exhaustive_oracle():
    _check_roots(ffield)


def _mutant(old, new, monkeypatch):
    """cmreduce.ffield with `old` replaced by `new` in its source."""
    source = inspect.getsource(ffield)
    assert source.count(old) == 1
    module = types.ModuleType("cmreduce.ffield_mutant")
    module.__package__ = "cmreduce"
    # dataclass looks its class's module up in sys.modules
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), ffield.__file__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize(
    "old, new",
    [
        # no F_p-linear separation: the roots in F_p go through the norm split
        ("g_lin = _fp_gcd(g, _fp_sub(xp, x, p), p)", "g_lin = [1]"),
        # no norm: the quadratics split by (X + c)^((p-1)/2), which is not
        # +-1 modulo a quadratic irreducible over F_p
        ("base = [c, 1] if xp is None else", "base = [c, 1] if True else"),
        # r^p deflated a second time: it finds nothing left, so r and r^p
        # get multiplicity 1
        ("if out[r]:", "if False:"),
        # T = X^p without X: not constant modulo a factor, so the resolvent's
        # solve finds T^k outside the span of the lower powers
        ("t = _fp_sub(xp, [0, -1], p)  # X^p + X", "t = xp"),
        # the resolvent's consistency check removed: T = X^p gets a resolvent
        ("if any(row[k] for row in rows[k:]):", "if False:"),
        # the product check removed: a fault in the solve goes through
        ("if [u % p for u in product] != g:", "if False:"),
    ],
)
def test_planted_split_faults_fail_the_oracle_checks(old, new, monkeypatch):
    module = _mutant(old, new, monkeypatch)
    with pytest.raises((AssertionError, CertificateError, DomainError)):
        _check_roots(module)


@pytest.mark.parametrize(
    "old, new",
    [
        # a slot width one bit short of the bound's bit length
        ("self.k = bound.bit_length()", "self.k = bound.bit_length() - 1"),
        # the top slot left unmasked: it stays in every later top slot read
        ("            v ^= x << top\n", ""),
        # a degree scan that drops only one slot vanishing mod p
        ("while d >= 0 and (v >> bits * d & slot) % p == 0:", "if d >= 0 and (v >> bits * d & slot) % p == 0:"),
    ],
)
def test_planted_kernel_faults_fail_the_oracle_checks(old, new, monkeypatch):
    module = _mutant(old, new, monkeypatch)
    with pytest.raises((AssertionError, ValueError)):
        _check_kernel(module, KERNEL_PRIMES)


def test_trace_split_refuses_what_is_not_a_product_of_quadratics():
    _check_refusals(ffield)


def test_every_trace_split_size_meets_the_oracle(monkeypatch):
    # k quadratics with distinct traces, for every k the trace split takes
    # and one past it, at every oracle prime; the trace split sees every
    # node size it takes
    sizes = []
    honest = ffield._trace_split
    monkeypatch.setattr(ffield, "_trace_split", lambda g, *args: sizes.append(len(g) - 1) or honest(g, *args))
    for p in ORACLE_PRIMES:
        ctx = fp2_construct(p)
        one_per_trace = list({f[1]: f for f in _irreducible_quadratics(p)}.values())
        for k in range(1, ffield._TRACE_SPLIT_MAX + 2):
            f = _product(one_per_trace[:k], p)
            assert roots_with_multiplicity(FfPoly(f, ctx)) == _oracle_roots([(c, 0) for c in f], p, ctx.nu), (p, k)
    assert set(sizes) == {2 * k for k in range(2, ffield._TRACE_SPLIT_MAX + 1)}


@pytest.mark.parametrize("D", [-2351, -4391])
def test_packed_modulus_is_built_once_per_modulus(monkeypatch, D):
    # the two powers modulo F share one build, and so do a node's draws
    builds = []

    class Counting(ffield._PackedModulus):
        def __init__(self, f, p):
            builds.append(tuple(f))
            super().__init__(f, p)

    monkeypatch.setattr(ffield, "_PackedModulus", Counting)
    H = hilbert_class_poly(D)
    for p in (1009, 10007, 100003):
        builds.clear()
        ctx = fp2_construct(p)
        F = FfPoly(classpoly_mod(H, p), ctx)
        roots_with_multiplicity(F)
        assert builds.count(tuple(F.coeffs)) == 1, p
        assert len(builds) == len(set(builds)), p
