import itertools
import json
import time
from fractions import Fraction

import pytest

from cmreduce import ssenum
from cmreduce.errors import CertificateError, DomainError
from cmreduce.classpoly import classpoly_mod, hilbert_class_poly
from cmreduce.ffield import FfPoly, fp2_construct, roots_with_multiplicity
from cmreduce.numbase import kronecker, primes_up_to
from cmreduce.ssenum import enumerate_ss, is_supersingular_j, weierstrass_from_j


def test_is_supersingular_examples():
    assert is_supersingular_j(0, 23)  # 23 = 2 mod 3
    assert is_supersingular_j(1728 % 23, 23)  # 23 = 3 mod 4
    assert not is_supersingular_j(1, 13)
    assert is_supersingular_j(5, 13)
    with pytest.raises(DomainError):
        is_supersingular_j(0, 3)


def test_is_supersingular_reads_j_mod_p():
    # an unreduced pair names the same j as its reduction, also at the
    # special values 0 and 1728, whose models differ from the general one;
    # j = 0 is ordinary at 13 = 1 mod 3, and so is (13, 0)
    assert not is_supersingular_j((13, 0), 13)
    for p in primes_up_to(199)[2:]:
        for j in ((0, 0), (1, 2), (1728 % p, 0), (p - 1, p - 1)):
            reduced = is_supersingular_j(j, p)
            assert is_supersingular_j((j[0] + p, j[1]), p) == reduced, (p, j)
            assert is_supersingular_j((j[0], j[1] + 3 * p), p) == reduced, (p, j)
        assert is_supersingular_j((1728, 0), p) == is_supersingular_j((1728 % p, 0), p), p


def test_is_supersingular_matches_naive_exhaustive_power():
    # oracle: literally expand (x^3+Ax+B)^((p-1)/2) and read off x^(p-1)
    for p in (5, 7, 11, 13):
        ctx = fp2_construct(p)
        m = (p - 1) // 2
        for j in itertools.product(range(p), repeat=2):
            A, B = weierstrass_from_j(j, ctx)
            poly = {0: (1, 0)}
            base = {3: (1, 0), 1: A, 0: B}
            for _ in range(m):
                nxt: dict = {}
                for d1, c1 in poly.items():
                    for d2, c2 in base.items():
                        key = d1 + d2
                        prod = ctx.mul(c1, c2)
                        nxt[key] = ctx.add(nxt.get(key, (0, 0)), prod)
                poly = nxt
            coeff = poly.get(p - 1, (0, 0))
            assert (coeff == (0, 0)) == is_supersingular_j(j, p), (p, j)


def test_enumerate_ss_examples():
    l13 = enumerate_ss(13)
    assert [(pt.j, pt.weight) for pt in l13.points] == [((5, 0), 1)]
    assert l13.mass == Fraction(1)

    l11 = enumerate_ss(11)
    assert [(pt.j, pt.weight) for pt in l11.points] == [((0, 0), 3), ((1, 0), 2)]
    assert l11.mass == Fraction(5, 6)

    l23 = enumerate_ss(23)
    assert [(pt.j, pt.weight) for pt in l23.points] == [((0, 0), 3), ((3, 0), 2), ((19, 0), 1)]
    assert l23.mass == Fraction(11, 6)


def test_mass_formula_small_primes():
    for p in primes_up_to(60):
        if p < 5:
            continue
        locus = enumerate_ss(p)
        assert locus.mass == Fraction(p - 1, 12)
        assert abs(locus.size - p / 12) <= 2


def test_frobenius_stability():
    for p in (13, 23, 37, 53):
        locus = enumerate_ss(p)
        js = {pt.j for pt in locus.points}
        assert {locus.ctx.pow(j, p) for j in js} == js


def test_weierstrass_models_nonsingular():
    ctx = fp2_construct(13)
    for j in itertools.product(range(13), repeat=2):
        A, B = weierstrass_from_j(j, ctx)
        disc = ctx.add(
            ctx.mul(ctx.el(4), ctx.pow(A, 3)), ctx.mul(ctx.el(27), ctx.mul(B, B))
        )
        assert disc != (0, 0)
        # recompute j from (A, B): j = 1728 * 4A^3 / (4A^3 + 27B^2)
        num = ctx.mul(ctx.el(4 * 1728), ctx.pow(A, 3))
        assert ctx.mul(num, ctx.pow(disc, 13 * 13 - 2)) == j


def test_walk_starts_in_f_p():
    # the start discriminant is inert at p with h(D) odd, so Frobenius fixes
    # a root of H_D mod p and the start lies in F_p
    for p in primes_up_to(20000):
        if p < 5:
            continue
        D = ssenum._start_discriminant(p)
        assert kronecker(D, p) == -1, p
        assert hilbert_class_poly(D).degree % 2 == 1, (p, D)
        assert ssenum._start_j(p, fp2_construct(p))[1] == 0, p


def test_start_without_a_root_in_f_p_raises(monkeypatch):
    # the least |D| inert at p, whatever its class number: at 1873 it is
    # -15 (h = 2), whose roots mod p are one conjugate pair outside F_p
    def least_inert(p):
        D = -3
        while D % 4 not in (0, 1) or kronecker(D, p) != -1:
            D -= 1
        return D

    assert least_inert(1873) == -15
    monkeypatch.setattr(ssenum, "_start_discriminant", least_inert)
    with pytest.raises(CertificateError, match="no root in F_1873"):
        ssenum._start_j(1873, fp2_construct(1873))


def test_json_output():
    locus = enumerate_ss(23)
    data = json.loads(locus.to_json())
    assert data["p"] == 23
    assert data["mass"] == "11/6"
    assert data["points"][0] == {"j": "0+0*t", "w": 3}


def test_scan_speed_medium_prime():
    start = time.time()
    locus = enumerate_ss(199)
    elapsed = time.time() - start
    assert locus.mass == Fraction(198, 12)
    assert elapsed < 30


def test_walk_matches_hasse_scan():
    # oracle: the Hasse test on every j in F_{p^2}, independent of the walk
    for p in primes_up_to(200):
        if p < 5:
            continue
        scan = [j for j in itertools.product(range(p), repeat=2) if is_supersingular_j(j, p)]
        assert [pt.j for pt in enumerate_ss(p).points] == scan, p


def test_roots_of_class_polynomials_at_inert_primes_are_supersingular():
    # Deuring: for p inert in the order of discriminant D, H_D mod p splits
    # over F_(p^2) and every root is a supersingular j
    for p in primes_up_to(200):
        if p < 5:
            continue
        points = {pt.j for pt in enumerate_ss(p).points}
        ctx = fp2_construct(p)
        for d in range(3, 301):
            if -d % 4 not in (0, 1) or kronecker(-d, p) != -1:
                continue
            H = hilbert_class_poly(-d)
            roots = roots_with_multiplicity(FfPoly(classpoly_mod(H, p), ctx))
            assert set(roots) <= points, (p, -d)
            assert sum(roots.values()) == H.degree, (p, -d)


def _phi2(x, y):
    return sum(c * x**a * y**b for b, row in enumerate(ssenum._PHI2) for a, c in enumerate(row))


def test_phi2_coefficients():
    # j(tau), j(2 tau) at tau = i, rho, (1 + sqrt(-7))/2, and sqrt(-2) as a
    # 2-endomorphism of the curve with j = 8000
    for x, y in ((1728, 287496), (0, 54000), (-3375, 16581375), (8000, 8000)):
        assert _phi2(x, y) == 0 == _phi2(y, x)
    assert _phi2(1, 2) != 0


def test_walk_certifies_its_start(monkeypatch):
    assert not is_supersingular_j(1, 13)
    monkeypatch.setattr(ssenum, "_start_j", lambda p, ctx: (1, 0))
    with pytest.raises(CertificateError, match="not supersingular"):
        enumerate_ss.__wrapped__(13)


def test_walk_certifies_its_mass(monkeypatch):
    # a walk that reaches only its start misses mass on every p with |SS_p| > 1
    monkeypatch.setattr(ssenum, "_phi2_neighbours", lambda j, ctx, parent: [])
    with pytest.raises(CertificateError, match="mass formula"):
        enumerate_ss.__wrapped__(23)
