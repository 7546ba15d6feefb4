"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default `pytest` run.
"""

import math
import random
import time
from fractions import Fraction

from cmreduce.numbase import kronecker, primes_up_to
from cmreduce.quadforms import (
    class_number_table,
    genus_decompositions,
    is_fundamental,
)
from cmreduce.quatalg import (
    construct_Bp,
    find_optimal_embedding,
    hs_norm_ratio,
    killing_check,
    local_norm_surjectivity,
    mat2_model,
    packet_discriminant,
    quaternion_data,
)
from cmreduce.reduction import (
    NU_INFTY_Y2,
    CharacterSpec,
    ScanConfig,
    character_average,
    exceptional_fields,
    fiber_multiset_crosscheck,
    joint_reduce,
    reduce_archimedean,
    scan,
)
from cmreduce.ssenum import enumerate_ss


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def _primes_in(lo, hi):
    return [p for p in primes_up_to(hi) if p >= lo]


def test_criterion_1_mass_formula():
    start = time.time()
    for p in _primes_in(5, 200):
        locus = enumerate_ss(p)
        assert locus.mass == Fraction(p - 1, 12), p
    elapsed = time.time() - start
    assert elapsed < 300
    _report(1, f"Eichler mass = (p-1)/12 exactly for all 5 <= p <= 200 ({elapsed:.0f}s)")


def test_criterion_2_deuring_cardinalities():
    start = time.time()
    for p in _primes_in(5, 100):
        locus = enumerate_ss(p)
        _, _, cls = quaternion_data(p)
        assert locus.size == cls.h, p
        assert sorted(pt.weight for pt in locus.points) == sorted(cls.weights), p
    elapsed = time.time() - start
    assert elapsed < 600
    _report(2, f"|SS_p| = |Cl(O)| and weight multisets agree for 5 <= p <= 100 ({elapsed:.0f}s)")


def test_criterion_3_cardinality_window():
    for p in _primes_in(5, 200):
        locus = enumerate_ss(p)
        assert abs(locus.size - p / 12) <= 2, p
    _report(3, "| |SS_p| - p/12 | <= 2 for all 5 <= p <= 200")


def test_criterion_4_fiber_crosscheck():
    start = time.time()
    cases = 0
    for p in (5, 11, 23):
        for n in range(3, 2001):
            D = -n
            if D % 4 not in (0, 1) or not is_fundamental(D):
                continue
            if kronecker(D, p) != -1:
                continue
            assert fiber_multiset_crosscheck(D, p), (D, p)
            cases += 1
    elapsed = time.time() - start
    assert cases >= 150
    assert elapsed < 1200
    _report(4, f"fiber multisets match H_D root multiplicities in {cases} cases, 0 failures ({elapsed:.0f}s)")


def test_criterion_5_simultaneous_lifting():
    smallest = None
    for n in range(3, 5001):
        D = -n
        if D % 4 not in (0, 1) or not is_fundamental(D):
            continue
        if kronecker(D, 11) != -1 or kronecker(D, 23) != -1:
            continue
        jd = joint_reduce(D, (11, 23))
        assert len(jd.product_measure) == 6
        if jd.surjective:
            smallest = n
            break
    assert smallest is not None, "no surjective D with |D| <= 5000"
    _report(5, f"joint reduction at (11, 23) hits all 6 tuples; smallest |D| = {smallest}")


def test_criterion_6_equidistribution_trend():
    start = time.time()

    def tvs(lo, hi):
        out = []
        for n in range(lo + 1, hi + 1):
            D = -n
            if D % 4 not in (0, 1) or not is_fundamental(D):
                continue
            if kronecker(D, 11) != -1 or kronecker(D, 23) != -1:
                continue
            out.append(float(joint_reduce(D, (11, 23)).tv))
        return out

    def median(vals):
        vals = sorted(vals)
        n = len(vals)
        return vals[n // 2] if n % 2 else (vals[n // 2 - 1] + vals[n // 2]) / 2

    small = tvs(100, 1000)
    large = tvs(10**4, 2 * 10**4)
    med_small, med_large = median(small), median(large)
    elapsed = time.time() - start
    assert med_large < med_small, (med_large, med_small)
    assert med_large <= 0.15, med_large
    assert elapsed < 1800
    _report(
        6,
        f"median TV {med_large:.4f} on (1e4, 2e4] < {med_small:.4f} on (1e2, 1e3] "
        f"over {len(large)}/{len(small)} discs ({elapsed:.0f}s)",
    )


def test_criterion_7_archimedean_box():
    table = class_number_table(10**5)
    cands = [(h, D) for D, h in table.items() if h <= 600 and is_fundamental(D)]
    cands.sort(key=lambda t: (-t[0], -t[1]))
    winners = cands[:10]
    assert len(winners) == 10
    for h, D in winners:
        _, stats = reduce_archimedean(D)
        assert stats.h == h
        assert abs(float(stats.mass_y_at_least) - NU_INFTY_Y2) <= 0.05, (D, stats)
    _report(7, f"mass(Im >= 2) within +-0.05 of 3/(2 pi) for the 10 largest-h discs (h up to {winners[0][0]})")


def test_criterion_8_killing_identity():
    rng = random.Random(8)
    algebras = [construct_Bp(p) for p in (5, 11, 13, 23)] + [mat2_model()]
    for B in algebras:
        checked = 0
        while checked < 100:
            x = (0, rng.randrange(-50, 51), rng.randrange(-50, 51), rng.randrange(-50, 51))
            lhs, rhs = killing_check(B, x)
            assert lhs == rhs
            checked += 1
    _report(8, "killing form = -8 Nr exactly on 100 random traceless elements per algebra")


def test_criterion_9_discriminant_normalization():
    rng = random.Random(9)
    pairs = []
    while len(pairs) < 50:
        p = rng.choice((5, 11, 13, 23))
        n = rng.randrange(3, 2000)
        D = -n
        if D % 4 not in (0, 1) or not is_fundamental(D) or kronecker(D, p) != -1:
            continue
        pairs.append((D, p))
    for D, p in pairs:
        _, _, cls = quaternion_data(p)
        emb = None
        for Or in cls.right_orders:
            try:
                emb = find_optimal_embedding(Or, D)
                break
            except Exception:
                continue
        assert emb is not None, (D, p)
        assert packet_discriminant(emb) == -D, (D, p)
    for D in (-4, -23, -84, -163, -231, -427, -555, -1051, -1555, -1999):
        assert abs(hs_norm_ratio(D) - math.sqrt(8)) < 1e-6
    _report(9, "packet discriminant = |D| on 50 random (D, p); HS ratio = sqrt(8) on 10 discs")


def test_criterion_10_local_norm_surjectivity():
    for p in (11, 23):
        _, order, _ = quaternion_data(p)
        for q in primes_up_to(20):
            k = 1
            while q**k <= 10**4:
                assert local_norm_surjectivity(order, q, k), (p, q, k)
                k += 1
    _report(10, "unit norms cover (Z/q^k)^x for maximal orders at p in {11, 23}, q <= 20, q^k <= 1e4")


def test_criterion_11_character_orthogonality():
    # averages must be exactly 0 or 1 (never intermediate); 0 is exactly
    # the orthogonality statement for a character nontrivial on Pic
    tested = zero_cases = 0
    for n in range(3, 3000):
        D = -n
        if D % 4 not in (0, 1):
            continue
        decs = [(d1, d2) for d1, d2 in genus_decompositions(D) if d1 != 1 and d2 != 1]
        if not decs:
            continue
        assert character_average(D, 1) == 1
        averages = [character_average(D, d1) for d1, _ in decs]
        for avg in averages:
            assert avg in (Fraction(0), Fraction(1)), (D, avg)
        if any(avg == 0 for avg in averages):
            zero_cases += 1
        tested += 1
        if tested >= 20 and zero_cases >= 20:
            break
    assert tested >= 20 and zero_cases >= 20
    assert exceptional_fields(CharacterSpec(factors=(1, 1))) == set()
    _report(11, f"exact 0/1 character averages over {tested} decomposable D "
                f"({zero_cases} with a nontrivial character); Eichler spec has no exceptional fields")


def test_criterion_12_scan_reproducibility():
    cfg = ScanConfig(primes=(11, 23), dmin=3, dmax=600, fundamental_only=True)
    blob1 = scan(cfg).to_json()
    blob2 = scan(cfg).to_json()
    assert blob1 == blob2
    csv1 = scan(cfg).to_csv()
    csv2 = scan(cfg).to_csv()
    assert csv1 == csv2
    _report(12, "scan output byte-identical across runs for a fixed config")
