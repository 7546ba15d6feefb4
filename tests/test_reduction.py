import math
from collections import Counter

import pytest

from cmreduce import reduction
from cmreduce.errors import CertificateError, ConfigError, DomainError
from cmreduce.quadforms import compose, reduced_forms
from cmreduce.reduction import (
    NU_INFTY_Y2,
    CharacterSpec,
    ScanConfig,
    character_average,
    exceptional_fields,
    fiber_multiset_crosscheck,
    joint_reduce,
    reduce_archimedean,
    reduce_at_prime,
    scan,
)


def test_reduce_archimedean_examples():
    pts, stats = reduce_archimedean(-4)
    assert len(pts) == 1 and abs(pts[0].im - 1) < 1e-12
    assert stats.mass_y_at_least == 0
    pts, stats = reduce_archimedean(-23)
    assert stats.h == 3
    assert abs(stats.min_im - math.sqrt(23) / 4) < 1e-12
    assert abs(NU_INFTY_Y2 - 0.477464829276) < 1e-10


def test_reduce_at_prime_minus23_at_5():
    m = reduce_at_prime(-23, 5)
    assert set(m.keys()) == set(reduced_forms(-23))
    assert set(m.values()) == {0}  # single class at p = 5
    # fiber sizes partition h
    assert sum(Counter(m.values()).values()) == 3


def test_reduce_at_prime_principal_maps_to_base():
    # at p = 11 with D = -23 the principal form maps to the host class
    m = reduce_at_prime(-23, 11)
    assert len(m) == 3
    fibers = Counter(m.values())
    assert sum(fibers.values()) == 3


def test_reduce_at_prime_domain_errors():
    with pytest.raises(DomainError):
        reduce_at_prime(-23, 2)  # split
    with pytest.raises(DomainError):
        reduce_at_prime(-23, 23)  # ramified
    with pytest.raises(DomainError):
        reduce_at_prime(-23 * 25, 5)  # conductor clash


def test_joint_reduce_single_prime():
    jd = joint_reduce(-23, (5,))
    assert jd.tuple_counts == {(0,): 3}
    assert jd.tv == 0
    assert jd.surjective
    assert sum(jd.tuple_counts.values()) == jd.h == 3


def test_joint_reduce_empty_primes():
    jd = joint_reduce(-23, ())
    assert jd.tuple_counts == {(): 3}
    assert jd.tv == 0


def test_joint_reduce_forced_tv_zero():
    # every prime in {5, 7, 13} has a single ideal class
    for D in (-23, -47, -31 * 4):
        for primes in ((5,), (5, 13), (5, 7, 13)):
            if any(pytest_inert(D, p) != -1 for p in primes):
                continue
            jd = joint_reduce(D, primes)
            assert jd.tv == 0
            assert len(jd.product_measure) == 1


def pytest_inert(D, p):
    from cmreduce.numbase import kronecker

    return kronecker(D, p)


def test_joint_reduce_certifies_the_product_measure(monkeypatch):
    # a measure of total mass != 1 must fail loudly, also under python -O
    from cmreduce import reduction

    good = reduction._nu_weights
    monkeypatch.setattr(reduction, "_nu_weights", lambda p: [w * 2 for w in good(p)])
    with pytest.raises(CertificateError):
        joint_reduce(-71, (11,))


def test_marginal_consistency():
    D = -71  # inert at 11 and 23: check
    from cmreduce.numbase import kronecker

    assert kronecker(-71, 11) == -1 and kronecker(-71, 23) == -1
    jd = joint_reduce(D, (11, 23))
    m11 = reduce_at_prime(D, 11)
    m23 = reduce_at_prime(D, 23)
    forms = reduced_forms(D)
    marg1 = Counter(m11[f] for f in forms)
    marg2 = Counter(m23[f] for f in forms)
    got1: Counter = Counter()
    got2: Counter = Counter()
    for t, c in jd.tuple_counts.items():
        got1[t[0]] += c
        got2[t[1]] += c
    assert got1 == marg1 and got2 == marg2


def test_picard_equivariance_multiset():
    D = -71
    forms = reduced_forms(D)
    m = reduce_at_prime(D, 11)
    for g in forms[:2]:
        translated = Counter(m[compose(g, f, D)] for f in forms)
        assert translated == Counter(m.values())


def test_fiber_crosscheck_examples(monkeypatch):
    assert fiber_multiset_crosscheck(-23, 5)
    assert fiber_multiset_crosscheck(-4, 11)
    honest = reduction.reduce_at_prime

    def one_form_moved(D, p):
        # move the first form to a class of its own, which shifts one fiber
        m = honest(D, p)
        m[next(iter(m))] = max(m.values()) + 1
        return m

    monkeypatch.setattr(reduction, "reduce_at_prime", one_form_moved)
    assert not fiber_multiset_crosscheck(-23, 5)


def test_fiber_crosscheck_batch():
    from cmreduce.numbase import kronecker
    from cmreduce.quadforms import is_fundamental

    checked = 0
    for n in range(3, 400):
        D = -n
        if D % 4 not in (0, 1) or not is_fundamental(D):
            continue
        for p in (5, 11):
            if kronecker(D, p) == -1:
                assert fiber_multiset_crosscheck(D, p), (D, p)
                checked += 1
    assert checked > 50


def test_non_fundamental_discriminants():
    # conductor coprime to the reduction prime is supported end to end
    from cmreduce.quadforms import Discriminant

    for D, p in ((-75, 11), (-48, 5), (-32, 13), (-147, 11)):
        d = Discriminant.of(D)
        assert not d.fundamental and d.conductor % p
        mapping = reduce_at_prime(D, p)
        assert len(mapping) == len(reduced_forms(D))
        assert fiber_multiset_crosscheck(D, p), (D, p)


def test_character_average():
    assert character_average(-84, 1) == 1
    assert character_average(-84, -3) == 0
    assert character_average(-84, -4) == 0
    assert character_average(-120, 5) == 0


def test_exceptional_fields():
    # Eichler spec: all factors Eichler -> empty
    assert exceptional_fields(CharacterSpec(factors=(1, 1, 1))) == set()
    assert exceptional_fields(CharacterSpec(factors=(1,))) == set()
    # two factors each leaving the same character invariant: the mixed
    # tuples have nontrivial product
    assert exceptional_fields(CharacterSpec(factors=(-4, -4))) == {-4}
    # different characters: products -4, -8, and their product 8
    got = exceptional_fields(CharacterSpec(factors=(-4, -8)))
    assert got == {-4, -8, 8}
    with pytest.raises(DomainError):
        CharacterSpec(factors=(-5,))  # 3 mod 4: not a discriminant
    # real quadratic fields: 5 is a field discriminant, 20 = 4 * 5 is not
    assert CharacterSpec(factors=(5,)).factors == (5,)
    with pytest.raises(DomainError):
        CharacterSpec(factors=(20,))


def test_scan_smoke_and_reproducibility():
    cfg = ScanConfig(primes=(11, 23), dmin=3, dmax=400, fundamental_only=True)
    report = scan(cfg)
    assert all(r.D % 4 in (0, 1) for r in report.rows)
    blob1 = report.to_json()
    blob2 = scan(cfg).to_json()
    assert blob1 == blob2
    csv1 = report.to_csv()
    assert csv1.splitlines()[1].startswith("D,h,primes")
    # surjectivity flag definition
    for r in report.rows:
        jd = joint_reduce(r.D, (11, 23))
        assert r.surjective == (len(jd.tuple_counts) == 6)
    # config hash embedded
    import json as j

    data = j.loads(blob1)
    assert data["config_hash"] == cfg.digest()
    assert data["version"]


def test_scan_config_block_is_pinned():
    # the block behind tests/golden/scan_p11-23_D3-600_fund.json; coprime_to
    # and y_cut are constants, not fields, but their keys stay in the bytes
    cfg = ScanConfig(primes=(11, 23), dmin=3, dmax=600, fundamental_only=True)
    assert cfg.canonical_json() == (
        '{"coprime_to": [], "dmax": 600, "dmin": 3, "fundamental_only": true, '
        '"primes": [11, 23], "seed": 0, "split_filter": null, "y_cut": 2.0}'
    )
    assert cfg.digest() == "4c758a6fde757d5a"


def test_scan_threads_match_serial():
    cfg1 = ScanConfig(primes=(11,), dmin=3, dmax=120, fundamental_only=True)
    cfg2 = ScanConfig(primes=(11,), dmin=3, dmax=120, fundamental_only=True, threads=2)
    assert scan(cfg1).rows == scan(cfg2).rows


def test_scan_empty_range():
    # -7 is split at 11, so the one-discriminant window is empty
    cfg = ScanConfig(primes=(11,), dmin=7, dmax=7)
    report = scan(cfg)
    assert report.rows == ()


def test_scan_config_validation():
    with pytest.raises(ConfigError):
        ScanConfig(primes=(11, 11), dmin=3, dmax=10).validate()
    with pytest.raises(ConfigError):
        ScanConfig(primes=(4,), dmin=3, dmax=10).validate()
    with pytest.raises(ConfigError):
        ScanConfig(primes=(11,), dmin=3, dmax=10, split_filter=(11, 3)).validate()
    with pytest.raises(ConfigError):
        ScanConfig(primes=(11,), dmin=30, dmax=10).validate()
