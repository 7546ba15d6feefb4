import json

import mpmath
import pytest

from cmreduce.classpoly import ClassPolynomial, classpoly_mod, hilbert_class_poly, j_eval
from cmreduce.errors import DomainError
from cmreduce.quadforms import QuadForm, cm_point, reduced_forms


def _point(a, b, c, D):
    return cm_point(QuadForm(a, b, c), D)


def test_j_classical_values():
    # tau = i
    j_i = j_eval(_point(1, 0, 1, -4), 128)
    assert abs(j_i - 1728) < mpmath.mpf(2) ** -100
    # tau = (1 + i sqrt(3))/2, i.e. rho
    j_rho = j_eval(_point(1, 1, 1, -3), 128)
    assert abs(j_rho) < mpmath.mpf(2) ** -100
    # tau = 2i is the CM point of x^2 + 4y^2 with D = -16
    j_2i = j_eval(_point(1, 0, 4, -16), 160)
    assert abs(j_2i - 287496) < mpmath.mpf(2) ** -120


def test_j_eval_precision_model():
    a = j_eval(_point(1, 0, 4, -16), 128)
    b = j_eval(_point(1, 0, 4, -16), 512)
    assert abs(a - b) < abs(b) * mpmath.mpf(2) ** -100


def test_j_eval_rejects_unreduced():
    with pytest.raises(DomainError):
        # artificial point with tiny imaginary part
        from cmreduce.quadforms import CMPoint

        j_eval(CMPoint(form=QuadForm(1, 0, 1), minus_b=0, abs_D=4, two_a=20), 128)


def test_hilbert_small():
    assert hilbert_class_poly(-3).coeffs == (0, 1)  # X
    assert hilbert_class_poly(-4).coeffs == (-1728, 1)  # X - 1728
    h23 = hilbert_class_poly(-23)
    assert h23.coeffs == (12771880859375, -5151296875, 3491750, 1)
    assert h23.degree == 3


def test_hilbert_known_values():
    # classical: H_-7 = X + 3375, H_-8 = X - 8000, H_-11 = X + 32768
    assert hilbert_class_poly(-7).coeffs == (3375, 1)
    assert hilbert_class_poly(-8).coeffs == (-8000, 1)
    assert hilbert_class_poly(-11).coeffs == (32768, 1)
    # D = -15, h = 2: X^2 + 191025 X - 121287375
    assert hilbert_class_poly(-15).coeffs == (-121287375, 191025, 1)


def test_degree_matches_class_number():
    for D in (-23, -47, -71, -84, -479):
        assert hilbert_class_poly(D).degree == len(reduced_forms(D))


def test_precision_independence():
    from cmreduce.classpoly import _assemble, _initial_precision

    for D in (-23, -56, -231, -547, -1999):
        forms = reduced_forms(D)
        bits = _initial_precision(D, forms)
        a = _assemble(D, forms, bits)
        b = _assemble(D, forms, 2 * bits)
        assert a is not None and a == b


def test_precision_independence_batch():
    # doubled precision reproduces identical integers across a dense range
    from cmreduce.classpoly import _assemble, _initial_precision

    for D in range(-3, -500, -1):
        if D % 4 not in (0, 1):
            continue
        forms = reduced_forms(D)
        bits = _initial_precision(D, forms)
        a = _assemble(D, forms, bits)
        b = _assemble(D, forms, 2 * bits)
        assert a is not None and a == b, D


def test_classpoly_mod():
    h23 = hilbert_class_poly(-23)
    assert classpoly_mod(h23, 5) == [0, 0, 0, 1]  # X^3
    h4 = hilbert_class_poly(-4)
    assert classpoly_mod(h4, 11) == [10, 1]  # X - 1 has -1 = 10
    for p in (5, 7, 11, 13):
        assert classpoly_mod(hilbert_class_poly(-3), p) == [0, 1]
    with pytest.raises(DomainError):
        classpoly_mod(h23, 6)


def test_cache_roundtrip(tmp_path):
    from cmreduce.classpoly import _cache_path

    cache = str(tmp_path / "hd")
    a = hilbert_class_poly(-23, cache_dir=cache)
    path = _cache_path(cache, -23)
    data = json.loads(open(path, encoding="utf-8").read())
    assert data["D"] == "-23" and data["h"] == 3
    b = hilbert_class_poly(-23, cache_dir=cache)
    assert a == b
    # corrupted cache entries are ignored, not fatal
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{broken")
    c = hilbert_class_poly(-23, cache_dir=cache)
    assert c == a
    # entries that are not H_{-23} are recomputed and overwritten
    planted = (
        "[]",  # JSON, but not an object
        ClassPolynomial(D=-31, coeffs=a.coeffs).to_json(),  # wrong D
        ClassPolynomial(D=-23, coeffs=a.coeffs[:-1] + (2,)).to_json(),  # not monic
        ClassPolynomial(D=-23, coeffs=a.coeffs[1:]).to_json(),  # wrong degree
    )
    for blob in planted:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(blob)
        assert hilbert_class_poly(-23, cache_dir=cache) == a
        assert open(path, encoding="utf-8").read() == a.to_json()


def test_classpolynomial_json_roundtrip():
    poly = hilbert_class_poly(-47)
    again = ClassPolynomial.from_json(poly.to_json())
    assert again == poly


def test_hilbert_class_poly_is_computed_once_per_discriminant(monkeypatch, tmp_path):
    from cmreduce import classpoly

    calls = []

    def counting_j_eval(tau, bits):
        calls.append(tau)
        return j_eval(tau, bits)

    monkeypatch.setattr(classpoly, "j_eval", counting_j_eval)
    classpoly._compute.cache_clear()
    first = hilbert_class_poly(-191)
    assert len(calls) == sum(1 for f in reduced_forms(-191) if f.b >= 0)
    calls.clear()
    assert hilbert_class_poly(-191) == first
    # an on-disk entry is still validated, and a bad one replaced, but from
    # the polynomial already computed
    cache = str(tmp_path)
    path = classpoly._cache_path(cache, -191)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ClassPolynomial(D=-191, coeffs=first.coeffs[1:]).to_json())  # wrong degree
    assert hilbert_class_poly(-191, cache_dir=cache) == first
    assert open(path, encoding="utf-8").read() == first.to_json()
    assert calls == []
