import math
import random
from fractions import Fraction

import pytest

from cmreduce import quadforms
from cmreduce.errors import CertificateError, ConfigError, DomainError
from cmreduce.numbase import kronecker
from cmreduce.quadforms import (
    Discriminant,
    QuadForm,
    admissible_discriminants,
    class_number,
    class_number_table,
    cm_point,
    compose,
    field_discriminant,
    genus_character,
    genus_decompositions,
    is_fundamental,
    principal_form,
    reduce_form,
    reduced_forms,
    splitting,
)


def test_discriminant_structure():
    d = Discriminant.of(-12)
    assert (field_discriminant(d.D), d.conductor) == (-3, 2)
    assert Discriminant.of(-23).conductor == 1
    assert Discriminant.of(-4).conductor == 1
    assert (field_discriminant(-72), Discriminant.of(-72).conductor) == (-8, 3)
    with pytest.raises(DomainError):
        Discriminant.of(-5)  # 3 mod 4
    with pytest.raises(DomainError):
        Discriminant.of(4)


def test_discriminant_certifies_the_conductor_split(monkeypatch):
    # a wrong squarefree part must fail loudly, also under python -O
    monkeypatch.setattr(quadforms, "squarefree_part", lambda D: -1)
    with pytest.raises(CertificateError):
        Discriminant.of(-23)


def test_reduced_forms_examples():
    assert [f.as_tuple() for f in reduced_forms(-23)] == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
    assert [f.as_tuple() for f in reduced_forms(-3)] == [(1, 1, 1)]
    assert [f.as_tuple() for f in reduced_forms(-4)] == [(1, 0, 1)]


def test_class_number_examples():
    assert class_number(-23) == 3
    assert class_number(-3) == 1
    assert class_number(-47) == 5
    assert class_number(-84) == 4


def test_class_numbers_against_triple_count_oracle():
    # independent oracle: count primitive reduced triples by brute scan
    table = class_number_table(10**4)
    for D in range(-10**4, 0):
        if D % 4 in (0, 1):
            assert table[D] == class_number(D), D


def test_every_reduced_form_is_reduced_and_primitive():
    for D in (-23, -47, -84, -163, -5460):
        for f in reduced_forms(D):
            assert f.is_reduced() and f.is_primitive()
            assert f.discriminant == D


def test_compose_identity_and_inverse():
    D = -23
    forms = reduced_forms(D)
    e = principal_form(D)
    for f in forms:
        assert compose(e, f, D) == f
        assert compose(f, f.inverse(), D) == e


def test_compose_table_minus23():
    D = -23
    f = QuadForm(2, 1, 3)
    g = QuadForm(2, -1, 3)
    assert compose(f, g, D) == QuadForm(1, 1, 6)
    assert compose(f, f, D) == g  # order-3 group: square = inverse


def test_compose_discriminant_mismatch():
    with pytest.raises(DomainError):
        compose(QuadForm(1, 1, 6), QuadForm(1, 0, 1), -23)


def test_is_fundamental_is_the_field_discriminant_of_either_sign():
    assert all(is_fundamental(D) for D in (5, 8, 12, -3, -4, -8))
    assert not any(is_fundamental(D) for D in (0, 1, 4, 20, -12, -5))

    def squarefree(d):
        return all(d % (m * m) for m in range(2, math.isqrt(abs(d)) + 1))

    # the discriminant of Q(sqrt(d)) for squarefree d != 0, 1
    fields = {d if d % 4 == 1 else 4 * d for d in range(-500, 501) if d not in (0, 1) and squarefree(d)}
    assert {D for D in range(-500, 501) if is_fundamental(D)} == {D for D in fields if abs(D) <= 500}
    for D in range(-3000, 0):
        if D % 4 in (0, 1):
            assert is_fundamental(D) == (Discriminant.of(D).conductor == 1), D


def test_group_axioms_sampled_fundamental_discs():
    rng = random.Random(7)
    discs = [D for D in range(-9999, 0) if D % 4 in (0, 1) and is_fundamental(D)]
    for D in rng.sample(discs, 60):
        forms = reduced_forms(D)
        e = principal_form(D)
        for _ in range(20):
            f, g, k = (rng.choice(forms) for _ in range(3))
            assert compose(compose(f, g, D), k, D) == compose(f, compose(g, k, D), D)
        for f in forms:
            assert compose(f, f.inverse(), D) == e
        # closure: composites stay in the canonical list
        for _ in range(10):
            f, g = rng.choice(forms), rng.choice(forms)
            assert compose(f, g, D) in forms


def test_cm_points():
    p = cm_point(QuadForm(1, 0, 1), -4)
    assert p.minus_b == 0 and abs(p.im - 1.0) < 1e-15
    p = cm_point(QuadForm(1, 1, 6), -23)
    assert Fraction(p.minus_b, p.two_a) == Fraction(-1, 2)
    assert abs(p.im - math.sqrt(23) / 2) < 1e-12
    p = cm_point(QuadForm(2, 1, 3), -23)
    # |tau|^2 = (b^2 + |D|) / 4a^2 = c/a
    assert Fraction(p.minus_b**2 + p.abs_D, p.two_a**2) == Fraction(3, 2)
    # fundamental domain, exactly, for a batch of discriminants
    for D in (-23, -47, -84, -499, -1051):
        for f in reduced_forms(D):
            q = cm_point(f, D)
            assert abs(Fraction(q.minus_b, q.two_a)) <= Fraction(1, 2)
            assert Fraction(q.minus_b**2 + q.abs_D, q.two_a**2) >= 1


def test_splitting():
    assert splitting(-23, 5) == "inert"
    assert splitting(-23, 23) == "ramified"
    assert splitting(-23, 2) == "split"
    with pytest.raises(DomainError):
        splitting(-23, 6)


def test_admissible_discriminants():
    got = [d.D for d in admissible_discriminants(inert=(5, 11), abs_range=(3, 30))]
    assert -23 in got
    # ramified at an inert-required prime is excluded
    assert all(d.D != -5 * 4 for d in admissible_discriminants(inert=(5,), abs_range=(3, 30)))
    fundamental = [d.D for d in admissible_discriminants(abs_range=(3, 30), fundamental_only=True)]
    assert -12 not in fundamental and -23 in fundamental
    with pytest.raises(ConfigError):
        list(admissible_discriminants(inert=(5,), split=(5,), abs_range=(3, 30)))


def test_genus_character_examples():
    D = -84
    forms = reduced_forms(D)
    assert genus_character(principal_form(D), -3, D) == 1
    values = [genus_character(f, -3, D) for f in forms]
    assert sorted(values) == [-1, -1, 1, 1]
    assert sum(values) == 0
    for f in forms:
        assert genus_character(f, -3, D) ** 2 == 1


def test_genus_character_homomorphism():
    for D, d1 in ((-84, -3), (-84, -4), (-120, 5), (-420, -20)):
        forms = reduced_forms(D)
        for f in forms:
            for g in forms:
                chi_fg = genus_character(compose(f, g, D), d1, D)
                assert chi_fg == genus_character(f, d1, D) * genus_character(g, d1, D)


def _genus_character_by_search(f, d1, D, box=6):
    """kronecker(d1, m) for the least value m = f(x, y) > 0 coprime to 2D with
    |x|, |y| <= box, or None when the box holds no such value."""
    values = (f.value(x, y) for x in range(-box, box + 1) for y in range(-box, box + 1))
    m = min((v for v in values if v > 0 and math.gcd(v, 2 * D) == 1), default=None)
    return None if m is None else kronecker(d1, m)


def test_genus_character_matches_a_small_box_search():
    checked = 0
    for D in range(-3, -1001, -1):
        if D % 4 not in (0, 1):
            continue
        decs = [d1 for d1, _ in genus_decompositions(D) if d1 != 1]
        for f in reduced_forms(D):
            for d1 in decs:
                want = _genus_character_by_search(f, d1, D)
                if want is not None:
                    assert genus_character(f, d1, D) == want, (f, d1, D)
                    checked += 1
    assert checked > 10**4


def test_genus_character_rejects_an_imprimitive_form():
    # every value of an imprimitive form shares its content with 2D
    with pytest.raises(DomainError):
        genus_character(QuadForm(2, 2, 2), -3, -12)
    with pytest.raises(DomainError):
        genus_character(QuadForm(3, 3, 3), -3, -27)


def test_genus_character_rejects_a_form_of_another_discriminant():
    # (1, 1, 6) has discriminant -23
    with pytest.raises(DomainError):
        genus_character(QuadForm(1, 1, 6), -3, -84)
    with pytest.raises(DomainError):
        genus_character(QuadForm(1, 1, 6), 1, -84)


def test_genus_decompositions():
    decs = genus_decompositions(-84)
    assert (-3, 28) in decs and (-4, 21) in decs and (1, -84) in decs
    with pytest.raises(DomainError):
        genus_character(principal_form(-84), -5, -84)


def test_reduce_form_matches_canonical_list():
    rng = random.Random(3)
    for D in (-23, -47, -71, -84):
        forms = set(reduced_forms(D))
        for f in reduced_forms(D):
            # random SL2(Z)-translates reduce back to the representative
            a, b, c = f.as_tuple()
            for _ in range(10):
                # apply (x, y) -> (x + t y, y) then swap; stays in the class
                t = rng.randrange(-5, 6)
                a2, b2, c2 = a, b + 2 * a * t, a * t * t + b * t + c
                g = reduce_form(QuadForm(a2, b2, c2))
                assert g == f
                assert g in forms
