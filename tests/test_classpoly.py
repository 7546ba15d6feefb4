import math
import random

import mpmath
import pytest
from mpmath.libmp import to_fixed

from cmreduce.classpoly import ClassPolynomial, classpoly_mod, hilbert_class_poly, j_eval
from cmreduce.errors import DomainError, PrecisionError
from cmreduce.quadforms import QuadForm, cm_point, reduced_forms


def _point(a, b, c, D):
    return cm_point(QuadForm(a, b, c), D)


def _complex(pair, bits):
    """The value (re + i im) / 2^bits of j_eval's fixed-point pair, exactly."""
    with mpmath.workprec(max(53, *(abs(part).bit_length() for part in pair))):
        return mpmath.mpc(mpmath.mpf((pair[0], -bits)), mpmath.mpf((pair[1], -bits)))


def _j(f, D, bits, height=1):
    return _complex(j_eval(cm_point(f, D), bits, height), bits)


def test_j_classical_values():
    # tau = i
    assert abs(_j(QuadForm(1, 0, 1), -4, 128) - 1728) < mpmath.mpf(2) ** -100
    # tau = (1 + i sqrt(3))/2, i.e. rho
    assert abs(_j(QuadForm(1, 1, 1), -3, 128)) < mpmath.mpf(2) ** -100
    # tau = 2i is the CM point of x^2 + 4y^2 with D = -16
    assert abs(_j(QuadForm(1, 0, 4), -16, 160) - 287496) < mpmath.mpf(2) ** -120
    # height 3: gamma_2 = j^(1/3) is 12 at tau = i and 0 at tau = rho
    assert abs(_j(QuadForm(1, 0, 1), -4, 128, 3) - 12) < mpmath.mpf(2) ** -100
    assert abs(_j(QuadForm(1, 1, 1), -3, 128, 3)) < mpmath.mpf(2) ** -100


@pytest.mark.parametrize("D", [-719, -2351])
def test_gamma2_cubed_is_j(D):
    bits = 200
    for f in reduced_forms(D):
        j = _j(f, D, bits)
        gamma2 = _j(f, D, bits, 3)
        with mpmath.workprec(bits + 32):
            assert abs(gamma2**3 - j) <= mpmath.ldexp(max(1, abs(j)), 10 - bits), f


def test_j_eval_height_is_1_or_3():
    with pytest.raises(DomainError):
        j_eval(_point(1, 0, 1, -4), 128, 2)


def test_j_eval_precision_model():
    a = _j(QuadForm(1, 0, 4), -16, 128)
    b = _j(QuadForm(1, 0, 4), -16, 512)
    assert abs(a - b) < abs(b) * mpmath.mpf(2) ** -100


def _exact_value(tau, height, prec):
    """j(tau) from mpmath's Klein J for height 1, gamma_2(tau) = (1 + 256 t) /
    t^(1/3), t^(1/3) = e^(2 pi i tau / 3) (E(q^2) / E(q))^8, from its
    q-Pochhammer products for height 3, at prec bits."""
    with mpmath.workprec(prec):
        z = mpmath.mpc(mpmath.mpf(tau.minus_b) / tau.two_a, mpmath.sqrt(tau.abs_D) / tau.two_a)
        if height == 1:
            return 1728 * mpmath.kleinj(z)
        q = mpmath.exp(2j * mpmath.pi * z)
        r8 = (mpmath.qp(q * q) / mpmath.qp(q)) ** 8
        t_cube_root = mpmath.exp(2j * mpmath.pi * z / 3) * r8
        return (1 + 256 * t_cube_root**3) / t_cube_root


# forms with b != 0, b != a and a != c, whose values are not real (so H_D
# pairs them with their conjugates), and boundary forms with real values
_VALUE_FORMS = [
    (QuadForm(2, 1, 3), -23),
    (QuadForm(3, 2, 5), -56),
    (QuadForm(5, 3, 7), -131),
    (QuadForm(6, 5, 13), -287),
    (QuadForm(11, 7, 51), -2195),
    (QuadForm(1, 1, 1098), -4391),
    (QuadForm(24, 11, 47), -4391),
    (QuadForm(2, 2, 1045), -8356),
]


@pytest.mark.parametrize("f, D", _VALUE_FORMS)
@pytest.mark.parametrize("height", [1, 3])
def test_j_eval_values_meet_the_stated_error(f, D, height):
    # against mpmath at 64 more bits: within 2^(8 - bits) max(1, |value|),
    # the sign of Im included, which conjugate pairing in H_D would not see
    assert f.discriminant == D and f.is_reduced()
    tau = cm_point(f, D)
    for bits in (64, 200, 1000):
        got = _complex(j_eval(tau, bits, height), bits)
        exact = _exact_value(tau, height, bits + 64)
        with mpmath.workprec(bits + 64):
            assert abs(got - exact) <= mpmath.ldexp(max(1, abs(exact)), 8 - bits), (f, bits, height)


# tau = i, and rho = (-1 + i sqrt(3))/2 at the least Im tau of a reduced point
_SERIES_POINTS = [(QuadForm(1, 0, 1), -4), (QuadForm(1, 1, 1), -3)]


@pytest.mark.parametrize("f, D", _SERIES_POINTS)
@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024, 2048])
def test_fixed_point_series_is_within_its_proven_bound(f, D, bits):
    # j_eval's E(q) and E(q^2), in fixed point from q floored to the scale,
    # against mpmath's q-Pochhammer products at 64 more bits: within
    # (3K + 2) 2^-scale + 0.005 * 2^-w, for K rounds and w = bits + 32
    # (j_eval's proof, with q itself exact to 2^-(w + 64))
    from cmreduce.classpoly import _SCALE_GUARD_BITS, _euler_products

    tau = cm_point(f, D)
    w = bits + 32
    scale = bits + _SCALE_GUARD_BITS
    with mpmath.workprec(w + 64):
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(mpmath.mpf(tau.minus_b) / tau.two_a, tau.im))
        n_max = int(mpmath.ceil(w * mpmath.log(2) / (2 * mpmath.pi * tau.im)))
        rounds = next(k for k in range(1, n_max + 2) if k * (3 * k - 1) // 2 > n_max) - 1
        bound = (3 * rounds + 2) * mpmath.ldexp(1, -scale) + mpmath.ldexp(0.005, -w)
        fixed = to_fixed(q.real._mpf_, scale), to_fixed(q.imag._mpf_, scale)
        for got, exact in zip(_euler_products(fixed, n_max, scale), (mpmath.qp(q), mpmath.qp(q * q))):
            assert abs(mpmath.mpc(*got) * mpmath.ldexp(1, -scale) - exact) <= bound


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024, 2048])
def test_j_eval_meets_its_stated_error_at_i_and_rho(bits):
    # j(i) = 1728 = 12^3 and j(rho) = 0, within 2^(8 - bits) max(1, |value|)
    for (f, D), j in zip(_SERIES_POINTS, (1728, 0)):
        for height, value in ((1, j), (3, round(j ** (1 / 3)))):
            got = _j(f, D, bits, height)
            assert abs(got - value) <= mpmath.ldexp(max(1, value), 8 - bits), (D, height)


# -- the integer pi, exp, (cos, sin) and exponent of 1/q_h --------------------


@pytest.mark.parametrize("bits", [64, 200, 1000, 3000])
def test_integer_pi_exp_cos_sin_match_mpmath(bits):
    # each within its docstring bound, against mpmath at 64 more bits, on
    # seeded arguments x in [0, 1000] and |theta| <= pi
    from cmreduce.classpoly import _cos_sin, _exp, _pi

    rng = random.Random(bits)
    one = mpmath.ldexp(1, bits)
    with mpmath.workprec(bits + 64):
        pi = _pi(bits)
        assert abs(pi - mpmath.pi * one) < 1
        xs = [0, 1, 1000 << bits] + [rng.randrange(1000 << bits) for _ in range(12)]
        for x in xs:
            exact = mpmath.exp(x / one)
            assert abs(_exp(x, bits) - exact * one) < 2 * exact, x
        thetas = [0, pi, -pi, 1, -1] + [rng.randrange(-pi, pi + 1) for _ in range(12)]
        for theta in thetas:
            c, s = _cos_sin(theta, bits)
            assert abs(c - mpmath.cos(theta / one) * one) < 2, theta
            assert abs(s - mpmath.sin(theta / one) * one) < 2, theta


@pytest.mark.parametrize("D", [-3, -23, -4391, -16719, -1000003])
@pytest.mark.parametrize("height", [1, 3])
def test_nome_exponent_within_two_units(D, height):
    # 1/q_h = e^(x + i theta), x = 2 pi Im(tau) / height and
    # theta = -2 pi Re(tau) / height, each within 2 units of 2^-scale
    from cmreduce.classpoly import _nome_exponent

    forms = reduced_forms(D)
    for f in forms[:: max(1, len(forms) // 8)]:
        tau = cm_point(f, D)
        for scale in (104, 1040):
            x, theta = _nome_exponent(tau, height, scale)
            with mpmath.workprec(scale + 64):
                one = mpmath.ldexp(1, scale)
                im = mpmath.sqrt(tau.abs_D) / tau.two_a
                re = mpmath.mpf(tau.minus_b) / tau.two_a
                assert abs(x - 2 * mpmath.pi * im / height * one) < 2, (f, scale)
                assert abs(theta + 2 * mpmath.pi * re / height * one) < 2, (f, scale)


def test_j_eval_rejects_unreduced():
    with pytest.raises(DomainError):
        # artificial point with tiny imaginary part
        from cmreduce.quadforms import CMPoint

        j_eval(CMPoint(minus_b=0, abs_D=4, two_a=20), 128)


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


def test_classpolynomial_json_roundtrip():
    poly = hilbert_class_poly(-47)
    again = ClassPolynomial.from_json(poly.to_json())
    assert again == poly


def test_hilbert_class_poly_is_computed_once_per_discriminant(monkeypatch):
    from cmreduce import classpoly

    calls = []

    def counting_j_eval(tau, bits, height=1):
        calls.append(tau)
        return j_eval(tau, bits, height)

    monkeypatch.setattr(classpoly, "j_eval", counting_j_eval)
    classpoly.hilbert_class_poly.cache_clear()
    first = hilbert_class_poly(-191)
    assert len(calls) == sum(1 for f in reduced_forms(-191) if f.b >= 0)
    calls.clear()
    assert hilbert_class_poly(-191) == first
    assert calls == []


def _plant_a_miss(monkeypatch, d, every_precision):
    """Move coefficient 1 of H_d 0.4 off its integer before rounding, at the
    first working precision only or at every one; the list returned fills
    with the fixed-point scales P of the full products."""
    from cmreduce import classpoly

    h = len(reduced_forms(d))
    tree = classpoly._product_tree
    precisions = []

    def planted(polys, P):
        out = tree(polys, P)
        if len(out) == h + 1:  # the full product, not a subtree
            precisions.append(P)
            if every_precision or len(precisions) == 1:
                out = list(out)
                out[1] += (2 << P) // 5
        return out

    monkeypatch.setattr(classpoly, "_product_tree", planted)
    classpoly.hilbert_class_poly.cache_clear()
    return precisions


def test_a_coefficient_missing_its_integer_doubles_the_precision(monkeypatch):
    from cmreduce import classpoly

    classpoly.hilbert_class_poly.cache_clear()
    expected = hilbert_class_poly(-191)
    precisions = _plant_a_miss(monkeypatch, -191, every_precision=False)
    try:
        assert hilbert_class_poly(-191) == expected
    finally:
        classpoly.hilbert_class_poly.cache_clear()
    # _assemble scales by 2^P, P = bits + 48
    assert len(precisions) == 2 and precisions[1] - 48 == 2 * (precisions[0] - 48)


def test_a_coefficient_missing_at_every_precision_raises(monkeypatch):
    from cmreduce import classpoly

    precisions = _plant_a_miss(monkeypatch, -191, every_precision=True)
    try:
        with pytest.raises(PrecisionError):
            hilbert_class_poly(-191)
    finally:
        classpoly.hilbert_class_poly.cache_clear()
    assert len(precisions) == classpoly._MAX_DOUBLINGS + 1


def test_a_coefficient_missing_its_integer_doubles_the_precision_on_the_j_route(monkeypatch):
    # 3 | 231, so H_-231 is assembled from j itself, not from gamma_2
    from cmreduce import classpoly

    classpoly.hilbert_class_poly.cache_clear()
    expected = hilbert_class_poly(-231)
    assert expected == classpoly.hilbert_class_poly_from_j(-231)
    precisions = _plant_a_miss(monkeypatch, -231, every_precision=False)
    try:
        assert hilbert_class_poly(-231) == expected
    finally:
        classpoly.hilbert_class_poly.cache_clear()
    assert len(precisions) == 2 and precisions[1] - 48 == 2 * (precisions[0] - 48)


# -- H_D from gamma_2 = j^(1/3) for 3 ∤ D ------------------------------------


def _gamma2_discriminants(lo, hi):
    return [D for D in range(-hi, -lo + 1) if D % 4 in (0, 1) and D % 3 != 0]


def _j_route(D):
    from cmreduce.classpoly import _assemble, _initial_precision

    forms = reduced_forms(D)
    return tuple(_assemble(D, forms, _initial_precision(D, forms)))


def _gamma2_route_agrees(D):
    """Whether the gamma_2 route of hilbert_class_poly, run afresh, gives the H_D of
    the j route; a route that cannot round W disagrees."""
    from cmreduce import classpoly

    try:
        return classpoly.hilbert_class_poly.__wrapped__(D).coeffs == _j_route(D)
    except PrecisionError:
        return False


def test_gamma2_route_equals_j_route():
    # every D = 0, 1 (mod 4) with 3 ∤ D down to -1500, non-fundamental
    # ones included; hilbert_class_poly takes the gamma_2 route for all
    Ds = _gamma2_discriminants(3, 1500)
    assert len(Ds) == 500
    for D in Ds:
        assert hilbert_class_poly(D).coeffs == _j_route(D), D


def test_gamma2_route_is_independent_of_precision():
    from cmreduce.classpoly import _assemble, _gamma2_value, _initial_precision

    for D in _gamma2_discriminants(3, 499):
        forms = reduced_forms(D)
        bits = _initial_precision(D, forms, 3)
        a = _assemble(D, forms, bits, _gamma2_value)
        b = _assemble(D, forms, 2 * bits, _gamma2_value)
        assert a is not None and a == b, D


def test_gamma2_precision_is_a_third_of_the_main_term():
    from cmreduce.classpoly import _initial_precision

    # log2 S + log2(10h) + 29 bits, S = prod (1 + max(1, |x_f|)) over the
    # estimated values: gamma_2 has a third of j's height
    assert [_initial_precision(D, reduced_forms(D), 3) for D in (-2351, -4391, -15791)] == [608, 834, 2138]
    assert [_initial_precision(D, reduced_forms(D)) for D in (-2351, -4391)] == [1736, 2409]


# -- the proven rounding bound of _assemble -----------------------------------


def _routes(D):
    """(value, height) of the j route, and of the gamma_2 route for 3 ∤ D."""
    from cmreduce.classpoly import _gamma2_value, _j_value

    return [(_j_value, 1)] + ([(_gamma2_value, 3)] if D % 3 else [])


def test_a_certified_product_is_exact():
    # below the start precision the bound gives up (None) long before a
    # coefficient could round to the wrong integer
    from cmreduce.classpoly import _MIN_PRECISION, _assemble, _initial_precision

    for D in range(-3, -501, -1):
        if D % 4 not in (0, 1):
            continue
        forms = reduced_forms(D)
        for value, height in _routes(D):
            bits = _initial_precision(D, forms, height)
            exact = _assemble(D, forms, bits, value)
            assert exact is not None, D
            while bits > _MIN_PRECISION:
                bits = max(_MIN_PRECISION, bits - max(8, bits // 8))
                assert _assemble(D, forms, bits, value) in (None, exact), (D, height, bits)


def _uncertified_at_start(Ds, wrap=lambda value: value):
    """The D whose product on the route hilbert_class_poly takes (the last
    of _routes), with value wrapped by wrap, is not certified at the start
    precision."""
    from cmreduce.classpoly import _assemble, _initial_precision

    for D in Ds:
        forms = reduced_forms(D)
        value, height = _routes(D)[-1]
        if _assemble(D, forms, _initial_precision(D, forms, height), wrap(value)) is None:
            yield D


_TO_1500 = [D for D in range(-3, -1501, -1) if D % 4 in (0, 1)]


def test_the_start_precision_is_certified():
    assert list(_uncertified_at_start(_TO_1500)) == []


def test_planted_fault_values_claimed_exact():
    # delta = 0: the bound keeps only the tree's rounding, the computed
    # coefficients lie further from their integers than it allows, and
    # nothing is rounded
    def exact(value):
        return lambda f, d, bits: (value(f, d, bits)[0], -math.inf)

    assert next(_uncertified_at_start(_TO_1500, exact), None) is not None


def test_planted_fault_series_summed_to_half_its_terms(monkeypatch):
    # j_eval's fixed-point E(q) and E(q^2) summed only to n_max // 2 hold
    # about half the bits j_eval claims; on both routes the bound then
    # certifies no attempt, so no H_D is returned at all, never a wrong one.
    # The start precision's double-precision estimate keeps its full series
    from cmreduce import classpoly

    euler = classpoly._euler_products

    def truncated(q, n_max, scale):
        return euler(q, n_max // 2 if scale > classpoly._ESTIMATE_BITS else n_max, scale)

    monkeypatch.setattr(classpoly, "_euler_products", truncated)
    assemble = classpoly._assemble
    attempts = []
    monkeypatch.setattr(classpoly, "_assemble", lambda *args: attempts.append(assemble(*args)) or attempts[-1])
    for D in (-719, -2351, -4391, -1335):
        attempts.clear()
        with pytest.raises(PrecisionError):
            classpoly.hilbert_class_poly.__wrapped__(D)
        assert attempts[0] is None, D


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cube_identity_matches_schoolbook_products():
    import random

    from cmreduce.classpoly import _h_from_w

    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 16)
        w = [rng.randrange(-(2 ** rng.randrange(1, 90)), 2 ** rng.randrange(1, 90)) for _ in range(n - 1)] + [1]
        p0, p1, p2 = w[0::3], w[1::3], w[2::3]
        expected = [0] * n
        for shift, scale, poly in (
            (0, 1, _schoolbook(_schoolbook(p0, p0), p0)),
            (1, 1, _schoolbook(_schoolbook(p1, p1), p1)),
            (2, 1, _schoolbook(_schoolbook(p2, p2), p2) if p2 else []),
            (1, -3, _schoolbook(_schoolbook(p0, p1), p2) if p2 else []),
        ):
            for i, c in enumerate(poly):
                expected[i + shift] += scale * c
        assert _h_from_w(w) == expected, w


def test_planted_fault_m_off_by_one_when_3_divides_a(monkeypatch):
    # the S step dropped: forms with 3 | a keep the translation count of
    # the form itself, one power of zeta_3 off
    from cmreduce import classpoly

    steps = classpoly._gamma2_steps
    monkeypatch.setattr(classpoly, "_gamma2_steps", lambda f: (steps(f) + (f.a % 3 == 0)) % 3)
    for D in (-35, -47, -71, -191):
        assert not _gamma2_route_agrees(D), D


def test_planted_fault_identity_with_plus_3y(monkeypatch):
    from cmreduce import classpoly

    h_from_w = classpoly._h_from_w

    def flipped(w):
        # P_0^3 + Y P_1^3 + Y^2 P_2^3 + 3Y P_0 P_1 P_2
        cross = _schoolbook(_schoolbook(w[0::3], w[1::3]), w[2::3])
        out = h_from_w(w)
        for i, c in enumerate(cross):
            out[i + 1] += 6 * c
        return out

    monkeypatch.setattr(classpoly, "_h_from_w", flipped)
    for D in (-23, -47, -71, -191):
        assert not _gamma2_route_agrees(D), D
