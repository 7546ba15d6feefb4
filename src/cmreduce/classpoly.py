"""High-precision evaluation of the modular j-function and of gamma_2 =
j^(1/3) at CM points, and assembly of Hilbert class polynomials over Z.

Both come from the eta quotient t = (eta(2 tau) / eta(tau))^24 =
q (E(q^2) / E(q))^24, E(x) = prod (1 - x^n): j = (1 + 256 t)^3 / t, and
gamma_2 = (1 + 256 t) / t^(1/3) with t^(1/3) = q^(1/3) (E(q^2) / E(q))^8,
q^(1/3) = e^(2 pi i tau / 3).  Each is a quotient of integer powers of
q-products and of q or q^(1/3), so no branch of a root is involved, and E is
a sparse series by Euler's pentagonal number theorem.  The series, and
E(q^2)/E(q) with its 8th and 24th powers, are summed in fixed-point
integers; mpmath gives q and the few operations after the series.

For 3 ∤ D, H_D comes from W = prod (X - gamma_2(tau)), gamma_2 a class
invariant with a third of j's height (Enge and Morain, ANTS 2002), so W
needs about a third of the bits, and H_D follows from W by an exact identity
over Z.  For 3 | D, H_D is the product of the (X - j) themselves.

The values carry proven error bounds, and their product is taken in
fixed-point integers and rounded only where an error bound certifies it
(_assemble, after Enge, Math. Comp. 78 (2009)); the same bound sets the
working precision.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import mpmath
from mpmath.libmp import to_fixed

from .errors import DomainError, PrecisionError
from .numbase import is_prime
from .quadforms import CMPoint, QuadForm, cm_point, reduced_forms

__all__ = ["ClassPolynomial", "j_eval", "hilbert_class_poly", "hilbert_class_poly_from_j", "classpoly_mod"]

_MIN_PRECISION = 64
_MAX_DOUBLINGS = 2
_SQRT3_HALF_SLACK = 1e-9
# bits of j_eval's fixed point beyond its working precision (its proof
# takes 2^-scale <= u/512)
_SERIES_GUARD_BITS = 8


@dataclass(frozen=True)
class ClassPolynomial:
    """Monic H_D of degree h(D) with exact integer coefficients, ascending."""

    D: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> str:
        return json.dumps(
            {"D": str(self.D), "h": self.degree, "coeffs": [str(c) for c in self.coeffs]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, blob: str) -> "ClassPolynomial":
        data = json.loads(blob)
        return cls(D=int(data["D"]), coeffs=tuple(int(c) for c in data["coeffs"]))


def _cmul(x: tuple[int, int], y: tuple[int, int], scale: int) -> tuple[int, int]:
    """The product of two complex numbers in fixed point, pairs (re, im) of
    integers that stand for (re + i im) / 2^scale; each part is floored back
    to the scale, so the product errs by less than 2^-scale in each part."""
    return (x[0] * y[0] - x[1] * y[1]) >> scale, (x[0] * y[1] + x[1] * y[0]) >> scale


def _euler_products(q: tuple[int, int], n_max: int, scale: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """E(q) and E(q^2) for E(x) = prod_(n >= 1) (1 - x^n), each summed over
    its terms q^n with n <= n_max, with q and both values in fixed point at
    scale 2^scale (see _cmul).

    E(x) = 1 + sum_(k >= 1) (-1)^k (x^(k(3k-1)/2) + x^(k(3k+1)/2)) (Euler's
    pentagonal number theorem).  Each power of q is the previous one of its
    sequence times q^(3k+1) or q^(3k+2), themselves updated by one product
    with q^3, and the terms of E(q^2) are their squares: one _cmul per
    term, and the sums are exact.
    """
    mul = functools.partial(_cmul, scale=scale)
    q2 = mul(q, q)
    q3 = mul(q2, q)
    a, b = q, q2  # q^(k(3k-1)/2) and q^(k(3k+1)/2) for k = 1
    step_a, step_b = mul(q3, q), mul(q3, q2)  # q^(3k+1) and q^(3k+2)
    e1 = [1 << scale, 0]
    e2 = [1 << scale, 0]
    k = 1
    while k * (3 * k - 1) // 2 <= n_max:
        sign = -1 if k % 2 else 1
        e1[0] += sign * (a[0] + b[0])
        e1[1] += sign * (a[1] + b[1])
        if k * (3 * k - 1) <= n_max:
            a2, b2 = mul(a, a), mul(b, b)
            e2[0] += sign * (a2[0] + b2[0])
            e2[1] += sign * (a2[1] + b2[1])
        a = mul(a, step_a)
        b = mul(b, step_b)
        step_a = mul(step_a, q3)
        step_b = mul(step_b, q3)
        k += 1
    return (e1[0], e1[1]), (e2[0], e2[1])


def _quotient_powers(e1: tuple[int, int], e2: tuple[int, int], scale: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """r^8 and r^24 for r = e2 / e1, all in fixed point at scale 2^scale:
    r = e2 conj(e1) / |e1|^2 with each part floored to the scale (so it errs
    by less than 2^-scale in each part), then three squarings to r^8 and
    one squaring and one product to r^24, by _cmul."""
    den = e1[0] * e1[0] + e1[1] * e1[1]
    r = ((e2[0] * e1[0] + e2[1] * e1[1]) << scale) // den, ((e2[1] * e1[0] - e2[0] * e1[1]) << scale) // den
    for _ in range(3):
        r = _cmul(r, r, scale)
    return r, _cmul(_cmul(r, r, scale), r, scale)


def _to_fixed(z: mpmath.mpc, scale: int) -> tuple[int, int]:
    """floor(Re z 2^scale) and floor(Im z 2^scale)."""
    return to_fixed(z.real._mpf_, scale), to_fixed(z.imag._mpf_, scale)


def _from_fixed(z: tuple[int, int], scale: int) -> mpmath.mpc:
    """(re + i im) / 2^scale, each part rounded to the working precision."""
    return mpmath.mpc(mpmath.mpf((z[0], -scale)), mpmath.mpf((z[1], -scale)))


def j_eval(tau: CMPoint, precision_bits: int, height: int = 1) -> mpmath.mpc:
    """j(tau)^(1/height) for height 1 (j) or 3 (gamma_2, the holomorphic cube
    root q^(-1/3) (1 + 248 q + ...) of j), with absolute error
    <= 2^(8 - precision_bits) * max(1, |value|), for |D| < 2^40 and
    precision_bits < 2^40 (far beyond any H_D that can be computed).

    mpmath works at w = precision_bits + 32 bits: q_h =
    e^(2 pi i tau / height), q = q_h^height, and the last steps below.  The
    series of E(q) and E(q^2) (_euler_products) drop the terms q^n with
    n > n_max, |q|^n_max <= 2^-w, and run in fixed point at scale 2^F,
    F = w + _SERIES_GUARD_BITS, from q floored to that scale, and so do
    r = E(q^2)/E(q), r^8 and r^24 (_quotient_powers).  With t = q r^24 and
    U = 1 + 256 t, j = U^3/t and gamma_2 = U/(q_h r^8).  With u = 2^(1-w),
    every real operation of mpmath, and the rounding of a fixed-point part
    to w bits, errs by at most u relatively, and every complex product or
    quotient, or exp of a complex argument, by at most 4u.  Every fixed-point
    step errs by less than eps = 2^-F = u/512 in each part.  Every error
    below stays under 2^31 u, and u <= 2^-95, so the products of two errors
    that the bounds drop are below 2^-33 u.

    Proof of the error.  tau is reduced: Im tau >= sqrt(3)/2, so
    |q| < 0.0044, and |tau| <= sqrt(|D| + 1)/2.
    * Tail: every dropped term has exponent n > n_max, so each series loses
      less than sum_(n > n_max) |q|^n < 0.005 * 2^-w, and |E(q)|, |E(q^2)|
      lie in [0.995, 1.005].
    * q: the argument 2 pi i tau / height has modulus at most
      pi sqrt(|D| + 1) and is formed with absolute error
      <= 7u pi sqrt(|D| + 1), so q_h errs relatively by
      e_h <= (22 sqrt(|D| + 1) + 5) u, and q = q_h, or q_h^3 by two
      products, by e_q <= 3 e_h + 8u <= (66 sqrt(|D| + 1) + 23) u.
    * Series, in absolute errors: q floored to the scale, q', lies within
      0.0044 e_q + 1.42 eps of q.  Every value _euler_products keeps stands
      for a power q'^m, m >= 1, of modulus below 0.0045, and lies within
      1.5 eps of it: q' itself does, and a product of two such values errs
      by at most 2 (0.0045) (1.5 eps) + 1.42 eps < 1.5 eps.  In K rounds
      each series sums at most 2K terms, so it lies within 3K eps of the
      same truncated series at q'; those differ from the ones at q by at
      most sum_(n >= 1) n 0.0045^(n-1) |q' - q| < 1.01 |q' - q|, and the
      tail adds 0.005 * 2^-w = u/400.  As |E| >= 0.995, E(q) and E(q^2)
      err relatively by e_E <= e_q / 150 + (K + 2) u / 100, and so by
      e_E <= e_q / 32 + 8 K u.
    * r: the quotient of the two series errs by 2 e_E, and its floor by
      1.5 eps more, relatively: e_r <= 2 e_E + 5u.  Each squaring or
      product of r's powers, of modulus in [0.77, 1.3], adds the relative
      errors of its factors and less than 2 eps, so r^8 errs by
      8 e_r + 14 eps and r^24 by 24 e_r + 46 eps, both below u/10 over
      the multiples of e_r.
    * t = q r^24: with the rounding of r^24 to w bits and the product,
      e_t <= e_q + 24 e_r + 24u <= (165 sqrt(|D| + 1) + 400 K + 210) u.
    * U: |t| < 0.0056, so |U| < 2.5 and U errs absolutely by at most
      1.44 e_t + 3u.  When |U| < 1/2, |t| > 1/512.
    * U^3/t (height 1): if |U| >= 1/2, j errs relatively by at most
      10 e_t + 30u.  If |U| < 1/2, |j| < 64, and j errs absolutely by at most
      620 e_t + 2200u.
    * U/(q_h r^8) (height 3): r^8 rounded to w bits and the product
      d = q_h r^8 leave d with relative error e_h + 8 e_r + 32u <=
      e_t/3 + 32u.  If |U| >= 1/2, gamma_2 errs relatively by at most
      2.88 e_t + 6u + e_t/3 + 36u, a few e_t.  If |U| < 1/2,
      |d| = |t|^(1/3) > 1/8 and |gamma_2| < 4, and gamma_2 errs absolutely
      by at most 8 (1.44 e_t + 3u) + 4 (e_t/3 + 32u) + 16u <=
      13 e_t + 170u.
    So j errs by at most 2^18 (sqrt(|D| + 1) + K + 1) u max(1, |j|), and
    gamma_2 by at most 2^13 (sqrt(|D| + 1) + K + 1) u max(1, |gamma_2|).
    While sqrt(|D| + 1) + K < 2^21 these are below 2^(8 - precision_bits)
    max(1, |j|) and 2^(3 - precision_bits) max(1, |gamma_2|).
    """
    if height not in (1, 3):
        raise DomainError(f"j_eval evaluates j or its cube root gamma_2, not j^(1/{height})")
    if precision_bits < _MIN_PRECISION:
        precision_bits = _MIN_PRECISION
    # reduced CM points satisfy im >= sqrt(3)/2
    if tau.im < math.sqrt(3) / 2 - _SQRT3_HALF_SLACK:
        raise DomainError("j_eval expects a reduced CM point (im >= sqrt(3)/2)")
    work = precision_bits + 32
    with mpmath.workprec(work):
        im = mpmath.sqrt(tau.abs_D) / tau.two_a
        re = mpmath.mpf(tau.minus_b) / tau.two_a
        n_max = int(mpmath.ceil(work * mpmath.log(2) / (2 * mpmath.pi * im)))
        q_h = mpmath.exp(2j * mpmath.pi * mpmath.mpc(re, im) / height)
        q = q_h if height == 1 else q_h * q_h * q_h
        scale = work + _SERIES_GUARD_BITS
        e1, e2 = _euler_products(_to_fixed(q, scale), n_max, scale)
        r8, r24 = _quotient_powers(e1, e2, scale)
        t = q * _from_fixed(r24, scale)
        u = 1 + 256 * t
        if height == 1:
            return u * u * u / t
        return u / (q_h * _from_fixed(r8, scale))


# log2 of the factor of j_eval's stated error: 2^(8 - bits) max(1, |j|)
_J_ERROR_BITS = 8


def _j_value(f: QuadForm, d: int, bits: int) -> tuple[mpmath.mpc, float]:
    """j(tau_f) and log2 of its relative error (see j_eval)."""
    return j_eval(cm_point(f, d), bits), _J_ERROR_BITS - bits


# the fixed-point scale of _gamma2_estimate's series
_ESTIMATE_BITS = 64


def _gamma2_estimate(tau: CMPoint) -> float:
    """|gamma_2(tau)| e^(-2 pi Im(tau)/3) in double precision, the size of
    gamma_2 that _initial_precision reads.

    gamma_2 = (1 + 256 t) / t^(1/3) with t^(1/3) = q^(1/3) (E(q^2)/E(q))^8,
    and |q^(1/3)| = e^(-2 pi Im(tau)/3), the factor divided out, which keeps
    the value near 1 for every D.  E(q) and E(q^2) are _euler_products at
    scale 2^_ESTIMATE_BITS, q = e^(2 pi i tau) from math.exp, math.cos and
    math.sin.
    """
    x, y = tau.minus_b / tau.two_a, math.sqrt(tau.abs_D) / tau.two_a
    size = math.exp(-2 * math.pi * y)
    q = complex(size * math.cos(2 * math.pi * x), size * math.sin(2 * math.pi * x))
    fixed = (round(math.ldexp(q.real, _ESTIMATE_BITS)), round(math.ldexp(q.imag, _ESTIMATE_BITS)))
    e1, e2 = _euler_products(fixed, math.ceil(60 * math.log(2) / (2 * math.pi * y)), _ESTIMATE_BITS)
    r8 = (complex(*e2) / complex(*e1)) ** 8
    return abs((1 + 256 * q * r8**3) / r8)


def _gamma2_steps(f: QuadForm) -> int:
    """m (mod 3) with gamma_2(tau_g) = zeta_3^m gamma_2(tau_f) for a form g
    equivalent to f with 3 ∤ a and 3 | b, where gamma_2 is a class invariant
    when 3 ∤ D.

    gamma_2(-1/tau) = gamma_2(tau) and gamma_2(tau - k) = zeta_3^k
    gamma_2(tau).  S = (c, -b, a) gives 3 ∤ a when 3 | a; when 3 | c as
    well (then 3 ∤ b), one step tau -> tau - 1, to (a, b + 2a, a + b + c),
    comes first.  Then tau -> tau - k takes b to b + 2ak, and k = ab (mod 3)
    makes it 0 mod 3, since a^2 = 1 (mod 3).
    """
    a, b, c = f.a, f.b, f.c
    m = 0
    if a % 3 == 0:
        if c % 3 == 0:
            b, c, m = b + 2 * a, a + b + c, 1
        a, b = c, -b
    return (m + a * b) % 3


def _gamma2_value(f: QuadForm, d: int, bits: int) -> tuple[mpmath.mpc, float]:
    """gamma_2 at the normalized CM point of f's class (see _gamma2_steps),
    zeta_3^m gamma_2(tau_f), and log2 of its relative error.

    j_eval's gamma_2(tau_f) errs by at most 2^(3 - bits) max(1, |gamma_2|)
    (see its proof).  zeta_3^m = ((-1 + i sqrt(3))/2)^m, formed at
    bits + 32, and the product add at most 2^(-27 - bits) |gamma_2|, so the
    value keeps j_eval's stated error 2^(8 - bits) max(1, |gamma_2|).
    """
    value = j_eval(cm_point(f, d), bits, 3)
    with mpmath.workprec(bits + 32):
        return value * (mpmath.mpc(-1, mpmath.sqrt(3)) / 2) ** _gamma2_steps(f), _J_ERROR_BITS - bits


# bits the start precision keeps above the bound's need; the estimates of
# |j| and |gamma_2| are good to a fraction of a bit
_GUARD_BITS = 20


def _initial_precision(D: int, forms, height: int = 1) -> int:
    """Working bits for the class polynomial of an invariant of 1/height of
    j's height (3 for gamma_2): _assemble's bound E at delta = 2^(8 - bits),
    j_eval's error, evaluated on double-precision estimates of the values,
    is 2^-(1 + _GUARD_BITS).

    log2 |gamma_2(tau)| is that of _gamma2_estimate times its scale
    e^(2 pi Im(tau)/3); |j| is its cube, and the value its height-th root.
    """
    log2_s = 0.0
    for f in forms:
        tau = cm_point(f, D)
        # the estimate is 0 at tau = rho, where j = 0
        log2_gamma2 = math.log2(_gamma2_estimate(tau) or 1.0) + 2 * math.pi * tau.im / (3 * math.log(2))
        log2_s += _log2_one_plus(max(0.0, 3 * log2_gamma2 / height))
    bits = math.ceil(log2_s + math.log2(10 * len(forms))) + _J_ERROR_BITS + 1 + _GUARD_BITS
    return max(_MIN_PRECISION, bits)


def _log2_one_plus(x: float) -> float:
    """log2(1 + 2^x) for x >= 0."""
    return x + math.log2(1 + 2.0**-x)


@functools.lru_cache(maxsize=None)
def hilbert_class_poly(D) -> ClassPolynomial:
    """H_D(X) = prod over reduced forms of (X - j(tau_f)), exactly.

    For 3 ∤ D it is computed from W(X) = prod (X - gamma_2(tau_f)) by the
    identity of _h_from_w, for 3 | D from the j(tau_f) themselves.  The
    coefficients of W or H_D are rounded only under a proven error bound
    below 1/2 (see _assemble); the precision is doubled at most twice when
    the bound does not certify them, and nothing is rounded silently.
    Computed once per D per process (an lru_cache); nothing is read from
    or written to disk.
    """
    d = int(D)
    if d % 3 == 0:
        return hilbert_class_poly_from_j(d)
    # gamma_2 is a class invariant exactly when 3 ∤ D
    w = _rounded_product(d, reduced_forms(d), _gamma2_value, 3)
    return ClassPolynomial(D=d, coeffs=tuple(_h_from_w(w)))


def hilbert_class_poly_from_j(D: int) -> ClassPolynomial:
    """H_D as the product of the (X - j(tau_f)) themselves, for every D:
    the route hilbert_class_poly takes for 3 | D, and a second, independent
    one for 3 ∤ D (no cache)."""
    d = int(D)
    return ClassPolynomial(D=d, coeffs=tuple(_rounded_product(d, reduced_forms(d), _j_value, 1)))


def _rounded_product(d: int, forms, value, height: int) -> list[int]:
    """_assemble from _initial_precision on, doubling the precision at most
    twice; PrecisionError when no attempt is certified."""
    bits = _initial_precision(d, forms, height)
    last_gap = None
    for _ in range(_MAX_DOUBLINGS + 1):
        result = _assemble(d, forms, bits, value)
        if result is not None:
            return result
        last_gap = bits
        bits *= 2
    raise PrecisionError(f"class polynomial of D = {d} not certified at {last_gap} bits (twice doubled)")


def _assemble(d: int, forms, bits: int, value=_j_value) -> list[int] | None:
    """The integer coefficients of prod over forms f of (X - x_f), x_f =
    value(f, d, bits), ascending, or None when the error bound does not
    certify them.

    value gives x_f and log2 of delta_f, with |x_f - exact| <= delta_f
    max(1, |exact|); delta is the largest delta_f.  Forms pair up under
    b -> -b, whose values are complex conjugates, and boundary forms (b = 0,
    b = a, a = c) have real values, so the leaves are real: X - x and
    X^2 - 2 Re(x) X + |x|^2.  They and every product-tree node hold
    integers scaled by 2^P, P = bits + 48, and each node product is
    truncated back to that scale.

    The bound.  Let M_f >= max(1, |exact x_f|) and S = prod (1 + M_f) over
    all forms.  Every node's exact polynomial is dominated coefficientwise
    by prod (X + M_f) over its forms, whose coefficients sum to its value at
    1.  Measure a node's error rho by the sum of its coefficient errors over
    that value.  With theta = delta + 1.5 2^-P (reading x_f in fixed point
    errs by at most sqrt(2) 2^-P), a linear leaf has rho <= theta and a
    quadratic one rho <= 3 theta + 2^-P / 4; a product node has 1 + rho <=
    (1 + rho_left)(1 + rho_right)(1 + 2^-P), as its degree + 1 is at most
    2^degree, at most the value at 1.  So at the root 1 + rho <=
    exp(lambda), lambda <= 5h t for t = max(delta, 2^-P), and every
    coefficient errs by at most E = 2 lambda S = 10h S t while lambda <= 1.
    M_f = max(1, |x^|)(1 + 5t), for x^ the value read in fixed point,
    bounds max(1, |exact x_f|) when delta <= 1/2.  log2 S is summed in
    doubles, each term raised by 2^-30 for their rounding.

    A coefficient c is rounded when E < 1/2 and |c - nint(c)| <= E: the
    exact integer lies within E of c, so it is nint(c), and a distance
    above E shows the bound broken.
    """
    P = bits + 48
    one = 1 << P
    leaves, log2_m, log2_delta = [], [], -math.inf
    for f in forms:
        if f.b < 0:
            continue  # the mirror of a paired form
        x, err = value(f, d, bits)
        log2_delta = max(log2_delta, err)
        re = int(mpmath.ldexp(x.real, P))
        if f.b == 0 or f.b == f.a or f.a == f.c:
            leaves.append([-re, one])
            log2_m.append(math.log2(max(abs(re), one)) - P)
        else:
            im = int(mpmath.ldexp(x.imag, P))
            norm = re * re + im * im
            leaves.append([norm >> P, -2 * re, one])
            log2_m += [math.log2(max(norm, one << P)) / 2 - P] * 2
    log2_t = max(log2_delta, -P)
    # log2(1 + 5t) <= 2^(3 + log2 t); at t >= 1/8, E > 1/2 anyway
    slack = 2.0 ** min(log2_t + 3, 0.0) + 2.0**-30
    log2_s = math.fsum(_log2_one_plus(m + slack) for m in log2_m)
    log2_e = log2_s + math.log2(10 * len(forms)) + log2_t
    if not log2_e < -1:
        return None
    out = []
    for c in _product_tree(leaves, P):
        r = (c + (one >> 1)) >> P
        gap = abs(c - (r << P))
        if gap and math.log2(gap) - P > log2_e:
            return None
        out.append(r)
    return out


def _product_tree(polys: list[list[int]], P: int) -> list[int]:
    """The product of the ascending lists of integers scaled by 2^P, halves
    first, every node truncated back to scale 2^P."""
    if len(polys) == 1:
        return polys[0]
    mid = len(polys) // 2
    return _fixed_mul(_product_tree(polys[:mid], P), _product_tree(polys[mid:], P), P)


def _fixed_mul(a: list[int], b: list[int], P: int) -> list[int]:
    """floor(c / 2^P) for each coefficient c of a b, from one integer
    product of a and b packed in signed slots (Kronecker substitution)."""
    n = len(a) + len(b) - 1
    # no coefficient of a b reaches 2^(8 width - 1) in absolute value
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = bound.bit_length() // 8 + 1
    k = 8 * width
    va, vb = (sum(x << (k * i) for i, x in enumerate(poly)) for poly in (a, b))
    return [c >> P for c in _signed_slots(va * vb, width, n)]


def _signed_slots(v: int, width: int, n: int) -> list[int]:
    """c_0 .. c_(n-1) from v = sum c_i 256^(width i), |c_i| < 2^(8 width - 1):
    adding 2^(8 width - 1) to every slot makes each a digit in [0, 256^width)."""
    half = 1 << (8 * width - 1)
    raw = (v + int.from_bytes(half.to_bytes(width, "little") * n, "little")).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, width * n, width)]


def _h_from_w(w: list[int]) -> list[int]:
    """H_D from W = prod (X - gamma_2) in Z[X], both ascending.

    With W = P_0(X^3) + X P_1(X^3) + X^2 P_2(X^3) and z = zeta_3,
    W(X) W(zX) W(z^2 X) = prod (X^3 - gamma_2^3) = H_D(X^3), and the norm
    form a^3 + b^3 + c^3 - 3abc of the cubic gives, with Y = X^3,
    H_D(Y) = P_0^3 + Y P_1^3 + Y^2 P_2^3 - 3Y P_0 P_1 P_2.

    It is evaluated at Y = x^3, x = 2^k, in integers (Kronecker
    substitution): a = P_0(Y), b = x P_1(Y) and c = x^2 P_2(Y) are the
    parts of S = W(x), and a^3 + b^3 + c^3 - 3abc = S^3 - 3S(ab + bc + ca).
    No coefficient of H_D exceeds 6 m^3 l^2 in absolute value, for
    m = max |w_i| and l the length of P_0, so k is chosen with 2^(3k - 1)
    above that, and H_D is read back from slots of 3k bits.
    """
    n = len(w)
    bound = 6 * max(map(abs, w)) ** 3 * ((n + 2) // 3) ** 2
    k = 8 * -(-(bound.bit_length() + 1) // 24)  # slots of whole bytes
    a, b, c = (sum(x << (k * i) for i, x in enumerate(w) if i % 3 == r) for r in range(3))
    s = a + b + c
    v = s * (s * s - 3 * (a * (b + c) + b * c))
    return _signed_slots(v, 3 * k // 8, n)


def classpoly_mod(H: ClassPolynomial, p: int) -> list[int]:
    """Coefficientwise reduction mod p; monic of degree h, ascending."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return [c % p for c in H.coeffs]

