"""High-precision evaluation of the modular j-function at CM points and
assembly of Hilbert class polynomials over Z.

j is computed from the eta quotient t = (eta(2 tau) / eta(tau))^24 =
q (E(q^2) / E(q))^24, E(x) = prod (1 - x^n), as j = (1 + 256 t)^3 / t.  t is
an integer power of a quotient of q-products, so no branch of a root is
involved, and E is a sparse series by Euler's pentagonal number theorem.
Arbitrary precision arithmetic is delegated to mpmath; BigFloatComplex is an
``mpmath.mpc`` at the stated working precision.

For 3 ∤ D, H_D comes from W = prod (X - gamma_2(tau)), gamma_2 = j^(1/3) a
class invariant with a third of j's height (Enge and Morain, ANTS 2002), so
W needs about a third of the bits.  Each gamma_2 is a cube root of j_eval's
value: the branch is the one nearest a double-precision estimate, a
certified choice.  H_D follows from W by an exact identity over Z.  For
3 | D, H_D is the product of the (X - j) themselves.

The values carry proven error bounds, and their product is taken in
fixed-point integers and rounded only where an error bound certifies it
(_assemble, after Enge, Math. Comp. 78 (2009)); the same bound sets the
working precision.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass

import mpmath

from .errors import CertificateError, DomainError, PrecisionError
from .numbase import is_prime
from .quadforms import CMPoint, QuadForm, class_number, cm_point, reduced_forms

__all__ = ["ClassPolynomial", "j_eval", "hilbert_class_poly", "hilbert_class_poly_from_j", "classpoly_mod"]

_MIN_PRECISION = 64
_MAX_DOUBLINGS = 2
_SQRT3_HALF_SLACK = 1e-9


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


def _euler_products(q: mpmath.mpc | complex, n_max: int) -> tuple[mpmath.mpc | complex, mpmath.mpc | complex]:
    """E(q) and E(q^2) for E(x) = prod_(n >= 1) (1 - x^n), each summed over
    its terms q^n with n <= n_max.

    E(x) = 1 + sum_(k >= 1) (-1)^k (x^(k(3k-1)/2) + x^(k(3k+1)/2)) (Euler's
    pentagonal number theorem).  Each power of q is the previous one of its
    sequence times q^(3k+1) or q^(3k+2), themselves updated by one product
    with q^3, and the terms of E(q^2) are their squares: at these
    precisions mpmath's integer powers cost far more than products.
    """
    q2 = q * q
    q3 = q2 * q
    a, b = q, q2  # q^(k(3k-1)/2) and q^(k(3k+1)/2) for k = 1
    step_a, step_b = q3 * q, q3 * q2  # q^(3k+1) and q^(3k+2)
    e1 = e2 = 1  # takes the type of q: an mpc, or a Python complex
    k = 1
    while k * (3 * k - 1) // 2 <= n_max:
        s1 = a + b
        s2 = a * a + b * b if k * (3 * k - 1) <= n_max else 0
        if k % 2:
            e1, e2 = e1 - s1, e2 - s2
        else:
            e1, e2 = e1 + s1, e2 + s2
        a *= step_a
        b *= step_b
        step_a *= q3
        step_b *= q3
        k += 1
    return e1, e2


def j_eval(tau: CMPoint, precision_bits: int) -> mpmath.mpc:
    """j(tau) with absolute error <= 2^(8 - precision_bits) * max(1, |j|),
    for |D| < 2^40 and precision_bits < 2^40 (far beyond any H_D that can be
    computed).

    Works at w = precision_bits + 32 bits; the series of E(q) and E(q^2)
    drop the terms q^n with n > n_max, |q|^n_max <= 2^-w.  With u = 2^(1-w),
    every real operation of mpmath errs by at most u relatively, and every
    complex product or quotient, or exp of a complex argument, by at most 4u.

    Proof of the error.  tau is reduced: Im tau >= sqrt(3)/2, so
    |q| < 0.0044, and |tau| <= sqrt(|D| + 1)/2.
    * Tail: every dropped term has exponent n > n_max, so each series loses
      less than sum_(n > n_max) |q|^n < 0.005 * 2^-w, and |E(q)|, |E(q^2)|
      lie in [0.995, 1.005].
    * q: the argument 2 pi i tau has |2 pi tau| <= pi sqrt(|D| + 1) and is
      formed with absolute error <= 7u pi sqrt(|D| + 1), so q errs relatively
      by e_q <= (22 sqrt(|D| + 1) + 5) u.
    * Products: the K = O(sqrt(n_max)) rounds of _euler_products make about
      6K products.  The term of exponent n carries a relative error of at
      most n e_q + 24 K u, but weighs |q|^n, so the products and the 4K
      additions leave E(q) and E(q^2) with relative error
      e_E <= e_q / 32 + 8 K u.
    * r^24: r = E(q^2)/E(q) errs by e_r <= 2 e_E + 5u, and the 24th power
      multiplies that 24-fold: t = q r^24 errs by
      e_t <= e_q + 24 e_r + 24u <= (60 sqrt(|D| + 1) + 400 K + 160) u.
    * U^3/t: |t| < 0.0056, so with U = 1 + 256 t, |U| < 2.5 and U errs
      absolutely by at most 1.44 e_t + 3u.  If |U| >= 1/2, j = U^3/t errs
      relatively by at most 10 e_t + 30u.  If |U| < 1/2, then |t| > 1/512
      and |j| < 64, and j errs absolutely by at most 620 e_t + 2200u.
    So j errs by at most 2^18 (sqrt(|D| + 1) + K + 1) u max(1, |j|), which is
    below 2^(8 - precision_bits) max(1, |j|) while sqrt(|D| + 1) + K < 2^21.
    """
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
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(re, im))
        e1, e2 = _euler_products(q, n_max)
        r = e2 / e1
        r2 = r * r
        r4 = r2 * r2
        r8 = r4 * r4
        t = q * (r8 * r8) * r8  # q r^24
        u = 1 + 256 * t
        return u * u * u / t


# log2 of the factor of j_eval's stated error: 2^(8 - bits) max(1, |j|)
_J_ERROR_BITS = 8


def _j_value(f: QuadForm, d: int, bits: int) -> tuple[mpmath.mpc, float]:
    """j(tau_f) and log2 of its relative error (see j_eval)."""
    return j_eval(cm_point(f, d), bits), _J_ERROR_BITS - bits


def _gamma2_estimate(tau: CMPoint) -> complex:
    """gamma_2(tau) e^(-2 pi Im(tau)/3) in double precision.

    gamma_2 = (1 + 256 t) / t^(1/3) with t^(1/3) = q^(1/3) (E(q^2)/E(q))^8
    and q^(1/3) = e^(2 pi i tau / 3).  The positive factor keeps the value
    near the unit circle for every D and does not change which cube root of
    j lies nearest it.
    """
    x, y = tau.minus_b / tau.two_a, math.sqrt(tau.abs_D) / tau.two_a
    q = cmath.exp(2j * math.pi * complex(x, y))
    e1, e2 = _euler_products(q, math.ceil(60 * math.log(2) / (2 * math.pi * y)))
    r8 = (e2 / e1) ** 8
    return cmath.exp(-2j * math.pi * x / 3) * (1 + 256 * q * r8**3) / r8


def _nearest_cube_root(cube: complex, estimate: complex) -> complex:
    """The cube root r of cube that lies nearest estimate.

    With u the principal cube root of estimate^3 / cube, r = estimate / u,
    and |estimate - r| = |r| |u - 1|.  The three roots lie sqrt(3)|r|
    apart; unless estimate lies within half of that of r, another root
    could be as near, so the choice is not certified and CertificateError
    is raised.
    """
    u = (estimate**3 / cube) ** (1 / 3)
    if not abs(u - 1) < math.sqrt(3) / 2:
        raise CertificateError(f"cube root branch not certified: estimate {estimate}, cube {cube}")
    return estimate / u


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


def _newton_precisions(target: int) -> list[int]:
    """The precisions of the Newton steps that refine a 48-bit cube root:
    each doubles the bits, and the last reaches target."""
    out = []
    p = 48
    while p < target:
        p = min(2 * p, target)
        out.append(p)
    return out


def _gamma2_value(f: QuadForm, d: int, bits: int) -> tuple[mpmath.mpc, float]:
    """gamma_2 at the normalized CM point of f's class (see _gamma2_steps),
    as a cube root of j_eval's j(tau_f), and log2 of its relative error.

    The error is certified a posteriori.  With g the value and e >= |g^3 - j|
    (the computed residual, its rounding and j_eval's error), the three
    distances from g to the cube roots of j multiply to |g^3 - j|, so the
    least, m, is at most e^(1/3).  When 8e <= |g|^3, m <= |g|/2, the other
    two roots lie at least (sqrt(3) - 1/2)|g| from g, and m <= e/|g|^2.
    That nearest root is the branch chosen in doubles (start) when
    |g - start| <= |g|/4: the other roots lie sqrt(3)|gamma_2| >= 0.86|g|
    from it.  Then |g - gamma_2| / max(1, |gamma_2|) <= 2e / (|g|^2
    max(1, |g|)), as |gamma_2| >= |g|/2.  When 8e > |g|^3 the error is
    infinite; a g that left the branch raises CertificateError.
    """
    tau = cm_point(f, d)
    j = j_eval(tau, bits)
    with mpmath.workprec(64):
        # the scale of _gamma2_estimate: gamma_2(tau_f) / scale is near 1
        scale = mpmath.exp(2 * mpmath.pi * mpmath.sqrt(tau.abs_D) / (3 * tau.two_a))
        root = _nearest_cube_root(complex(j / scale**3), _gamma2_estimate(tau))
        start = root = scale * mpmath.mpc(root * cmath.exp(2j * math.pi * _gamma2_steps(f) / 3))
    # root holds about 50 correct bits, and Newton's step x -> (2x + j/x^2)/3
    # doubles them for the cube root of j that x is near
    for p in _newton_precisions(bits + 16):
        with mpmath.workprec(p + 16):
            root = (2 * root + j / (root * root)) / 3
    with mpmath.workprec(bits + 32):
        residual = root * root * root - j
    with mpmath.workprec(53):
        size = abs(root)
        # j_eval's error and the rounding of the residual
        e = abs(residual) + max(1, abs(j), size**3) * mpmath.ldexp(1, _J_ERROR_BITS + 2 - bits)
        if 8 * e > size**3:
            return root, math.inf
        if abs(root - start) > size / 4:
            raise CertificateError(f"Newton's iteration left the cube root branch at {f}")
        return root, float(mpmath.log(2 * e / (size**2 * max(1, size)), 2))


# bits the start precision keeps above the bound's need; the estimates of
# |j| and |gamma_2| are good to a fraction of a bit, and gamma_2's certified
# error is a few bits above j's
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
        log2_gamma2 = math.log2(abs(_gamma2_estimate(tau)) or 1.0) + 2 * math.pi * tau.im / (3 * math.log(2))
        log2_s += _log2_one_plus(max(0.0, 3 * log2_gamma2 / height))
    bits = math.ceil(log2_s + math.log2(10 * len(forms))) + _J_ERROR_BITS + 1 + _GUARD_BITS
    return max(_MIN_PRECISION, bits)


def _log2_one_plus(x: float) -> float:
    """log2(1 + 2^x) for x >= 0."""
    return x + math.log2(1 + 2.0**-x)


def hilbert_class_poly(D, cache_dir: str | None = None) -> ClassPolynomial:
    """H_D(X) = prod over reduced forms of (X - j(tau_f)), exactly.

    For 3 ∤ D it is computed from W(X) = prod (X - gamma_2(tau_f)) by the
    identity of _h_from_w, for 3 | D from the j(tau_f) themselves.  The
    coefficients of W or H_D are rounded only under a proven error bound
    below 1/2 (see _assemble); the precision is doubled at most twice when
    the bound does not certify them, and nothing is rounded silently.
    Computed once per D per process; entries read from cache_dir are
    validated and recomputed when they fail.
    """
    d = int(D)
    if cache_dir is not None:
        cached = _cache_load(cache_dir, d)
        if cached is not None:
            return cached
    poly = _compute(d)
    if cache_dir is not None:
        _cache_store(cache_dir, poly)
    return poly


@functools.lru_cache(maxsize=None)
def _compute(d: int) -> ClassPolynomial:
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


# -- disk cache (atomic write-then-rename) ----------------------------------

# bump on any change to the evaluation algorithm; keys cache entries
_ALGORITHM_VERSION = 5


def _cache_path(cache_dir: str, D: int) -> str:
    return os.path.join(cache_dir, f"hd_{-D}_v{_ALGORITHM_VERSION}.json")


def _cache_load(cache_dir: str, D: int) -> ClassPolynomial | None:
    """The cached H_D, or None when the entry is missing, unreadable or not a
    monic polynomial of degree h(D) for this D (the caller recomputes it)."""
    path = _cache_path(cache_dir, D)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            poly = ClassPolynomial.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if poly.D != D or poly.coeffs[-1:] != (1,) or poly.degree != class_number(D):
        return None
    return poly


def _cache_store(cache_dir: str, poly: ClassPolynomial) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, poly.D)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(poly.to_json())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
