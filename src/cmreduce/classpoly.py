"""High-precision evaluation of the modular j-function and of gamma_2 =
j^(1/3) at CM points, and assembly of Hilbert class polynomials over Z.

Both come from the eta quotient t = (eta(2 tau) / eta(tau))^24 =
q (E(q^2) / E(q))^24, E(x) = prod (1 - x^n): j = (1 + 256 t)^3 / t, and
gamma_2 = (1 + 256 t) / t^(1/3) with t^(1/3) = q^(1/3) (E(q^2) / E(q))^8,
q^(1/3) = e^(2 pi i tau / 3).  Each is a quotient of integer powers of
q-products and of q or q^(1/3), so no branch of a root is involved, and E is
a sparse series by Euler's pentagonal number theorem.  Everything, from
tau to the coefficients, is computed in Python integers: pi, e^x and
(cos, sin) by private helpers with proven error bounds (argument reduction,
a Taylor sum and repeated squaring; Brent and Zimmermann, Modern Computer
Arithmetic, 4.3-4.4), the series and every value after them in fixed point.

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

from .errors import DomainError, PrecisionError
from .numbase import is_prime
from .quadforms import CMPoint, QuadForm, cm_point, reduced_forms

__all__ = ["ClassPolynomial", "j_eval", "hilbert_class_poly", "hilbert_class_poly_from_j", "classpoly_mod"]

_MIN_PRECISION = 64
_MAX_DOUBLINGS = 2
_SQRT3_HALF_SLACK = 1e-9
# bits of j_eval's fixed point beyond precision_bits
_SCALE_GUARD_BITS = 40
# _exp and _cos_sin reduce their argument below 2^-_REDUCTION_BITS
_REDUCTION_BITS = 12


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
    to the scale, so the product errs by less than 2^-scale in each part.
    Three integer products: (a + bi)(c + di) = (k - b(c + d)) + (k + a(d - c)) i
    for k = c(a + b)."""
    a, b = x
    c, d = y
    k = c * (a + b)
    return (k - b * (c + d)) >> scale, (k + a * (d - c)) >> scale


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


def _cdiv(x: tuple[int, int], y: tuple[int, int], scale: int) -> tuple[int, int]:
    """The quotient x / y of two complex numbers in fixed point (see _cmul),
    for |y| >= 1/2 and scale >= 8: x conj(y) divided by n =
    floor(|y|^2 2^scale), each part floored.  n lies within 1 of
    |y|^2 2^scale >= 2^(scale - 2), so each part errs by less than
    1 + 4.1 |x / y| units of 2^-scale."""
    n = (y[0] * y[0] + y[1] * y[1]) >> scale
    return (x[0] * y[0] + x[1] * y[1]) // n, (x[1] * y[0] - x[0] * y[1]) // n


def _quotient_powers(num: tuple[int, int], den: tuple[int, int], scale: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """s^8 and s^24 for s = num / den, all in fixed point at scale 2^scale:
    s by _cdiv, then three squarings to s^8 and one squaring and one product
    to s^24, by _cmul."""
    s = _cdiv(num, den, scale)
    for _ in range(3):
        s = _cmul(s, s, scale)
    return s, _cmul(_cmul(s, s, scale), s, scale)


@functools.lru_cache(maxsize=8)
def _pi(scale: int) -> int:
    """An integer within 1 of pi 2^scale, for scale >= 1.

    Machin's pi = 16 arctan(1/5) - 4 arctan(1/239), summed at t = scale + g
    bits, g = bitlength(scale) + 8.  A sum arctan(1/x) 2^t = sum_k (-1)^k
    2^t / ((2k + 1) x^(2k+1)) takes floor(2^t / x^(2k+1)) by repeated floor
    division, which is exact, floors its quotient by 2k + 1, and stops at
    the first power that is 0.  So each of its at most t / (2 log2 x) + 2
    terms errs by less than 1, and the alternating tail it drops is below
    1.  The two sums make 16 (t/4 + 3) + 4 (t/15 + 3) < 4.3 t + 60 <
    2^(g - 1) units of 2^-t of error, and rounding to the scale adds at
    most 1/2 unit of 2^-scale.
    """
    t = scale + scale.bit_length() + 8

    def arctan_inv(x: int) -> int:
        power = total = (1 << t) // x
        k, sign = 1, -1
        while power:
            power //= x * x
            k += 2
            total += sign * (power // k)
            sign = -sign
        return total

    g = t - scale
    return (16 * arctan_inv(5) - 4 * arctan_inv(239) + (1 << (g - 1))) >> g


def _taylor(y: int, w: int, sign: int) -> tuple[int, int]:
    """(cosh phi, sinh phi) for sign = 1, (cos phi, sin phi) for sign = -1,
    at scale 2^w, each within 8 units of 2^-w, for phi = y / 2^w in
    [0, 2^-_REDUCTION_BITS).

    They are C = sum_k (sign z)^k / (2k)! and phi S, S = sum_k (sign z)^k /
    (2k + 1)!, for z = phi^2, with the terms k <= n, for the least n with
    2 _REDUCTION_BITS (n + 1) + bitlength((2n + 2)!) - 1 >= w: the first
    term dropped is below 1 unit, and the rest, each below half the one
    before, below 1 more.  The powers p_i = floor(p_(i-1) z / 2^w), i <= m,
    lie within 2 units of z^i 2^w (e_i <= e_(i-1) z + 1).  In blocks of m
    terms (m even, so sign^m = 1), from the top, each sum from k = jm on,
    divided by its own term jm, is A_j = p_0 + (sign p_1 + (... + (sign^(m-1)
    p_(m-1) + T / d_(jm+m)) ...) / d_(jm+2)) / d_(jm+1), for T = A_(j+1)
    p_m / 2^w and d_k = (2k - 1)(2k) in C or (2k)(2k + 1) in S, each
    division floored.  T errs by less than 3.1 units (1 for its floor,
    1.01 * 2 for p_m's error, A_(j+1)'s own error times z^m), and each step
    adds 3 to the error of the one inside divided by d >= 2, so every A_j
    errs by less than 6 units.  So C errs by less than 8 units, and phi S,
    floored, by less than 8 phi + 1 < 2.
    """
    z = y * y >> w
    n, fact = 0, 2  # fact = (2n + 2)!
    while 2 * _REDUCTION_BITS * (n + 1) + fact.bit_length() - 1 < w:
        n += 1
        fact *= (2 * n + 1) * (2 * n + 2)
    m = 2 * max(1, round(math.sqrt(n + 1) / 2))
    powers = [1 << w, z]
    for _ in range(m - 1):
        powers.append(powers[-1] * z >> w)
    c = s = 0
    for start in reversed(range(0, n + 1, m)):
        c = c * powers[m] >> w
        s = s * powers[m] >> w
        for k in reversed(range(start, min(start + m, n + 1))):
            c //= (2 * k + 1) * (2 * k + 2)
            s //= (2 * k + 2) * (2 * k + 3)
            p = powers[k - start]
            if sign < 0 and k & 1:
                p = -p
            c += p
            s += p
    return c, y * s >> w


def _exp(x: int, scale: int) -> int:
    """E with |E - e^y 2^scale| < 2^(1 - scale) e^y 2^scale for y =
    x / 2^scale >= 0 and scale >= 64: e^y in fixed point, relative error
    below 2^(1 - scale).

    phi = y / 2^r < 2^-_REDUCTION_BITS, for r = max(0, bitlength(x) - scale
    + _REDUCTION_BITS), is x itself at scale 2^W, W = scale + r + 5.
    e^phi = cosh phi + sinh phi from _taylor has relative error d_0 <
    10 2^-W (e^phi >= 1), and r squarings, each floored (a relative error
    below 2^-W, as every value is at least 1), give e^y with relative error
    d_r <= exp(2^r (d_0 + 2^-W)) - 1 < 0.35 * 2^-scale.  The floor to the
    scale adds less than 2^-scale <= 2^-scale e^y.
    """
    r = max(0, x.bit_length() - scale + _REDUCTION_BITS)
    w = scale + r + 5
    c, s = _taylor(x << 5, w, 1)
    total = c + s
    for _ in range(r):
        total = total * total >> w
    return total >> (r + 5)


def _cos_sin(theta: int, scale: int) -> tuple[int, int]:
    """C and S within 2 of cos(y) 2^scale and sin(y) 2^scale, for
    y = theta / 2^scale, |y| <= 4 and scale >= 64.

    As in _exp, phi = |y| / 2^r < 2^-_REDUCTION_BITS is |theta| at scale
    2^W, and _taylor gives e^(i phi) within d_0 < 8.3 * 2^-W.  Each of
    the r squarings (c + is)^2 = (c + s)(c - s) + 2cs i floors both parts,
    so |z_(k+1) - v^2| <= |z_k - v| |z_k + v| + sqrt(2) 2^-W for
    v = e^(i 2^k phi), and 1 + d_(k+1) <= (1 + d_k + sqrt(2) 2^-W)^2:
    d_r <= exp(2^r (d_0 + 2 sqrt(2) 2^-W)) - 1 < 0.36 * 2^-scale.  The
    floors to the scale add less than 1 unit of 2^-scale to each part, and
    sin(-y) = -sin(y).
    """
    a = abs(theta)
    r = max(0, a.bit_length() - scale + _REDUCTION_BITS)
    w = scale + r + 5
    c, s = _taylor(a << 5, w, -1)
    for _ in range(r):
        c, s = (c + s) * (c - s) >> w, c * s >> (w - 1)
    c, s = c >> (r + 5), s >> (r + 5)
    return (c, -s) if theta < 0 else (c, s)


def _nome_exponent(tau: CMPoint, height: int, scale: int) -> tuple[int, int]:
    """X and T within 2 of x 2^scale and theta 2^scale, for 1/q_h =
    e^(x + i theta), q_h = e^(2 pi i tau / height): x = 2 pi Im(tau) / height
    = 2 pi sqrt(|D|) / (2a height) and theta = -2 pi Re(tau) / height =
    2 pi b / (2a height), for tau from the reduced form (a, b, c).

    pi and sqrt(|D|) are taken at scale 2^S, S = scale + m, with
    2^m > isqrt(|D|) + 5 > sqrt(|D|) + pi: Pi within 1 of pi 2^S (_pi),
    Sigma = isqrt(|D| 4^S) within 1 of sqrt(|D|) 2^S.  Then 2 Pi Sigma
    errs by less than 2 (sqrt(|D|) + pi) 2^S, which the divisor
    2a height 2^(S + m) >= 2^(S + m + 1) takes below 1 unit, and X floors
    the quotient; T = floor(2b Pi / (2a height 2^m)) errs by less than
    |2b| / (2a 2^m) + 1 <= 2 units, as |b| <= a.  Each quotient is floored
    in two steps, by the power of 2 and then by 2a height.
    """
    m = (math.isqrt(tau.abs_D) + 5).bit_length()
    s = scale + m
    pi = _pi(s)
    root = math.isqrt(tau.abs_D << (2 * s))
    x = (2 * pi * root >> (s + m)) // (tau.two_a * height)
    theta = (-2 * tau.minus_b * pi >> m) // (tau.two_a * height)
    return x, theta


def j_eval(tau: CMPoint, precision_bits: int, height: int = 1) -> tuple[int, int]:
    """j(tau)^(1/height) for height 1 (j) or 3 (gamma_2, the holomorphic cube
    root q^(-1/3) (1 + 248 q + ...) of j), as integers (re, im) with
    (re + i im) / 2^precision_bits within 2^(8 - precision_bits)
    max(1, |value|) of the value, for precision_bits < 2^40 (far beyond any
    H_D that can be computed).

    Everything is in fixed point at scale 2^F, F = b + _SCALE_GUARD_BITS for
    b = max(precision_bits, _MIN_PRECISION), with every product and quotient
    floored (_cmul, _cdiv).  1/q_h = e^(x + i theta) (_nome_exponent) is
    E (C + iS) from _exp and _cos_sin; q_h = e^(-x - i theta) is
    floor(4^F / E) (C - iS), and q = q_h^height.  The series of E(q) and
    E(q^2) (_euler_products) drop the terms q^n with n > n_max,
    |q|^n_max <= 2^-(b + 32), and run K rounds; s = 1/r = E(q)/E(q^2), s^8
    and s^24 follow (_quotient_powers).  U = 1 + 256 t for t = q r^24 =
    q / s^24, j = U^3 / t = U^3 s^24 (1/q) and gamma_2 = U / t^(1/3) =
    U / (q_h r^8) = U s^8 (1/q_h): no step divides by the small q, and the
    large 1/q_h has its full relative precision in fixed point.

    Proof of the error, with eps = 2^-F and complex errors measured by
    modulus.  tau is reduced, Im tau >= sqrt(3)/2, so |q| < 0.0044 and
    |1/q_h| > e^(pi sqrt(3) / 3) > 6.1.
    * 1/q_h: the X / 2^F and T / 2^F of _nome_exponent lie within 2 eps of
      x and theta, which moves e^(x + i theta) by a relative 2.9 eps; E errs
      relatively by 2 eps, C + iS by 2.9 eps, and the floors of their
      product by 0.3 eps: 1/q_h errs relatively by e_h < 8 eps.
    * q: floor(4^F / E) errs relatively by 2.1 eps and by 1 unit, so q_h
      errs by less than 7.8 eps |q_h| + 2.5 eps: 2.6 eps at height 1, and
      3.8 eps at height 3, |q_h| < 0.17, where the two products q_h^3 err
      by less than 3 |q_h|^2 3.8 eps + 1.7 eps < 2.1 eps.  So the q' that
      the series start from lies within 3 eps of q.
    * Series: every value _euler_products keeps stands for a power q'^m,
      m >= 1, of the q' it starts from, of modulus below 0.0045, and lies
      within 1.5 eps of it: q' itself does, and a product of two such values
      errs by less than 2 (0.0045)(1.5 eps) + 1.42 eps < 1.5 eps.  Each
      series sums at most 2K terms, so it lies within 3K eps of the same
      truncated series at q'; those differ from the ones at q by less than
      sum_(n >= 1) n 0.0045^(n-1) |q' - q| < 3.1 eps, and the tail is below
      0.0045 2^-(b + 32) < 1.2 eps.  |E(q)| and |E(q^2)| lie in
      [0.995, 1.005], so each errs relatively by e_E < (3.1 K + 4.3) eps.
    * s: |s| lies in [0.99, 1.01] and _cdiv adds less than 7.4 eps, so
      e_s < 2 e_E + 7.4 eps < (6.2 K + 17) eps.  Each product of its
      powers, of modulus in [0.8, 1.25], adds the relative errors of its
      factors and 1.8 eps, so s^8 errs by e_8 < 8 e_s + 13 eps <
      (50 K + 150) eps and s^24 by e_24 < 24 e_s + 41 eps < (150 K + 450) eps.
    * U: |256 t| = 256 |q / s^24| < 1.4, and 256 q / s^24 from _cdiv errs by
      less than 256 (3 eps) / 0.8 + 1.41 e_24 + 9.6 eps, so |U| < 2.4 and U
      errs absolutely by d_U < (212 K + 1610) eps.  When |U| < 1/2,
      |t| > 1/512.
    * j = U^3 s^24 (1/q): if |U| >= 1/2, j errs relatively by less than
      6 d_U + e_24 + 32 eps + e_h < (1430 K + 10200) eps.  If |U| < 1/2,
      then |1/q| < 512 / 0.8 = 640, |U^3 s^24| < 0.16 and |j| < 64, and j
      errs absolutely by less than 640 (0.94 d_U + 0.16 e_24 + 4.1 eps) +
      0.16 (640) e_h < 2^18 (K + 8) eps.
    * gamma_2 = U s^8 (1/q_h): if |U| >= 1/2, it errs relatively by less
      than 2 d_U + e_8 + 3.1 eps + e_h < (480 K + 3400) eps.  If |U| < 1/2,
      then |1/q_h| = 1 / (|t|^(1/3) |s^8|) < 8.6 and |gamma_2| < 4, and it
      errs absolutely by less than 8.6 (1.08 d_U + 0.54 e_8 + 1.42 eps) +
      0.54 (8.6) e_h < 2^12 (K + 8) eps.
    Every error above is below 2^-67 (b >= 64), so the products of two
    errors, which the bounds leave out, fit in their rounded-up constants.
    K <= sqrt(2 n_max / 3) + 1 < 2^18.3 - 8 while b < 2^40, so both values
    err by less than 2^(36.3 - F) max(1, |value|) < 2^(-3.5 - b)
    max(1, |value|) before the last product, whose floor to precision_bits
    <= b adds less than sqrt(2) 2^-precision_bits.  So j_eval errs by less
    than 2^(1 - precision_bits) max(1, |value|).
    """
    if height not in (1, 3):
        raise DomainError(f"j_eval evaluates j or its cube root gamma_2, not j^(1/{height})")
    # reduced CM points satisfy im >= sqrt(3)/2
    if tau.im < math.sqrt(3) / 2 - _SQRT3_HALF_SLACK:
        raise DomainError("j_eval expects a reduced CM point (im >= sqrt(3)/2)")
    bits = max(precision_bits, _MIN_PRECISION)
    scale = bits + _SCALE_GUARD_BITS
    mul = functools.partial(_cmul, scale=scale)
    x, theta = _nome_exponent(tau, height, scale)
    e = _exp(x, scale)
    c, s = _cos_sin(theta, scale)
    inv_q_h = (e * c >> scale, e * s >> scale)
    e_inv = (1 << (2 * scale)) // e
    q_h = (e_inv * c >> scale, -e_inv * s >> scale)
    q = q_h if height == 1 else mul(mul(q_h, q_h), q_h)
    # |q|^n_max <= 2^-(bits + 32); the doubles' rounding is below 2^-40
    n_max = math.ceil((bits + 32) * math.log(2) / (2 * math.pi * tau.im) * (1 + 2.0**-40))
    e1, e2 = _euler_products(q, n_max, scale)
    s8, s24 = _quotient_powers(e1, e2, scale)  # powers of 1/r = E(q)/E(q^2)
    t256 = _cdiv((q[0] << 8, q[1] << 8), s24, scale)  # 256 t, t = q r^24
    u = ((1 << scale) + t256[0], t256[1])
    # j = U^3 / t and gamma_2 = U / (q_h r^8)
    v = mul(mul(mul(u, u), u), s24) if height == 1 else mul(u, s8)
    return _cmul(v, inv_q_h, 2 * scale - precision_bits)


# log2 of the factor of j_eval's stated error: 2^(8 - bits) max(1, |j|)
_J_ERROR_BITS = 8


def _j_value(f: QuadForm, d: int, bits: int) -> tuple[tuple[int, int], float]:
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


def _gamma2_value(f: QuadForm, d: int, bits: int) -> tuple[tuple[int, int], float]:
    """gamma_2 at the normalized CM point of f's class (see _gamma2_steps),
    zeta_3^m gamma_2(tau_f), at scale 2^bits, and log2 of its relative
    error.

    j_eval's gamma_2(tau_f) errs by at most 2^(1 - bits) max(1, |gamma_2|)
    (see its proof), and the rotation keeps that error's modulus.
    zeta_3^m = (-1 +- i sqrt(3))/2 takes sqrt(3) 2^bits = isqrt(3 4^bits)
    within 1, so with the floors each part of the product gains less than
    (|gamma_2| + 2) 2^-bits: the value keeps j_eval's stated error
    2^(8 - bits) max(1, |gamma_2|).
    """
    x, y = j_eval(cm_point(f, d), bits, 3)
    m = _gamma2_steps(f)
    if m:
        root3 = math.isqrt(3 << (2 * bits))
        sign = 1 if m == 1 else -1
        x, y = (-(x << bits) - sign * y * root3) >> (bits + 1), (sign * x * root3 - (y << bits)) >> (bits + 1)
    return (x, y), _J_ERROR_BITS - bits


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

    value gives x_f, a pair of integers at scale 2^bits (see j_eval), and
    log2 of delta_f, with |x_f - exact| <= delta_f max(1, |exact|); delta
    is the largest delta_f.  Forms pair up under b -> -b, whose values are
    complex conjugates, and boundary forms (b = 0, b = a, a = c) have real
    values, so the leaves are real: X - x and
    X^2 - 2 Re(x) X + |x|^2.  They and every product-tree node hold
    integers scaled by 2^P, P = bits + 48, and each node product is
    truncated back to that scale.

    The bound.  Let M_f >= max(1, |exact x_f|) and S = prod (1 + M_f) over
    all forms.  Every node's exact polynomial is dominated coefficientwise
    by prod (X + M_f) over its forms, whose coefficients sum to its value at
    1.  Measure a node's error rho by the sum of its coefficient errors over
    that value.  x_f is read exactly at scale 2^P, so a linear leaf has
    rho <= delta and a quadratic one rho <= 3 delta + 2^-P / 4; a product
    node has 1 + rho <= (1 + rho_left)(1 + rho_right)(1 + 2^-P), as its
    degree + 1 is at most 2^degree, at most the value at 1.  So at the root
    1 + rho <= exp(lambda), lambda <= 5h t for t = max(delta, 2^-P), and every
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
        re = x[0] << (P - bits)
        if f.b == 0 or f.b == f.a or f.a == f.c:
            leaves.append([-re, one])
            log2_m.append(math.log2(max(abs(re), one)) - P)
        else:
            im = x[1] << (P - bits)
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

