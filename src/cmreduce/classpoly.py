"""High-precision evaluation of the modular j-function at CM points and
assembly of Hilbert class polynomials over Z.

j is computed from the eta quotient t = (eta(2 tau) / eta(tau))^24 =
q (E(q^2) / E(q))^24, E(x) = prod (1 - x^n), as j = (1 + 256 t)^3 / t.  t is
an integer power of a quotient of q-products, so no branch of a root is
involved, and E is a sparse series by Euler's pentagonal number theorem.
Arbitrary precision arithmetic is delegated to mpmath; BigFloatComplex is an
``mpmath.mpc`` at the stated working precision.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass

import mpmath

from .errors import DomainError, PrecisionError
from .numbase import is_prime
from .quadforms import CMPoint, class_number, cm_point, reduced_forms

__all__ = ["ClassPolynomial", "j_eval", "hilbert_class_poly", "classpoly_mod"]

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


def _euler_products(q: mpmath.mpc, n_max: int) -> tuple[mpmath.mpc, mpmath.mpc]:
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
    e1 = e2 = mpmath.mpc(1)
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
    """j(tau) with absolute error <= 2^(8 - precision_bits) * max(1, |j|).

    Works at precision_bits + 32; the series of E(q) and E(q^2) drop the
    terms q^n with |q|^n < 2^(-precision_bits - 32).
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


def _initial_precision(D: int, forms) -> int:
    h = len(forms)
    inv_a = sum(1.0 / f.a for f in forms)
    bits = 32 + math.ceil(math.pi * math.sqrt(abs(D)) * inv_a / math.log(2)) + 8 * h
    return max(_MIN_PRECISION, bits)


def hilbert_class_poly(D, cache_dir: str | None = None) -> ClassPolynomial:
    """H_D(X) = prod over reduced forms of (X - j(tau_f)), coefficients
    recognized as integers (within 0.25) and rounded.

    Retries with doubled precision at most twice; never rounds silently.
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
    forms = reduced_forms(d)
    bits = _initial_precision(d, forms)
    last_gap = None
    for _ in range(_MAX_DOUBLINGS + 1):
        result = _assemble(d, forms, bits)
        if result is not None:
            return ClassPolynomial(D=d, coeffs=tuple(result))
        last_gap = bits
        bits *= 2
    raise PrecisionError(f"coefficients of H_{d} not integral at {last_gap} bits (twice doubled)")


def _assemble(d: int, forms, bits: int) -> list[int] | None:
    with mpmath.workprec(bits + 48):
        # forms pair up under b -> -b; boundary forms (b = 0, b = a, a = c)
        # have j real, so the product is assembled from real factors
        one = mpmath.mpf(1)
        factors = []
        for f in forms:
            if f.b < 0:
                continue  # the mirror of a paired form
            jval = j_eval(cm_point(f, d), bits)
            if f.b == 0 or f.b == f.a or f.a == f.c:
                factors.append([-jval.real, one])
            else:
                factors.append([jval.real**2 + jval.imag**2, -2 * jval.real, one])
        out = []
        for c in _product_tree(factors):
            r = mpmath.nint(c)
            if abs(c - r) > 0.25:
                return None
            out.append(int(r))
        if out[-1] != 1 or len(out) - 1 != len(forms):
            return None
        return out


def _product_tree(polys):
    """The product of the ascending coefficient lists, halves first."""
    if len(polys) == 1:
        return polys[0]
    mid = len(polys) // 2
    return _poly_mul(_product_tree(polys[:mid]), _product_tree(polys[mid:]))


def _poly_mul(a, b):
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def classpoly_mod(H: ClassPolynomial, p: int) -> list[int]:
    """Coefficientwise reduction mod p; monic of degree h, ascending."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return [c % p for c in H.coeffs]


# -- disk cache (atomic write-then-rename) ----------------------------------

# bump on any change to the evaluation algorithm; keys cache entries
_ALGORITHM_VERSION = 3


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
