"""High-precision evaluation of the modular j-function at CM points and
assembly of Hilbert class polynomials over Z.

j is computed from truncated q-expansions of the Eisenstein series E4 and
E6 (j = 1728 E4^3 / (E4^3 - E6^2)), which matches the g2, g3 lattice
presentation and avoids branch-cut issues of eta products.  Arbitrary
precision arithmetic is delegated to mpmath; BigFloatComplex is an
``mpmath.mpc`` at the stated working precision.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import mpmath

from .errors import DomainError, PrecisionError
from .numbase import is_prime
from .quadforms import CMPoint, Discriminant, class_number, cm_point, reduced_forms

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


def _sigma_table(n: int, k: int) -> list[int]:
    """sigma_k(1..n) by divisor sieve."""
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        dk = d**k
        for m in range(d, n + 1, d):
            out[m] += dk
    return out


def j_eval(tau: CMPoint, precision_bits: int) -> mpmath.mpc:
    """j(tau) with absolute error <= 2^(8 - precision_bits) * max(1, |j|).

    The q-expansions of E4 and E6 are truncated at the first N with
    |q|^N < 2^(-precision_bits - 16).
    """
    if precision_bits < _MIN_PRECISION:
        precision_bits = _MIN_PRECISION
    # reduced CM points satisfy im >= sqrt(3)/2
    if tau.im < math.sqrt(3) / 2 - _SQRT3_HALF_SLACK:
        raise DomainError("j_eval expects a reduced CM point (im >= sqrt(3)/2)")
    # E4^3 - E6^2 = 1728 q + O(q^2) cancels ~ 2 pi Im(tau) / ln 2 leading
    # bits of the two series; work at a precision that absorbs the loss
    cancel = int(2 * math.pi * tau.im / math.log(2)) + 8
    guard = 32 + cancel
    with mpmath.workprec(precision_bits + guard):
        im = mpmath.sqrt(tau.abs_D) / tau.two_a
        re = mpmath.mpf(tau.minus_b) / tau.two_a
        two_pi_im = 2 * mpmath.pi * im
        N = int(mpmath.ceil((precision_bits + 16) * mpmath.log(2) / two_pi_im)) + 2
        s3 = _sigma_table(N, 3)
        s5 = _sigma_table(N, 5)
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(re, im))
        qn = mpmath.mpc(1)
        e4 = mpmath.mpc(1)
        e6 = mpmath.mpc(1)
        for n in range(1, N + 1):
            qn *= q
            e4 += 240 * s3[n] * qn
            e6 -= 504 * s5[n] * qn
        e4cube = e4**3
        delta = e4cube - e6**2
        return mpmath.mpc(1728) * e4cube / delta


def _initial_precision(D: int, forms) -> int:
    h = len(forms)
    inv_a = sum(1.0 / f.a for f in forms)
    bits = 32 + math.ceil(math.pi * math.sqrt(abs(D)) * inv_a / math.log(2)) + 8 * h
    return max(_MIN_PRECISION, bits)


def hilbert_class_poly(D, cache_dir: str | None = None) -> ClassPolynomial:
    """H_D(X) = prod over reduced forms of (X - j(tau_f)), coefficients
    recognized as integers (within 0.25) and rounded.

    Retries with doubled precision at most twice; never rounds silently.
    """
    d = int(D) if not isinstance(D, Discriminant) else D.D
    if cache_dir is not None:
        cached = _cache_load(cache_dir, d)
        if cached is not None:
            return cached
    forms = reduced_forms(d)
    bits = _initial_precision(d, forms)
    last_gap = None
    for _ in range(_MAX_DOUBLINGS + 1):
        result = _assemble(d, forms, bits)
        if result is not None:
            poly = ClassPolynomial(D=d, coeffs=tuple(result))
            if cache_dir is not None:
                _cache_store(cache_dir, poly)
            return poly
        last_gap = bits
        bits *= 2
    raise PrecisionError(f"coefficients of H_{d} not integral at {last_gap} bits (twice doubled)")


def _assemble(d: int, forms, bits: int) -> list[int] | None:
    with mpmath.workprec(bits + 48):
        # forms pair up under b -> -b; boundary forms (b = 0, b = a, a = c)
        # have j real, so the product is assembled from real factors
        linear: list[mpmath.mpf] = []
        quadratic: list[tuple[mpmath.mpf, mpmath.mpf]] = []
        for f in forms:
            if f.b < 0:
                continue  # the mirror of a paired form
            jval = j_eval(cm_point(f, d), bits)
            if f.b == 0 or f.b == f.a or f.a == f.c:
                linear.append(jval.real)
            else:
                quadratic.append((-2 * jval.real, jval.real**2 + jval.imag**2))
        coeffs = [mpmath.mpf(1)]  # ascending, so far the constant 1
        for r in linear:
            coeffs = _poly_mul(coeffs, [-r, mpmath.mpf(1)])
        for b1, b0 in quadratic:
            coeffs = _poly_mul(coeffs, [b0, b1, mpmath.mpf(1)])
        out = []
        for c in coeffs:
            r = mpmath.nint(c)
            if abs(c - r) > 0.25:
                return None
            out.append(int(r))
        if out[-1] != 1 or len(out) - 1 != len(forms):
            return None
        return out


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
_ALGORITHM_VERSION = 2


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
