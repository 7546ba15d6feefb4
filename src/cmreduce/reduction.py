"""Reduction maps and equidistribution experiments: archimedean reduction
to CM points, reduction at inert primes through left-ideal classes,
simultaneous reduction tuples with empirical-vs-product-measure
statistics, genus-character torus averages, exceptional fields, and
cross-validation against class-polynomial root multiplicities.

Class labels at a prime p are fixed by one globally chosen embedding into
the right order of the first ideal class that hosts the discriminant; all
statistics reported here are invariant under that labeling convention.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import __version__
from .classpoly import classpoly_mod, hilbert_class_poly
from .errors import CertificateError, ConfigError, DomainError, NotRepresented
from .ffield import FfPoly, fp2_construct, roots_with_multiplicity
from .numbase import float_str, frac_str, is_prime
from .quadforms import (
    Discriminant,
    QuadForm,
    admissible_discriminants,
    cm_point,
    compose,
    field_discriminant,
    genus_character,
    is_fundamental,
    reduced_forms,
    splitting,
)
from .quatalg import (
    _hnf_coordinates,
    _qmul,
    _qnorm,
    _unreduce,
    find_optimal_embedding,
    left_ideal_from_class,
    quaternion_data,
)

__all__ = [
    "JointDistribution",
    "CharacterSpec",
    "ArchimedeanStats",
    "ScanConfig",
    "ScanReport",
    "NU_INFTY_Y2",
    "reduce_archimedean",
    "reduce_at_prime",
    "joint_reduce",
    "fiber_multiset_crosscheck",
    "character_average",
    "exceptional_fields",
    "scan",
]

# the height of the box {Im tau >= Y} whose share of CM points a scan reports
_Y_CUT = 2.0

# nu_infty({Im tau >= Y}) = integral of (3/pi) dx dy / y^2 = 3/(pi Y) for Y >= 1
NU_INFTY_Y2 = 3 / (2 * math.pi)


# ---------------------------------------------------------------------------
# Archimedean reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArchimedeanStats:
    h: int
    min_im: float
    mass_y_at_least: Fraction


def reduce_archimedean(D):
    """CM points of all reduced forms plus the share of them in the box
    Im tau >= _Y_CUT, whose Haar mass is NU_INFTY_Y2."""
    d = int(D)
    forms = reduced_forms(d)
    points = [cm_point(f, d) for f in forms]
    h = len(points)
    n_y = sum(1 for pt in points if pt.im >= _Y_CUT)
    stats = ArchimedeanStats(
        h=h,
        min_im=min(pt.im for pt in points),
        mass_y_at_least=Fraction(n_y, h),
    )
    return points, stats


# ---------------------------------------------------------------------------
# Reduction at an inert prime
# ---------------------------------------------------------------------------


def _check_reducible(d: int, p: int) -> Discriminant:
    disc = Discriminant.of(d)
    if splitting(d, p) != "inert":
        raise DomainError(f"p = {p} is not inert in Q(sqrt({d}))")
    if disc.conductor % p == 0:
        raise DomainError(f"conductor of {d} is divisible by p = {p}")
    return disc


# (p, t, ell, line) -> (s, z) for every ell-neighbour K of a class
# representative J_t met by a walk, as an edge, its reverse or their orbits
# under the units of O_t, keyed by the line of `_kernel_line` that fixes K,
# with K = J_s z and z an integer row up to a rational factor; filled
# lazily, so it holds at most h_p sum (ell + 1) entries over the primes ell
# the walks use
_NEIGHBOURS: dict = {}


def _generators(d: int):
    """The forms (ell, b, c) of discriminant d over the primes ell < |d| in
    increasing order, each with its least b >= 0; a prime with no primitive
    form of norm ell (inert, or dividing the conductor) is skipped."""
    for ell in filter(is_prime, range(2, -d)):
        b = next((b for b in range(d % 2, ell + 1, 2) if (b * b - d) % (4 * ell) == 0), None)
        if b is not None:
            g = QuadForm(ell, b, (b * b - d) // (4 * ell))
            if g.is_primitive():
                yield g


def _conj(v: tuple[int, ...]) -> tuple[int, ...]:
    return (v[0], -v[1], -v[2], -v[3])


def _conjugate(alg, z, w: tuple[int, tuple[int, ...]]) -> tuple[int, tuple[int, ...]]:
    """z w z^-1 as an integer row (den, n) in lowest terms, for w = wnum / wden
    and an integer row z (a rational multiple of z acts the same):
    z w z^-1 = z wnum conj(z) / (wden N(z))."""
    wden, wnum = w
    n = _qmul(alg.a, alg.b, _qmul(alg.a, alg.b, z, wnum), _conj(z))
    den = wden * _qnorm(alg.a, alg.b, z)
    g = math.gcd(den, *n)
    return den // g, tuple(x // g for x in n)


def _kernel_line(order, x, ell: int) -> tuple[int, ...]:
    """The line of conj(x) y x mod ell O, for x = xnum / xden in the order O
    with ell | Nr(x), x not in ell O and ell != p, and y the order's
    `anisotropic_element` at ell: the coordinates mod ell of conj(x) y x in
    the HNF basis of O, scaled so that the first nonzero one is 1.  It names
    the ell-neighbour J (O x + ell O) of any left ideal J with right order O.

    Proof.  O / ell O = M_2(F_ell), and x maps to X of rank 1 (its
    determinant Nr(x) is 0 mod ell, and X != 0), X = u v^T.  O x + ell O
    is the preimage of the left ideal M_2(F_ell) X, the matrices whose rows
    are multiples of v^T, so the neighbour depends on [v] alone, and each
    [v] gives a different one.  With S = [[0, 1], [-1, 0]],
    conj(X) = S X^T S^T, so conj(X) Y X = ((S u)^T Y u) (S v) v^T: every
    nonzero value is a multiple of (S v) v^T, which [v] fixes and which
    fixes [v].  The scalar is (S u)^T Y u = -det[u | Y u], 0 only when u is
    an eigenvector of Y.  Y's characteristic polynomial is y's reduced one
    mod ell, irreducible, so Y has no eigenvalue in F_ell and no
    eigenvector: one product pair and one coordinate solve give the line.
    A value outside O, or 0 mod ell, raises CertificateError."""
    lat = order.lattice
    a, b = lat.alg.a, lat.alg.b
    xden, xnum = x
    y = order.anisotropic_element(ell)
    # conj(x) (y / den) x = conj(xnum) y xnum / (xden^2 den)
    c = _hnf_coordinates(lat.mat, _qmul(a, b, _conj(xnum), _qmul(a, b, y, xnum)), xden * xden)
    if c is None:
        raise CertificateError("conj(x) y x is not in the order")
    for i, lead in enumerate(c):
        if lead % ell:
            inv = pow(lead, -1, ell)
            return tuple([0] * i + [v * inv % ell for v in c[i:]])
    raise CertificateError(f"conj(x) y x is 0 mod {ell}")


def _unit_twist(alg, x, z, u):
    """(u^-1 x u, z u) for x = xnum / xden, a unit u = unum / uden of reduced
    norm 1 and an integer row z (a rational multiple of z serves as z):
    u^-1 = conj(u), so u^-1 x u = conj(unum) xnum unum / (xden uden^2), and
    z unum is a rational multiple of z u."""
    a, b = alg.a, alg.b
    xden, xnum = x
    uden, unum = u
    xu = _qmul(a, b, _qmul(a, b, _conj(unum), xnum), unum)
    return (xden * uden * uden, xu), tuple(_qmul(a, b, z, unum))


def _fill_unit_orbit(p: int, cls, t: int, ell: int, x, s: int, z) -> None:
    """Store (s, z u) at the key of u^-1 x u for each u in O_t^x / {+-1},
    u != 1, given that the ell-neighbour ell J_t + J_t x of J_t is J_s z up
    to a rational factor.

    Proof.  u lies in O_t^x = O_R(J_t)^x, so J_t u = J_t and
    (ell J_t + J_t x) u = ell J_t + J_t (u^-1 x u) = J_s z u; u^-1 x u lies
    in O_t with the norm of x, and not in ell O_t, as x does not.  An entry
    already present is kept: two entries for one key differ by a unit of
    O_s, which moves neither the class nor a label."""
    alg = cls.order.alg
    order = cls.right_orders[t]
    units = order.units
    den = order.lattice.den
    for u in units[len(units) // 2:]:
        if any(u[1:]):
            xu, zu = _unit_twist(alg, x, z, (den, u))
            _NEIGHBOURS.setdefault((p, t, ell, _kernel_line(order, xu, ell)), (s, zu))


def _step(p: int, cls, t: int, w, g: QuadForm):
    """The state (s, z w z^-1) that the form g = (ell, b, c) carries the
    state (t, w) to: x = (w - b)/2 lies in O_t = O_R(J_t), as (D + w)/2 does
    and b = D mod 2, K = ell J_t + J_t x is an ell-neighbour of J_t, and
    K = J_s z.  The neighbour cache is keyed by x's `_kernel_line`, which
    fixes K.  A neighbour met for the first time is classified once by
    `index_of`, after its norm is certified, and z = n^-1 m comes from the
    reduced lattices K m^-1 = J_s n^-1, m the first of K's shortest vectors
    (`index_of` returns s because K's reduced lattice is a key of R(J_s)).

    The miss also fills the reverse edge: the ell-neighbour of J_s spanned by
    x' = z conj(x) z^-1 is J_t ell z^-1, a rational multiple of J_t conj(z).
    conj(x) lies in O_R(K), as K conj(x) lies in ell J_t, so x' lies in
    O_s; J_s x' = K conj(x) z^-1 and ell J_s = ell K z^-1 lie in
    ell J_t z^-1, which has index ell^2 in J_s = K z^-1, as the neighbour
    has (x' is not in ell O_s, or `_kernel_line` raises).  Both edges then
    fill their orbits under the units of their orders
    (`_fill_unit_orbit`)."""
    alg = cls.order.alg
    ell = g.a
    wden, wnum = w
    x = (2 * wden, (wnum[0] - g.b * wden, *wnum[1:]))
    key = (p, t, ell, _kernel_line(cls.right_orders[t], x, ell))
    hit = _NEIGHBOURS.get(key)
    if hit is None:
        J = cls.representatives[t]
        K = left_ideal_from_class(J, w, g)
        # Nr(K) = ell Nr(J) iff K's covolume is ell^2 times J's
        (knum, kden), (jnum, jden) = K.lattice.covolume(), J.lattice.covolume()
        if knum * jden != ell * ell * jnum * kden:
            raise CertificateError(f"neighbour of covolume {knum}/{kden}, expected {ell * ell} * {jnum}/{jden}")
        s = cls.index_of(K)
        n = cls.representatives[s].reduced_lattices[K.reduced_lattice]
        m = _unreduce(K.lattice.mat, K.shortest_vectors[0])
        # conj(n) m = Nr(n) n^-1 m
        z = tuple(_qmul(alg.a, alg.b, _conj(n), m))
        hit = _NEIGHBOURS[key] = (s, z)
        _fill_unit_orbit(p, cls, t, ell, x, s, z)
        back = _conjugate(alg, z, (x[0], _conj(x[1])))
        _NEIGHBOURS.setdefault((p, s, ell, _kernel_line(cls.right_orders[s], back, ell)), (t, _conj(z)))
        _fill_unit_orbit(p, cls, s, ell, back, t, _conj(z))
    s, z = hit
    return s, _conjugate(alg, z, w)


@lru_cache(maxsize=4096)
def _prime_reduction(d: int, p: int) -> tuple[tuple[tuple[int, int, int], int], ...]:
    """Map (as tuple pairs) from reduced forms of D to ideal class indices.

    The base point is the first ideal class whose right order admits an
    optimal embedding of the order of discriminant D; the class of a form
    [a] is that of I_base * iota(a).  The map is computed by a walk over
    Pic(O_D): if I_f = J_t y for the representative J_t, the state of f is
    (t, w) with w = y iota(sqrt(D)) y^-1, an optimal embedding into the right
    order of J_t, and I_(f g) = I_f iota(g) = K y for the ell-neighbour K of
    `_step`.  The forms over the least primes (`_generators`) are added one at
    a time.  With H the subgroup labelled so far, a new g is walked once, as
    the chain f_0 g, f_0 g^2, ... from the first form f_0, up to the first
    form labelled already, whose label must agree; each new form r of that
    chain then starts the coset r H, filled as H was: for each earlier
    generator that added forms, in turn, the chains f g', f g'^2, ... from the forms of the
    coset labelled so far, each up to the first form labelled already.
    Most steps are then at the least primes, whose few neighbours the
    cache holds.
    """
    disc = _check_reducible(d, p)
    _, _, cls = quaternion_data(p)
    base_idx = None
    emb = None
    for t, Or in enumerate(cls.right_orders):
        try:
            emb = find_optimal_embedding(Or, disc)
            base_idx = t
            break
        except NotRepresented:
            continue
    if emb is None:
        raise CertificateError(f"no ideal class hosts an embedding of D={d} at p={p}")
    forms = reduced_forms(d)
    state = {forms[0]: (base_idx, emb.v.numerator())}

    def chain(f: QuadForm, g: QuadForm) -> list[QuadForm]:
        t, w = state[f]
        new = []
        while True:
            f = compose(f, g, d)
            t, w = _step(p, cls, t, w, g)
            if f in state:
                if state[f][0] != t:
                    raise CertificateError(f"the walk gives {f.as_tuple()} classes {state[f][0]} and {t} at p={p}")
                return new
            state[f] = (t, w)
            new.append(f)

    earlier: list[QuadForm] = []
    for g in _generators(d):
        if len(state) == len(forms):
            break
        new = chain(forms[0], g)
        for r in new:
            coset = [r]
            for g0 in earlier:
                for f in list(coset):
                    coset += chain(f, g0)
        if new:
            earlier.append(g)
    if state.keys() != set(forms):
        raise CertificateError(f"the walk labels {len(state)} forms of D={d}, not h = {len(forms)}")
    return tuple((f.as_tuple(), state[f][0]) for f in forms)


def reduce_at_prime(D, p: int) -> dict[QuadForm, int]:
    """Class index at p for every reduced form of D (p inert, conductor
    coprime to p)."""
    d = int(D)
    return {QuadForm(*ft): idx for ft, idx in _prime_reduction(d, p)}


# ---------------------------------------------------------------------------
# Joint reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointDistribution:
    primes: tuple[int, ...]
    h: int
    tuple_counts: dict
    product_measure: dict
    tv: Fraction
    chi2: float

    @property
    def surjective(self) -> bool:
        return len(self.tuple_counts) == len(self.product_measure)


def _nu_weights(p: int) -> list[Fraction]:
    _, _, cls = quaternion_data(p)
    scale = Fraction(12, p - 1)
    return [scale / w for w in cls.weights]


def joint_reduce(D, primes) -> JointDistribution:
    """Tuple of class indices per Picard class (the same class across all
    primes), with empirical counts, the product measure, total variation
    distance and chi-square."""
    d = int(D)
    primes = tuple(primes)
    if len(set(primes)) != len(primes):
        raise DomainError("primes must be pairwise distinct")
    forms = reduced_forms(d)
    h = len(forms)
    maps = [reduce_at_prime(d, p) for p in primes]
    counts: Counter = Counter()
    for f in forms:
        counts[tuple(m[f] for m in maps)] += 1
    measure: dict[tuple, Fraction] = {}
    for combo in product(*(enumerate(_nu_weights(p)) for p in primes)):
        measure[tuple(idx for idx, _ in combo)] = math.prod((w for _, w in combo), start=Fraction(1))
    tv = Fraction(0)
    chi2 = 0.0
    for t, prob in measure.items():
        emp = Fraction(counts.get(t, 0), h)
        tv += abs(emp - prob)
        chi2 += float((emp - prob) ** 2 / prob)
    tv = tv / 2
    if sum(measure.values()) != 1:
        raise CertificateError(f"product measure over {primes} has total mass {sum(measure.values())}")
    return JointDistribution(
        primes=primes,
        h=h,
        tuple_counts=dict(counts),
        product_measure=measure,
        tv=tv,
        chi2=chi2,
    )


# ---------------------------------------------------------------------------
# Cross-validation against H_D root multiplicities
# ---------------------------------------------------------------------------


def fiber_multiset_crosscheck(D, p: int) -> bool:
    """True iff the fiber-size multiset of reduce_at_prime equals the root
    multiplicity multiset of H_D over F_{p^2} (label-free validation)."""
    d = int(D)
    fibers = Counter(reduce_at_prime(d, p).values())
    fiber_multiset = sorted(fibers.values())
    H = hilbert_class_poly(d)
    ctx = fp2_construct(p)
    roots = roots_with_multiplicity(FfPoly(classpoly_mod(H, p), ctx), ctx)
    if sum(roots.values()) != H.degree:
        raise CertificateError(f"H_{d} mod {p} does not split over F_(p^2)")
    root_multiset = sorted(roots.values())
    return fiber_multiset == root_multiset


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterSpec:
    """Per factor: the fundamental discriminant of the one quadratic
    character left invariant by that factor's level structure, or 1 for an
    Eichler factor (no invariant character at all)."""

    factors: tuple[int, ...]

    def __post_init__(self):
        for dd in self.factors:
            if dd == 1:
                continue
            if not is_fundamental(dd):
                raise DomainError(f"{dd} is not a fundamental discriminant")


def character_average(D, d1: int) -> Fraction:
    """(1/h) sum of the genus character chi_{d1} over the class group;
    exactly 1 for the trivial character, 0 otherwise (orthogonality)."""
    d = int(D)
    forms = reduced_forms(d)
    total = sum(genus_character(f, d1, d) for f in forms)
    return Fraction(total, len(forms))


def exceptional_fields(spec: CharacterSpec) -> set[int]:
    """Fundamental discriminants of the nontrivial products Pi chi_i over
    all invariant character tuples; empty for Eichler-type specs."""
    out: set[int] = set()
    for chosen in product(*((1,) if dd == 1 else (1, dd) for dd in spec.factors)):
        # prod chi_{d_i} is the character of the field Q(sqrt(prod d_i))
        prod = field_discriminant(math.prod(chosen))
        if prod != 1:
            out.add(prod)
    return out


# ---------------------------------------------------------------------------
# Scan driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    primes: tuple[int, ...]
    dmin: int
    dmax: int
    fundamental_only: bool = True
    split_filter: tuple[int, int] | None = None
    threads: int = 1

    def validate(self):
        if self.dmin < 3 or self.dmax < self.dmin:
            raise ConfigError("need 3 <= dmin <= dmax")
        for p in self.primes:
            if not is_prime(p) or p < 5:
                raise ConfigError(f"reduction prime {p} must be a prime >= 5")
        if len(set(self.primes)) != len(self.primes):
            raise ConfigError("reduction primes must be distinct")
        if self.split_filter is not None:
            q1, q2 = self.split_filter
            for q in (q1, q2):
                if not is_prime(q) or q % 2 == 0:
                    raise ConfigError(f"split-filter prime {q} must be an odd prime")
            if set(self.split_filter) & set(self.primes):
                raise ConfigError("split filter overlaps reduction primes")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")

    def canonical_json(self) -> str:
        data = {
            "primes": list(self.primes),
            "dmin": self.dmin,
            "dmax": self.dmax,
            "fundamental_only": self.fundamental_only,
            "split_filter": list(self.split_filter) if self.split_filter else None,
            # constant keys, kept so that config_hash does not change
            "coprime_to": [],
            "y_cut": _Y_CUT,
            "seed": 0,
        }
        return json.dumps(data, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ScanRow:
    D: int
    h: int
    tv: Fraction
    chi2: float
    surjective: bool
    min_im: float
    box_mass_y2: Fraction


@dataclass(frozen=True)
class ScanReport:
    config: ScanConfig
    rows: tuple[ScanRow, ...]
    medians: dict

    def to_json(self) -> str:
        payload = {
            "version": __version__,
            "config_hash": self.config.digest(),
            "config": json.loads(self.config.canonical_json()),
            "rows": [
                {
                    "D": str(r.D),
                    "h": r.h,
                    "tv": frac_str(r.tv),
                    "chi2": float_str(r.chi2),
                    "surjective": r.surjective,
                    "min_im": float_str(r.min_im),
                    "box_mass_y2": frac_str(r.box_mass_y2),
                }
                for r in self.rows
            ],
            "tv_medians_dyadic": {k: float_str(v) for k, v in sorted(self.medians.items())},
        }
        return json.dumps(payload, sort_keys=True)

    def to_csv(self) -> str:
        lines = [
            f"# version={__version__} config_hash={self.config.digest()}",
            "D,h,primes,tv,chi2,surjective,min_im,box_mass_y2",
        ]
        primes = ";".join(str(p) for p in self.config.primes)
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        str(r.D),
                        str(r.h),
                        primes,
                        frac_str(r.tv),
                        float_str(r.chi2),
                        "1" if r.surjective else "0",
                        float_str(r.min_im),
                        frac_str(r.box_mass_y2),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def _scan_one(args) -> ScanRow:
    d, primes = args
    jd = joint_reduce(d, primes)
    _, stats = reduce_archimedean(d)
    return ScanRow(
        D=d,
        h=jd.h,
        tv=jd.tv,
        chi2=jd.chi2,
        surjective=jd.surjective,
        min_im=stats.min_im,
        box_mass_y2=stats.mass_y_at_least,
    )


def scan(config: ScanConfig) -> ScanReport:
    """Per-admissible-D joint reduction statistics plus dyadic medians; rows
    come in ascending |D|, the order of admissible_discriminants, which both
    the serial loop and ProcessPoolExecutor.map keep."""
    config.validate()
    discs = list(
        admissible_discriminants(
            inert=config.primes,
            split=config.split_filter or (),
            abs_range=(config.dmin, config.dmax),
            fundamental_only=config.fundamental_only,
        )
    )
    jobs = [(dd.D, config.primes) for dd in discs]
    if config.threads > 1 and len(jobs) > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=config.threads) as ex:
            rows = list(ex.map(_scan_one, jobs, chunksize=8))
    else:
        rows = [_scan_one(j) for j in jobs]
    medians: dict[str, float] = {}
    by_band: dict[int, list[float]] = {}
    for r in rows:
        band = abs(r.D).bit_length() - 1
        by_band.setdefault(band, []).append(float(r.tv))
    for band, vals in by_band.items():
        vals.sort()
        n = len(vals)
        med = vals[n // 2] if n % 2 else (vals[n // 2 - 1] + vals[n // 2]) / 2
        medians[f"2^{band}..2^{band + 1}"] = med
    return ScanReport(config=config, rows=tuple(rows), medians=medians)
