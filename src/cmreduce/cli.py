"""Command-line front end.

Subcommands: classgroup, classpoly, ss, mass, quat, reduce, joint, scan,
verify.  Exit codes: 0 success, 1 domain/config error, 2 internal or
certificate error.  Exact rationals print as "a/b"; floats only where a
quantity is genuinely approximate (chi2, Hilbert-Schmidt ratios), with 12
significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .errors import (
    CertificateError,
    ConfigError,
    DomainError,
    NotRepresented,
    PrecisionError,
)
from .numbase import float_str, frac_str

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INTERNAL = 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cmreduce",
        description="supersingular reduction of CM elliptic curves: class groups, "
        "quaternion ideal classes, and equidistribution experiments",
    )
    ap.add_argument("--version", action="version", version=f"cmreduce {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("classgroup", help="reduced forms and class number of D")
    s.add_argument("--D", type=int, required=True)
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("classpoly", help="Hilbert class polynomial of D")
    s.add_argument("--D", type=int, required=True)
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("ss", help="supersingular locus over F_(p^2)")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("mass", help="Eichler mass (p-1)/12 from the locus")
    s.add_argument("--p", type=int, required=True)

    s = sub.add_parser("quat", help="quaternion-side data for B_(inf,p)")
    s.add_argument("action", choices=["classes"])
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("reduce", help="per-class reduction of disc D at inert p")
    s.add_argument("--D", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("joint", help="simultaneous reduction tuples of D")
    s.add_argument("--D", type=int, required=True)
    s.add_argument("--primes", type=str, required=True, help="comma-separated inert primes")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("scan", help="equidistribution scan over admissible D")
    s.add_argument("--primes", type=str, required=True)
    s.add_argument("--dmin", type=int, required=True)
    s.add_argument("--dmax", type=int, required=True)
    s.add_argument("--split", type=str, default=None, help="q1,q2 split-prime filter")
    s.add_argument("--fundamental", action="store_true")
    s.add_argument("--json", action="store_true")
    s.add_argument("--csv", action="store_true")
    s.add_argument("--threads", type=int, default=1)

    s = sub.add_parser("verify", help="run the invariant suite")
    s.add_argument("--quick", action="store_true")

    return ap


def _cmd_classgroup(args) -> int:
    from .quadforms import reduced_forms

    forms = reduced_forms(args.D)
    if args.json:
        payload = {"D": str(args.D), "h": len(forms), "forms": [list(f.as_tuple()) for f in forms]}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"D = {args.D}")
        print(f"h = {len(forms)}")
        for f in forms:
            print(f"({f.a}, {f.b}, {f.c})")
    return EXIT_OK


def _cmd_classpoly(args) -> int:
    from .classpoly import hilbert_class_poly

    poly = hilbert_class_poly(args.D)
    if args.json:
        print(poly.to_json())
    else:
        print(f"H_{args.D}(X), degree {poly.degree}, coefficients (ascending):")
        for c in poly.coeffs:
            print(c)
    return EXIT_OK


def _cmd_ss(args) -> int:
    from .ssenum import enumerate_ss

    locus = enumerate_ss(args.p)
    if args.json:
        print(locus.to_json())
    else:
        print(f"p = {locus.p}: {locus.size} supersingular j-invariants, mass {frac_str(locus.mass)}")
        for pt in locus.points:
            print(f"j = {locus.ctx.serialize(pt.j)}  w = {pt.weight}")
    return EXIT_OK


def _cmd_mass(args) -> int:
    from .ssenum import enumerate_ss

    print(frac_str(enumerate_ss(args.p).mass))
    return EXIT_OK


def _cmd_quat(args) -> int:
    from .quatalg import quaternion_data

    B, order, cls = quaternion_data(args.p)
    if args.json:
        payload = {
            "p": args.p,
            "algebra": {"a": B.a, "b": B.b},
            "mass": frac_str(cls.mass),
            "weights": list(cls.weights),
            "classes": [
                {
                    "den": I.lattice.den,
                    "hnf": [[str(x) for x in row] for row in I.lattice.mat],
                    "reduced_norm": frac_str(I.reduced_norm),
                }
                for I in cls.representatives
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"B_(inf,{args.p}) = ({B.a}, {B.b}); h = {cls.h}; mass = {frac_str(cls.mass)}")
        for idx, (I, w) in enumerate(zip(cls.representatives, cls.weights)):
            print(f"class {idx}: w = {w}, Nr = {frac_str(I.reduced_norm)}, den = {I.lattice.den}")
            for row in I.lattice.mat:
                print("   ", row)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    from .reduction import reduce_at_prime

    mapping = reduce_at_prime(args.D, args.p)
    items = sorted(mapping.items(), key=lambda kv: (kv[0].a, kv[0].b))
    if args.json:
        payload = {
            "D": str(args.D),
            "p": args.p,
            "classes": [[list(f.as_tuple()), idx] for f, idx in items],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for f, idx in items:
            print(f"({f.a}, {f.b}, {f.c}) -> {idx}")
    return EXIT_OK


def _parse_primes(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in s.split(",") if tok)
    except ValueError as exc:
        raise ConfigError(f"bad prime list {s!r}") from exc


def _cmd_joint(args) -> int:
    from .reduction import joint_reduce

    jd = joint_reduce(args.D, _parse_primes(args.primes))
    if args.json:
        payload = {
            "D": str(args.D),
            "primes": list(jd.primes),
            "h": jd.h,
            "tuples": {",".join(map(str, t)): c for t, c in sorted(jd.tuple_counts.items())},
            "product_measure": {
                ",".join(map(str, t)): frac_str(v) for t, v in sorted(jd.product_measure.items())
            },
            "tv": frac_str(jd.tv),
            "chi2": float_str(jd.chi2),
            "surjective": jd.surjective,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"D = {args.D}, primes = {jd.primes}, h = {jd.h}")
        for t, c in sorted(jd.tuple_counts.items()):
            print(f"tuple {t}: {c}")
        print(f"tv = {frac_str(jd.tv)}")
        print(f"chi2 = {float_str(jd.chi2)}")
        print(f"surjective = {jd.surjective}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    from .reduction import ScanConfig, scan

    split = None
    if args.split:
        parts = _parse_primes(args.split)
        if len(parts) != 2:
            raise ConfigError("--split expects exactly two primes q1,q2")
        split = (parts[0], parts[1])
    cfg = ScanConfig(
        primes=_parse_primes(args.primes),
        dmin=args.dmin,
        dmax=args.dmax,
        fundamental_only=args.fundamental,
        split_filter=split,
        threads=args.threads,
    )
    report = scan(cfg)
    if args.csv:
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_json())
    return EXIT_OK


def _cmd_verify(args) -> int:
    checks = _verify_checks(quick=args.quick)
    failed = 0
    for name, fn in checks:
        try:
            fn()
            print(f"ok - {name}")
        except Exception as exc:  # noqa: BLE001 - report and count
            failed += 1
            print(f"FAIL - {name}: {exc}")
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return EXIT_INTERNAL
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def _check(cond: bool, msg: str) -> None:
    """A verify check that survives `python -O`, unlike `assert`."""
    if not cond:
        raise CertificateError(msg)


def _verify_checks(quick: bool):
    import random

    from .classpoly import hilbert_class_poly, hilbert_class_poly_from_j, j_eval
    from .numbase import primes_up_to
    from .quadforms import QuadForm, class_number, cm_point, compose, principal_form, reduced_forms
    from .quatalg import Order, construct_Bp, hs_norm_ratio, killing_check, local_norm_surjectivity, quaternion_data
    from .reduction import character_average, fiber_multiset_crosscheck
    from .ssenum import enumerate_ss

    p_cap = 40 if quick else 100
    d_cap = 500 if quick else 2000

    def mass_formula():
        for p in primes_up_to(p_cap):
            if p >= 5:
                locus = enumerate_ss(p)
                _check(locus.mass == Fraction(p - 1, 12), f"mass at p = {p}")
                _check(abs(locus.size - p / 12) <= 2, f"locus size at p = {p}")

    def group_law():
        rng = random.Random(1)
        for D in (-23, -47, -84, -419):
            forms = reduced_forms(D)
            e = principal_form(D)
            for f in forms:
                _check(compose(f, f.inverse(), D) == e, f"inverse of {f.as_tuple()} at D = {D}")
            for _ in range(25):
                f, g, k = (rng.choice(forms) for _ in range(3))
                _check(compose(compose(f, g, D), k, D) == compose(f, compose(g, k, D), D), f"associativity at D = {D}")

    def class_numbers():
        from .quadforms import class_number_table

        table = class_number_table(d_cap)
        for D in range(-d_cap, 0):
            if D % 4 in (0, 1):
                _check(table[D] == class_number(D), f"h({D})")

    def j_values():
        # j(i) = 1728, at scale 2^96
        re, im = j_eval(cm_point(QuadForm(1, 0, 1), -4), 96)
        _check(abs(re - (1728 << 96)) < 1 << 32 and abs(im) < 1 << 32, "j(i) != 1728")
        _check(hilbert_class_poly(-23).coeffs == (12771880859375, -5151296875, 3491750, 1), "H_-23")
        # a second route: for 3 ∤ D, H_D comes from gamma_2 = j^(1/3); the
        # product of the (X - j) themselves must agree
        for D in (-719, -2351):
            _check(hilbert_class_poly(D) == hilbert_class_poly_from_j(D), f"H_{D} by gamma_2 and by j")

    def deuring_cardinalities():
        # Pizer's maximal order has three branches: a = -1 (p = 3 mod 4),
        # a = -2 (p = 5 mod 8) and a = -q, where 17 and 401 take q = 3 and
        # 73 is the first prime to take q = 7
        for p in [*primes_up_to(30 if quick else 50), 73, 401]:
            if p < 5:
                continue
            locus = enumerate_ss(p)
            _, _, cls = quaternion_data(p)
            _check(locus.size == cls.h, f"class number at p = {p}")
            _check(sorted(pt.weight for pt in locus.points) == sorted(cls.weights), f"weights at p = {p}")

    def unit_groups():
        # a second route to the units: the class-set BFS takes those of each
        # right order from the search that found its class, and a fresh
        # Order on the same lattice runs the shortest-vector search itself
        _, _, cls = quaternion_data(101)
        for t, Or in enumerate(cls.right_orders):
            _check(Or.units == Order(lattice=Or.lattice).units, f"units of the right order of class {t} at p = 101")

    def killing():
        rng = random.Random(2)
        for p in (5, 11):
            B = construct_Bp(p)
            for _ in range(50):
                x = (0, rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10))
                u, v = killing_check(B, x)
                _check(u == v, f"trace(ad_x^2) != -8 Nr(x) at p = {p}")

    def hs_ratio():
        import math

        for D in (-4, -23, -84):
            _check(abs(hs_norm_ratio(D) - math.sqrt(8)) < 1e-9, f"ratio at D = {D}")

    def norm_surjectivity():
        _, O, _ = quaternion_data(11)
        for q, k in ((2, 3), (3, 2), (5, 1), (11, 1)):
            _check(local_norm_surjectivity(O, q, k), f"q^k = {q}^{k}")

    def crosscheck():
        _check(fiber_multiset_crosscheck(-23, 5), "D = -23, p = 5")
        _check(fiber_multiset_crosscheck(-4, 11), "D = -4, p = 11")
        # h = 10 in three classes: the walk needs the forms over 2 and 3
        _check(fiber_multiset_crosscheck(-119, 23), "D = -119, p = 23")

    def characters():
        _check(character_average(-84, 1) == 1, "trivial character at D = -84")
        _check(character_average(-84, -3) == 0, "character -3 at D = -84")

    return [
        ("eichler mass formula", mass_formula),
        ("class group law", group_law),
        ("class numbers vs sieve", class_numbers),
        ("modular j values", j_values),
        ("deuring cardinalities", deuring_cardinalities),
        ("right-order units by search", unit_groups),
        ("killing identity", killing),
        ("hilbert-schmidt ratio", hs_ratio),
        ("local norm surjectivity", norm_surjectivity),
        ("fiber multiset crosscheck", crosscheck),
        ("character orthogonality", characters),
    ]


_COMMANDS = {
    "classgroup": _cmd_classgroup,
    "classpoly": _cmd_classpoly,
    "ss": _cmd_ss,
    "mass": _cmd_mass,
    "quat": _cmd_quat,
    "reduce": _cmd_reduce,
    "joint": _cmd_joint,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract is exit 1
        return EXIT_OK if exc.code == 0 else EXIT_DOMAIN
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, ConfigError, NotRepresented) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (CertificateError, PrecisionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
