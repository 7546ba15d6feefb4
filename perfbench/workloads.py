"""The four benchmark workloads: input draws, set-up, outputs and checks.

Shared by the parent harness (``run.py``), the measured child process
(``child.py``) and the reference recorder (``record.py``).  Each workload is
a list of work items drawn from a recorded pool; every item has a reference
SHA-256 digest of its output and a reference cost (see ``record.py``).

* ``scan-joint``: one ``cmreduce scan --primes 11,23 --fundamental --json``
  over a window of consecutive admissible discriminants in (10^4, 2*10^4];
  an item is one discriminant (one row of the report).
* ``quat-classes``: ``cmreduce quat --p P classes --json``; an item is a prime.
* ``classpoly-roots``: ``cmreduce classpoly --D D --json``, then the roots
  with multiplicity of H_D mod p over F_(p^2) for the least inert prime
  above each of 10^3, 10^4 and 10^5; an item is a discriminant.
* ``ss-locus``: ``cmreduce ss --p P --json``; an item is a prime.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("scan-joint", "quat-classes", "classpoly-roots", "ss-locus")
SIZES = ("full", "tiny")
DEFAULT_SEED = 0
SCAN_PRIMES = (11, 23)
ROOT_SCALES = (10**3, 10**4, 10**5)

# A non-default seed draws items whose summed reference cost is within this
# share of the default draw's, so that every seed asks for about the same
# work and the spread across seeds measures the program, not the draw.
DRAW_TOLERANCE = 0.02
DRAW_TRIES = 20000
SCAN_STARTS = 16


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def draw(spec: dict, workload: str, seed: int) -> list[str]:
    """Item keys for ``seed``: the recorded default draw for the default
    seed, otherwise a seeded draw of about the same reference cost."""
    if seed == DEFAULT_SEED:
        return list(spec["default"])
    pool = list(spec["items"])
    cost = {k: spec["items"][k]["cost"] for k in pool}
    target = sum(cost[k] for k in spec["default"])
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan-joint":
        # a window of consecutive discriminants: of the windows that start
        # at SCAN_STARTS consecutive places from a seeded one, the one whose
        # cost is nearest the target (the best window from one start can
        # miss it by half a discriminant's cost, up to 15%); starts are
        # limited to those that can reach the target
        tail = 0.0
        last_start = 0
        for i in range(len(pool) - 1, -1, -1):
            tail += cost[pool[i]]
            if tail >= target:
                last_start = i
                break
        first = rng.randrange(last_start + 1)
        best = None
        for start in range(first, min(first + SCAN_STARTS, last_start + 1)):
            total = 0.0
            for end in range(start, len(pool)):
                total += cost[pool[end]]
                if best is None or abs(total - target) < best[0]:
                    best = (abs(total - target), pool[start : end + 1])
                if total >= target:
                    break
        return best[1]
    k = len(spec["default"])
    best = None
    for _ in range(DRAW_TRIES):
        pick = rng.sample(pool, k)
        err = abs(sum(cost[x] for x in pick) - target)
        if best is None or err < best[0]:
            best = (err, pick)
        if err <= DRAW_TOLERANCE * target:
            break
    return sorted(best[1], key=pool.index)


# ---------------------------------------------------------------------------
# Inside the measured process
# ---------------------------------------------------------------------------


def setup(workload: str) -> None:
    """Import cmreduce with all its modules, then the workload's own set-up."""
    import importlib
    import pkgutil

    import cmreduce

    for info in pkgutil.iter_modules(cmreduce.__path__):
        importlib.import_module(f"cmreduce.{info.name}")
    # argparse imports some modules only when a parser is built
    cmreduce.cli.build_parser()
    if workload == "scan-joint":
        from cmreduce.quatalg import quaternion_data

        for p in SCAN_PRIMES:
            quaternion_data(p)


def _cli(argv: list[str]) -> str:
    from cmreduce.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    if code != 0:
        raise RuntimeError(f"cmreduce {' '.join(argv)} exited with code {code}")
    return out.getvalue()


def _roots_payload(classpoly_json: str, primes: list[int]) -> str:
    from cmreduce.classpoly import ClassPolynomial, classpoly_mod
    from cmreduce.ffield import FfPoly, fp2_construct, roots_with_multiplicity

    H = ClassPolynomial.from_json(classpoly_json)
    roots = {}
    for p in primes:
        ctx = fp2_construct(p)
        poly = FfPoly([ctx.el(c) for c in classpoly_mod(H, p)], ctx)
        found = roots_with_multiplicity(poly, ctx)
        roots[str(p)] = [[ctx.serialize(r), m] for r, m in sorted(found.items())]
    return json.dumps({"classpoly": json.loads(classpoly_json), "roots": roots}, sort_keys=True)


def outputs(workload: str, keys: list[str], refs: dict):
    """Yield ``(key, payload, error)`` per item, in order, as each output is
    produced; ``error`` is the exception text when the item raised.  The
    last value yielded is ``(None, whole_output, None)``."""
    payloads = []
    if workload == "scan-joint":
        ds = [-int(k) for k in keys]
        argv = ["scan", "--primes", ",".join(map(str, SCAN_PRIMES)), "--dmin", str(min(ds)),
                "--dmax", str(max(ds)), "--fundamental", "--json"]
        try:
            report = _cli(argv)
            rows = {row["D"]: json.dumps(row, sort_keys=True) for row in json.loads(report)["rows"]}
        except Exception as exc:  # noqa: BLE001 - every row of the window fails
            for key in keys:
                yield key, None, f"{type(exc).__name__}: {exc}"
            yield None, "", None
            return
        for key in keys:
            payload = rows.pop(key, None)
            yield key, payload, None if payload is not None else "row missing from the report"
        if rows:
            yield None, "", f"rows outside the window: {sorted(rows)}"
            return
        yield None, report, None
        return
    for key in keys:
        try:
            if workload == "quat-classes":
                payload = _cli(["quat", "--p", key, "classes", "--json"])
            elif workload == "ss-locus":
                payload = _cli(["ss", "--p", key, "--json"])
            else:
                payload = _roots_payload(_cli(["classpoly", "--D", key, "--json"]), refs[key]["primes"])
        except Exception as exc:  # noqa: BLE001 - the item fails, the pass goes on
            yield key, None, f"{type(exc).__name__}: {exc}"
            payloads.append("")
            continue
        payloads.append(payload)
        yield key, payload, None
    yield None, "\n".join(payloads), None


def check_item(workload: str, key: str, payload: str, ref: dict) -> list[str]:
    """Problems with one item's output: a digest that differs from the
    reference, or a broken exact invariant."""
    errors = []
    if sha256(payload) != ref["sha256"]:
        errors.append("output digest differs from the reference")
    try:
        data = json.loads(payload)
        if workload in ("quat-classes", "ss-locus"):
            p = int(key)
            mass = Fraction(p - 1, 12)
            if workload == "quat-classes":
                weights = data["weights"]
                if len(data["classes"]) != len(weights):
                    errors.append("class count differs from weight count")
            else:
                weights = [pt["w"] for pt in data["points"]]
            if Fraction(data["mass"]) != mass:
                errors.append(f"mass {data['mass']} != ({p}-1)/12")
            if sum(Fraction(1, w) for w in weights) != mass:
                errors.append(f"sum of 1/w != ({p}-1)/12")
        elif workload == "classpoly-roots":
            h = ref["h"]
            coeffs = data["classpoly"]["coeffs"]
            if len(coeffs) - 1 != h or coeffs[-1] != "1":
                errors.append(f"H_D is not monic of degree h = {h}")
            for p, roots in data["roots"].items():
                if sum(m for _, m in roots) != h:
                    errors.append(f"root multiplicities mod {p} do not sum to h = {h}")
        else:
            if data["D"] != key or int(data["h"]) != ref["h"]:
                errors.append(f"row D/h differ from ({key}, {ref['h']})")
            if not 0 <= Fraction(data["tv"]) <= 1:
                errors.append("tv outside [0, 1]")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        errors.append(f"malformed output: {type(exc).__name__}: {exc}")
    return errors
