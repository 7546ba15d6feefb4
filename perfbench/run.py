"""cmreduce benchmark harness.

    python3 perfbench/run.py --workload scan-joint --seed 0 --seconds 25 --trace 0

Draws the workload's inputs from ``--seed``, then measures each pass of the
workload in a fresh interpreter (``child.py``): the package's
process-lifetime ``lru_cache``s would otherwise turn a second pass into
dictionary lookups.  Every output is checked against a recorded SHA-256
digest and exact invariants.  Rounds of passes repeat for about
``--seconds``: another one starts while it would end closer to ``--seconds``
than stopping would.

The machine's speed drifts by tens of percent within seconds, so every
child runs pinned to one CPU next to ``calibrator.py``, which repeats a
fixed unit of work at the lowest priority on the same CPU.  The end-to-end
times are the child's CPU times scaled to the reference speed ``REF_UNIT_S``
by the calibrator's CPU time per unit over the same interval.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
passes traced at every layer, which give the per-layer metrics, with passes
that have spans only on the two calls ``scan`` makes per discriminant, which
give the per-discriminant times and the baseline for the overhead.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it, each starting with ``#``,
give the environment, the inputs and ``fail_frac``.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__))]

from tracer import COUNT_TARGETS, SPAN_TARGETS  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    HERE,
    REFERENCE,
    ROOT,
    SIZES,
    SRC,
    WORKLOADS,
    draw,
    load_reference,
)

CHILD = os.path.join(HERE, "child.py")
CALIBRATOR = os.path.join(HERE, "calibrator.py")
OUT = os.path.join(HERE, "out")
# set-up-only children after each round of passes: the machine's speed
# drifts over seconds, so samples taken back to back would all see one speed
SETUP_PER_ROUND = 2
# the reference speed: the one at which a calibrator.unit() takes this long
REF_UNIT_S = 3.0e-4
# every run ends well inside the 180 s a run may take
RUN_DEADLINE_S = 170.0

EXIT_SETUP = 2


class ChildFailed(Exception):
    pass


def _pinned(cpu: int, nice: int = 0):
    def pin() -> None:
        os.sched_setaffinity(0, {cpu})
        if nice:
            os.nice(nice)

    return pin


def _unit_s(samples: list, start: float, end: float) -> float:
    """The calibrator's CPU seconds per unit over the samples that bracket
    ``[start, end]``."""
    times = [t for t, _, _ in samples]
    lo = samples[max(0, bisect.bisect_right(times, start) - 1)]
    hi = samples[min(len(samples) - 1, bisect.bisect_left(times, end))]
    if hi[1] == lo[1]:
        lo, hi = samples[0], samples[-1]
    if hi[1] == lo[1]:
        raise ChildFailed("the calibrator completed no unit of work")
    return (hi[2] - lo[2]) / (hi[1] - lo[1])


def _spawn(request: dict, deadline: float) -> dict:
    """Run one child and its calibrator, on one CPU; returns the child's
    result with ``setup_s`` (and, after a pass, ``pass_s``) at the
    reference speed, plus the as-measured ``setup_wall_s``."""
    cpu = max(os.sched_getaffinity(0))
    # leaving the with block closes the pipe and waits for the calibrator
    with subprocess.Popen([sys.executable, "-I", CALIBRATOR], stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True, preexec_fn=_pinned(cpu, nice=19)) as cal:
        try:
            if cal.stdout.readline().strip() != "ready":
                raise ChildFailed("the calibrator did not start")
            cmd = [sys.executable, "-I", "-X", f"pycache_prefix={os.path.join(OUT, 'pycache')}", CHILD]
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(cmd, input=json.dumps(request), capture_output=True, text=True,
                                      timeout=max(1.0, deadline - t_spawn), cwd=ROOT,
                                      preexec_fn=_pinned(cpu))
            except subprocess.TimeoutExpired as exc:
                raise ChildFailed(f"child timed out after {exc.timeout:.0f} s") from exc
            cal.terminate()
            try:
                out = cal.communicate(timeout=30)[0]
            except subprocess.TimeoutExpired as exc:
                raise ChildFailed("the calibrator did not stop") from exc
        finally:
            if cal.returncode is None:
                cal.kill()
    lines = out.strip().splitlines()
    if cal.returncode != 0 or not lines:
        raise ChildFailed(f"the calibrator exited with code {cal.returncode}")
    samples = json.loads(lines[-1])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    r = json.loads(lines[-1])
    r["setup_wall_s"] = r["t_ready"] - t_spawn
    r["setup_unit_s"] = _unit_s(samples, t_spawn, r["t_ready"])
    r["setup_s"] = r["cpu_ready"] * REF_UNIT_S / r["setup_unit_s"]
    if "t0" in r:
        r["pass_unit_s"] = _unit_s(samples, r["t0"], r["t1"])
        r["pass_s"] = (r["c1"] - r["c0"]) * REF_UNIT_S / r["pass_unit_s"]
    return r


def _src_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cmreduce")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def _tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it,
    and that percentile; (0, 0) with ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return 0.0, 0.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def _layer_metrics(traced: list[dict], baseline: list[dict]) -> dict:
    """Medians over the fully traced passes, plus the per-discriminant times
    of the ``disc`` passes, pooled, and the overhead against them."""
    baseline_wall = statistics.median(r["t1"] - r["t0"] for r in baseline)
    per_pass = []
    for r in traced:
        tr = r["trace"]
        wall = r["t1"] - r["t0"]
        m = {}
        for module_name, path in SPAN_TARGETS:
            name = f"{module_name}.{path}"
            m[f"{name}.s"] = (tr["busy_s"].get(name, 0.0), "s")
            m[f"{name}.self_s"] = (tr["self_s"].get(name, 0.0), "s")
            m[f"{name}.calls"] = (tr["calls"][name], "count")
        for module_name, path in COUNT_TARGETS:
            name = f"{module_name}.{path}"
            m[f"{name}.calls"] = (tr["calls"][name], "count")
        same = tr["calls"]["quatalg.is_same_class"]
        m["quatalg.is_same_class.hit_ratio"] = (
            tr["true_results"]["quatalg.is_same_class"] / same if same else 0.0, "ratio")
        candidates = tr["calls"]["ssenum.weierstrass_from_j"]
        m["ssenum.hit_ratio"] = (tr["ss_points"] / candidates if candidates else 0.0, "ratio")
        m["trace.coverage"] = (tr["top_level_s"] / wall if wall > 0 else 0.0, "ratio")
        m["trace.overhead_s"] = (wall - baseline_wall, "s")
        per_pass.append(m)
    metrics = {
        name: {"value": statistics.median(p[name][0] for p in per_pass), "unit": unit}
        for name, (_, unit) in per_pass[0].items()
    }
    disc = [t for r in baseline for t in r["trace"]["disc_s"]]
    tail, pct = _tail(disc)
    metrics["scan.disc_p50_s"] = {"value": statistics.median(disc) if disc else 0.0, "unit": "s"}
    metrics["scan.disc_tail_s"] = {"value": tail, "unit": "s"}
    metrics["scan.disc_tail_pct"] = {"value": pct, "unit": "%"}
    metrics["scan.disc_n"] = {"value": len(disc), "unit": "count"}
    return metrics


def _environment(args, ref: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        "reference": ref["recorded_with"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cmreduce benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="tiny: small inputs for the harness's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cmreduce", "__init__.py")) or not os.path.isfile(REFERENCE):
        print(f"error: no cmreduce source under {SRC} or no reference digests at {REFERENCE}",
              file=sys.stderr)
        return EXIT_SETUP
    deadline = time.monotonic() + RUN_DEADLINE_S
    ref = load_reference()
    spec = ref[args.size][args.workload]
    keys = draw(spec, args.workload, args.seed)
    env = _environment(args, ref)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    request = {
        "workload": args.workload,
        "keys": keys,
        "refs": {k: spec["items"][k] for k in keys},
        "whole_sha256": spec["default_sha256"] if args.seed == DEFAULT_SEED else None,
        "spans_path": None,
    }

    setup: list[dict] = []
    kinds = ["disc", "full"] if args.trace else [None]
    passes: dict[str | None, list[dict]] = {kind: [] for kind in kinds}
    attempted = failed = 0
    failures: list[str] = []
    # a ChildFailed that leaves this block is a set-up child's: a pass
    # child's failure is counted against its items
    try:
        # the first child compiles bytecode into the pycache prefix; not timed
        _spawn(dict(request, mode="setup", trace=None), deadline)
        measure_start = time.monotonic()
        rounds = 0
        while True:
            for kind in kinds:
                req = dict(request, mode="pass", trace=kind)
                if kind == "full":
                    req["spans_path"] = os.path.join(OUT, f"spans-{tag}.jsonl")
                attempted += len(keys)
                try:
                    r = _spawn(req, deadline)
                except ChildFailed as exc:
                    failed += len(keys)
                    failures.append(str(exc))
                    continue
                setup.append(r)
                bad = [it for it in r["items"] if it["errors"]]
                failed += len(bad) + len(keys) - len(r["items"])
                failures += [f"{it['key']}: {'; '.join(it['errors'])}" for it in bad]
                passes[kind].append(r)
            for _ in range(SETUP_PER_ROUND):
                setup.append(_spawn(dict(request, mode="setup", trace=None), deadline))
            # stop when another round would end further past --seconds
            # than stopping now falls short of it
            rounds += 1
            elapsed = time.monotonic() - measure_start
            per_round = elapsed / rounds
            if elapsed + per_round / 2 >= args.seconds or time.monotonic() + per_round > deadline:
                break
    except ChildFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return EXIT_SETUP

    env["loadavg_end"] = list(os.getloadavg())
    done = [r for kind in kinds for r in passes[kind]]
    env["mpmath_backend"] = done[0]["mpmath_backend"] if done else None
    env["backend_matches_reference"] = env["mpmath_backend"] == ref["recorded_with"]["mpmath_backend"]
    print("# env " + json.dumps(env, sort_keys=True))
    if not env["backend_matches_reference"]:
        print(f"# WARNING: mpmath backend {env['mpmath_backend']!r} differs from the reference's "
              f"{ref['recorded_with']['mpmath_backend']!r}; j_eval cost is not comparable")
    print(f"# inputs: {len(keys)} items {keys[0]} .. {keys[-1]}; passes "
          + ", ".join(f"{kind or 'untraced'} {len(passes[kind])}" for kind in kinds))
    print(f"# fail_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for line in failures[:20]:
        print(f"# FAILED {line}")
    if not all(passes.values()):
        print("error: no pass completed, nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = _layer_metrics(passes["full"], passes["disc"])
    else:
        metrics = {
            "pass_s": {"value": statistics.median(r["pass_s"] for r in done), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["maxrss_kb"] for r in done) / 1024, "unit": "MB"},
        }
        print(f"# as measured: pass wall {statistics.median(r['t1'] - r['t0'] for r in done):.4f} s, "
              f"pass CPU {statistics.median(r['c1'] - r['c0'] for r in done):.4f} s, "
              f"set-up wall {statistics.median(r['setup_wall_s'] for r in setup):.4f} s (medians)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "keys": keys, "failures": failures,
                   "setup": {k: [r[k] for r in setup]
                             for k in ("setup_s", "setup_wall_s", "cpu_ready", "setup_unit_s")},
                   "passes": {kind or "untraced": {k: [r[k] for r in passes[kind]]
                                                   for k in ("pass_s", "t0", "t1", "c0", "c1", "pass_unit_s")}
                              for kind in kinds},
                   "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
