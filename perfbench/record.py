"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

For each size and workload pool, runs every item in this process and
stores its output's SHA-256 digest, the exact values its checks need, and
its cost (which balances the draws of non-default seeds; see
``workloads.draw``).  On a shared machine the speed drifts by tens of
percent within a minute, so where the work is a known function of the input
the cost is that function, which does not drift (``COUNTED_COST``).
Elsewhere it is the median, over TIMING_ROUNDS rounds through the whole
pool, of the item's time divided by that of the default draw's first item,
timed just before it.  Also stores the digest of the default draw's whole
output.  Every section is recorded on every call, so the file names one
commit for all of it.  Run it only on a commit whose outputs are known
good: every later run is compared with what it writes.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__))]

from workloads import (  # noqa: E402
    REFERENCE,
    ROOT,
    ROOT_SCALES,
    SCAN_PRIMES,
    SIZES,
    SRC,
    WORKLOADS,
    outputs,
    setup,
    sha256,
)

sys.path.insert(0, SRC)

TIMING_ROUNDS = 5
COUNTED_COST = {
    # every reduced form is classified once per prime, and the embedding
    # search and archimedean statistics cost about as much as two forms;
    # a form costs in proportion to the size of the numbers, log |D|
    # (without that factor, windows near |D| = 2*10^4 ran 8% slower than
    # windows of the same cost near 10^4)
    "scan-joint": lambda key, ref: round((ref["h"] + 2) * math.log(-int(key)), 4),
    # p^2 candidate j, each with an O(p) Hasse coefficient
    "ss-locus": lambda key, ref: round((int(key) / 100) ** 3, 4),
}

# Pools and default draws.  Each default draw is one pass of about five
# seconds, so that a 20 s run measures several passes.  A pool keeps only
# items a draw of about the default's cost can use: quat-classes leaves out
# 59, 61, 71, 73 and 83, whose class sets each cost about twice the default
# draw, and ss-locus stops at 283.  classpoly-roots keeps every stride-th of
# its 353 candidates (plus the default draw), because timing H_D and its
# roots five times for all of them would take three hours.
POOLS = {
    "full": {
        "scan-joint": {"abs_range": (10001, 20000), "default_count": 12},
        "quat-classes": {"primes": ("37", "41", "43", "47", "53", "67", "79"),
                         "default": ["41", "53"]},
        "classpoly-roots": {"abs_max": 10**4, "h": (60, 140), "stride": 24,
                            "default": ["-2351", "-4391"]},
        "ss-locus": {"primes": (150, 283), "default": ["199", "263"]},
    },
    "tiny": {
        "scan-joint": {"abs_range": (3, 400), "default_count": 4},
        "quat-classes": {"primes": ("5", "7", "11", "13", "17", "19", "23"), "default": ["11", "13"]},
        "classpoly-roots": {"abs_max": 300, "h": (3, 6), "stride": 1, "default": ["-23", "-47"]},
        "ss-locus": {"primes": (5, 47), "default": ["23", "29"]},
    },
}


def _pool(workload: str, conf: dict) -> list[str]:
    from cmreduce.numbase import primes_up_to
    from cmreduce.quadforms import admissible_discriminants, class_number, is_fundamental

    if workload == "scan-joint":
        return [str(d.D) for d in admissible_discriminants(
            inert=SCAN_PRIMES, coprime_to=SCAN_PRIMES, abs_range=conf["abs_range"], fundamental_only=True)]
    if workload == "classpoly-roots":
        lo, hi = conf["h"]
        cands = [-n for n in range(3, conf["abs_max"] + 1)
                 if is_fundamental(-n) and lo <= class_number(-n) <= hi]
        keep = set(cands[:: conf["stride"]]) | {int(k) for k in conf["default"]}
        return [str(d) for d in cands if d in keep]
    if workload == "quat-classes":
        return list(conf["primes"])
    lo, hi = conf["primes"]
    return [str(p) for p in primes_up_to(hi) if p >= lo]


def _inert_primes(D: int) -> list[int]:
    from cmreduce.numbase import is_prime, kronecker

    out = []
    for base in ROOT_SCALES:
        p = base
        while not (is_prime(p) and kronecker(D, p) == -1):
            p += 1
        out.append(p)
    return out


def _timed(workload: str, key: str, ref: dict) -> float:
    """Seconds for one item, from cold caches; stores its digest on first
    use and checks it on every later one."""
    from cmreduce.quatalg import quaternion_data
    from cmreduce.ssenum import enumerate_ss

    if workload != "scan-joint":
        quaternion_data.cache_clear()
        enumerate_ss.cache_clear()
    t = time.perf_counter()
    _, payload, error = next(outputs(workload, [key], {key: ref}))
    seconds = time.perf_counter() - t
    if error:
        raise RuntimeError(f"{workload} {key}: {error}")
    if ref.setdefault("sha256", sha256(payload)) != sha256(payload):
        raise RuntimeError(f"{workload} {key}: output differs between timing rounds")
    print(f"{workload} {key} {seconds:.3f}s", file=sys.stderr, flush=True)
    return seconds


def record(size: str, workload: str) -> dict:
    from cmreduce.quadforms import class_number

    conf = POOLS[size][workload]
    setup(workload)
    pool = _pool(workload, conf)
    items = {key: {} for key in pool}
    for key, ref in items.items():
        if workload == "classpoly-roots":
            ref["primes"] = _inert_primes(int(key))
        if workload in ("classpoly-roots", "scan-joint"):
            ref["h"] = class_number(int(key))
    counted = COUNTED_COST.get(workload)
    if counted:
        for key, ref in items.items():
            _timed(workload, key, ref)
            ref["cost"] = counted(key, ref)
    else:
        # each timing is divided by one of the base item taken just before
        # it: the machine's speed drifts by tens of percent within a minute,
        # but much less within one such pair
        base = conf["default"][0]
        ratios = {key: [] for key in pool}
        for _ in range(TIMING_ROUNDS):
            for key, ref in items.items():
                t_base = _timed(workload, base, items[base])
                ratios[key].append(_timed(workload, key, ref) / t_base)
        for key, ref in items.items():
            ref["cost"] = round(statistics.median(ratios[key]), 4)
    default = conf.get("default") or pool[: conf["default_count"]]
    whole = [v for k, v, _ in outputs(workload, default, items) if k is None][0]
    return {"default": default, "default_sha256": sha256(whole), "items": items}


def main() -> None:
    import mpmath.libmp

    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    ref = {
        "recorded_with": {
            "commit": commit.stdout.strip() or None,
            "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(),
        }
    }
    for size in SIZES:
        ref[size] = {workload: record(size, workload) for workload in WORKLOADS}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
