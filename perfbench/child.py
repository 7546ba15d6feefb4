"""One measured process: set up, run one pass of a workload, check it.

Reads a JSON request on stdin and prints one JSON result line on stdout.
``run.py`` starts it with ``python -I``, so it puts the checkout's ``src``
and this directory on ``sys.path`` itself.  Timestamps are
``time.monotonic`` seconds, which every process on the machine shares, so
the parent can take set-up time from its own clock reading at spawn.

Request keys: ``workload``, ``mode`` (``setup`` stops after set-up, ``pass``
runs the items), ``keys``, ``refs`` (reference entry per key),
``whole_sha256`` (digest of the whole output, or null), ``trace`` (null,
``"disc"`` for spans on the per-discriminant calls only, or ``"full"`` for
every layer) and ``spans_path``.

Besides the ``time.monotonic`` marks it reports its own CPU time
(``time.process_time``) at the end of set-up and around the pass, which the
parent scales by the speed ``calibrator.py`` measured on the same CPU.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__))]

from workloads import SRC, check_item, outputs, setup, sha256  # noqa: E402

sys.path.insert(0, SRC)


def _disc_seconds(tracer) -> list[float]:
    # scan calls joint_reduce then reduce_archimedean once per discriminant
    joint = tracer.top_level_durations("reduction.joint_reduce")
    arch = tracer.top_level_durations("reduction.reduce_archimedean")
    return [a + b for a, b in zip(joint, arch)] if len(joint) == len(arch) else []


def main() -> None:
    req = json.loads(sys.stdin.read())
    workload = req["workload"]
    setup(workload)
    result = {"t_ready": time.monotonic(), "cpu_ready": time.process_time()}
    if req["mode"] == "pass":
        tracer = None
        if req["trace"]:
            from tracer import DISC_TARGETS, Tracer

            tracer = Tracer(DISC_TARGETS, ()) if req["trace"] == "disc" else Tracer()
            tracer.install()
        items = []
        ss_points = 0
        whole, whole_error = "", None
        t0 = time.monotonic()
        c0 = time.process_time()
        p0 = time.perf_counter()
        for key, payload, error in outputs(workload, req["keys"], req["refs"]):
            if key is None:
                whole, whole_error = payload, error
                break
            errors = [error] if error else check_item(workload, key, payload, req["refs"][key])
            if workload == "ss-locus" and not errors:
                ss_points += len(json.loads(payload)["points"])
            items.append({"key": key, "errors": errors})
        if whole_error is None and req["whole_sha256"] and sha256(whole) != req["whole_sha256"]:
            whole_error = "whole output digest differs from the reference"
        t1 = time.monotonic()
        c1 = time.process_time()
        if whole_error:
            for item in items:
                item["errors"].append(whole_error)
        import mpmath.libmp

        result.update(
            t0=t0,
            t1=t1,
            c0=c0,
            c1=c1,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            mpmath_backend=mpmath.libmp.BACKEND,
            items=items,
        )
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary()
            result["trace"]["ss_points"] = ss_points
            result["trace"]["disc_s"] = _disc_seconds(tracer)
            if req["spans_path"]:
                tracer.write_spans(req["spans_path"], p0)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
