"""Tests of the benchmark harness itself: tracing restores what it patches,
every workload passes its checks at tiny size, and the checker refuses
corrupted outputs."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE]

from tracer import COUNT_TARGETS, SPAN_TARGETS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DRAW_TOLERANCE,
    ROOT,
    SRC,
    WORKLOADS,
    check_item,
    draw,
    load_reference,
    outputs,
    setup,
)

if SRC not in sys.path:
    sys.path.insert(0, SRC)

RUN = os.path.join(HERE, "run.py")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True, text=True, cwd=cwd,
                          timeout=120)


def _bindings():
    """Every (owner, attribute) a target is reachable through, with its object."""
    import importlib

    setup("quat-classes")
    out = {}
    for module_name, path in SPAN_TARGETS + COUNT_TARGETS:
        owner = importlib.import_module(f"cmreduce.{module_name}")
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        out[(owner, attr)] = raw
        for name, mod in list(sys.modules.items()):
            if name.startswith("cmreduce."):
                for alias, value in vars(mod).items():
                    if value is raw:
                        out[(mod, alias)] = raw
    return out


def test_tracer_restores_originals():
    before = _bindings()
    import cmreduce.reduction as reduction
    import cmreduce.quatalg as quatalg

    tracer = Tracer()
    tracer.install()
    try:
        # the by-name import in reduction is patched along with the original
        assert reduction.quaternion_data is not before[(quatalg, "quaternion_data")]
        assert reduction.quaternion_data is quatalg.quaternion_data
        assert all(owner.__dict__[attr] is not raw for (owner, attr), raw in before.items())
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for (owner, attr), raw in before.items())


def test_tracer_nests_spans_and_self_time():
    from cmreduce import classpoly

    tracer = Tracer()
    tracer.install()
    try:
        classpoly.hilbert_class_poly(-23)
    finally:
        tracer.uninstall()
    (top,) = [i for i, s in enumerate(tracer.spans) if s[3] < 0]
    assert tracer.spans[top][0] == "classpoly.hilbert_class_poly"
    j_spans = [s for s in tracer.spans if s[0] == "classpoly.j_eval"]
    assert j_spans and all(s[3] == top for s in j_spans)
    summary = tracer.summary()
    total = summary["busy_s"]["classpoly.hilbert_class_poly"]
    children = sum(s[2] - s[1] for s in tracer.spans if s[3] == top)
    assert summary["self_s"]["classpoly.hilbert_class_poly"] == pytest.approx(total - children)
    assert summary["calls"]["classpoly.j_eval"] == len(j_spans)


def test_tracer_counts_calls_that_raise():
    from cmreduce import quatalg
    from cmreduce.errors import NotRepresented

    def embed(*args, **kwargs):
        raise NotRepresented("no optimal embedding")

    original = quatalg.find_optimal_embedding
    quatalg.find_optimal_embedding = embed
    try:
        tracer = Tracer((("quatalg", "find_optimal_embedding"),), ())
        tracer.install()
        try:
            for _ in range(3):
                with pytest.raises(NotRepresented):
                    quatalg.find_optimal_embedding()
        finally:
            tracer.uninstall()
    finally:
        quatalg.find_optimal_embedding = original
    assert tracer.calls["quatalg.find_optimal_embedding"] == 3
    assert len(tracer.spans) == 3 and all(s[2] >= s[1] for s in tracer.spans)
    assert tracer.true_results["quatalg.find_optimal_embedding"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_checks(workload):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"pass_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_layers():
    proc = _run("--workload", "scan-joint", "--seed", "5", "--seconds", "1", "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["quatalg.is_same_class.calls"]["value"] > 0
    # scan.disc_n pools the discriminants of every per-discriminant pass
    assert metrics["scan.disc_n"]["value"] >= metrics["reduction.joint_reduce.calls"]["value"] > 0
    assert metrics["scan.disc_n"]["value"] % metrics["reduction.joint_reduce.calls"]["value"] == 0
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_refuses_corrupted_output(workload):
    spec = load_reference()["tiny"][workload]
    keys = spec["default"]
    refs = {k: spec["items"][k] for k in keys}
    setup(workload)
    produced = [(k, payload) for k, payload, error in outputs(workload, keys, refs) if k is not None]
    key, payload = produced[0]
    assert check_item(workload, key, payload, refs[key]) == []
    # one changed value: the digest check fails even where JSON stays valid
    corrupted = payload.replace("1", "2", 1)
    assert corrupted != payload
    assert check_item(workload, key, corrupted, refs[key])
    assert check_item(workload, key, payload[:-2], refs[key])


def test_checker_reports_broken_invariant_with_matching_digest():
    ref = {"sha256": None}
    payload = json.dumps({"p": 23, "points": [{"j": "0", "w": 3}], "mass": "1/3"})
    from workloads import sha256

    ref["sha256"] = sha256(payload)
    errors = check_item("ss-locus", "23", payload, ref)
    assert any("mass" in e for e in errors)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_draws_are_seeded_and_cost_balanced(workload):
    spec = load_reference()["full"][workload]
    cost = {k: v["cost"] for k, v in spec["items"].items()}
    target = sum(cost[k] for k in spec["default"])
    for seed in (1, 2, 3):
        keys = draw(spec, workload, seed)
        assert keys == draw(spec, workload, seed)
        assert all(k in spec["items"] for k in keys)
        total = sum(cost[k] for k in keys)
        assert abs(total - target) <= max(DRAW_TOLERANCE * target, max(cost[k] for k in keys))


def test_unit_time_uses_the_samples_that_bracket_the_interval():
    from run import _unit_s

    # [monotonic_s, units_done, cpu_s]: 1 ms per unit until t = 2, then 2 ms
    samples = [[0.0, 0, 0.0], [1.0, 8, 0.008], [2.0, 16, 0.016], [3.0, 24, 0.032], [4.0, 32, 0.048]]
    assert _unit_s(samples, 0.5, 1.5) == pytest.approx(0.001)
    assert _unit_s(samples, 2.0, 4.0) == pytest.approx(0.002)
    assert _unit_s(samples, 1.5, 2.5) == pytest.approx(0.024 / 16)
    # an interval past the last sample falls back to the whole record
    assert _unit_s(samples, 5.0, 6.0) == pytest.approx(0.048 / 32)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ss-locus", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
