"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Op, check_certify  # noqa: E402

TINY_SECONDS = 0.05


def tiny_inputs(name: str, seed: int):
    inputs = WORKLOADS[name].make_inputs(seed, TINY_SECONDS)
    if name == "measure":
        # one request of each kind, the cheapest of its kind
        picked = {}
        for req in inputs["requests"]:
            cost = (req.get("m_max", 0), req.get("max_denominator", 0))
            if req["kind"] not in picked or cost < picked[req["kind"]][0]:
                picked[req["kind"]] = (cost, req)
        inputs["requests"] = [req for _, req in picked.values()]
    return inputs


def tiny_run(name: str, seed: int):
    pkg = run.fresh_import()
    ops = WORKLOADS[name].prepare(pkg, tiny_inputs(name, seed))
    durations, _, oks, items = run.run_pass(ops)
    return durations, oks, items


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_tiny_without_failures(name):
    durations, oks, items = tiny_run(name, seed=3)
    assert len(durations) == len(oks) == len(items) > 0
    assert all(oks), [item for ok, item in zip(oks, items) if not ok]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_ops_and_digest(name):
    first = json.dumps(tiny_inputs(name, seed=5))
    assert json.dumps(tiny_inputs(name, seed=5)) == first
    _, _, items_a = tiny_run(name, seed=5)
    _, _, items_b = tiny_run(name, seed=5)
    assert run.digest(items_a) == run.digest(items_b)


def test_seed_changes_certify_inputs():
    certify = WORKLOADS["certify"]
    assert certify.make_inputs(1, TINY_SECONDS) != certify.make_inputs(2, TINY_SECONDS)


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        tracer.Span(0, None, 0, "a", 0.0, 10.0, leaf_s=0.5),
        tracer.Span(1, 0, 0, "b", 1.0, 4.0),
        tracer.Span(2, 0, 0, "b", 3.0, 6.0),   # overlaps span 1
        tracer.Span(3, 0, 0, "c", 8.0, 12.0),  # runs past its parent's end
        tracer.Span(4, 1, 0, "d", 1.5, 2.0),   # grandchild of span 0
    ]
    selfs = tracer.self_times(spans)
    # children cover [1, 6] and [8, 10] of span 0: 7 s, plus 0.5 s of leaf calls
    assert selfs[0] == pytest.approx(2.5)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_wrong_outputs_count_as_failures():
    pkg = run.fresh_import()
    primitive = [[1, 1], [1, 0]]
    periodic = [[0, 1], [1, 0]]
    cert = pkg.dense_periods_certificate(pkg.TransitionMatrix(primitive), 0.25, 100)
    refutation = pkg.dense_periods_certificate(pkg.TransitionMatrix(periodic), 0.25, 100)
    assert check_certify(pkg, primitive, cert, 100)[0]
    assert check_certify(pkg, periodic, refutation, 100)[0]

    def boom():
        raise ValueError("op failed")

    ops = [Op(lambda: refutation, lambda out: check_certify(pkg, primitive, out, 100)),
           Op(lambda: cert, lambda out: check_certify(pkg, periodic, out, 100)),
           Op(boom, lambda out: (True, [])),
           Op(lambda: cert, lambda out: check_certify(pkg, primitive, out, 100))]
    _, _, oks, items = run.run_pass(ops)
    assert oks == [False, False, False, True]
    assert items[2] == ["error", "ValueError"]


def test_traced_counts_repeat_and_wrappers_are_removed():
    def traced_calls():
        pkg = run.fresh_import()
        ops = WORKLOADS["certify"].prepare(pkg, tiny_inputs("certify", seed=7))
        rec = tracer.Tracer()
        rec.install()
        try:
            run.run_pass(ops, rec)
        finally:
            rec.uninstall()
        assert pkg.dense_periods.enumerate_cycles is pkg.sft.enumerate_cycles
        assert pkg.sft.enumerate_cycles.__module__ == "symshadow.sft"
        assert pkg.dense_periods_certificate.__module__ == "symshadow.dense_periods"
        metrics = rec.layer_metrics()
        return {k: v for k, v in metrics.items() if k.endswith((".calls", ".cycles"))}

    first = traced_calls()
    assert first["dense_periods.certificate.calls"] == len(tiny_inputs("certify", seed=7))
    assert first == traced_calls()


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
