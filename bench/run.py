#!/usr/bin/env python3
"""symshadow benchmark: one workload per process, outputs checked.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the op
list once untraced and once with spans around the package's public
functions, reports the per-layer metrics and the tracing overhead, and
times the nine README CLI commands in process.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans and the full report go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_REPEATS = 9
# each op runs PASSES times, spread over the run, and keeps its median time,
# which filters bursts of interference from other processes on the machine
PASSES = 3
# reference_work() on the reference machine with no other load; times are
# scaled by REFERENCE_S over its time measured next to each op
REFERENCE_S = 1.7e-3
CALIBRATE_EVERY_S = 0.05
TAIL_BEYOND = 10  # samples beyond the tail percentile
TAIL_MIN_OPS = 40  # below this the tail percentile would sit under p75

CLI_COMMANDS = (
    ("analyze", "analyze data/golden_mean.json"),
    ("lpp", "lpp data/golden_mean.json --epsilon 0.25 --n-max 100"),
    ("lpp_cycle", "lpp data/golden_mean.json --epsilon 0.25 --n-max 100 --cycle 01"),
    ("pseudo_shadow_torus", "pseudo-shadow data/cat_map.json 1/5,2/5 --delta 0.01"),
    ("pseudo_shadow_symbolic", "pseudo-shadow data/full_2_shift.json 01 --delta 0.125"),
    ("approx_bernoulli", "approx-measure data/target_half_mix.json data/full_2_shift.json "
                         "--epsilon 0.1 --mode bernoulli"),
    ("approx_periodic", "approx-measure data/target_lebesgue.json data/cat_map.json "
                        "--epsilon 0.05 --mode periodic --max-period 30"),
    ("perturb_smoke", "perturb-smoke data/horseshoe.json --magnitude 0.033"),
    ("coding_table", "coding-table data/horseshoe.json --depth 3"),
)


# -- measurement ---------------------------------------------------------------


_POINTS = [((i * 0.6180339887) % 1.0, (i * 0.4142135623) % 1.0) for i in range(40)]


def reference_work():
    """Fixed pure-Python work in the package's styles: integer loops, float
    distances on tuples, and dict and sort work on small words."""
    total = 0
    for i in range(8000):
        total += i * i % 7
    worst = 0.0
    for a in _POINTS:
        for b in _POINTS:
            dx = abs(a[0] - b[0]) % 1.0
            dy = abs(a[1] - b[1]) % 1.0
            worst = max(worst, math.sqrt(min(dx, 1.0 - dx) ** 2 + min(dy, 1.0 - dy) ** 2))
    counts: dict = {}
    for w in [(i % 3, i % 5, i % 7) for i in range(600)]:
        key = w[1:] + w[:1]
        counts[key] = counts.get(key, 0) + 1
    return total, worst, sorted(counts.items())[:3]


class SpeedGauge:
    """How fast this machine runs right now, relative to the reference machine.

    Other tenants' load changes the speed of a whole process by up to 2x for
    tens of seconds at a time.  Timing ``reference_work`` at most every
    CALIBRATE_EVERY_S and scaling each op's time by REFERENCE_S over the
    median of the last nine samples cancels most of that drift.
    """

    def __init__(self):
        self.samples: collections.deque = collections.deque(maxlen=9)
        self.last = -math.inf

    def factor(self) -> float:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            start = time.perf_counter()
            reference_work()
            self.last = time.perf_counter()
            self.samples.append(self.last - start)
        return REFERENCE_S / statistics.median(self.samples)


def fresh_import():
    """Import symshadow from this checkout, dropping any loaded copy first."""
    for name in [n for n in sys.modules if n == "symshadow" or n.startswith("symshadow.")]:
        del sys.modules[name]
    pkg = importlib.import_module("symshadow")
    if Path(pkg.__file__).resolve().parent != SRC / "symshadow":
        raise RuntimeError(f"symshadow imported from {pkg.__file__}, not {SRC}")
    return pkg


def timed_setups(workload, inputs, repeats: int, gauge: SpeedGauge):
    """Import plus preparation, ``repeats`` times; returns the last package,
    its ops, and every set-up time as measured and as scaled."""
    times, scaled = [], []
    for _ in range(repeats):
        before = gauge.factor()
        start = time.perf_counter()
        pkg = fresh_import()
        ops = workload.prepare(pkg, inputs)
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * (before + gauge.factor()) / 2)
    return pkg, ops, times, scaled


def run_pass(ops, tracer=None, gauge=None):
    """Time every op; check each output outside the timed region.

    Returns (durations, scaled durations, ok flags, digest items); scaled
    durations are empty without a gauge.  An op that raises, or whose check
    raises or rejects the output, is a failure.
    """
    durations, scaled, oks, items = [], [], [], []
    gc.collect()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        before = gauge.factor() if gauge else 1.0
        start = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        durations.append(time.perf_counter() - start)
        if gauge:
            scaled.append(durations[-1] * (before + gauge.factor()) / 2)
        if tracer is not None:
            tracer.op = None
        if error is not None:
            oks.append(False)
            items.append(["error", type(error).__name__])
            continue
        try:
            ok, item = op.check(out)
        except Exception as exc:
            ok, item = False, ["check-error", type(exc).__name__]
        oks.append(bool(ok))
        items.append(item)
    return durations, scaled, oks, items


def digest(items) -> str:
    text = json.dumps(items, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tail(samples):
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples
    beyond it, or None when there are too few samples."""
    n = len(samples)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_cli() -> tuple[dict[str, float], int]:
    """Wall time of each README command through ``symshadow.cli.main``."""
    cli = importlib.import_module("symshadow.cli")
    OUT.mkdir(exist_ok=True)
    times, failures = {}, 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for key, command in CLI_COMMANDS:
            argv = [str(ROOT / a) if a.startswith("data/") else a for a in command.split()]
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv + ["--out", tmp])
            times[f"cli.{key}.wall_s"] = time.perf_counter() - start
            failures += code != 0
    return times, failures


# -- one workload ----------------------------------------------------------------


def measure(workload, seed: int, seconds: float) -> dict:
    gauge = SpeedGauge()
    inputs = workload.make_inputs(seed, seconds / PASSES)
    _, ops, setups, setups_scaled = timed_setups(workload, inputs, SETUP_REPEATS, gauge)
    wall = [[] for _ in ops]
    scaled = [[] for _ in ops]
    items, failed_op, failed = None, [False] * len(ops), 0
    for _ in range(PASSES):
        durations, scaled_durations, oks, pass_items = run_pass(ops, gauge=gauge)
        for samples, d in zip(wall, durations):
            samples.append(d)
        for samples, d in zip(scaled, scaled_durations):
            samples.append(d)
        items = items or pass_items
        # every pass must also reproduce the first pass's outputs exactly
        bad = [not ok or item != first for ok, item, first in zip(oks, pass_items, items)]
        failed += sum(bad)
        failed_op = [a or b for a, b in zip(failed_op, bad)]
    per_op = [statistics.median(s) for s in scaled]
    per_op_wall = [statistics.median(s) for s in wall]
    verified = failed_op.count(False)
    tail_at = tail(per_op)
    attempted = len(ops) * PASSES
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            "ops_per_s": verified / sum(per_op),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "setup_s": statistics.median(setups_scaled),
            "peak_rss_mb": peak_rss_mb(),
        },
        "extra": {
            "op_tail_ms": None if tail_at is None else tail_at[0] * 1e3,
            "op_tail_percentile": None if tail_at is None else round(tail_at[1], 3),
            "op_samples": len(per_op),
            "fail_ratio": failed / attempted,
            "wall": {"ops_per_s": verified / sum(per_op_wall),
                     "op_p50_ms": statistics.median(per_op_wall) * 1e3,
                     "setup_s": statistics.median(setups)},
            "slowdown": statistics.median(gauge.samples) / REFERENCE_S,
            "pass_wall_s": [sum(s[p] for s in wall) for p in range(PASSES)],
            "output_digest": digest(items),
        },
    }


def trace(workload, seed: int, seconds: float) -> dict:
    inputs = workload.make_inputs(seed, seconds / PASSES)
    pkg, ops, _, _ = timed_setups(workload, inputs, 1, SpeedGauge())
    durations, _, oks, items = run_pass(ops)
    untraced = sum(durations)
    failed = oks.count(False)

    rec = tracing.Tracer(op="setup")
    rec.install()
    try:
        ops = workload.prepare(pkg, inputs)
        traced_durations, _, traced_oks, traced_items = run_pass(ops, rec)
    finally:
        rec.uninstall()
    failed += sum(not ok or a != b for ok, a, b in zip(traced_oks, traced_items, items))

    cli_times, cli_failures = time_cli()
    metrics = rec.layer_metrics()
    metrics["trace.overhead_ratio"] = sum(traced_durations) / untraced
    metrics.update(cli_times)
    attempted = 2 * len(ops) + len(CLI_COMMANDS)
    failed += cli_failures
    spans = [[s.id, s.parent, s.op, s.name, s.start, s.end, s.leaf_s, s.count]
             for s in rec.spans]
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "extra": {"output_digest": digest(items), "fail_ratio": failed / attempted,
                  "spans": len(spans)},
        "spans": spans, "leaf_calls": rec.leaf_calls(), "leaf_self_s": rec.leaf_self(),
    }


# -- reporting -----------------------------------------------------------------


def units(trace_on: bool) -> dict[str, str]:
    if not trace_on:
        return dict(END_TO_END)
    out = dict(tracing.LAYER_METRICS)
    out["trace.overhead_ratio"] = "ratio"
    out.update({f"cli.{key}.wall_s": "s" for key, _ in CLI_COMMANDS})
    return out


def machine() -> dict:
    import numpy
    return {"machine": platform.machine(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_one(name: str, seed: int, seconds: float, trace_on: bool) -> dict:
    workload = WORKLOADS[name]
    result = (trace if trace_on else measure)(workload, seed, seconds)
    unit_of = units(trace_on)
    extra = result["extra"]
    print(f"# {name}  seed {seed}  seconds {seconds}  trace {int(trace_on)}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for key, value in result["metrics"].items():
        print(f"  {key:40s} {value:14.6g} {unit_of[key]}")
    if not trace_on:
        for key, value in extra["wall"].items():
            print(f"  {key + ' (wall)':40s} {value:14.6g} {unit_of[key]}")
        print(f"  {'slowdown vs reference machine':40s} {extra['slowdown']:14.6g} ratio")
        if extra["op_tail_ms"] is None:
            print(f"  {'op_tail_ms':40s} {'omitted':>14} ms  "
                  f"({extra['op_samples']} ops < {TAIL_MIN_OPS})")
        else:
            print(f"  {'op_tail_ms':40s} {extra['op_tail_ms']:14.6g} ms  "
                  f"(p{extra['op_tail_percentile']}, {extra['op_samples']} ops, "
                  f"{TAIL_BEYOND} beyond)")
    print(f"  {'fail_ratio':40s} {extra['fail_ratio']:14.6g} ratio")
    print(f"  {'output_digest':40s} {extra['output_digest']:>14}")

    OUT.mkdir(exist_ok=True)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace_on),
              "machine": machine(), **result,
              "units": unit_of}
    (OUT / f"{name}-seed{seed}-trace{int(trace_on)}.json").write_text(json.dumps(report))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": unit_of[k]}
                        for k, v in result["metrics"].items()}}


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symshadow" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'symshadow'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
