#!/usr/bin/env python3
"""quivrep benchmark: one cold pass over a seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; quivrep is imported from ``src/``
there and nowhere else.  Each invocation is a fresh interpreter, so the
library's module-level caches start empty, as they do for every CLI call.
One process, one thread: nothing waits on another worker and nothing is
retried, so the benchmark reports no wait or retry figures.

The pass is a fixed set of items in an order chosen by the seed, sized to
take about ``--seconds`` on a 2-core Xeon; an item still unstarted after
BUDGET_FACTOR times ``--seconds`` counts as failed.

Pass and item times are gated in reference seconds (see refclock.py): wall
time rescaled by a pure-Python reference loop sampled between items,
because this machine's own speed swings by up to 2x within seconds.  The
info line carries the raw wall-clock figures beside them.  ``setup_s`` is
the median of SETUP_SAMPLES fresh-interpreter set-ups, likewise in
reference seconds.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` first runs the same pass untraced in a child interpreter (for
the tracing overhead), then runs it with every function named by a
per-layer metric wrapped from outside, prints the per-layer metrics and
writes the spans to ``.bench_out/``.  ``perfbench/layers.json`` maps each
per-layer metric to the end-to-end metric and workload it should move.

The last line of stdout is the result object; the line before it carries
the seed, the arrows, gate outcomes, the item count, and the per-item p50
and tail (the highest percentile with at least ten items beyond it) in
wall and reference milliseconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

PROCESS_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 9
# The machine's own speed swings by up to 2x within seconds, so a pass may
# overrun --seconds without being at fault.
BUDGET_FACTOR = 4
# Hard ceiling on one invocation, under the 180 s a run may take.
RUN_CEILING_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [w["name"] for w in BENCH["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(BENCH["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="import and generate inputs, time the reference loop, then exit (one set-up sample)"
    )
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_quivrep():
    """Import quivrep from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import quivrep
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import quivrep from {src}: {exc}")
    if src.resolve() not in Path(quivrep.__file__).resolve().parents:
        sys.exit(f"perfbench: quivrep resolved to {quivrep.__file__}, outside {src}")
    return quivrep


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Set-up samples in wall and in reference seconds.  Each is a fresh
    interpreter that imports quivrep and generates this run's inputs:
    interpreter start, import and input generation.  It is scaled by the
    reference loop run in that same process right after its set-up, which
    kept the sample's median steady through slow phases of the machine that
    moved the wall-clock median by a fifth."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    wall, ref = [], []
    for _ in range(args.setup_samples):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True).stdout
        probe = json.loads(out.strip().splitlines()[-1])
        wall.append(time.perf_counter() - t0 - probe["after_s"])
        ref.append(wall[-1] * refclock.REF_NOMINAL_S / probe["ref_s"])
    return wall, ref


def untraced_pass(args) -> dict:
    """Info line of the same workload and seed run untraced in a fresh
    interpreter: the baseline the tracing overhead is measured against."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-samples", "0"]
    out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-2])["info"]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it
    (nearest-rank); 100, the maximum, when there are too few samples."""
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 100


def percentile(sorted_values: list[float], p: int) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def layer_targets() -> list[tuple[str, str]]:
    targets = []
    for metric in BENCH["per_layer"]:
        if metric["name"].startswith("trace."):
            continue
        module, func, _ = metric["name"].split(".")
        if (module, func) not in targets:
            targets.append((module, func))
    return targets


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    Q = import_quivrep()
    import workloads

    prepare, run_pass = workloads.WORKLOADS[args.workload]
    inputs = prepare(Q, args.seed)
    if args.setup_only:
        t0 = time.perf_counter()
        ref = statistics.median(refclock.reference_loop() for _ in range(3))
        print(json.dumps({"ref_s": ref, "after_s": time.perf_counter() - t0}))
        return 0

    tracer = None
    span = workloads.NO_SPAN
    if args.trace:
        from tracer import Tracer

        baseline = untraced_pass(args)
        tracer = Tracer(layer_targets())
        tracer.install()
        span = tracer.item
    start = time.perf_counter()
    deadline = min(start + BUDGET_FACTOR * args.seconds, PROCESS_START + RUN_CEILING_S)
    outcome = run_pass(Q, inputs, deadline, span)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wall = sorted(outcome.item_s)
    ref = sorted(outcome.item_ref_s)
    n = len(ref)
    tail_p = tail_percentile(n)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "items": n,
        "item_tail_percentile": tail_p,
        "pass_wall_s": outcome.wall_s,
        "pass_ref_s": outcome.ref_s,
        "items_per_wall_s": n / outcome.wall_s if outcome.wall_s else None,
        "item_p50_wall_ms": 1000 * statistics.median(wall) if n else None,
        "item_tail_wall_ms": 1000 * percentile(wall, tail_p) if n else None,
        "item_p50_ref_ms": 1000 * statistics.median(ref) if n else None,
        "item_tail_ref_ms": 1000 * percentile(ref, tail_p) if n else None,
        "reference_samples": len(outcome.clock.samples),
        "gates": outcome.gates,
        "concurrency": "one process, one thread: no waiting and no retries to report",
        **outcome.notes,
    }
    correct = outcome.failed == 0 and all(outcome.gates.values())

    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write_spans(spans_path)
        overhead = outcome.ref_s - baseline["pass_ref_s"]
        info.update(
            untraced_pass_ref_s=baseline["pass_ref_s"],
            untraced_pass_wall_s=baseline["pass_wall_s"],
            trace_overhead_ref_s=overhead,
            spans=len(tracer.span_name),
            spans_file=str(spans_path.relative_to(ROOT)),
            absent=tracer.absent,
        )
        values = {"trace.overhead_s": overhead, "trace.spans": len(tracer.span_name)}
        metrics = {}
        for m in BENCH["per_layer"]:
            value = values[m["name"]] if m["name"] in values else tracer.metric(m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        # Layers this workload is meant to leave alone (perfbench/layers.json).
        layers = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())
        zeros = layers["expected_zero"].get(args.workload, [])
        info["expected_zero_ok"] = all(metrics[name]["value"] == 0 for name in zeros)
    else:
        values = {
            "items_per_ref_s": n / outcome.ref_s if outcome.ref_s else 0.0,
            "item_p50_ref_ms": info["item_p50_ref_ms"],
            "peak_rss_mb": peak_rss_mb,
        }
        if args.setup_samples:
            setup_wall, setup_ref = setup_seconds(args)
            info["setup_wall_s"] = setup_wall
            info["setup_ref_s"] = setup_ref
            values["setup_s"] = statistics.median(setup_ref)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCH["end_to_end"]
            if m["name"] in values
        }

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
