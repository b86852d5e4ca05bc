#!/usr/bin/env python3
"""Benchmark of the rphase command-line tool.

    python3 perfbench/run.py --workload certify-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout (``src/rphase`` next to
``perfbench/``); it builds nothing and needs only the standard library.
Workloads (see BENCHMARK.json for why each was chosen):

* ``certify-wide``  ``verify`` of TOF8 dirty and TOF11 clean, and mutants;
* ``certify-small`` many short ``verify`` ops on widths 3..11;
* ``rewrite``       ``rewrite`` of seeded tof chains and of ladders;
* ``synth``         ``synth`` and ``count`` at large n, and ``table``.

Each run is a closed loop with one client in one fresh worker process
(``worker.py``): ops are serial in-process ``rphase.cli.main`` calls, each
checked against a known answer. ``--trace 0`` reports the end-to-end
metrics, the same five on every workload:

* ``setup_s``      median wall time of nine fresh interpreters that import
  ``rphase.cli`` and run one ``synth`` (four before the loop, five after);
* ``ops_per_s``    ops per second of op time;
* ``op_p50_ms``    median op latency;
* ``work_per_s``   basis columns certified per second (certify-*, printed
  as ``columns_per_s``) or gates read (rewrite) or written (synth) per
  second (printed as ``gates_per_s``);
* ``peak_rss_mb``  peak resident memory of the worker process.

Op times are calibrated: each op's wall time is rescaled by a fixed
pure-Python reference loop timed next to it, to the speed of a machine on
which that loop takes 5 ms (see ``worker.REF_S``), because the speed of a
shared host drifts by a third within minutes. The wall-clock figures are
printed too, as ``wall_*``, with ``failed_share``, ``op_p90_ms`` (runs of
at least 100 ops) and, for rewrite, the T and CNOT counts of one pass's
outputs (``t_out``, ``cnot_out``).

``--trace 1`` runs traced and untraced passes alternately and reports the
per-layer metrics (see ``tracer.LAYER_METRICS``, which also names the
end-to-end metric and workload each should move) and the tracing
overhead, and writes the spans to
``.bench_work/trace-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (metric, unit, better); every workload reports each of them
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
WORK_UNIT = {"certify-wide": "columns_per_s", "certify-small": "columns_per_s",
             "rewrite": "gates_per_s", "synth": "gates_per_s"}
SETUP_STARTS = (4, 5)  # fresh interpreters before and after the worker
SETUP_CODE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import rphase.cli
with contextlib.redirect_stdout(io.StringIO()):
    sys.exit(rphase.cli.main(["synth", "--gate", "tof", "--n", "8", "--ancilla", "dirty"]))
"""
WORKER_TIMEOUT_S = 170


def setup_seconds(starts: int) -> list[float]:
    """Wall times of fresh interpreters that import rphase.cli and run
    their first command."""
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup start failed: {proc.stderr.strip()}")
    return times


def run_worker(workload: str, seed: int, seconds: int, trace: int) -> dict:
    work_dir = os.path.join(WORK, f"{workload}-seed{seed}-{os.getpid()}")
    trace_out = os.path.join(WORK, f"trace-{workload}-seed{seed}.json") if trace else ""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--src", SRC, "--work-dir", work_dir, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload: str, r: dict, trace: int) -> dict:
    """Print every metric by name with its unit; return the JSON metrics."""
    print(f"== {workload}: {r['attempted']} ops attempted, {r['failed']} failed, "
          f"{r['passes']} passes")
    for problem in r["failures"]:
        print("   FAILED", problem)
    if trace:
        for label, (op_s, layers) in r["shares"].items():
            tops = ", ".join(f"{name} {share:.1%}" for name, share in layers)
            print(f"   {label}: {op_s * 1000:.1f} ms per pass; {tops}")
        for name, unit, _, moves in LAYER_METRICS:
            print(f"   {name} = {r['layers'][name]:.6g} {unit}  [moves: {moves}]")
        return {name: {"value": r["layers"][name], "unit": unit}
                for name, unit, *_ in LAYER_METRICS}
    extra = [("failed_share", r["failed"] / r["attempted"], "ratio"),
             (WORK_UNIT[workload], r["work_per_s"], "1/s")]
    if r["op_p90_ms"] is not None:
        extra.append(("op_p90_ms", r["op_p90_ms"], "ms"))
    for key in ("t_out", "cnot_out"):
        if key in r:
            extra.append((key, r[key], "count"))
    extra += [("wall_ops_per_s", r["wall_ops_per_s"], "1/s"),
              ("wall_op_p50_ms", r["wall_op_p50_ms"], "ms"),
              ("wall_work_per_s", r["wall_work_per_s"], "1/s"),
              ("reference_ms", r["reference_ms"], "ms")]
    metrics = {name: {"value": r[name], "unit": unit} for name, unit, _ in END_TO_END}
    for name, value, unit in extra + [(k, m["value"], m["unit"]) for k, m in metrics.items()]:
        print(f"   {name} = {value:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Closed-loop benchmark of the rphase CLI.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rphase", "cli.py")):
        print(f"perfbench: no rphase sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        # setup starts on both sides of the measured loop, so the median
        # does not rest on one moment of the machine's load
        starts = setup_seconds(0 if args.trace else SETUP_STARTS[0])
        results = {name: run_worker(name, args.seed, args.seconds, args.trace) for name in names}
        starts += setup_seconds(0 if args.trace else SETUP_STARTS[1])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for name, r in results.items():
        r["setup_s"] = statistics.median(starts) if starts else None
        for metric, m in report(name, r, args.trace).items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = m
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
