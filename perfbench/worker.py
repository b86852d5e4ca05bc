"""One benchmark run in a fresh process: generate the seeded inputs, warm
up, run whole passes over the workload's ops as a closed loop (one client,
serial ops, each an in-process ``rphase.cli.main(argv)`` call with stdout
and stderr captured), check every op against its known answer, and print
one JSON object of results on the last line of stdout.

Run by ``perfbench/run.py``; by hand::

    python3 perfbench/worker.py --workload synth --seed 1 --seconds 5 \
        --trace 0 --src src --work-dir .bench_work/tmp --trace-out ''
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402
from workloads import (Workload, judge, phase_permutation, qasm_gates,  # noqa: E402
                       qasm_roles)


def cli_runner(cli):
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # an escaped error is a failed op, not a dead run
                print(f"{type(exc).__name__}: {exc}", file=err)
                rc = -1
        return rc, out.getvalue(), err.getvalue()
    return run


def check_chain_rewrite(wl: Workload, run) -> str | None:
    """Once per run, untimed: the reduced chain instance, rewritten, must
    equal its input under ring ``unitary_columns``, and both must match
    this benchmark's own classical evaluation of the input."""
    from rphase.lowering import lower
    from rphase.qasm import parse_qasm
    from rphase.ring import RingElement
    from rphase.simulate import unitary_columns

    src, dst = wl.chain_check
    rc, out, err = run(["rewrite", src, "--rules", "prop1,prop2,cancel", "--out", dst])
    if rc != 0:
        return f"chain equivalence: rewrite exit {rc}: {err.strip()}"
    report = json.loads(out.strip().splitlines()[-1])
    if report["after"]["t"] >= report["before"]["t"]:
        return "chain equivalence: the reduced instance was not rewritten"
    with open(src) as fh:
        text_in = fh.read()
    with open(dst) as fh:
        text_out = fh.read()
    perm, phase = phase_permutation(qasm_gates(text_in), len(qasm_roles(text_in)))
    u_in = unitary_columns(lower(parse_qasm(text_in)), backend="ring")
    u_out = unitary_columns(lower(parse_qasm(text_out)), backend="ring")
    if list(u_in.perm) != perm or any(
            p != RingElement.omega_power(e) for p, e in zip(u_in.phases, phase)):
        return "chain equivalence: ring simulation of the input disagrees with its classical evaluation"
    if u_out != u_in:
        return "chain equivalence: rewritten output differs from its input"
    return None


# Machine speed on shared hosts drifts by a third within minutes, largely
# in step for any pure-Python work. Untraced runs therefore time this fixed
# loop, which shares no code with rphase, at least every REF_EVERY_S
# between ops, and rescale each op's wall time to a machine on which the
# loop takes REF_S: calibrated = wall * REF_S / (mean of the two samples
# around it). Over ten 20 s runs per workload on a shared 2-core host, this
# cut the quartile spread of work_per_s from 16/7/9/12 % (wall) to
# 5/4/4/2 % (certify-wide, certify-small, rewrite, synth).
REF_S = 0.005
REF_EVERY_S = 0.25


def reference() -> float:
    """Wall seconds of a fixed dict-and-tuple loop, like the ring kernel's:
    the fastest of three, with the garbage collector off, so a collection
    of the ops' garbage or a preemption does not count as machine speed."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            amps = {i: (i, 0, 1, 0) for i in range(16)}
            for _ in range(500):
                amps = {i ^ 5: (c3, -c0, c1 + 1, c2) for i, (c0, c1, c2, c3) in amps.items()}
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return 3 * best


class Loop:
    """Closed-loop passes over the workload's ops, with the known-answer check."""

    def __init__(self, ops, run, calibrate: bool = False):
        self.ops = ops
        self.run = run
        self.calibrate = calibrate
        self.refs: list[float] = []   # reference samples
        self.op_ref: list[int] = []   # the sample taken last before each op
        self._last_ref = float("-inf")
        self.lat_ms: list[float] = []
        self.work = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.pass_counts: dict[str, int] = {}
        self.labels: dict[int, str] = {}

    def one_pass(self, tracer: Tracer | None = None) -> float:
        call = self.run if tracer is None else tracer.wrap("cli.main", self.run)
        counts: dict[str, int] = {}
        start = time.perf_counter()
        for op in self.ops:
            if self.calibrate and time.perf_counter() - self._last_ref >= REF_EVERY_S:
                self.refs.append(reference())
                self._last_ref = time.perf_counter()
            self.op_ref.append(len(self.refs) - 1)
            if tracer is not None:
                tracer.op = self.attempted
                self.labels[self.attempted] = op.label
            t0 = time.perf_counter()
            rc, out, err = call(op.argv)
            dt = time.perf_counter() - t0
            self.attempted += 1
            try:
                problem = judge(op, rc, out)
            except (ValueError, KeyError, IndexError) as exc:
                problem = f"{op.label}: unreadable output ({exc})"
            if problem:
                self.failures.append(problem + (f"; stderr: {err.strip()[:200]}" if err else ""))
            self.lat_ms.append(dt * 1000)
            self.work += op.work
            for k, v in op.counts.items():
                counts[k] = counts.get(k, 0) + v
        self.pass_counts = counts
        return time.perf_counter() - start

    def calibrated_ms(self) -> list[float]:
        """Op latencies rescaled to reference speed (see REF_S)."""
        self.refs.append(reference())  # closes the last bracket
        return [ms * REF_S / ((self.refs[k] + self.refs[k + 1]) / 2)
                for ms, k in zip(self.lat_ms, self.op_ref)]


def warm_up(ops, run) -> None:
    """Run the cheapest op of each command once, untimed, so imports,
    catalog caches and the rewrite admissibility cache are filled."""
    cheapest = {}
    for op in ops:
        if op.argv[0] not in cheapest or op.work < cheapest[op.argv[0]].work:
            cheapest[op.argv[0]] = op
    for op in cheapest.values():
        run(op.argv)


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import rphase.catalog as catalog
    import rphase.cli as cli
    import rphase.verify as verify
    from rphase.circuit import Circuit
    from rphase.ring import RingElement

    os.makedirs(args.work_dir, exist_ok=True)
    run = cli_runner(cli)
    wl = Workload(args.workload, args.seed, args.work_dir, run)
    warm_up(wl.ops, run)
    loop = Loop(wl.ops, run, calibrate=args.trace == 0)
    extra_checks, extra_failures = 0, []
    if wl.chain_check is not None:
        extra_checks += 1
        problem = check_chain_rewrite(wl, run)
        if problem:
            extra_failures.append(problem)

    result = {}
    if args.trace == 0:
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < args.seconds:
            loop.one_pass()
            passes += 1
        elapsed = time.perf_counter() - start
        ops = len(loop.lat_ms)
        for prefix, lat in (("", loop.calibrated_ms()), ("wall_", loop.lat_ms)):
            busy = sum(lat) / 1000
            result.update({prefix + "ops_per_s": ops / busy,
                           prefix + "work_per_s": loop.work / busy,
                           prefix + "op_p50_ms": statistics.median(lat),
                           prefix + "op_p90_ms": percentile(lat, 90) if ops >= 100 else None})
        result.update(passes=passes, ops=ops, elapsed_s=elapsed,
                      reference_ms=statistics.median(loop.refs) * 1000, **loop.pass_counts)
    else:
        # Alternate untraced and traced passes; their time ratio is the
        # tracing overhead. Wrappers exist only during traced passes.
        tracer = Tracer()
        plain = traced = 0.0
        passes = 0
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < args.seconds:
            plain += loop.one_pass()
            tracer.install(cli, verify, catalog, Circuit, RingElement)
            try:
                traced += loop.one_pass(tracer)
            finally:
                tracer.uninstall()
            passes += 1
        result["layers"] = tracer.layer_metrics(passes, traced / plain - 1)
        result["shares"] = tracer.shares(loop.labels, passes)
        result["passes"] = passes
        if args.trace_out:
            tracer.dump(args.trace_out, loop.labels)

    failures = extra_failures + loop.failures
    result.update(
        attempted=loop.attempted + extra_checks,
        failed=len(failures),
        failures=failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
