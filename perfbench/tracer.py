"""In-memory span tracer for the traced run, and the per-layer metrics.

Each span wraps a public function as bound in its caller's namespace
(``rphase.cli``, ``rphase.verify``, the catalog builders ``rphase.cli``
reaches through ``cat``, and two methods: ``RingElement.is_unit_magnitude``
and ``Circuit.count_resources``). The wrappers exist only between
``install()`` and ``uninstall()``; untraced passes run the program's own
functions. A span is ``[name, start, end, parent index, op id]``; counters
are gathered at the same boundaries.

Per-layer figures are per traced pass over the workload's op list, which
is fixed for a seed, so counts repeat exactly and times compare across
commits however many passes fit in a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (metric, unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("simulate.run_column_ring.calls", "count", "lower", "columns simulated; work_per_s on certify-wide, flat on rewrite and synth"),
    ("simulate.run_column_ring.s", "s", "lower", "work_per_s on certify-wide; flat on rewrite and synth"),
    ("simulate.ops.perm", "count", "lower", "work_per_s on certify-wide (compiled perm ops x columns)"),
    ("simulate.ops.phase", "count", "lower", "work_per_s on certify-wide (compiled phase ops x columns)"),
    ("simulate.ops.h", "count", "lower", "work_per_s on certify-wide (compiled h ops x columns)"),
    ("simulate.ns_per_op", "ns", "lower", "work_per_s on certify-wide; flat on rewrite and synth"),
    ("simulate.max_support", "count", "lower", "work_per_s on certify-wide"),
    ("simulate.run_column_float.calls", "count", "lower", "op_p50_ms on certify-small; flat on certify-wide"),
    ("simulate.run_column_float.s", "s", "lower", "op_p50_ms on certify-small; flat on certify-wide"),
    ("simulate.compile_circuit.s", "s", "lower", "op_p50_ms on certify-small; flat on certify-wide"),
    ("verify.check_implements.calls", "count", "lower", "work_per_s on certify-wide"),
    ("verify.check_implements.s", "s", "lower", "work_per_s on certify-wide"),
    ("verify.self_s", "s", "lower", "work_per_s on certify-wide (collapse and checks outside the kernel)"),
    ("verify.self_share", "ratio", "lower", "work_per_s on certify-wide"),
    ("ring.is_unit_magnitude.calls", "count", "lower", "work_per_s on certify-wide"),
    ("ring.is_unit_magnitude.s", "s", "lower", "work_per_s on certify-wide"),
    ("rewrite.find_conjugations.calls", "count", "lower", "work_per_s on rewrite (chains), t_out unchanged"),
    ("rewrite.find_conjugations.s", "s", "lower", "work_per_s on rewrite (chains), t_out unchanged"),
    ("rewrite.matches", "count", "lower", "work_per_s on rewrite (chains)"),
    ("rewrite.admissible.calls", "count", "lower", "work_per_s on rewrite (chains)"),
    ("rewrite.admissible.s", "s", "lower", "work_per_s on rewrite (chains)"),
    ("rewrite.apply_replacement.calls", "count", "higher", "work_per_s on rewrite (chains), t_out unchanged"),
    ("rewrite.apply_replacement.s", "s", "lower", "work_per_s on rewrite (chains)"),
    ("rewrite.match_yield", "ratio", "higher", "work_per_s on rewrite (chains): replacements per match returned"),
    ("rewrite.cancel_adjacent_inverses.s", "s", "lower", "work_per_s on rewrite (ladders)"),
    ("rewrite.gates_cancelled", "count", "higher", "work_per_s on rewrite (ladders)"),
    ("catalog.build.calls", "count", "lower", "work_per_s and op_p90_ms on synth, and setup_s; flat on certify-wide"),
    ("catalog.build.s", "s", "lower", "work_per_s and op_p90_ms on synth; flat on certify-wide"),
    ("catalog.gates_built", "count", "lower", "work_per_s on synth"),
    ("circuit.count_resources.calls", "count", "lower", "work_per_s on synth and rewrite; flat on certify-*"),
    ("circuit.count_resources.s", "s", "lower", "work_per_s on synth and rewrite; flat on certify-*"),
    ("lowering.lower.s", "s", "lower", "work_per_s on synth; flat on certify-wide"),
    ("lowering.gates_out", "count", "lower", "work_per_s on synth"),
    ("qasm.parse_qasm.s", "s", "lower", "work_per_s on synth, op_p50_ms on certify-small; flat on certify-wide"),
    ("qasm.lines_per_s", "1/s", "higher", "work_per_s on synth (count), op_p50_ms on certify-small"),
    ("qasm.emit_qasm.s", "s", "lower", "work_per_s on synth and rewrite"),
    ("cli.self_s", "s", "lower", "op_p50_ms on certify-small (argument parsing, I/O, reports)"),
    ("cli.main.s", "s", "lower", "op time per pass: the base of every share above"),
    ("trace.overhead_share", "ratio", "lower", "none: traced pass time over untraced pass time, minus 1"),
]

_CATALOG_BUILDERS = (
    "toffoli3", "tofn_clean", "tofn_clean_spec", "tofn_dirty", "tofn_dirty_spec",
    "tof4_dirty", "tof4_dirty_spec", "ladder_tofn", "ladder_tofn_spec",
    "cnu_clean_chain", "cnu_parallel", "cnu_spec", "margolus_t_variant",
    "margolus_ry", "rtof3_ry_negctrl",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, int] = defaultdict(int)
        self.max_support = 0
        self._compiled = (None, None)  # last compiled ops, their kind counts
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, cli, verify, catalog, circuit_cls, ring_cls) -> None:
        c = self.counters

        def lines(args, _):
            c["qasm.lines"] += args[0].count("\n")

        def lowered(_, result):
            c["lowering.gates_out"] += len(result.gates)

        def built(_, result):
            c["catalog.gates_built"] += len(getattr(result, "gates", ()))

        def compiled(_, ops):
            kinds = defaultdict(int)
            for o in ops:
                kinds[o[0]] += 1
            self._compiled = (ops, kinds)

        def column(args, result):
            ops, kinds = self._compiled
            if args[0] is not ops:
                compiled(None, args[0])
                kinds = self._compiled[1]
            for kind, n in kinds.items():
                c["simulate.ops." + kind] += n
            self.max_support = max(self.max_support, result[-1])

        def matches(_, result):
            c["rewrite.matches"] += len(result)

        def cancelled(args, result):
            c["rewrite.gates_cancelled"] += len(args[0].gates) - len(result.gates)

        targets = [
            (cli, "parse_qasm", "qasm.parse_qasm", lines),
            (cli, "emit_qasm", "qasm.emit_qasm", None),
            (cli, "lower", "lowering.lower", lowered),
            (cli, "check_implements", "verify.check_implements", None),
            (cli, "find_conjugations", "rewrite.find_conjugations", matches),
            (cli, "admissible", "rewrite.admissible", None),
            (cli, "apply_replacement", "rewrite.apply_replacement", None),
            (cli, "cancel_adjacent_inverses", "rewrite.cancel_adjacent_inverses", cancelled),
            (verify, "compile_circuit", "simulate.compile_circuit", compiled),
            (verify, "run_column_ring", "simulate.run_column_ring", column),
            (verify, "run_column_float", "simulate.run_column_float", column),
            (ring_cls, "is_unit_magnitude", "ring.is_unit_magnitude", None),
            (circuit_cls, "count_resources", "circuit.count_resources", None),
        ] + [(catalog, name, "catalog.build", built) for name in _CATALOG_BUILDERS]
        for obj, attr, name, after in targets:
            orig = obj.__dict__[attr]
            self._saved.append((obj, attr, orig))
            setattr(obj, attr, self.wrap(name, orig, after))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    # -- reporting -------------------------------------------------------

    def totals(self, group=lambda op: None) -> dict:
        """group -> name -> [calls, inclusive seconds, self seconds], with
        ops grouped by ``group(op id)``. Inclusive time counts only the
        outermost span of a name, so nested builders are not counted twice."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            t = out[group(op)][name]
            t[0] += 1
            if parent < 0 or self.spans[parent][0] != name:
                t[1] += end - start
            t[2] += end - start - child[i]
        return out

    def layer_metrics(self, passes: int, overhead: float) -> dict[str, float]:
        tot = self.totals()[None]
        c = self.counters
        m = {}
        for name in ("simulate.run_column_ring", "simulate.run_column_float",
                     "verify.check_implements", "ring.is_unit_magnitude",
                     "rewrite.find_conjugations", "rewrite.admissible",
                     "rewrite.apply_replacement", "catalog.build",
                     "circuit.count_resources"):
            m[name + ".calls"] = tot[name][0] / passes
        for name in ("simulate.run_column_ring", "simulate.run_column_float",
                     "simulate.compile_circuit", "verify.check_implements",
                     "ring.is_unit_magnitude", "rewrite.find_conjugations",
                     "rewrite.admissible", "rewrite.apply_replacement",
                     "rewrite.cancel_adjacent_inverses", "catalog.build",
                     "circuit.count_resources", "lowering.lower",
                     "qasm.parse_qasm", "qasm.emit_qasm", "cli.main"):
            m[name + ".s"] = tot[name][1] / passes
        for name in ("simulate.ops.perm", "simulate.ops.phase", "simulate.ops.h",
                     "rewrite.matches", "rewrite.gates_cancelled",
                     "catalog.gates_built", "lowering.gates_out"):
            m[name] = c[name] / passes
        ops = sum(v for k, v in c.items() if k.startswith("simulate.ops."))
        kernel = tot["simulate.run_column_ring"][1] + tot["simulate.run_column_float"][1]
        m["simulate.ns_per_op"] = kernel / ops * 1e9 if ops else 0.0
        m["simulate.max_support"] = float(self.max_support)
        m["verify.self_s"] = tot["verify.check_implements"][2] / passes
        ci = m["verify.check_implements.s"]
        m["verify.self_share"] = m["verify.self_s"] / ci if ci else 0.0
        matches = c["rewrite.matches"]
        m["rewrite.match_yield"] = tot["rewrite.apply_replacement"][0] / matches if matches else 0.0
        parse = tot["qasm.parse_qasm"][1]
        m["qasm.lines_per_s"] = c["qasm.lines"] / parse if parse else 0.0
        m["cli.self_s"] = tot["cli.main"][2] / passes
        m["trace.overhead_share"] = overhead
        return {name: m[name] for name, *_ in LAYER_METRICS}

    def shares(self, labels: dict[int, str], passes: int, top: int = 3) -> dict[str, list]:
        """For each op label: its op seconds per pass and the layers with the
        largest inclusive share of them (``cli.self``: time in no layer)."""
        out = {}
        grouped = self.totals(labels.get)
        for label in sorted(k for k in grouped if k is not None):
            tot = grouped[label]
            op_s = tot["cli.main"][1]
            if not op_s:
                continue
            parts = {name: t[1] for name, t in tot.items() if name != "cli.main"}
            parts["cli.self"] = tot["cli.main"][2]
            layers = sorted(((v / op_s, name) for name, v in parts.items()), reverse=True)[:top]
            out[label] = [op_s / passes, [(name, share) for share, name in layers]]
        return out

    def dump(self, path: str, labels: dict[int, str]) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "op_labels": labels, "spans": self.spans}, fh)
