"""Command-line surface: synthesize, count, verify, rewrite, table.

Exit codes: 0 success / verified, 1 verification failed, 2 usage or
input error (including a circuit too wide to simulate), 3 internal
invariant violation. RPHASE_BACKEND=ring|float overrides the
automatic backend choice.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as cat
from .circuit import Circuit, TargetSpec, ROLE_CLEAN, ROLE_DIRTY, ROLE_PRIMARY
from .lowering import AncillaBudgetExceeded, LoweringError, lower
from .qasm import QasmError, emit_qasm, parse_qasm
from .rewrite import (
    RewriteError,
    admissible,
    apply_replacement,
    cancel_adjacent_inverses,
    find_conjugations,
    REPLACEMENT_IMPLS,
)
from .simulate import NotAPhasePermutation, SimulationError, WidthLimitExceeded
from .verify import check_implements, env_backend

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _synth_build(args):
    """Resolve a --gate request to (circuit, spec-or-None)."""
    name = args.gate
    if name == "tof":
        if args.n is None:
            raise UsageError("--gate tof requires --n")
        return cat.tofn(args.n, args.ancilla)
    if name == "ladder":
        if args.n is None:
            raise UsageError("--gate ladder requires --n")
        return cat.ladder_tofn(args.n), cat.ladder_tofn_spec(args.n)
    if name == "cnu-chain":
        if args.n is None:
            raise UsageError("--gate cnu-chain requires --n")
        return cat.cnu_clean_chain(args.n), cat.cnu_spec(args.n)
    if name == "cnu-parallel":
        if args.n is None:
            raise UsageError("--gate cnu-parallel requires --n")
        return cat.cnu_parallel(args.n), cat.cnu_spec(args.n)
    ry_variants = {
        "margolus-t": cat.margolus_t_variant,
        "margolus-ry": cat.margolus_ry,
        "rtof3-ry": cat.rtof3_ry_negctrl,
    }
    if name in ry_variants:
        return ry_variants[name](), None
    aliases = {"rtof3": "rtof3_long", "rtof4": "rtof4_long", "ccix": "srtof3_ccix"}
    entry_name = aliases.get(name, name)
    try:
        entry = cat.get_entry(entry_name)
    except cat.ConstructionError as exc:
        raise UsageError(str(exc)) from None
    return entry.circuit, entry.spec


def cmd_synth(args) -> int:
    circuit, _ = _synth_build(args)
    if args.format == "qasm":
        if not circuit.is_lowered():
            circuit = lower(circuit)
        payload = emit_qasm(circuit)
    else:
        payload = _circuit_json(circuit)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    report = circuit.count_resources()
    print(report.as_json())
    return EXIT_OK


def _circuit_json(circuit: Circuit) -> str:
    gates = []
    for g in circuit.gates:
        item = {"kind": g.kind, "controls": list(g.controls), "target": g.target}
        if g.neg:
            item["neg"] = sorted(g.neg)
        if g.param:
            item["param"] = g.param
        if g.dagger:
            item["dagger"] = True
        gates.append(item)
    return json.dumps(
        {"width": circuit.width, "roles": list(circuit.roles), "gates": gates},
        indent=None,
    ) + "\n"


def cmd_count(args) -> int:
    with open(args.input) as fh:
        circuit = parse_qasm(fh.read())
    print(circuit.count_resources().as_json())
    return EXIT_OK


def _roles_from_layout(layout: str, width: int):
    tokens = [tok.strip() for tok in layout.split(",")]
    if len(tokens) != width:
        raise UsageError(f"--layout names {len(tokens)} qubits, circuit has {width}")
    role_map = {"ctrl": ROLE_PRIMARY, "target": ROLE_PRIMARY,
                "clean": ROLE_CLEAN, "dirty": ROLE_DIRTY}
    controls = [i for i, tok in enumerate(tokens) if tok == "ctrl"]
    targets = [i for i, tok in enumerate(tokens) if tok == "target"]
    unknown = [tok for tok in tokens if tok not in role_map]
    if unknown:
        raise UsageError(f"unknown layout tokens {unknown}; use ctrl,target,clean,dirty")
    if len(targets) != 1:
        raise UsageError("--layout must name exactly one target")
    roles = tuple(role_map[tok] for tok in tokens)
    return controls, targets[0], roles


def cmd_verify(args) -> int:
    if args.processes is not None and args.processes < 1:
        raise UsageError(f"--processes must be >= 1, got {args.processes}")
    with open(args.input) as fh:
        circuit = parse_qasm(fh.read())
    if not circuit.is_lowered():
        circuit = lower(circuit)
    if args.layout:
        controls, target, roles = _roles_from_layout(args.layout, circuit.width)
        circuit = Circuit(circuit.width, circuit.gates, roles)
    else:
        primaries = circuit.primary_qubits()
        if len(primaries) < 2:
            raise UsageError("cannot infer layout; pass --layout")
        controls, target = list(primaries[:-1]), primaries[-1]
    if args.target != "tof":
        raise UsageError("only --target tof is supported")
    if args.n is not None and args.n != len(controls) + 1:
        raise UsageError(
            f"--n {args.n} does not match layout with {len(controls)} controls")
    stray = set(args.xprime or ()) - set(controls) - {target}
    if stray:
        raise UsageError(f"--xprime names qubits {sorted(stray)} outside the gate")
    kind = {"exact": "tof", "global_phase": "tof",
            "relative_phase": "rtof", "special_form": "srtof"}[args.cls]
    spec = TargetSpec(kind, tuple(controls), target,
                      xprime=frozenset(args.xprime or ()), equivalence=args.cls)
    report = check_implements(circuit, spec, backend=env_backend(),
                              processes=args.processes)
    print(report.as_json())
    return EXIT_OK if report.satisfies(args.cls) else EXIT_VERIFY_FAILED


def cmd_rewrite(args) -> int:
    with open(args.input) as fh:
        text = fh.read()
    circuit = parse_qasm(text)
    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    bad = [r for r in rules if r not in ("prop1", "prop2", "prop3", "cancel")]
    if bad:
        raise UsageError(f"unknown rules {bad}")
    before = circuit.count_resources()
    changed = False

    enabled = {r for r in rules if r != "cancel"}
    if enabled:
        # one match list suffices: a replacement leaves markers on the same qubits
        used: set[int] = set()
        for m in find_conjugations(circuit):
            if m.classification not in enabled or {m.left_index, m.right_index} & used:
                continue
            impl = _pick_impl(m)
            if impl is None:
                continue
            circuit = apply_replacement(circuit, m, impl)
            used |= {m.left_index, m.right_index}
            changed = True
    if "cancel" in rules:
        if not circuit.is_lowered():
            circuit = lower(circuit)
            changed = True
        cancelled = cancel_adjacent_inverses(circuit)
        if cancelled.gates != circuit.gates:
            changed = True
        circuit = cancelled

    after = circuit.count_resources()
    out_text = text if not changed else emit_qasm(circuit)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out_text)
    else:
        sys.stdout.write(out_text)
    print(json.dumps({"before": before.as_dict(), "after": after.as_dict()}))
    return EXIT_OK


def _pick_impl(m) -> str | None:
    """Smallest CNOT count, then smallest T count, then catalog order."""
    best = None
    for name in REPLACEMENT_IMPLS:
        if not admissible(name, m):
            continue
        entry = cat.get_entry(name)
        key = (entry.claimed.cnot, entry.claimed.t)
        if best is None or key < best[0]:
            best = (key, name)
    if best is None:
        return None
    # replacing a tof pair with exact tofs is a no-op; skip those matches
    if best[1] == "toffoli3":
        return None
    return best[1]


_TABLE_COLUMNS = ("gate", "ancilla", "t", "cnot", "h", "pz", "ancillae")


def _table_rows(n_list):
    rows = []
    for n in n_list:
        for flavour in ("clean", "dirty"):
            if flavour == "clean":
                formula = (8 * n - 17, 6 * n - 12, 4 * n - 10)
            else:
                if n < 4:
                    continue
                # the dirty closed form starts at n = 5; the explicit
                # 4-control borrowed-ancilla circuit costs 16/14/6
                formula = (16, 14, 6) if n == 4 else (8 * n - 16, 8 * n - 20, 4 * n - 10)
            circuit, _ = cat.tofn(n, flavour)
            r = circuit.count_resources()
            if n >= 4 and (r.t, r.cnot, r.h) != formula:
                raise AssertionError(
                    f"closed form mismatch for tof{n} {flavour}: "
                    f"built {(r.t, r.cnot, r.h)}, formula {formula}")
            rows.append((f"TOF{n}", flavour, r.t, r.cnot, r.h, r.pz, r.ancilla_count))
    return rows


def cmd_table(args) -> int:
    try:
        n_list = [int(x) for x in args.n_list.split(",")] if args.n_list else [4, 5, 6, 11]
    except ValueError:
        raise UsageError(f"--n-list takes comma-separated integers, got {args.n_list!r}") from None
    rows = _table_rows(n_list)
    if args.csv:
        print(",".join(_TABLE_COLUMNS))
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        widths = [max(len(str(v)) for v in col) for col in
                  zip(_TABLE_COLUMNS, *[[str(v) for v in row] for row in rows])]
        print("  ".join(c.ljust(w) for c, w in zip(_TABLE_COLUMNS, widths)))
        for row in rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
        print("general n: clean (8n-17) T, (6n-12) CNOT, (4n-10) H; "
              "dirty (8n-16) T, (8n-20) CNOT, (4n-10) H; "
              "ceil((n-3)/2) ancillae either way")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rphase",
        description="Synthesize, verify and rewrite multiple-control "
                    "Toffoli circuits over Clifford+T.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a catalog circuit")
    p.add_argument("--gate", required=True,
                   help="tof | ladder | cnu-chain | cnu-parallel | "
                        "margolus-t | margolus-ry | rtof3-ry | catalog entry name")
    p.add_argument("--n", type=int, help="total qubit count of the target gate")
    p.add_argument("--ancilla", choices=("clean", "dirty"), default="clean")
    p.add_argument("--out", help="write the circuit here instead of stdout")
    p.add_argument("--format", choices=("qasm", "json"), default="qasm")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("count", help="resource report of a QASM file")
    p.add_argument("input")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="simulate a QASM file against a target")
    p.add_argument("input")
    p.add_argument("--target", default="tof")
    p.add_argument("--n", type=int)
    p.add_argument("--layout", help="comma list of ctrl,target,clean,dirty per qubit")
    p.add_argument("--class", dest="cls", default="exact",
                   choices=("exact", "global_phase", "relative_phase", "special_form"))
    p.add_argument("--xprime", type=int, nargs="*")
    p.add_argument("--processes", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rewrite", help="apply conjugation replacements / cancellation")
    p.add_argument("input")
    p.add_argument("--rules", default="prop1,prop2,cancel",
                   help="comma list from prop1,prop2,prop3,cancel")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("table", help="resource table of the generated constructions")
    p.add_argument("--n-list", dest="n_list")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, QasmError, cat.ConstructionError, LoweringError,
            AncillaBudgetExceeded, RewriteError, OSError,
            WidthLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotAPhasePermutation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (SimulationError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
