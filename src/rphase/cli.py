"""Command-line surface: synthesize, count, verify, rewrite, table.

Exit codes: 0 success / verified; 1 verification failed, a failing
verdict or a ``NotAPhasePermutation``; 2 usage or input error, an
``InputError`` (``QasmError`` among them) raised where the input is
refused, an ``OSError`` or a file that is not UTF-8 text; 3 internal
error: any other exception, reported on one line without a traceback.
Every option with a fixed set of values (``--ancilla``, ``--format``,
``--target``, ``--class``) is an argparse choice, so argparse refuses any
other value (exit 2) before a file is read, and every integer option
(``--n``, ``--xprime``, each item of ``--n-list``) takes ASCII decimal
numerals only.
``verify`` runs every column in this process (see ``simulate``), and
``main`` builds one argument parser per process, on its first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import catalog as cat
from .circuit import Circuit, InputError, TargetSpec, ROLE_CLEAN, ROLE_DIRTY, ROLE_PRIMARY
from .lowering import lower
from .qasm import emit_qasm, parse_qasm
from .rewrite import (
    _equal_tof_pairs,
    admissible,
    apply_replacement,
    cancel_adjacent_inverses,
    classify_pair,
    find_conjugations,  # noqa: F401 -- perfbench's tracer wraps it by this name
    REPLACEMENT_IMPLS,
)
from .simulate import NotAPhasePermutation
from .verify import check_implements

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def decimal(text: str) -> int:
    """The integer an ASCII decimal numeral names, sign and surrounding
    blanks allowed: ``int`` alone also takes underscores and non-ASCII
    digits. argparse names it in its message for a bad value."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text, re.ASCII):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


# --gate name -> (needs --n, builder of the circuit from the parsed
# arguments); any other name is a block. Builders are looked up in ``cat``
# at call time. Only tof reads --ancilla (clean by default).
_SYNTH_GATES = {
    "tof": (True, lambda a: cat.tofn(a.n, a.ancilla or "clean")[0]),
    "ladder": (True, lambda a: cat.ladder_tofn(a.n)),
    "cnu-chain": (True, lambda a: cat.cnu_clean_chain(a.n)),
    "cnu-parallel": (True, lambda a: cat.cnu_parallel(a.n)),
    "margolus-t": (False, lambda a: cat.margolus_t_variant()),
    "margolus-ry": (False, lambda a: cat.margolus_ry()),
    "rtof3-ry": (False, lambda a: cat.rtof3_ry_negctrl()),
    "rtof3": (False, lambda a: cat.get_entry("rtof3_long").circuit),
    "rtof4": (False, lambda a: cat.get_entry("rtof4_long").circuit),
    "ccix": (False, lambda a: cat.get_entry("srtof3_ccix").circuit),
}


def _synth_build(args) -> Circuit:
    """Resolve a --gate request to its circuit."""
    sized, build = _SYNTH_GATES.get(args.gate, (False, lambda a: cat.get_entry(a.gate).circuit))
    if sized and args.n is None:
        raise InputError(f"--gate {args.gate} requires --n")
    circuit = build(args)
    if args.gate != "tof" and args.ancilla is not None:
        raise InputError(f"--gate {args.gate} takes no --ancilla")
    if not sized and args.n is not None and args.n != circuit.width:
        raise InputError(f"--gate {args.gate} has {circuit.width} qubits, got --n {args.n}")
    return circuit


def cmd_synth(args) -> int:
    circuit = _synth_build(args)
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


_LAYOUT_ROLES = {"ctrl": ROLE_PRIMARY, "nctrl": ROLE_PRIMARY, "target": ROLE_PRIMARY,
                 "clean": ROLE_CLEAN, "dirty": ROLE_DIRTY}


def _roles_from_layout(layout: str, width: int):
    """(controls, negative controls, target, roles) of a --layout value; an
    nctrl qubit is a control that fires on |0>."""
    tokens = [tok.strip() for tok in layout.split(",")]
    if len(tokens) != width:
        raise InputError(f"--layout names {len(tokens)} qubits, circuit has {width}")
    unknown = [tok for tok in tokens if tok not in _LAYOUT_ROLES]
    if unknown:
        raise InputError(f"unknown layout tokens {unknown}; use {','.join(_LAYOUT_ROLES)}")
    controls = [i for i, tok in enumerate(tokens) if tok in ("ctrl", "nctrl")]
    neg = frozenset(i for i, tok in enumerate(tokens) if tok == "nctrl")
    targets = [i for i, tok in enumerate(tokens) if tok == "target"]
    if len(targets) != 1:
        raise InputError("--layout must name exactly one target")
    roles = tuple(_LAYOUT_ROLES[tok] for tok in tokens)
    return controls, neg, targets[0], roles


def cmd_verify(args) -> int:
    with open(args.input) as fh:
        circuit = parse_qasm(fh.read())
    if not circuit.is_lowered():
        circuit = lower(circuit)
    if args.layout:
        controls, neg, target, roles = _roles_from_layout(args.layout, circuit.width)
        circuit = Circuit(circuit.width, circuit.gates, roles)
    else:
        primaries = circuit.primary_qubits()
        if len(primaries) < 2:
            raise InputError("cannot infer layout; pass --layout")
        controls, neg, target = list(primaries[:-1]), frozenset(), primaries[-1]
    if args.n is not None and args.n != len(controls) + 1:
        raise InputError(
            f"--n {args.n} does not match layout with {len(controls)} controls")
    stray = set(args.xprime or ()) - set(controls) - {target}
    if stray:
        raise InputError(f"--xprime names qubits {sorted(stray)} outside the gate")
    spec = TargetSpec(tuple(controls), target, neg=neg,
                      xprime=frozenset(args.xprime or ()), equivalence=args.cls)
    report = check_implements(circuit, spec)
    print(report.as_json())
    return EXIT_OK if report.satisfies(args.cls) else EXIT_VERIFY_FAILED


def cmd_rewrite(args) -> int:
    with open(args.input) as fh:
        text = fh.read()
    circuit = source = parse_qasm(text)
    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    bad = [r for r in rules if r not in ("prop1", "prop2", "prop3", "cancel")]
    if bad:
        raise InputError(f"unknown rules {bad}")
    counted = circuit
    if "cancel" in rules and any(g.kind == "tof" and len(g.controls) > 2 for g in circuit.gates):
        # cancel lowers wide tofs, so count them lowered; when lower cannot,
        # count_resources rejects the input naming a wide tof
        try:
            counted = lower(circuit)
        except InputError:
            pass
    before = counted.count_resources()

    enabled = {r for r in rules if r != "cancel"}
    if enabled:
        # one pair search suffices: a replacement leaves markers on the same
        # qubits; a pair is classified only while neither gate is replaced
        gates = list(circuit.gates)
        used: set[int] = set()
        for i, later in _equal_tof_pairs(circuit):
            if i in used:
                continue
            for j in later:
                if j in used:
                    continue
                m = classify_pair(circuit, i, j)
                impl = _pick_impl(m) if m.classification in enabled else None
                if impl is not None:
                    gates[i], gates[j] = apply_replacement(m, impl)
                    used |= {i, j}
                    break
                if m.classification in enabled or m.classification == "prop3":
                    # no later j is replaced either: the middle only grows
                    # with j, so the class only goes prop1 -> prop2 -> prop3
                    # and the touched controls only grow, and with them the
                    # blocks that fit only get fewer; a prop1 pair fails only
                    # on its arity or negative controls, which j leaves as is
                    break
        circuit = Circuit(circuit.width, gates, circuit.roles)
    if "cancel" in rules:
        if not circuit.is_lowered():
            circuit = lower(circuit)
        circuit = cancel_adjacent_inverses(circuit)

    after = circuit.count_resources()
    out_text = text if circuit == source else emit_qasm(circuit)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out_text)
    else:
        sys.stdout.write(out_text)
    print(json.dumps({"before": before.as_dict(), "after": after.as_dict()}))
    return EXIT_OK


def _pick_impl(m) -> str | None:
    """The first admissible implementation in cost order, or None when
    that is toffoli3: replacing a tof pair with exact tofs is a no-op."""
    name = next((name for name in REPLACEMENT_IMPLS if admissible(name, m)), None)
    return None if name == "toffoli3" else name


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
            circuit, _ = cat._tofn_markers(n, flavour)  # counted unexpanded
            r = circuit.count_resources()
            if (r.t, r.cnot, r.h) != formula:
                raise AssertionError(
                    f"closed form mismatch for tof{n} {flavour}: "
                    f"built {(r.t, r.cnot, r.h)}, formula {formula}")
            rows.append((f"TOF{n}", flavour, r.t, r.cnot, r.h, r.pz, r.ancilla_count))
    return rows


def cmd_table(args) -> int:
    try:
        n_list = [4, 5, 6, 11] if args.n_list is None else [decimal(x) for x in args.n_list.split(",")]
    except ValueError:
        raise InputError(f"--n-list takes comma-separated integers, got {args.n_list!r}") from None
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call: its
    subcommands keep the ``cmd_*`` functions they were bound to then."""
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
    p.add_argument("--n", type=decimal, help="total qubit count of the target gate")
    p.add_argument("--ancilla", choices=("clean", "dirty"),
                   help="helpers of --gate tof (default clean); no other gate takes it")
    p.add_argument("--out", help="write the circuit here instead of stdout")
    p.add_argument("--format", choices=("qasm", "json"), default="qasm")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("count", help="resource report of a QASM file")
    p.add_argument("input")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="simulate a QASM file against a target")
    p.add_argument("input")
    p.add_argument("--target", default="tof", choices=("tof",))
    p.add_argument("--n", type=decimal)
    p.add_argument("--layout", help="comma list of ctrl,nctrl,target,clean,dirty per qubit "
                                    "(nctrl: a negative control)")
    p.add_argument("--class", dest="cls", default="exact",
                   choices=("exact", "global_phase", "relative_phase", "special_form"))
    p.add_argument("--xprime", type=decimal, nargs="*")
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
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotAPhasePermutation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except Exception as exc:  # a bug, never an input: no traceback, exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
