"""Command-line driver: verbs, exit codes, output formats."""

import argparse
import ast
import hashlib
import importlib
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import time
from math import ceil

import pytest

import rphase
import rphase.catalog as catalog
import rphase.cli as cli
import rphase.rewrite as rewrite
from rphase.cli import main
from rphase.lowering import lower
from rphase.qasm import QREG_LIMIT, QasmError, emit_qasm, parse_qasm
from rphase.catalog import toffoli3
from rphase.circuit import (
    ROLE_CLEAN, ROLE_PRIMARY, Circuit, InputError, cx, cz, h, marker, p, pdg, ry, t, tdg, tof, x)
from rphase.rewrite import REPLACEMENT_IMPLS, admissible, apply_replacement, find_conjugations
from rphase.simulate import NotAPhasePermutation


def _replaced(circ, m, name):
    """``circ`` with the matched pair replaced by ``name`` and its inverse."""
    gates = list(circ.gates)
    gates[m.left_index], gates[m.right_index] = apply_replacement(m, name)
    return Circuit(circ.width, gates, circ.roles)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_synth_tof5_clean(capsys, tmp_path):
    path = tmp_path / "t5.qasm"
    code, out, _ = run(capsys, "synth", "--gate", "tof", "--n", "5",
                       "--ancilla", "clean", "--out", str(path))
    assert code == 0
    report = json.loads(out.strip().splitlines()[-1])
    assert (report["t"], report["cnot"]) == (23, 18)
    circuit = parse_qasm(path.read_text())
    assert circuit.width == 6 and circuit.is_lowered()


def test_synth_rtof3_is_nine_gates(capsys):
    code, out, _ = run(capsys, "synth", "--gate", "rtof3")
    assert code == 0
    lines = out.splitlines()
    qasm_text = "\n".join(lines[:-1]) + "\n"
    assert len(parse_qasm(qasm_text).gates) == 9


def test_synth_tof3_is_the_toffoli_circuit(capsys):
    code, out, _ = run(capsys, "synth", "--gate", "tof", "--n", "3")
    assert code == 0
    qasm_text = "\n".join(out.splitlines()[:-1]) + "\n"
    assert parse_qasm(qasm_text) == toffoli3()


def test_synth_ry_variants(capsys):
    for name in ("margolus-t", "margolus-ry", "rtof3-ry"):
        code, out, _ = run(capsys, "synth", "--gate", name)
        assert code == 0, name
        qasm_text = "\n".join(out.splitlines()[:-1]) + "\n"
        assert len(parse_qasm(qasm_text).gates) == 7, name


def test_synth_json_format(capsys):
    code, out, _ = run(capsys, "synth", "--gate", "ladder", "--n", "6",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert payload["width"] == 9
    assert sum(1 for g in payload["gates"] if g["kind"] == "rtof3l") == 10
    code, out, _ = run(capsys, "synth", "--gate", "margolus-ry", "--format", "json")
    gates = json.loads(out.splitlines()[0])["gates"]
    assert code == 0 and [g.get("param") for g in gates] == [1, None, 1, None, -1, None, -1]


def test_synth_usage_errors(capsys):
    assert run(capsys, "synth", "--gate", "nosuch")[0] == 2
    assert run(capsys, "synth", "--gate", "tof")[0] == 2
    assert run(capsys, "synth")[0] == 2  # argparse: missing --gate


@pytest.mark.parametrize("argv", [
    ("--gate", "toffoli3"), ("--gate", "rtof4"), ("--gate", "ladder", "--n", "6"),
    ("--gate", "cnu-chain", "--n", "4")])
def test_ancilla_is_a_usage_error_on_every_gate_but_tof(capsys, argv):
    """A block, a fixed gate and the sized gates other than tof build over
    the helpers they fix: an --ancilla for them is refused, not ignored."""
    assert run(capsys, "synth", *argv)[0] == 0
    for ancilla in ("clean", "dirty"):
        code, out, err = run(capsys, "synth", *argv, "--ancilla", ancilla)
        assert (code, out) == (2, "") and err == f"error: --gate {argv[1]} takes no --ancilla\n"


def test_tof_helpers_are_clean_unless_asked(capsys):
    plain = run(capsys, "synth", "--gate", "tof", "--n", "6")
    assert plain == run(capsys, "synth", "--gate", "tof", "--n", "6", "--ancilla", "clean")
    assert plain != run(capsys, "synth", "--gate", "tof", "--n", "6", "--ancilla", "dirty")


def test_unknown_gate_is_one_error_line(capsys):
    for extra in ((), ("--ancilla", "dirty")):
        assert run(capsys, "synth", "--gate", "nosuch", *extra) == (
            2, "", "error: no construction for gate 'nosuch'\n")


@pytest.mark.parametrize("gate, width", [
    ("toffoli3", 3), ("margolus-t", 3), ("margolus-ry", 3), ("rtof3-ry", 3),
    ("rtof3", 3), ("rtof4", 4), ("ccix", 3), ("rt4s", 4)])
def test_fixed_size_synth_takes_only_its_own_n(capsys, gate, width):
    for n in (width - 1, width + 1, 9):
        code, out, err = run(capsys, "synth", "--gate", gate, "--n", str(n))
        assert (code, out) == (2, "") and err.startswith("error:") and "--n" in err, n
    code, out, err = run(capsys, "synth", "--gate", gate, "--n", str(width))
    assert (code, err) == (0, "") and out == run(capsys, "synth", "--gate", gate)[1]
    assert parse_qasm(out.rsplit("\n", 2)[0]).width == width


def test_synth_and_count_outputs_are_pinned(capsys, tmp_path):
    """Exit code, stdout and stderr of synth (QASM and JSON) and of count on
    the QASM, for tof clean and dirty, ladder, cnu-chain and cnu-parallel at
    n = 4..12 and 310, recorded before gates stored their qubit set and
    before each distinct gate was built, counted and parsed once per call.
    Re-recorded when an unlowered circuit's t_depth became null: the JSON
    synth reports changed in that field alone."""
    whole = hashlib.sha256()
    path = tmp_path / "pinned.qasm"
    for gate, extra in (("tof", ("--ancilla", "clean")), ("tof", ("--ancilla", "dirty")),
                        ("ladder", ()), ("cnu-chain", ()), ("cnu-parallel", ())):
        for n in list(range(4, 13)) + [310]:
            argv = ("synth", "--gate", gate, "--n", str(n), *extra)
            results = [run(capsys, *argv, "--format", "json"), run(capsys, *argv, "--out", str(path))]
            if results[-1][0] == 0:
                results.append(path.read_text())
                results.append(run(capsys, "count", str(path)))
            whole.update(repr(results).encode())
    assert whole.hexdigest()[:16] == "5acd97d36a16ebb2"


def test_count_file(capsys, tmp_path):
    path = tmp_path / "c.qasm"
    run(capsys, "synth", "--gate", "tof", "--n", "5", "--out", str(path))
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    report = json.loads(out)
    assert (report["t"], report["cnot"], report["h"]) == (23, 18, 10)


def test_count_empty_program(capsys, tmp_path):
    path = tmp_path / "empty.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n')
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["t"] == report["cnot"] == report["h"] == 0


def test_count_of_a_negative_one_control_tof_directive_has_a_t_depth(capsys, tmp_path):
    """The directive's tof expands to x, cx, x and hides no T gate."""
    path = tmp_path / "negtof.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nt q[1];\n'
                    '// rphase: {"gate": "tof", "controls": [0], "target": 1, "gates": 3, '
                    '"neg": [0]}\nx q[0];\ncx q[0],q[1];\nx q[0];\nt q[1];\n')
    assert parse_qasm(path.read_text()).gates[1] == tof((0,), 1, neg=(0,))
    code, out, err = run(capsys, "count", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["t"], report["cnot"], report["other"], report["t_depth"]) == (2, 1, 2, 2)


def test_verify_exit_codes(capsys, tmp_path):
    t4 = tmp_path / "t4.qasm"
    run(capsys, "synth", "--gate", "tof", "--n", "4", "--ancilla", "dirty",
        "--out", str(t4))
    code, out, _ = run(capsys, "verify", str(t4), "--target", "tof", "--n", "4")
    assert code == 0
    assert json.loads(out)["exact"] is True

    rt = tmp_path / "rt.qasm"
    run(capsys, "verify")  # clear buffer
    run(capsys, "synth", "--gate", "rtof3", "--out", str(rt))
    code, out, _ = run(capsys, "verify", str(rt), "--target", "tof", "--n", "3",
                       "--layout", "ctrl,ctrl,target", "--class", "exact")
    assert code == 1
    code, _, _ = run(capsys, "verify", str(rt), "--target", "tof", "--n", "3",
                     "--layout", "ctrl,ctrl,target", "--class", "relative_phase")
    assert code == 0


@pytest.mark.parametrize("gate, layout, cls, code", [
    # rtof3-ry is a relative-phase Toffoli with its qubit 1 negated
    ("rtof3-ry", "ctrl,nctrl,target", "relative_phase", 0),
    ("rtof3-ry", "ctrl , nctrl , target", "relative_phase", 0),
    ("rtof3-ry", "ctrl,nctrl,target", "exact", 1),
    ("rtof3-ry", "ctrl,ctrl,target", "relative_phase", 1),
    ("rtof3-ry", "nctrl,ctrl,target", "relative_phase", 1),
    ("rtof3-ry", "nctrl,nctrl,target", "relative_phase", 1),
    ("margolus-ry", "ctrl,ctrl,target", "relative_phase", 0),
    ("margolus-ry", "ctrl,nctrl,target", "relative_phase", 1),
    ("toffoli3", "ctrl,ctrl,target", "exact", 0),
    ("toffoli3", "nctrl,ctrl,target", "exact", 1),
    ("rtof3-ry", "nctrl,nctrl,nctrl", "relative_phase", 2),
    ("rtof3-ry", "nctrl,target", "relative_phase", 2),
    ("rtof3-ry", "ctrl,NCTRL,target", "relative_phase", 2),
    ("rtof3-ry", "ctrl,!ctrl,target", "relative_phase", 2),
])
def test_verify_layout_rows(capsys, tmp_path, gate, layout, cls, code):
    """Layout tokens per qubit: ctrl, nctrl (a control that fires on |0>),
    target, clean and dirty; anything else is a usage error."""
    path = tmp_path / "gate.qasm"
    assert run(capsys, "synth", "--gate", gate, "--out", str(path))[0] == 0
    got, _, err = run(capsys, "verify", str(path), "--layout", layout, "--class", cls)
    assert got == code, err
    assert (code == 2) == err.startswith("error:")


@pytest.mark.parametrize("width", [4, 0])
def test_verify_empty_layout_is_a_layout(capsys, tmp_path, width):
    """``--layout ""`` names one empty token: a length error, never the
    roles inferred from the file (4 qubits) or a request to pass --layout
    (0 qubits)."""
    path = tmp_path / "w.qasm"
    gates = [tof((0, 1), 3), cx(2, 3)] if width else []
    path.write_text(emit_qasm(Circuit(width, gates)))
    code, out, err = run(capsys, "verify", str(path), "--layout", "")
    assert (code, out) == (2, "")
    assert err == f"error: --layout names 1 qubits, circuit has {width}\n"


def test_negative_control_layout_equals_the_flipped_circuit(capsys, tmp_path):
    """verify under a layout with nctrl on some controls prints what verify
    prints for the circuit with X on those qubits before and after, under
    the layout with ctrl in their place."""
    rng = random.Random(11)
    sources = [parse_qasm(run(capsys, "synth", "--gate", gate)[1].rsplit("\n", 2)[0])
               for gate in ("rtof3-ry", "margolus-ry", "rtof3", "rtof4", "ccix", "toffoli3")]
    sources.append(Circuit(4, [tof((0, 2), 3, neg=(2,)), cx(1, 3), tof((0, 2), 3, neg=(2,))]))
    path = tmp_path / "layout.qasm"
    verdicts = set()
    for k in range(48):
        c = sources[k % len(sources)]
        target = rng.randrange(c.width)
        controls = [q for q in range(c.width) if q != target]
        neg = [q for q in controls if rng.random() < 0.5]
        layout = ["nctrl" if q in neg else "ctrl" for q in range(c.width)]
        layout[target] = "target"
        cls = rng.choice(("exact", "relative_phase", "special_form"))
        path.write_text(emit_qasm(c))
        code, out, _ = run(capsys, "verify", str(path), "--layout", ",".join(layout),
                           "--class", cls)
        flips = [x(q) for q in neg]
        path.write_text(emit_qasm(Circuit(c.width, flips + list(c.gates) + flips)))
        plain = ",".join("ctrl" if tok == "nctrl" else tok for tok in layout)
        assert (code, out) == run(capsys, "verify", str(path), "--layout", plain,
                                  "--class", cls)[:2]
        verdicts.add(code)
    assert verdicts == {0, 1}


def test_verify_too_wide_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "wide.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[17];\ncx q[0],q[16];\n")
    start = time.monotonic()
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "width limit exceeded" in err
    assert time.monotonic() - start < 1.0  # refused before any column runs


def test_verify_width_guard_skips_clean_columns(capsys, tmp_path):
    # 17 qubits, one clean ancilla: 2^16 columns, within the limit
    path = tmp_path / "wide_clean.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[17];\n"
                    "cx q[0],q[2];\ncx q[2],q[1];\ncx q[0],q[2];\n")
    layout = ",".join(["ctrl", "target", "clean"] + ["dirty"] * 14)
    code, out, _ = run(capsys, "verify", str(path), "--layout", layout)
    assert code == 0
    assert json.loads(out)["exact"] is True


def test_verify_rejects_bad_flags(capsys, tmp_path):
    path = tmp_path / "t3.qasm"
    run(capsys, "synth", "--gate", "tof", "--n", "3", "--out", str(path))
    for processes in ("0", "-1"):
        code, _, err = run(capsys, "verify", str(path), "--processes", processes)
        assert code == 2 and "--processes" in err
    assert run(capsys, "verify", str(path), "--ancilla", "clean")[0] == 2
    # columns run in the calling process: --processes is no flag at all
    code, _, err = run(capsys, "verify", str(path), "--processes", "1")
    assert code == 2 and "unrecognized arguments: --processes" in err


def test_verify_names_the_column_that_does_not_collapse(capsys, tmp_path):
    path = tmp_path / "hsh.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[1];\nt q[1];\ncx q[0],q[1];\n"
                    "tdg q[1];\ncx q[0],q[1];\nh q[1];\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1 and "column 10 " in err


def test_verify_identity(capsys, tmp_path):
    path = tmp_path / "id.qasm"
    path.write_text('OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\ncx q[0],q[1];\n')
    code, out, _ = run(capsys, "verify", str(path), "--target", "tof", "--n", "2",
                       "--layout", "ctrl,target", "--class", "exact")
    # identity does not implement a CNOT
    assert code == 1


def test_rewrite_fold_pattern(capsys, tmp_path):
    src = tmp_path / "fold.qasm"
    c = Circuit(5, [tof((0, 1), 2), tof((2, 3), 4), tof((0, 1), 2)],
                ("primary", "primary", "clean_ancilla", "primary", "primary"))
    src.write_text(emit_qasm(c))
    out_path = tmp_path / "out.qasm"
    code, out, _ = run(capsys, "rewrite", str(src), "--rules", "prop1,prop2",
                       "--out", str(out_path))
    assert code == 0
    reports = json.loads(out.strip().splitlines()[-1])
    assert reports["after"]["cnot"] == 12
    rewritten = parse_qasm(out_path.read_text())
    assert rewritten.gates[0].kind == "rtof3l"


def test_rewrite_no_matches_is_byte_identical(capsys, tmp_path):
    src = tmp_path / "plain.qasm"
    src.write_text(emit_qasm(toffoli3()))
    out_path = tmp_path / "same.qasm"
    code, out, _ = run(capsys, "rewrite", str(src), "--rules", "prop1,prop2,cancel",
                       "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == src.read_bytes()


# hand-formatted files: blank lines, a plain comment, indentation and odd
# spacing, none of which emit_qasm writes
_HAND_LOWERED = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n\n// written by hand\n'
                 'qreg q[3];\n\n  h   q[2];\ncx q[0] , q[2];\nt q[2] ;\n'
                 '    cx  q[1],q[2];\n\ntdg q[2];\nh q[2];\n')
_HAND_PROP3 = ('OPENQASM 2.0;\ninclude "qelib1.inc";\n// a prop3 pair\n\nqreg q[4];\n'
               'ccx q[0], q[1], q[2];\n  cx q[3],q[2];\nccx  q[0],q[1],q[2];\n\n')


def test_rewrite_echoes_an_unchanged_input_byte_for_byte(capsys, tmp_path):
    """The input text is written back exactly when the rewritten circuit
    equals the parsed one, whatever its formatting; any change, lowering
    included, is emitted."""
    src = tmp_path / "in.qasm"
    out_path = tmp_path / "out.qasm"

    def rewrite_both_ways(text, rules):
        src.write_bytes(text.encode())
        code, out, _ = run(capsys, "rewrite", str(src), "--rules", rules,
                           "--out", str(out_path))
        assert code == 0 and len(out.splitlines()) == 1
        code, out, _ = run(capsys, "rewrite", str(src), "--rules", rules)
        assert code == 0
        report = out.splitlines(keepends=True)[-1]
        assert set(json.loads(report)) == {"before", "after"}
        return out_path.read_bytes().decode(), out.removesuffix(report)

    for text, rules in ((_HAND_LOWERED, "cancel"), (_HAND_LOWERED, "prop1,prop2,cancel"),
                        (_HAND_PROP3, "prop1,prop2")):
        assert rewrite_both_ways(text, rules) == (text, text), rules
    lone_ccx = _HAND_LOWERED.split("qreg")[0] + "qreg q[3];\n ccx q[0],q[1],q[2];\n"
    lowered = emit_qasm(lower(parse_qasm(lone_ccx)))
    assert parse_qasm(lowered).is_lowered() and lowered != lone_ccx
    assert rewrite_both_ways(lone_ccx, "cancel") == (lowered, lowered)


def test_rewrite_ladder_end_to_end(capsys, tmp_path):
    src = tmp_path / "ladder.qasm"
    run(capsys, "synth", "--gate", "ladder", "--n", "7", "--out", str(src))
    out_path = tmp_path / "opt.qasm"
    code, out, _ = run(capsys, "rewrite", str(src), "--rules", "cancel",
                       "--out", str(out_path))
    assert code == 0
    reports = json.loads(out.strip().splitlines()[-1])
    assert reports["after"]["t"] == 12 * 6 - 20


def test_rewrite_never_increases_counts(capsys, tmp_path):
    for gate, n in (("tof", 4), ("tof", 5), ("ladder", 6)):
        src = tmp_path / f"{gate}{n}.qasm"
        run(capsys, "synth", "--gate", gate, "--n", str(n), "--out", str(src))
        code, out, _ = run(capsys, "rewrite", str(src), "--rules", "cancel")
        reports = json.loads(out.strip().splitlines()[-1])
        for key in ("t", "cnot", "h", "pz"):
            assert reports["after"][key] <= reports["before"][key]


def test_rewrite_prop3_requires_flag(capsys, tmp_path):
    src = tmp_path / "p3.qasm"
    c = Circuit(4, [tof((0, 1), 2), cx(3, 2), tof((0, 1), 2)])
    src.write_text(emit_qasm(c))
    out_path = tmp_path / "p3out.qasm"
    # prop3 matches are left alone unless the rule is enabled
    code, out, _ = run(capsys, "rewrite", str(src), "--rules", "prop1,prop2",
                       "--out", str(out_path))
    assert code == 0 and out_path.read_bytes() == src.read_bytes()
    code, out, _ = run(capsys, "rewrite", str(src), "--rules", "prop3",
                       "--out", str(out_path))
    assert code == 0
    rewritten = parse_qasm(out_path.read_text())
    assert rewritten.gates[0].kind == "srtof3"  # doubly-controlled iX pair


def _conjugation_circuit(rng, length, tof_share=0.4):
    """Random 6-qubit circuit of repeated tofs (one with a negative control)
    and middle gates, so pairs of every class, nested and overlapping pairs
    and triples of equal tofs all occur."""
    tofs = [tof((0, 1), 2), tof((1, 3), 4), tof((2, 5), 0), tof((3, 4), 5),
            tof((1, 2), 3, neg=(2,))]
    middle = [cx(0, 1), cx(2, 4), cx(5, 3), cx(1, 0), cz(1, 4), t(0), t(2), h(4), x(5)]
    return Circuit(6, [rng.choice(tofs if rng.random() < tof_share else middle)
                       for _ in range(length)])


def _pick_impl(m):
    """The first admissible implementation in cost order, or None when
    that is toffoli3: the references' block choice, from the public names."""
    name = next((name for name in REPLACEMENT_IMPLS if admissible(name, m)), None)
    return None if name == "toffoli3" else name


def _rewrite_by_restarts(circuit, enabled):
    """The loop the one-pass rewrite replaced, kept as a reference: apply the
    first usable match, then search the new circuit again from scratch."""
    while True:
        for m in find_conjugations(circuit):
            impl = _pick_impl(m) if m.classification in enabled else None
            if impl is not None:
                circuit = _replaced(circuit, m, impl)
                break
        else:
            return circuit


@pytest.mark.parametrize("rules", ["prop1,prop2", "prop1,prop2,prop3", "prop3"])
def test_rewrite_equals_restart_reference(capsys, tmp_path, rules):
    rng = random.Random(rules)
    src, dst = tmp_path / "in.qasm", tmp_path / "out.qasm"
    rewritten = 0
    for _ in range(100):
        circuit = _conjugation_circuit(rng, rng.randint(4, 30))
        src.write_text(emit_qasm(circuit))
        code, _, _ = run(capsys, "rewrite", str(src), "--rules", rules, "--out", str(dst))
        assert code == 0
        want = _rewrite_by_restarts(circuit, set(rules.split(",")))
        rewritten += want != circuit
        assert dst.read_text() == (src.read_text() if want == circuit else emit_qasm(want))
    assert rewritten >= 5


def _rewrite_eager(circuit, enabled):
    """The walk the rewrite replaced, kept as a reference: classify every
    pair of equal tofs first, then replace each pair whose gates are both
    still unreplaced."""
    gates = list(circuit.gates)
    used = set()
    for m in find_conjugations(circuit):
        if m.classification not in enabled or {m.left_index, m.right_index} & used:
            continue
        impl = _pick_impl(m)
        if impl is not None:
            gates[m.left_index], gates[m.right_index] = apply_replacement(m, impl)
            used |= {m.left_index, m.right_index}
    return Circuit(circuit.width, gates, circuit.roles)


def test_rewrite_classifies_only_pairs_it_can_still_replace(capsys, tmp_path, monkeypatch):
    """The rewrite writes what the eager walk writes, byte for byte, and
    classifies a pair only while neither of its gates is replaced, so on
    800 gates with about 400 tofs it classifies fewer pairs."""
    calls = []
    real = rewrite.classify_pair
    monkeypatch.setattr(rewrite, "classify_pair", lambda *args: calls.append(args) or real(*args))
    rng = random.Random(800)
    src, dst = tmp_path / "in.qasm", tmp_path / "out.qasm"
    cases = [(_conjugation_circuit(rng, rng.randint(4, 60)), rules)
             for rules in ("prop1,prop2", "prop1,prop2,prop3", "prop3") for _ in range(10)]
    cases.append((_conjugation_circuit(rng, 800, tof_share=0.5), "prop1,prop2,prop3"))
    for circuit, rules in cases:
        src.write_text(emit_qasm(circuit))
        calls.clear()
        assert run(capsys, "rewrite", str(src), "--rules", rules, "--out", str(dst))[0] == 0
        by_rewrite = len(calls)
        calls.clear()
        want = _rewrite_eager(circuit, set(rules.split(",")))
        by_eager = len(calls)
        assert dst.read_text() == (src.read_text() if want == circuit else emit_qasm(want))
        assert by_rewrite <= by_eager
    assert sum(g.kind == "tof" for g in circuit.gates) > 350
    assert by_rewrite < by_eager


def test_rewrite_finds_conjugations_once(capsys, tmp_path, monkeypatch):
    """One search for pairs of equal tofs serves the whole rewrite."""
    calls = []
    real = rewrite._equal_tof_pairs
    monkeypatch.setattr(rewrite, "_equal_tof_pairs", lambda c: calls.append(c) or real(c))
    src = tmp_path / "pairs.qasm"
    src.write_text(emit_qasm(Circuit(7, [
        tof((0, 1), 2), tof((3, 4), 5), cx(2, 6), t(4), tof((3, 4), 5), tof((0, 1), 2)])))
    code, out, _ = run(capsys, "rewrite", str(src), "--rules", "prop1,prop2")
    assert code == 0 and len(calls) == 1
    rewritten = parse_qasm("\n".join(out.splitlines()[:-1]) + "\n")
    assert sum(g.is_marker for g in rewritten.gates) == 4


def test_rewrite_stops_each_tofs_scan_at_a_pair_it_cannot_replace(capsys, tmp_path,
                                                                  monkeypatch):
    """800 gates alternate a negative-control tof with a cx on one of its
    controls (prop2 pairs) or a t on its target (prop1 pairs). No block
    carries a negative control, so no pair is replaced, and no later pair
    of the same tof can be: each tof's scan stops at its first pair, where
    the eager walk classifies all 79,800 pairs."""
    calls = []
    real = rewrite.classify_pair
    monkeypatch.setattr(rewrite, "classify_pair", lambda *args: calls.append(args) or real(*args))
    src = tmp_path / "neg.qasm"
    for middle in (cx(0, 1), t(2)):
        circuit = Circuit(3, [tof((0, 1), 2, neg=(0,)) if k % 2 == 0 else middle
                              for k in range(800)])
        cls = "prop2" if middle.kind == "cnot" else "prop1"
        assert rewrite.classify_pair(circuit, 0, 2).classification == cls
        src.write_text(emit_qasm(circuit))
        calls.clear()
        code, out, _ = run(capsys, "rewrite", str(src), "--rules", "prop1,prop2")
        assert code == 0 and out.startswith(src.read_text())
        assert len(calls) <= 2 * 400


def _rewrite_digest(capsys, tmp_path, src, rules):
    dst = tmp_path / "pinned_out.qasm"
    assert run(capsys, "rewrite", str(src), "--rules", rules, "--out", str(dst))[0] == 0
    data = dst.read_bytes()
    return len(parse_qasm(data.decode()).gates), hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("n, length, digest", [(12, 260, "a43ac3e9ebede8d6"),
                                               (90, 2444, "018b859d6e2650d1")])
def test_rewrite_ladder_cancel_is_pinned(capsys, tmp_path, n, length, digest):
    """Gate count and digest recorded before cancellation became one pass."""
    src = tmp_path / "ladder.qasm"
    run(capsys, "synth", "--gate", "ladder", "--n", str(n), "--out", str(src))
    assert _rewrite_digest(capsys, tmp_path, src, "cancel") == (length, digest)


@pytest.mark.parametrize("rules, length, digest", [
    ("prop1,prop2,cancel", 1846, "60bdcc149938fe2c"),
    ("prop1,prop2,prop3", 360, "0789bec51ba93c10"),
    ("prop3,cancel", 3372, "53b80b0ba714c06c"),
])
def test_rewrite_chain_is_pinned(capsys, tmp_path, monkeypatch, rules, length, digest):
    """A chain of the benchmark's rewrite workload (perfbench/workloads.py):
    gate count and digest recorded before the rewrite became one pass
    (prop1,prop2,cancel) and before it wrote its replacements into one
    gate list (the other two)."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from workloads import tof_chain

    src = tmp_path / "chain.qasm"
    src.write_text(tof_chain(random.Random(5), primaries=13, ancillae=6, blocks=120))
    assert _rewrite_digest(capsys, tmp_path, src, rules) == (length, digest)


def test_rewrite_keeps_a_one_control_tof(capsys, tmp_path):
    """A tof with fewer than two controls in the middle of a pair is
    written back under its directive with its cx expansion."""
    src = tmp_path / "small_tof.qasm"
    src.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\n'
                   'ccx q[0],q[1],q[2];\n// rphase: {"gate": "tof", "controls": [0], '
                   '"target": 3, "neg": [], "gates": 1}\ncx q[0],q[3];\nccx q[0],q[1],q[2];\n')
    code, out, _ = run(capsys, "rewrite", str(src), "--rules", "prop1,prop2")
    assert code == 0
    rewritten = parse_qasm("\n".join(out.splitlines()[:-1]) + "\n")
    assert rewritten.gates[1] == tof((0,), 3) and rewritten.gates[0].is_marker
    assert "\ncx q[0],q[3];\n" in out


@pytest.mark.parametrize("rules", ["cancel", "prop1,prop2,cancel"])
def test_rewrite_lowers_a_wide_tof_it_can_expand(capsys, tmp_path, rules):
    """Under cancel, the before count of a wide tof is taken on its lowering,
    so a file holding one with a clean ancilla to spare rewrites."""
    src = tmp_path / "wide_tof.qasm"
    roles = (ROLE_PRIMARY,) * 5 + (ROLE_CLEAN,)
    src.write_text(emit_qasm(Circuit(6, [tof((0, 1, 2, 3), 4)], roles)))
    dst = tmp_path / "out.qasm"
    code, out, _ = run(capsys, "rewrite", str(src), "--rules", rules, "--out", str(dst))
    assert code == 0
    report = json.loads(out)
    assert report["before"]["t"] == 23 and report["after"]["t"] <= 23
    code, out, _ = run(capsys, "verify", str(dst), "--layout", "ctrl,ctrl,ctrl,ctrl,target,clean")
    assert code == 0 and json.loads(out)["exact"]


def test_rewrite_refuses_a_clean_helper_on_a_busy_clean_ancilla(capsys, tmp_path):
    """The file's cx pair writes its only clean ancilla, so the wide tof has
    no helper to lower onto: verify and rewrite refuse the file rather than
    answer for a lowering that is not the file's unitary."""
    src = tmp_path / "busy.qasm"
    roles = (ROLE_PRIMARY,) * 5 + (ROLE_CLEAN, ROLE_PRIMARY)
    src.write_text(emit_qasm(Circuit(7, [cx(0, 5), tof((1, 2, 3, 4), 6), cx(0, 5)], roles)))
    for argv in (("verify", str(src), "--layout", "ctrl,ctrl,ctrl,ctrl,ctrl,clean,target"),
                 ("rewrite", str(src), "--rules", "cancel")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: ancilla budget exceeded: lowering tof(1,2,3,4;6) needs 1 dirty "
                       "ancillae, circuit offers 0\n")


def test_apply_rules_writes_what_the_cli_writes(capsys, tmp_path):
    """``rewrite.apply_rules`` is the whole pass: for every rules string,
    its result emits as the CLI's --out text, on random conjugation
    circuits and on lowered ladders."""
    rng = random.Random("apply_rules")
    corpus = [_conjugation_circuit(rng, rng.randint(4, 60)) for _ in range(12)]
    corpus += [lower(catalog.ladder_tofn(n)) for n in (8, 13)]
    src, dst = tmp_path / "in.qasm", tmp_path / "out.qasm"
    rewritten = 0
    for circuit in corpus:
        src.write_text(emit_qasm(circuit))
        for rules in ("prop1,prop2", "prop1,prop2,prop3", "prop3", "prop1,prop2,cancel",
                      "cancel", "prop3,cancel"):
            assert run(capsys, "rewrite", str(src), "--rules", rules, "--out", str(dst))[0] == 0
            got = rewrite.apply_rules(circuit, rules.split(","))
            rewritten += got != circuit
            assert emit_qasm(got) == dst.read_text()
    assert rewritten >= 20


def test_apply_rules_refuses_an_unknown_rule():
    with pytest.raises(InputError, match=r"^unknown rules \['bogus', 'prop4'\]$"):
        rewrite.apply_rules(Circuit(3, [tof((0, 1), 2)]), ["prop1", "bogus", "cancel", "prop4"])


def test_the_cli_holds_no_rewrite_policy():
    """Which pair becomes which block is decided in ``rphase.rewrite``
    alone: the CLI imports none of the names the pass decides with, and
    names no rule."""
    policy = {"classify_pair", "_equal_tof_pairs", "_refusal", "REPLACEMENT_IMPLS"}
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            assert not names & policy, (node.lineno, sorted(names & policy))
        # nor does it test for a rule by name
        if isinstance(node, ast.Constant):
            assert node.value not in rewrite.RULES, (node.lineno, node.value)


def test_table_default_rows(capsys):
    code, out, _ = run(capsys, "table", "--csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    got = {(r[0], r[1]): tuple(int(v) for v in r[2:]) for r in rows}
    assert got[("TOF4", "clean")] == (15, 12, 6, 0, 1)
    assert got[("TOF4", "dirty")] == (16, 14, 6, 0, 1)
    assert got[("TOF5", "clean")] == (23, 18, 10, 0, 1)
    assert got[("TOF5", "dirty")] == (24, 20, 10, 0, 1)
    assert got[("TOF6", "clean")] == (31, 24, 14, 0, 2)
    assert got[("TOF6", "dirty")] == (32, 28, 14, 0, 2)
    assert got[("TOF11", "clean")] == (71, 54, 34, 0, 4)
    assert got[("TOF11", "dirty")] == (72, 68, 34, 0, 4)


def test_table_n7(capsys):
    code, out, _ = run(capsys, "table", "--n-list", "7", "--csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    got = {(r[0], r[1]): tuple(int(v) for v in r[2:]) for r in rows}
    assert got[("TOF7", "clean")] == (39, 30, 18, 0, 2)


def test_table_n3_is_toffoli3_on_its_clean_closed_form(capsys):
    """n = 3 is checked against the clean closed form (7, 6, 2) like any
    other n, and has no dirty row."""
    code, out, _ = run(capsys, "table", "--n-list", "3,4", "--csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [tuple(r[:2]) for r in rows] == [("TOF3", "clean"), ("TOF4", "clean"),
                                            ("TOF4", "dirty")]
    assert tuple(int(v) for v in rows[0][2:]) == (7, 6, 2, 0, 0)


def test_table_text_mode_has_general_row(capsys):
    code, out, _ = run(capsys, "table", "--n-list", "5")
    assert code == 0
    assert "8n-17" in out and "8n-16" in out and "ceil((n-3)/2)" in out


# sha256 of stdout per table request, recorded while table still counted
# each construction from its gates
_TABLE_DIGESTS = {
    ("--csv", "--n-list", ",".join(map(str, range(3, 41)))):
        "473fc4196d4ea1b28c2dc3d1dbc8ac91badbc001a97d8f59e248fa64b0e5570f",
    (): "6be6d78cd8d2d39828b71d321c1ef7edd087092e81465b029fc502915dd8575a",
    ("--n-list", ",".join(map(str, range(4, 41)))):
        "67139e1420ad693776fc31c40ce6f23e1754e097c2bcbd0e9ba074bc6749a6c8",
}


def _table_digest(capsys, argv):
    code, out, err = run(capsys, "table", *argv)
    return code, hashlib.sha256(out.encode()).hexdigest(), err


@pytest.mark.parametrize("argv", list(_TABLE_DIGESTS))
def test_table_output_is_pinned(capsys, argv):
    assert _table_digest(capsys, argv) == (0, _TABLE_DIGESTS[argv], "")


def test_table_builds_no_gates(capsys, monkeypatch):
    """table counts each construction unexpanded: with every block
    expansion refused, it still prints the pinned rows."""
    def refuse(*args, **kwargs):
        raise AssertionError("table built a block's gates")

    monkeypatch.setattr("rphase.circuit.block_gates", refuse)
    for argv, digest in _TABLE_DIGESTS.items():
        assert _table_digest(capsys, argv) == (0, digest, ""), argv


@pytest.mark.parametrize("n_list", ["\u0664,1_1", "1_1", "\u0664", "4,\uff15", "4,5\u2003"])
def test_table_n_list_takes_ascii_decimals_only(capsys, n_list):
    """int() would read each of these (an Arabic-Indic 4, 1_1 as 11, a
    fullwidth 5, an em space)."""
    code, out, err = run(capsys, "table", "--csv", "--n-list", n_list)
    assert (code, out) == (2, "")
    assert err == f"error: --n-list takes comma-separated integers, got {n_list!r}\n"


def test_table_n_list_keeps_blanks_around_commas(capsys):
    assert run(capsys, "table", "--csv", "--n-list", " 4 ,5 , 6") == \
        run(capsys, "table", "--csv", "--n-list", "4,5,6")


@pytest.mark.parametrize("value", ["\uff15", "1_1", "\u0664"])
def test_synth_n_takes_ascii_decimals_only(capsys, value):
    code, out, err = run(capsys, "synth", "--gate", "tof", "--n", value)
    assert (code, out) == (2, "")
    assert f"error: argument --n: invalid decimal value: {value!r}" in err


@pytest.mark.parametrize("option", ["--n", "--xprime"])
@pytest.mark.parametrize("value", ["\uff13", "0_2", "\u0662"])
def test_verify_integer_options_take_ascii_decimals_only(capsys, tmp_path, option, value):
    path = tmp_path / "t3.qasm"
    path.write_text(emit_qasm(toffoli3()))
    code, out, err = run(capsys, "verify", str(path), option, value)
    assert (code, out) == (2, "")
    assert f"error: argument {option}: invalid decimal value: {value!r}" in err


def test_missing_file(capsys):
    assert run(capsys, "count", "/nonexistent/file.qasm")[0] == 2


_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
_RTOF3L = emit_qasm(Circuit(3, [marker("rtof3l", (0, 1), 2)])).removeprefix(_HEADER)
# the rtof3l directive with the first t of its expansion turned into tdg
_TAMPERED_RTOF3L = _RTOF3L.replace("\nt q[2];\n", "\ntdg q[2];\n", 1)
_NEG_TOF = emit_qasm(Circuit(3, [tof((0, 1), 2, neg=(1,))])).removeprefix(_HEADER)
_BIG = "1" + "0" * 5000
_BAD_FILES = {
    "invalid directive JSON": "// rphase: {bad json\nccx q[0],q[1],q[2];\n",
    "unknown marker kind":
        '// rphase: {"marker": "nosuch", "controls": [0, 1], "target": 2, "gates": 0}\n',
    "qubit outside the register": "cx q[0],q[5];\n",
    "same qubit twice": "cx q[1],q[1];\n",
    "directive without gates":
        '// rphase: {"gate": "tof", "controls": [0, 1], "target": 2, "neg": []}\n',
    "expansion that does not match its directive": _TAMPERED_RTOF3L,
    "marker directive without its expansion":
        '// rphase: {"marker": "rtof3l", "controls": [0, 1], "target": 2, "dagger": false, "gates": 0}\n',
    "directive inside an expansion": _RTOF3L.replace("\n", (
        '\n// rphase: {"gate": "tof", "controls": [0, 1], "target": 2, "neg": [], "gates": 0}\n'), 1),
    "qreg keyword followed by punctuation": "qreg}q[3];\n",
    "infinite statement count":
        '// rphase: {"gate": "tof", "controls": [0, 1], "target": 2, "neg": [], "gates": 1e400}\n'
        'ccx q[0],q[1],q[2];\n',
    "negative statement count":
        '// rphase: {"gate": "tof", "controls": [0, 1], "target": 2, "neg": [], "gates": -1}\n'
        'ccx q[0],q[1],q[2];\nh q[0];\n',
    "boolean qubit":
        '// rphase: {"gate": "tof", "controls": [0], "target": true, "neg": [], "gates": 1}\n'
        'cx q[0],q[1];\n',
    "repeated directive key": _RTOF3L.replace('"dagger": false', '"dagger": false, "dagger": true'),
    "repeated roles key":
        '// rphase: {"roles": ["primary", "primary", "clean_ancilla"], '
        '"roles": ["primary", "primary", "primary"]}\nccx q[0],q[1],q[2];\n',
    "unknown directive key": _RTOF3L.replace('"dagger": false', '"dagger": false, "foo": 1'),
    "param in a directive": _RTOF3L.replace('"dagger": false', '"dagger": false, "param": 2'),
    "neg on a marker directive": _RTOF3L.replace('"dagger": false', '"dagger": false, "neg": [1]'),
    "dagger on a gate directive": _NEG_TOF.replace('"neg": [1]', '"neg": [1], "dagger": true'),
    "marker and gate in one directive": _RTOF3L.replace('{"marker"', '{"gate": "tof", "marker"'),
    "gate directive naming a marker": _RTOF3L.replace('{"marker"', '{"gate"'),
    "marker directive naming a tof": _NEG_TOF.replace('{"gate"', '{"marker"'),
    "cx on three qubits": "cx q[0],q[1],q[2];\n",
    "ccx on two qubits": "ccx q[0],q[1];\n",
    "include as a prefix": "includex q[0];\n",
    "OPENQASM as a prefix": "OPENQASMfoo q[1];\n",
    # json.loads raises RecursionError, not ValueError, on deep nesting
    "deeply nested directive": "// rphase: " + "[" * 100000 + "]" * 100000 + "\n",
    "deeply nested roles": '// rphase: {"roles": ' + "[" * 100000 + "]" * 100000 + "}\n",
    "non-ASCII digits in qubit arguments": "ccx q[\uff10],q[\uff11],q[\u0662];\n",
    "non-ASCII digits in an angle": "ry(\uff12*pi) q[0];\n",
    # integers past Python's int-string digit limit
    "qubit index of 5001 digits": f"h q[{_BIG}];\n",
    "angle numerator of 5001 digits": f"ry({_BIG}*pi) q[0];\n",
    "angle denominator of 5001 digits": f"ry(pi/{_BIG}) q[0];\n",
    "directive integer of 5001 digits":
        '// rphase: {"gate": "tof", "controls": [0, 1], "target": %s, "neg": [], "gates": 0}\n'
        % _BIG,
}


@pytest.mark.parametrize("command", ["count", "verify", "rewrite"])
@pytest.mark.parametrize("problem", sorted(_BAD_FILES))
def test_bad_file_is_an_input_error_naming_the_line(capsys, tmp_path, command, problem):
    path = tmp_path / "bad.qasm"
    path.write_text(_HEADER + _BAD_FILES[problem])
    code, _, err = run(capsys, command, str(path))
    assert code == 2 and err.startswith("error:") and "line 4" in err
    # rphase's own message, short: no number is repeated in full
    assert "set_int_max_str_digits" not in err and len(err) < 200


# whole files that are input errors, and the one line each prints
_BAD_WHOLE_FILES = {
    "no qreg": ('OPENQASM 2.0;\ninclude "qelib1.inc";\n', "error: no qreg declaration found"),
    "directive before the qreg": (
        'OPENQASM 2.0;\n// rphase: {"gate": "tof", "controls": [0, 1, 2], "target": 3, '
        '"neg": [], "gates": 0}\nqreg q[4];\n',
        "error: line 2, col 1: gate before qreg declaration"),
    "roles for another register size": (
        _HEADER + '// rphase: {"roles": ["primary", "clean_ancilla"]}\nx q[0];\n',
        "error: roles directive does not match register size"),
    "non-ASCII digits in the qreg size": (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[\uff13];\n',
        "error: line 3, col 1: cannot parse qreg declaration"),
    "qreg size of 5001 digits": (
        f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{_BIG}];\n',
        "error: line 3, col 1: qreg size of 5001 digits is too long to read"),
}


@pytest.mark.parametrize("problem", sorted(_BAD_WHOLE_FILES))
def test_a_bad_whole_file_is_an_input_error(capsys, tmp_path, problem):
    text, line = _BAD_WHOLE_FILES[problem]
    path = tmp_path / "bad.qasm"
    path.write_text(text)
    for command in ("count", "verify", "rewrite"):
        assert run(capsys, command, str(path)) == (2, "", line + "\n"), command


_ROLES = '// rphase: {"roles": ["primary", "primary", "clean_ancilla"]}\n'
# a bad roles directive, and the line the error names
_BAD_ROLES_FILES = {
    "second roles directive": (
        _ROLES + _ROLES.replace('"primary", "clean_ancilla"', '"clean_ancilla", "primary"')
        + "cx q[0],q[2];\n", 5),
    "roles directive with a marker": (
        _RTOF3L.replace('{"marker"', '{"roles": ["primary", "primary", "primary"], "marker"'), 4),
    "roles directive inside an expansion": (_RTOF3L.replace("\n", "\n" + _ROLES, 1), 5),
    "roles that are a string": ('// rphase: {"roles": "primary"}\n', 4),
    "roles that are an object": (
        '// rphase: {"roles": {"primary": 0, "clean_ancilla": 1, "dirty_ancilla": 2}}\n', 4),
    "roles that are null": ('// rphase: {"roles": null}\ncx q[0],q[1];\n', 4),
}


@pytest.mark.parametrize("problem", sorted(_BAD_ROLES_FILES))
def test_a_bad_roles_directive_is_an_input_error_naming_its_line(capsys, tmp_path, problem):
    """One roles directive per file, holding only a list of roles, outside
    any expansion: any other is an input error, so no role layout is read
    from a directive that was dropped, replaced or nested."""
    text, line = _BAD_ROLES_FILES[problem]
    path = tmp_path / "bad_roles.qasm"
    path.write_text(_HEADER + text)
    for command in ("count", "verify", "rewrite"):
        code, _, err = run(capsys, command, str(path))
        assert code == 2 and err.startswith("error:") and f"line {line}," in err, (command, err)


def test_tampered_expansion_fails_verify_without_its_directive(capsys, tmp_path):
    """The directive check is what stops the tampered file: read as plain
    QASM, its body is not even a phase permutation."""
    path = tmp_path / "tampered.qasm"
    layout = ("--layout", "ctrl,ctrl,target", "--class", "relative_phase")
    path.write_text(_HEADER + _TAMPERED_RTOF3L)
    code, _, err = run(capsys, "verify", str(path), *layout)
    assert code == 2 and err.startswith("error:") and "line 4" in err
    path.write_text(_HEADER + _TAMPERED_RTOF3L.split("\n", 1)[1])
    assert run(capsys, "verify", str(path), *layout)[0] == 1


@pytest.mark.parametrize("command", ["count", "verify", "rewrite"])
def test_directory_input_is_an_input_error(capsys, tmp_path, command):
    code, _, err = run(capsys, command, str(tmp_path))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("command", ["count", "verify", "rewrite"])
def test_undecodable_file_is_an_input_error(capsys, tmp_path, command):
    path = tmp_path / "bytes.qasm"
    path.write_bytes(_HEADER.encode() + b"// \xff\xfe\n")
    code, _, err = run(capsys, command, str(path))
    assert code == 2 and err.startswith("error:")


def test_huge_ry_angles_that_cancel_verify_exact(capsys, tmp_path):
    """Two ry(10^18 pi) gates are the identity: ry units are reduced as
    integers, never rounded through floats."""
    path = tmp_path / "huge_ry.qasm"
    path.write_text(_HEADER + "ccx q[0],q[1],q[2];\n" + "ry(1000000000000000000*pi) q[0];\n" * 2)
    code, out, _ = run(capsys, "verify", str(path), "--class", "exact")
    assert code == 0 and json.loads(out)["exact"] is True


def test_an_odd_ry_total_verifies_on_the_ring_up_to_a_global_phase(capsys, tmp_path):
    """TOF times e^(-i pi/8): its ry units sum to 1, so it is exact only up
    to a global phase, and the report says so from the ring."""
    path = tmp_path / "odd_ry.qasm"
    gates = list(toffoli3().gates) + [ry(0, 1), pdg(0), h(0), tdg(0), h(0), p(0)]
    path.write_text(emit_qasm(Circuit(3, gates)))
    for cls, want in (("exact", 1), ("global_phase", 0)):
        code, out, _ = run(capsys, "verify", str(path), "--class", cls)
        report = json.loads(out)
        assert code == want and "backend" not in report, cls
        assert (report["exact"], report["global_phase"]) == (False, True), cls


_FUZZ_SOURCES = (("--gate", "margolus-ry"), ("--gate", "tof", "--n", "5", "--ancilla", "dirty"),
                 ("--gate", "rtof4"))
_FUZZ_BYTES = b"0123456789-*/,;()[]{}\":pi qx \n\xff"


def _mutant(rng, data: bytes) -> bytes:
    """``data`` with one line deleted, duplicated or swapped with another,
    or one byte replaced, deleted or inserted."""
    lines = data.split(b"\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    how = rng.randrange(6)
    if how == 0:
        del lines[i]
    elif how == 1:
        lines.insert(i, lines[j])
    elif how == 2:
        lines[i], lines[j] = lines[j], lines[i]
    else:
        b = bytearray(data)
        at = rng.randrange(len(b))
        if how == 3:
            b[at] = rng.choice(_FUZZ_BYTES)
        elif how == 4:
            del b[at]
        else:
            b.insert(at, rng.choice(_FUZZ_BYTES))
        return bytes(b)
    return b"\n".join(lines)


_DIRECTIVE_SOURCES = (
    Circuit(3, [tof((0, 1), 2, frozenset({1})), marker("rtof3l", (0, 1), 2)]),
    Circuit(5, [marker("rtof3l", (0, 1), 2), tof((2, 3), 4, frozenset({3})),
                marker("rtof3l", (0, 1), 2, dagger=True)],
            (ROLE_PRIMARY, ROLE_PRIMARY, ROLE_CLEAN, ROLE_PRIMARY, ROLE_PRIMARY)),
)
_DIRECTIVE_VALUES = (b"1e400", b"-1", b"true", b"2.5", b'"0"', b"[]", b"null")
_DAGGER_VALUES = (b'"no"', b"1", b"[0]", b"null")
_PARAMETER_STATEMENTS = (b"cx(pi/4) q[0],q[1];", b"ccx(0) q[0],q[1],q[2];", b"cz(1) q[0],q[1];")
# a number in a directive's JSON: a qubit or a statement count, not a digit
# inside a name such as rtof3l
_DIRECTIVE_NUMBER = re.compile(rb"(?<=[\[ ,:])\d+")


def _directive_mutant(rng, data: bytes) -> bytes:
    """``data`` with one number of one ``// rphase:`` directive replaced by
    a JSON value that is no qubit and no statement count."""
    lines = data.split(b"\n")
    i = rng.choice([i for i, line in enumerate(lines)
                    if line.startswith(b"// rphase:") and _DIRECTIVE_NUMBER.search(line)])
    m = rng.choice(list(_DIRECTIVE_NUMBER.finditer(lines[i])))
    lines[i] = lines[i][:m.start()] + rng.choice(_DIRECTIVE_VALUES) + lines[i][m.end():]
    return b"\n".join(lines)


_DIRECTIVE_KEYS = ("roles", "marker", "gate", "controls", "target", "gates", "dagger",
                   "neg", "qubits")
_KEY_VALUES = ("1e400", "-1", "0", "true", "2.5", '"0"', '"rtof3l"', '"tof"', "[]",
               "[0, 1]", '["primary"]', "{}", "null")


def _key_mutant(rng, data: bytes) -> bytes:
    """``data`` with one key of one ``// rphase:`` directive dropped,
    renamed, added, retyped or duplicated."""
    lines = data.decode().split("\n")
    i = rng.choice([i for i, line in enumerate(lines) if line.startswith("// rphase:")])
    items = [(json.dumps(k), json.dumps(v))
             for k, v in json.loads(lines[i][len("// rphase:"):]).items()]
    at = rng.randrange(len(items))
    key, value = items[at]
    how = rng.randrange(5)
    if how == 0:
        del items[at]
    elif how == 1:
        items[at] = (json.dumps(rng.choice(_DIRECTIVE_KEYS)), value)
    elif how == 2:
        items.insert(at, (json.dumps(rng.choice(_DIRECTIVE_KEYS)), rng.choice(_KEY_VALUES)))
    elif how == 3:
        items[at] = (key, rng.choice(_KEY_VALUES))
    else:
        items.insert(rng.randrange(len(items) + 1), (key, rng.choice((value, *_KEY_VALUES))))
    lines[i] = "// rphase: {" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    return "\n".join(lines).encode()


def _assert_exit_code_contract(capsys, path, data):
    path.write_bytes(data)
    for command in ("count", "verify", "rewrite"):
        code, _, err = run(capsys, command, str(path))
        assert code in (0, 1, 2), (command, err, data)


def test_mutated_files_keep_the_exit_code_contract(capsys, tmp_path):
    """Mutants of synth outputs, an R_Y file among them, and of files with
    marker and negative-control directives (a number or a key changed),
    exit 0, 1 or 2 under count, verify and rewrite: never 3, never an
    escaped exception. A marker directive whose "dagger" is no JSON bool,
    and a parameter on a cx, ccx or cz statement, exit 2 naming the line."""
    sources = []
    for argv in _FUZZ_SOURCES:
        code, out, _ = run(capsys, "synth", *argv)
        assert code == 0
        sources.append(out.encode())
    rng = random.Random(2024)
    path = tmp_path / "mutant.qasm"
    for k in range(300):
        data = sources[k % len(sources)]
        for _ in range(rng.randint(1, 3)):
            data = _mutant(rng, data)
        _assert_exit_code_contract(capsys, path, data)
    rng = random.Random(2025)
    for k in range(80):
        data = emit_qasm(_DIRECTIVE_SOURCES[k % len(_DIRECTIVE_SOURCES)]).encode()
        _assert_exit_code_contract(capsys, path, _directive_mutant(rng, data))
    rng = random.Random(2026)
    for k in range(150):
        data = emit_qasm(_DIRECTIVE_SOURCES[k % len(_DIRECTIVE_SOURCES)]).encode()
        _assert_exit_code_contract(capsys, path, _key_mutant(rng, data))
    # every marker directive's "dagger" set to a value that is no JSON bool
    for source in _DIRECTIVE_SOURCES:
        lines = emit_qasm(source).encode().split(b"\n")
        for i, line in enumerate(lines):
            for value in _DAGGER_VALUES:
                mutated = re.sub(rb'"dagger": (true|false)', b'"dagger": ' + value, line)
                if mutated == line:
                    continue
                path.write_bytes(b"\n".join(lines[:i] + [mutated] + lines[i + 1:]))
                for command in ("count", "verify", "rewrite"):
                    code, _, err = run(capsys, command, str(path))
                    assert code == 2 and f"line {i + 1}," in err, (command, err, value)
    # a parenthesised parameter on a statement of two or more qubits
    for source in sources:
        lines = source.split(b"\n")
        at = next(i for i, line in enumerate(lines) if line.startswith(b"qreg")) + 1
        for statement in _PARAMETER_STATEMENTS:
            path.write_bytes(b"\n".join(lines[:at] + [statement] + lines[at:]))
            name = statement.split(b"(")[0].decode()
            for command in ("count", "verify", "rewrite"):
                code, _, err = run(capsys, command, str(path))
                assert code == 2 and f"line {at + 1}, col 1: malformed {name} statement" in err, (
                    command, err, statement)


# options per subcommand and values for each, valid or not; numbers stay
# small, so no synth or table request is slow
_SMALL_NUMBERS = ("-1", "0", "3", "4", "5", "7", "x")
_ARGV_OPTIONS = {
    "synth": {"--gate": ("tof", "ladder", "cnu-chain", "cnu-parallel", "margolus-t",
                         "margolus-ry", "rtof3-ry", "rtof4", "rts3", "bogus"),
              "--n": _SMALL_NUMBERS, "--ancilla": ("clean", "dirty", "none"),
              "--format": ("json", "qasm", "text")},
    "count": {},
    "verify": {"--target": ("tof", "rtof", "x"), "--n": _SMALL_NUMBERS,
               "--layout": ("ctrl,ctrl,target", "ctrl,nctrl,target", "target,ctrl",
                            "nctrl,ctrl,dirty,clean,target,ctrl", "ctrl,,target"),
               "--class": ("exact", "global_phase", "relative_phase", "special_form", "x"),
               "--xprime": ("0", "2", "9", "-1")},
    "rewrite": {"--rules": ("prop1,prop2,cancel", "prop3", "prop1,prop2,prop3,cancel",
                            "cancel,bogus", "")},
    "table": {"--n-list": ("4,5", "3", "x", "4,,9", "-2", ""), "--csv": ()},
}
_ARGV_ANY = ("0", "5", "--help", "--", "--bogus", "", "-")


def _fuzz_argv(rng, inputs, outs):
    """A random argv: a subcommand (rarely none or an unknown one), most
    often an input file, and up to four options, mostly each with one of
    its values; ``--out`` always comes with an output path."""
    command = rng.choice((*_ARGV_OPTIONS, "bogus", None) if rng.random() < 0.1 else
                         tuple(_ARGV_OPTIONS))
    options = _ARGV_OPTIONS.get(command, {})
    units = []
    for _ in range(rng.randint(0, 4)):
        if options and rng.random() < 0.85:
            flag = rng.choice(list(options))
            values = options[flag] if rng.random() < 0.9 else _ARGV_ANY
            units.append([flag, rng.choice(values)] if options[flag] else [flag])
        else:
            units.append([rng.choice(_ARGV_ANY)])
    if command in ("count", "verify", "rewrite") and rng.random() < 0.9:
        units.append([rng.choice(inputs)])
    if command in ("synth", "rewrite") and rng.random() < 0.3:
        units.append(["--out", rng.choice(outs)])
    rng.shuffle(units)
    return ([command] if command else []) + [t for unit in units for t in unit]


def _fuzz_paths(capsys, tmp_path):
    """The input and output paths ``_fuzz_argv`` draws from. Every input
    has at most 8 qubits, and no output path is an input, so every run is
    quick."""
    files = []
    for k, argv in enumerate(_FUZZ_SOURCES):
        files.append(tmp_path / f"synth{k}.qasm")
        assert run(capsys, "synth", *argv, "--out", str(files[-1]))[0] == 0
    sources = (Circuit(4, [tof((0, 1), 2), cx(2, 3), tof((0, 1), 2)]), *_DIRECTIVE_SOURCES)
    for k, source in enumerate(sources):
        files.append(tmp_path / f"{k}.qasm")
        files[-1].write_text(emit_qasm(source))
    assert all(parse_qasm(f.read_text()).width <= 8 for f in files)
    inputs = [str(tmp_path), str(tmp_path / "missing.qasm"), *map(str, files)]
    outs = [str(tmp_path / "out.qasm"), str(tmp_path / "out.json"),
            str(tmp_path / "no" / "out.qasm")]
    return inputs, outs


def test_fuzzed_argv_keeps_the_exit_code_contract(capsys, tmp_path):
    """Seeded argv vectors over the five subcommands exit 0, 1 or 2: never
    3, never an escaped exception."""
    inputs, outs = _fuzz_paths(capsys, tmp_path)
    rng = random.Random(2027)
    for _ in range(1000):
        argv = _fuzz_argv(rng, inputs, outs)
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2), (argv, err)


def test_main_builds_one_parser_per_process(capsys, tmp_path, monkeypatch):
    """20 main() calls over every subcommand, a usage error, --help and
    rewrite with and without --rules construct the parsers of one build."""
    path, out = tmp_path / "t3.qasm", tmp_path / "out.qasm"
    path.write_text(emit_qasm(toffoli3()))
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    cli.build_parser.__wrapped__()
    one_build = len(built)
    built.clear()
    cli.build_parser.cache_clear()
    calls = [
        (("synth", "--gate", "toffoli3", "--out", str(out)), 0),
        (("count", str(path)), 0),
        (("verify", str(path)), 0),
        (("rewrite", str(path)), 0),
        (("rewrite", str(path), "--rules", "cancel"), 0),
        (("table", "--n-list", "4,5"), 0),
        (("synth",), 2),
        (("--help",), 0),
        (("synth", "--help"), 0),
        (("verify", str(path), "--class", "global_phase"), 0),
        (("count", str(tmp_path / "missing.qasm")), 2),
        (("bogus",), 2),
        (("table", "--csv"), 0),
        (("rewrite", str(path), "--rules", "prop1", "--out", str(out)), 0),
        (("synth", "--gate", "tof", "--n", "4", "--format", "json"), 0),
        (("verify", str(path), "--target", "tof", "--n", "3"), 0),
        (("table", "--n-list", "x"), 2),
        (("count", str(out)), 0),
        (("rewrite", str(path), "--rules", "prop1,prop2,cancel"), 0),
        (("verify", str(path), "--layout", "ctrl,ctrl,target"), 0),
    ]
    for argv, code in calls:
        assert run(capsys, *argv)[0] == code, argv
    assert one_build > 1 and len(built) == one_build
    cli.build_parser.cache_clear()


def test_the_cached_parser_answers_as_a_fresh_one(capsys, tmp_path, monkeypatch):
    """200 seeded fuzzed argv vectors give the same exit code, stdout and
    stderr through the cached parser as through a parser built for the
    call."""
    inputs, outs = _fuzz_paths(capsys, tmp_path)
    rng = random.Random(2028)
    for _ in range(200):
        argv = _fuzz_argv(rng, inputs, outs)
        cached = run(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            assert run(capsys, *argv) == cached, argv


def test_verify_cost_follows_the_qubits_that_are_not_clean(tmp_path):
    """A 64-qubit file with 61 clean ancillae checks 8 columns: the check
    never scans or tabulates all 2^64 basis states."""
    path = tmp_path / "wide_clean.qasm"
    roles = [ROLE_PRIMARY] * 3 + [ROLE_CLEAN] * 61
    path.write_text(emit_qasm(Circuit(64, [tof((0, 1), 2)], roles)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-m", "rphase.cli", "verify", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and json.loads(done.stdout)["exact"] is True


def test_xprime_outside_the_gate_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "t3.qasm"
    path.write_text(emit_qasm(toffoli3()))
    code, _, err = run(capsys, "verify", str(path), "--xprime", "7")
    assert code == 2 and err.startswith("error:") and "--xprime" in err


@pytest.mark.parametrize("command", ["count", "rewrite", "verify"])
def test_wide_tof_is_an_input_error_naming_the_gate(capsys, tmp_path, command):
    path = tmp_path / "wide_tof.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[5];\n// rphase: '
                    '{"gate": "tof", "controls": [0, 1, 2], "target": 3, "neg": [], "gates": 0}\n')
    code, _, err = run(capsys, command, str(path))
    assert code == 2 and err.startswith("error:") and "tof(0,1,2;3)" in err


_WIDE_TOF = ('// rphase: {"gate": "tof", "controls": [0, 1, 2, 3], "target": 4, '
             '"gates": 0, "neg": []}\n')
_CLEAN_5 = ('// rphase: {"roles": ["primary", "primary", "primary", "primary", "primary", '
            '"clean_ancilla"]}\n')


def _wide_tof_file(tmp_path, roles=""):
    """A 6-qubit file whose only gate is a 4-control tof on qubits 0-4."""
    path = tmp_path / "wide6.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[6];\n' + roles + _WIDE_TOF)
    return path


@pytest.mark.parametrize("roles, helper", [("", "clean"), ("", "dirty"), (_CLEAN_5, "dirty")],
                         ids=["no-roles-clean", "no-roles-dirty", "clean-file-dirty-layout"])
def test_verify_lowers_under_the_layout_roles(capsys, tmp_path, roles, helper):
    """The chain goes on the helper --layout names, of the flavour it names,
    whatever the file declares: a file without roles lowers onto it, and a
    file's clean ancilla laid out as dirty gets a dirty chain."""
    path = _wide_tof_file(tmp_path, roles)
    layout = "ctrl,ctrl,ctrl,ctrl,target," + helper
    code, out, err = run(capsys, "verify", str(path), "--layout", layout)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["exact"] is True and report["ancilla_ok"] is True


def test_verify_checks_its_flags_before_it_lowers(capsys, tmp_path):
    """--n is checked before the tof is lowered, so a mismatch is named
    even on a file with no ancilla to lower onto."""
    code, out, err = run(capsys, "verify", str(_wide_tof_file(tmp_path)), "--n", "9")
    assert (code, out) == (2, "")
    assert err == "error: --n 9 does not match layout with 5 controls\n"


def test_verify_without_a_layout_needs_two_primary_qubits(capsys, tmp_path):
    path = tmp_path / "one_primary.qasm"
    path.write_text(emit_qasm(Circuit(2, [x(0)], (ROLE_PRIMARY, ROLE_CLEAN))))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (2, "", "error: cannot infer layout; pass --layout\n")


def test_count_counts_a_wide_tof_as_its_lowering(capsys, tmp_path):
    path = _wide_tof_file(tmp_path, _CLEAN_5)
    code, out, err = run(capsys, "count", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report == lower(parse_qasm(path.read_text())).count_resources().as_dict()
    assert (report["t"], report["cnot"], report["h"]) == (23, 18, 10)
    assert report["ancilla"] == {"count": 1, "type": "clean"}


def test_rewrite_without_cancel_counts_a_wide_tof_as_its_lowering(capsys, tmp_path):
    """No prop1 pair: the file is written back as it was, and both counts
    are the lowering's."""
    path = _wide_tof_file(tmp_path, _CLEAN_5)
    code, out, err = run(capsys, "rewrite", str(path), "--rules", "prop1")
    assert (code, err) == (0, "")
    *text, last = out.splitlines(keepends=True)
    report = json.loads(last)
    assert "".join(text) == path.read_text()
    assert report["before"] == report["after"] and report["before"]["t"] == 23


@pytest.mark.parametrize("rules", ["cancel", "prop1,cancel"])
def test_rewrite_refuses_a_wide_tof_it_cannot_lower(capsys, tmp_path, rules):
    """prop1 replaces the pair, so only the before count meets the wide tof;
    it is refused with the lowering's message, as under cancel alone."""
    path = tmp_path / "no_ancilla.qasm"
    path.write_text(emit_qasm(Circuit(5, [tof((0, 1, 2), 3), cx(3, 4), tof((0, 1, 2), 3)])))
    code, out, err = run(capsys, "rewrite", str(path), "--rules", rules)
    assert (code, out) == (2, "")
    assert err == ("error: ancilla budget exceeded: lowering tof(0,1,2;3) needs 1 dirty "
                   "ancillae, circuit offers 0\n")


@pytest.mark.parametrize("value", ["ring", "bogus"])
def test_verify_picks_the_backend_from_the_circuit(capsys, tmp_path, monkeypatch, value):
    # RPHASE_BACKEND is no longer read: an ry circuit whose units sum to an
    # even number runs on the ring, the only backend, which no report names
    path = tmp_path / "margolus_ry.qasm"
    assert run(capsys, "synth", "--gate", "margolus-ry", "--out", str(path))[0] == 0
    monkeypatch.setenv("RPHASE_BACKEND", value)
    code, out, _ = run(capsys, "verify", str(path), "--layout", "ctrl,ctrl,target",
                       "--class", "relative_phase")
    report = json.loads(out)
    assert code == 0 and report["relative_phase"] is True and "backend" not in report


def test_table_bad_n_list_is_a_usage_error(capsys):
    code, _, err = run(capsys, "table", "--n-list", "4,x")
    assert code == 2 and err.startswith("error:") and "--n-list" in err


@pytest.mark.parametrize("n_list", ["", " "])
def test_table_blank_n_list_is_a_usage_error(capsys, n_list):
    code, out, err = run(capsys, "table", "--n-list", n_list)
    assert (code, out) == (2, "")
    assert err == f"error: --n-list takes comma-separated integers, got {n_list!r}\n"


@pytest.mark.parametrize("command", ["count", "verify", "rewrite"])
@pytest.mark.parametrize("size", ["99999999999", "9" * 5000])
def test_huge_qreg_is_an_input_error_naming_the_line(capsys, tmp_path, command, size):
    path = tmp_path / "huge.qasm"
    path.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{size}];\n')
    code, _, err = run(capsys, command, str(path))
    assert code == 2 and err.startswith("error:") and "line 3" in err


def test_widest_synth_output_parses(capsys, tmp_path):
    path = tmp_path / "tof310.qasm"
    assert run(capsys, "synth", "--gate", "tof", "--n", "310", "--out", str(path))[0] == 0
    assert parse_qasm(path.read_text()).width == 464


# sized --gate -> (built width at n, smallest n, largest n within QREG_LIMIT)
SIZED_WIDTHS = {
    "tof": (lambda n: n + ceil((n - 3) / 2), 3, 43691),
    "ladder": (lambda n: 2 * n - 3, 6, 32769),
    "cnu-chain": (lambda n: 2 * n, 2, 32768),
    "cnu-parallel": (lambda n: 2 * n, 2, 32768),
}
# (gate, --ancilla); only tof takes --ancilla: the other gates fix their
# own helpers, are requested without it, and leave the second field unread
SIZED_REQUESTS = [("tof", "clean"), ("tof", "dirty"), ("ladder", "clean"),
                  ("cnu-chain", "clean"), ("cnu-parallel", "clean")]


def _ancilla_argv(gate, ancilla):
    return ("--ancilla", ancilla) if gate == "tof" else ()


@pytest.mark.parametrize("gate,ancilla", SIZED_REQUESTS)
def test_sized_synth_past_the_qreg_limit_is_a_usage_error(capsys, gate, ancilla):
    width, _, largest = SIZED_WIDTHS[gate]
    assert width(largest) <= QREG_LIMIT < width(largest + 1)
    for n in (largest + 1, 10 ** 12):
        start = time.monotonic()
        code, out, err = run(capsys, "synth", "--gate", gate, "--n", str(n),
                             *_ancilla_argv(gate, ancilla))
        assert code == 2 and out == "" and err.startswith("error:"), (n, err)
        assert time.monotonic() - start < 1.0


def test_table_past_the_qreg_limit_is_a_usage_error(capsys):
    for n in (SIZED_WIDTHS["tof"][2] + 1, 10 ** 12):
        start = time.monotonic()
        code, out, err = run(capsys, "table", "--n-list", f"4,{n}")
        assert code == 2 and out == "" and err.startswith("error:"), (n, err)
        assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("gate,ancilla", SIZED_REQUESTS)
def test_sized_width_formula_is_the_built_width_and_the_guard(monkeypatch, gate, ancilla):
    """The widths above are the built ones, and the guard refuses exactly
    the n past a limit: with QREG_LIMIT at the width of n, n builds and
    n + 1 does not."""
    width, smallest, _ = SIZED_WIDTHS[gate]

    def build(n):
        return cli._synth_build(argparse.Namespace(
            gate=gate, n=n, ancilla=ancilla if gate == "tof" else None))

    for n in range(smallest, 14):
        circuit = build(n)
        assert circuit.width == width(n), n
        monkeypatch.setattr(catalog, "QREG_LIMIT", circuit.width)
        assert build(n).width == circuit.width
        with pytest.raises(InputError, match=rf"^\S+ needs {width(n + 1)} qubits, wider than "
                           rf"the limit of {circuit.width}$"):
            build(n + 1)
        monkeypatch.undo()


@pytest.mark.parametrize("exc", [KeyError("x"), MemoryError(), RuntimeError("boom")])
def test_unexpected_exception_is_an_internal_error(capsys, tmp_path, monkeypatch, exc):
    def broken(text):
        raise exc

    path = tmp_path / "t3.qasm"
    path.write_text(emit_qasm(toffoli3()))
    monkeypatch.setattr(cli, "parse_qasm", broken)
    code, _, err = run(capsys, "count", str(path))
    assert code == 3 and err.startswith(f"internal error: {type(exc).__name__}")
    assert "Traceback" not in err


def test_every_error_type_has_its_exit_code(capsys, tmp_path, monkeypatch):
    """rphase defines three exception types: InputError (exit 2), its
    QasmError, and NotAPhasePermutation (exit 1). Any other would escape
    main's exit-2 clause as an internal error, so none may be added; a bare
    InputError exits 2 with its message."""
    defined = set()
    for info in pkgutil.iter_modules(rphase.__path__):
        module = importlib.import_module(f"rphase.{info.name}")
        defined |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    assert defined == {InputError, QasmError, NotAPhasePermutation}

    def refused(text):
        raise InputError("refused")

    path = tmp_path / "t3.qasm"
    path.write_text(emit_qasm(toffoli3()))
    monkeypatch.setattr(cli, "parse_qasm", refused)
    for command in ("count", "verify", "rewrite"):
        assert run(capsys, command, str(path)) == (2, "", "error: refused\n"), command
