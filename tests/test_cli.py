"""Command-line driver: verbs, exit codes, output formats."""

import hashlib
import json
import os
import random
import time

import pytest

import rphase.cli as cli
from rphase.cli import _pick_impl, main
from rphase.qasm import emit_qasm, parse_qasm
from rphase.catalog import toffoli3
from rphase.circuit import Circuit, cx, cz, h, t, tof, x
from rphase.rewrite import apply_replacement, find_conjugations


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


def test_synth_usage_errors(capsys):
    assert run(capsys, "synth", "--gate", "nosuch")[0] == 2
    assert run(capsys, "synth", "--gate", "tof")[0] == 2
    assert run(capsys, "synth")[0] == 2  # argparse: missing --gate


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
    assert run(capsys, "verify", str(path), "--processes", "1")[0] == 0


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


def _conjugation_circuit(rng, length):
    """Random 6-qubit circuit of repeated tofs (one with a negative control)
    and middle gates, so pairs of every class, nested and overlapping pairs
    and triples of equal tofs all occur."""
    tofs = [tof((0, 1), 2), tof((1, 3), 4), tof((2, 5), 0), tof((3, 4), 5),
            tof((1, 2), 3, neg=(2,))]
    middle = [cx(0, 1), cx(2, 4), cx(5, 3), cx(1, 0), cz(1, 4), t(0), t(2), h(4), x(5)]
    return Circuit(6, [rng.choice(tofs if rng.random() < 0.4 else middle)
                       for _ in range(length)])


def _rewrite_by_restarts(circuit, enabled):
    """The loop the one-pass rewrite replaced, kept as a reference: apply the
    first usable match, then search the new circuit again from scratch."""
    while True:
        for m in find_conjugations(circuit):
            impl = _pick_impl(m) if m.classification in enabled else None
            if impl is not None:
                circuit = apply_replacement(circuit, m, impl)
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


def test_rewrite_finds_conjugations_once(capsys, tmp_path, monkeypatch):
    calls = []
    real = cli.find_conjugations
    monkeypatch.setattr(cli, "find_conjugations", lambda c: calls.append(c) or real(c))
    src = tmp_path / "pairs.qasm"
    src.write_text(emit_qasm(Circuit(7, [
        tof((0, 1), 2), tof((3, 4), 5), cx(2, 6), t(4), tof((3, 4), 5), tof((0, 1), 2)])))
    code, out, _ = run(capsys, "rewrite", str(src), "--rules", "prop1,prop2")
    assert code == 0 and len(calls) == 1
    rewritten = parse_qasm("\n".join(out.splitlines()[:-1]) + "\n")
    assert sum(g.is_marker for g in rewritten.gates) == 4


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


def test_rewrite_chain_is_pinned(capsys, tmp_path, monkeypatch):
    """A chain of the benchmark's rewrite workload (perfbench/workloads.py):
    gate count and digest recorded before the rewrite became one pass."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from workloads import tof_chain

    src = tmp_path / "chain.qasm"
    src.write_text(tof_chain(random.Random(5), primaries=13, ancillae=6, blocks=120))
    got = _rewrite_digest(capsys, tmp_path, src, "prop1,prop2,cancel")
    assert got == (1846, "60bdcc149938fe2c")


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


def test_table_text_mode_has_general_row(capsys):
    code, out, _ = run(capsys, "table", "--n-list", "5")
    assert code == 0
    assert "8n-17" in out and "8n-16" in out and "ceil((n-3)/2)" in out


def test_missing_file(capsys):
    assert run(capsys, "count", "/nonexistent/file.qasm")[0] == 2


_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
_BAD_FILES = {
    "invalid directive JSON": "// rphase: {bad json\nccx q[0],q[1],q[2];\n",
    "unknown marker kind":
        '// rphase: {"marker": "nosuch", "controls": [0, 1], "target": 2, "gates": 0}\n',
    "qubit outside the register": "cx q[0],q[5];\n",
    "same qubit twice": "cx q[1],q[1];\n",
    "directive without gates":
        '// rphase: {"gate": "tof", "controls": [0, 1], "target": 2, "neg": []}\n',
}


@pytest.mark.parametrize("command", ["count", "verify", "rewrite"])
@pytest.mark.parametrize("problem", sorted(_BAD_FILES))
def test_bad_file_is_an_input_error_naming_the_line(capsys, tmp_path, command, problem):
    path = tmp_path / "bad.qasm"
    path.write_text(_HEADER + _BAD_FILES[problem])
    code, _, err = run(capsys, command, str(path))
    assert code == 2 and err.startswith("error:") and "line 4" in err


@pytest.mark.parametrize("command", ["count", "verify", "rewrite"])
def test_directory_input_is_an_input_error(capsys, tmp_path, command):
    code, _, err = run(capsys, command, str(tmp_path))
    assert code == 2 and err.startswith("error:")


def test_xprime_outside_the_gate_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "t3.qasm"
    path.write_text(emit_qasm(toffoli3()))
    code, _, err = run(capsys, "verify", str(path), "--xprime", "7")
    assert code == 2 and err.startswith("error:") and "--xprime" in err


def test_table_bad_n_list_is_a_usage_error(capsys):
    code, _, err = run(capsys, "table", "--n-list", "4,x")
    assert code == 2 and err.startswith("error:") and "--n-list" in err
