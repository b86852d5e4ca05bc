"""OpenQASM subset: emission, parsing, round trips, error reporting."""

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from rphase import cli
from rphase.catalog import (
    margolus_ry,
    tof4_dirty,
    toffoli3,
    tofn_clean,
)
from rphase.circuit import (
    BLOCKS, KINDS, MARKER_BLOCKS, ROLES, Circuit, Gate, InputError, cx, cz, h, marker, ry, tof)
from rphase.lowering import lower
from rphase.qasm import QasmError, emit_qasm, parse_qasm


def test_emit_cnot():
    text = emit_qasm(Circuit(2, [cx(0, 1)]))
    assert text.splitlines()[0] == "OPENQASM 2.0;"
    assert 'include "qelib1.inc";' in text
    assert "cx q[0],q[1];" in text


def test_round_trip_toffoli3():
    c = toffoli3()
    assert parse_qasm(emit_qasm(c)) == c


def test_parse_ccx_is_tof_marker():
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nccx q[0],q[1],q[2];\n'
    c = parse_qasm(text)
    assert c.gates == (tof((0, 1), 2),)


def test_round_trip_all_lowered_catalog():
    for name, block in BLOCKS.items():
        assert parse_qasm(emit_qasm(block.circuit)) == block.circuit, name


def test_round_trip_roles():
    for c in (tofn_clean(4), tof4_dirty()):
        back = parse_qasm(emit_qasm(c))
        assert back.roles == c.roles


def test_round_trip_ry_angles():
    c = margolus_ry()
    text = emit_qasm(c)
    assert "ry(pi/4)" in text and "ry(-pi/4)" in text
    assert parse_qasm(text) == c
    wide = Circuit(1, [ry(0, 2), ry(0, -3), ry(0, 4), ry(0, 0), ry(0, 6)])
    assert parse_qasm(emit_qasm(wide)) == wide


def test_marker_round_trip_with_expansion():
    c = Circuit(3, [marker("rtof3l", (0, 1), 2), marker("srts3", (0, 1), 2, dagger=True)])
    text = emit_qasm(c)
    assert text.count("// rphase:") == 2
    # the expansions are plain statements other consumers can run
    assert text.count("\nh ") + text.count("\nt ") + text.count("\ntdg ") > 0
    assert parse_qasm(text) == c


def test_negative_control_round_trip():
    c = Circuit(3, [tof((0, 1), 2, neg=(1,)), cx(0, 1)])
    text = emit_qasm(c)
    assert '"neg": [1]' in text
    assert text.count("x q[1];") == 2  # the wrap is emitted as the expansion
    assert parse_qasm(text) == c


def test_small_tofs_round_trip_with_their_expansion():
    """tofs with 0, 1 and 2 controls, with and without negative controls,
    are written under a directive (or as ccx) with a runnable expansion."""
    c = Circuit(4, [tof((), 3), tof((0,), 3), tof((0, 1), 3),
                    tof((0,), 3, neg=(0,)), tof((1, 2), 3, neg=(2,)),
                    tof((1, 2), 3, neg=(1, 2))])
    text = emit_qasm(c)
    assert parse_qasm(text) == c
    assert emit_qasm(parse_qasm(text)) == text
    body = [line for line in text.splitlines()[3:] if not line.startswith("//")]
    assert body == ["x q[3];", "cx q[0],q[3];", "ccx q[0],q[1],q[3];",
                    "x q[0];", "cx q[0],q[3];", "x q[0];",
                    "x q[2];", "ccx q[1],q[2],q[3];", "x q[2];",
                    "x q[1];", "x q[2];", "ccx q[1],q[2],q[3];", "x q[2];", "x q[1];"]


@pytest.mark.parametrize("dagger", [False, True])
@pytest.mark.parametrize("kind", sorted(MARKER_BLOCKS))
def test_every_marker_round_trips_through_its_checked_expansion(kind, dagger):
    nc = MARKER_BLOCKS[kind].arity - 1
    c = Circuit(nc + 2, [marker(kind, tuple(range(1, nc + 1)), 0, dagger=dagger)])
    assert parse_qasm(emit_qasm(c)) == c


def test_wide_tof_round_trips_without_expansion():
    c = Circuit(5, [tof((0, 1, 2, 3), 4)])
    text = emit_qasm(c)
    assert '"gates": 0' in text
    assert parse_qasm(text) == c


def test_plain_comments_are_ignored():
    text = 'OPENQASM 2.0;\nqreg q[1];\n// a note\nh q[0];\n'
    assert parse_qasm(text).gates == (h(0),)


def test_parse_error_has_line_number():
    text = 'OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1]\n'
    with pytest.raises(QasmError) as err:
        parse_qasm(text)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_unsupported_gate():
    text = 'OPENQASM 2.0;\nqreg q[2];\nswap q[0],q[1];\n'
    with pytest.raises(QasmError, match="^line 3, col 1: unsupported gate 'swap'$"):
        parse_qasm(text)


def test_a_header_is_only_a_whole_statement():
    """OPENQASM and include lines are skipped only as whole header
    statements; any other line starting with either word is refused at its
    line, so no statement on it is dropped."""
    for header in ("OPENQASM 2.0;", "OPENQASM  3 ;", 'include "qelib1.inc";', 'include"x.inc" ;'):
        assert parse_qasm(f"{header}\nqreg q[1];\nh q[0];\n").gates == (h(0),), header
    for line in ("includex q[0];", "OPENQASMfoo q[0];", "OPENQASM 2.0", "OPENQASM 2.0; h q[0];",
                 'include "qelib1.inc"; x q[0];'):
        message = f"line 2, col 1: cannot parse header {line!r}"
        with pytest.raises(QasmError, match=f"^{re.escape(message)}$"):
            parse_qasm(f"qreg q[1];\n{line}\nh q[0];\n")


def test_gate_before_qreg():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0;\nh q[0];\n")


def test_bad_angle():
    with pytest.raises(QasmError):
        parse_qasm('OPENQASM 2.0;\nqreg q[1];\nry(pi/3) q[0];\n')


def test_a_signed_zero_angle_is_zero(capsys, tmp_path):
    """ry(-0) reads as ry(0), as ry(-0*pi) and ry(0) do, and counts."""
    text = "OPENQASM 2.0;\nqreg q[1];\n"
    for angle in ("-0", "0", "-0*pi"):
        assert parse_qasm(f"{text}ry({angle}) q[0];\n").gates == (ry(0, 0),), angle
    path = tmp_path / "signed_zero.qasm"
    path.write_text(f"{text}ry(-0) q[0];\n")
    assert cli.main(["count", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["other"] == 1


def test_truncated_expansion():
    text = ('OPENQASM 2.0;\nqreg q[3];\n'
            '// rphase: {"marker": "rtof3l", "controls": [0, 1], "target": 2, '
            '"dagger": false, "gates": 9}\nh q[2];\n')
    with pytest.raises(QasmError):
        parse_qasm(text)


@pytest.mark.parametrize("field", ["gates", "target", "controls", "neg"])
@pytest.mark.parametrize("value", ["1e400", "-1", "true", "2.5", '"0"', "[]", "null"])
def test_directive_numbers_must_be_json_integers(field, value):
    """Every qubit and the statement count of a directive is a non-bool
    JSON integer, and the count is not negative: anything else is an input
    error naming the directive's line, never a bool taken for a qubit or
    a count that swallows the rest of the file."""
    info = {"gate": "tof", "controls": [0, 1], "target": 2, "neg": [1], "gates": 3}
    info[field] = [0, "@"] if field in ("controls", "neg") else "@"
    directive = json.dumps(info).replace('"@"', value)
    text = ('OPENQASM 2.0;\nqreg q[3];\n// rphase: ' + directive
            + '\nx q[1];\nccx q[0],q[1],q[2];\nx q[1];\nh q[0];\n')
    with pytest.raises(QasmError) as err:
        parse_qasm(text)
    assert err.value.line == 3
    assert field != "gates" or '"gates"' in str(err.value)


_RTOF3L_LINES = emit_qasm(Circuit(3, [marker("rtof3l", (0, 1), 2)])).splitlines()
_RTOF3L_DIRECTIVE = _RTOF3L_LINES[3].removeprefix("// rphase: ")
_RTOF3L_BODY = "".join(line + "\n" for line in _RTOF3L_LINES[4:])


@pytest.mark.parametrize("value", ['"no"', "1", "[0]", "null"])
def test_directive_dagger_must_be_a_json_bool(value):
    """A marker directive's "dagger" is true or false: "no" or 1 is not
    read as true by truthiness (rtof3l's expansion is its own inverse, so
    the file would parse), it is an input error naming the line."""
    text = ('OPENQASM 2.0;\nqreg q[3];\n// rphase: {"marker": "rtof3l", "controls": [0, 1], '
            f'"target": 2, "dagger": {value}, "gates": 9}}\n' + _RTOF3L_BODY)
    with pytest.raises(QasmError) as err:
        parse_qasm(text)
    assert err.value.line == 3 and '"dagger"' in str(err.value)


def test_directive_without_dagger_is_not_a_dagger():
    text = ('OPENQASM 2.0;\nqreg q[3];\n// rphase: {"marker": "rtof3l", "controls": [0, 1], '
            '"target": 2, "gates": 9}\n' + _RTOF3L_BODY)
    assert parse_qasm(text).gates == (marker("rtof3l", (0, 1), 2),)


def _repetitive_circuit(rng, width, length):
    """A circuit drawn from a pool of few gates, so most statements and
    directives repeat: one-qubit kinds, ry, cx, cz, tofs with negative
    controls, a wide tof and markers either way round."""
    pool = [h(0), Gate("t", (), 1), Gate("tdg", (), 1), ry(2, -3), cx(0, 3), cz(1, 2),
            tof((0, 1), 2), tof((0, 1), 2, neg=(1,)), tof((0, 1, 2, 3), 4),
            marker("rtof3l", (0, 1), 2), marker("rtof3s", (3, 1), 0, dagger=True),
            marker("rt4s", (0, 1, 2), 4), marker("rt4s", (0, 1, 2), 4, dagger=True)]
    return Circuit(width, [rng.choice(pool) for _ in range(length)],
                   [rng.choice(ROLES) for _ in range(width)])


def test_parse_inverts_emit_with_repeated_statements():
    rng = random.Random(15)
    for length in (0, 1, 2, 40, 300):
        c = _repetitive_circuit(rng, 5, length)
        text = emit_qasm(c)
        back = parse_qasm(text)
        assert back == c and emit_qasm(back) == text


@pytest.mark.parametrize("bad, why", [
    ("cx q[0],q[5];", "outside register"),
    ("cx q[1],q[1];", "distinct"),
    ("swap q[0],q[1];", "unsupported gate"),
    ("ry(pi/3) q[0];", "unsupported angle"),
    ('// rphase: {"gate": "tof", "controls": [0, 1], "target": 2, "neg": [], "gates": -1}',
     '"gates" is -1'),
])
def test_repeated_bad_statement_is_reported_at_its_first_line(bad, why):
    """A statement text is checked on its first line; later copies of it are
    never reached, and copies of a good statement before it change nothing."""
    text = ("OPENQASM 2.0;\nqreg q[3];\nh q[0];\nh q[0];\n"
            + bad + "\nh q[0];\n" + bad + "\n" + bad + "\n")
    with pytest.raises(QasmError) as err:
        parse_qasm(text)
    assert err.value.line == 5 and why in str(err.value)


def test_repeated_statement_in_a_tampered_expansion_is_still_checked():
    """A statement seen before inside a good expansion is reused, and the
    directive check still runs on every expansion."""
    good = "// rphase: " + _RTOF3L_DIRECTIVE + "\n" + _RTOF3L_BODY
    tampered = good.replace("\nt q[2];\n", "\ntdg q[2];\n", 1)
    head = "OPENQASM 2.0;\nqreg q[3];\n"
    assert len(parse_qasm(head + good * 3).gates) == 3
    with pytest.raises(QasmError) as err:
        parse_qasm(head + good * 2 + tampered + good)
    assert err.value.line == 3 + 2 * 10 and "expansion does not match" in str(err.value)


def test_round_trip_is_identity_on_emitted_text():
    c = tofn_clean(4)
    text = emit_qasm(c)
    assert emit_qasm(parse_qasm(text)) == text


@st.composite
def qasm_circuits(draw):
    """Circuits of 1-7 qubits with every one-qubit ``KINDS`` kind, ry of
    -8..8 units, the two-qubit ``KINDS`` kinds with or without a negative
    control, tofs of 0-4 controls with negative controls, every marker
    kind either way round, and random roles."""
    width = draw(st.integers(1, 7))
    qubit = st.integers(0, width - 1)

    def wires(k):
        return draw(st.lists(qubit, min_size=k, max_size=k, unique=True))

    plain = sorted(k for k, row in KINDS.items() if row.controls == 0 and k != "ry")
    two = sorted(k for k, row in KINDS.items() if row.controls == 1)
    markers = sorted(k for k, b in MARKER_BLOCKS.items() if b.arity <= width)
    shapes = ["plain", "ry", "tof"] + ["two"] * (width > 1) + ["marker"] * bool(markers)
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(shapes))
        if shape == "plain":
            gates.append(Gate(draw(st.sampled_from(plain)), (), draw(qubit)))
        elif shape == "ry":
            gates.append(ry(draw(qubit), draw(st.integers(-8, 8))))
        elif shape == "two":
            c, target = wires(2)
            neg = frozenset({c}) if draw(st.booleans()) else frozenset()
            gates.append(Gate(draw(st.sampled_from(two)), (c,), target, neg))
        elif shape == "tof":
            *controls, target = wires(draw(st.integers(1, min(5, width))))
            neg = draw(st.sets(st.sampled_from(controls))) if controls else ()
            gates.append(tof(controls, target, neg))
        else:
            kind = draw(st.sampled_from(markers))
            *controls, target = wires(MARKER_BLOCKS[kind].arity)
            gates.append(marker(kind, controls, target, dagger=draw(st.booleans())))
    roles = draw(st.lists(st.sampled_from(ROLES), min_size=width, max_size=width))
    return Circuit(width, gates, roles)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(qasm_circuits())
def test_parse_inverts_emit_on_random_circuits(c):
    assert parse_qasm(emit_qasm(c)) == c


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(qasm_circuits())
def test_a_circuit_is_lowered_iff_lower_leaves_it_as_it_is(c):
    """is_lowered holds exactly when lower has nothing to rewrite, and a
    lowered circuit emits no gate directive."""
    try:
        low = lower(c)
    except InputError as exc:
        assert str(exc).startswith("ancilla budget exceeded: ")
        assert not c.is_lowered()
        return
    assert c.is_lowered() == (low == c)
    assert low.is_lowered()
    if c.is_lowered():
        assert '"gates"' not in emit_qasm(c)
