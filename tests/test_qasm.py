"""OpenQASM subset: emission, parsing, round trips, error reporting."""

import pytest

from rphase.catalog import (
    catalog_entries,
    margolus_ry,
    tof4_dirty,
    toffoli3,
    tofn_clean,
)
from rphase.circuit import Circuit, cx, h, marker, ry, t, tof
from rphase.qasm import QasmError, UnsupportedGate, emit_qasm, parse_qasm


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
    for name, entry in catalog_entries().items():
        assert parse_qasm(emit_qasm(entry.circuit)) == entry.circuit, name


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


def test_wide_tof_round_trips_without_expansion():
    c = Circuit(5, [tof((0, 1, 2, 3), 4)])
    text = emit_qasm(c)
    assert '"gates": 0' in text
    assert parse_qasm(text) == c


def test_strict_mode_rejects_directives():
    text = emit_qasm(Circuit(3, [marker("rtof3l", (0, 1), 2)]))
    with pytest.raises(QasmError):
        parse_qasm(text, strict=True)
    plain = emit_qasm(toffoli3())
    assert parse_qasm(plain, strict=True) == toffoli3()


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
    with pytest.raises(UnsupportedGate):
        parse_qasm(text)


def test_gate_before_qreg():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0;\nh q[0];\n")


def test_bad_angle():
    with pytest.raises(QasmError):
        parse_qasm('OPENQASM 2.0;\nqreg q[1];\nry(pi/3) q[0];\n')


def test_truncated_expansion():
    text = ('OPENQASM 2.0;\nqreg q[3];\n'
            '// rphase: {"marker": "rtof3l", "controls": [0, 1], "target": 2, '
            '"dagger": false, "gates": 9}\nh q[2];\n')
    with pytest.raises(QasmError):
        parse_qasm(text)


def test_round_trip_is_identity_on_emitted_text():
    c = tofn_clean(4)
    text = emit_qasm(c)
    assert emit_qasm(parse_qasm(text)) == text
