"""Lowering: marker expansion, tof chains, ancilla budgets."""

import hashlib
from itertools import combinations

import pytest

from rphase.catalog import cnu_parallel, ladder_tofn, rtof3_long, toffoli3, two_block_tofn
from rphase.circuit import (
    Circuit,
    Gate,
    InputError,
    MARKER_BLOCKS,
    ROLE_CLEAN,
    ROLE_PRIMARY,
    ROLE_DIRTY,
    TargetSpec,
    cx,
    marker,
    p,
    pdg,
    tof,
    x,
    y,
    z,
)
from rphase.lowering import lower
from rphase.qasm import emit_qasm, parse_qasm
from rphase.verify import check_implements


def test_lower_empty():
    assert lower(Circuit(3)) == Circuit(3)


def test_lower_marker_to_nine_gates():
    c = Circuit(3, [marker("rtof3l", (0, 1), 2)])
    low = lower(c)
    assert low.gates == rtof3_long().gates
    assert len(low.gates) == 9


def test_lower_dagger_marker():
    c = Circuit(3, [marker("srts3", (0, 1), 2, dagger=True)])
    low = lower(c)
    assert low.gates == Circuit(3, toffoli3().gates[:9]).inverse().gates


def test_lower_tof_small_arities():
    low0 = lower(Circuit(1, [tof((), 0)]))
    assert [g.kind for g in low0.gates] == ["x"]
    low1 = lower(Circuit(2, [tof((0,), 1)]))
    assert low1.gates == (cx(0, 1),)
    low2 = lower(Circuit(3, [tof((0, 1), 2)]))
    assert low2.gates == toffoli3().gates


def test_lower_negative_controls_wrap_x():
    low = lower(Circuit(2, [tof((0,), 1, neg=(0,))]))
    kinds = [g.kind for g in low.gates]
    assert kinds == ["x", "cnot", "x"]
    r = low.count_resources()
    assert r.other == 2 and r.cnot == 1


def test_lower_wide_tof_with_clean_ancillae():
    c = Circuit(7, [tof((0, 1, 2, 3), 4)],
                roles=("primary",) * 5 + (ROLE_CLEAN, ROLE_CLEAN))
    low = lower(c)
    assert low.is_lowered()
    rep = check_implements(low, TargetSpec((0, 1, 2, 3), 4))
    assert rep.exact and rep.ancilla_ok


def test_lower_wide_tof_with_dirty_ancilla():
    c = Circuit(6, [tof((0, 1, 2, 3), 4)],
                roles=("primary",) * 5 + (ROLE_DIRTY,))
    low = lower(c)
    rep = check_implements(low, TargetSpec((0, 1, 2, 3), 4))
    assert rep.exact and rep.ancilla_ok
    # dirty pattern costs more CNOTs than the clean one
    assert low.count_resources().cnot == 20


def test_lower_three_control_tof_with_dirty_ancilla():
    c = Circuit(5, [tof((0, 1, 2), 3)],
                roles=("primary",) * 4 + (ROLE_DIRTY,))
    low = lower(c)
    rep = check_implements(low, TargetSpec((0, 1, 2), 3))
    assert rep.exact and rep.ancilla_ok
    assert low.count_resources().counts() == (16, 14, 6, 0)


def test_ancilla_budget_exceeded():
    c = Circuit(5, [tof((0, 1, 2, 3), 4)])
    with pytest.raises(InputError, match="^ancilla budget exceeded: lowering .* needs 1 dirty "
                       "ancillae, circuit offers 0$"):
        lower(c)
    # two_block with a 4-qubit fold block needs one helper to lower
    tb = two_block_tofn(5, 3)
    with pytest.raises(InputError, match="^ancilla budget exceeded: lowering .* needs 1 dirty "
                       "ancillae, circuit offers 0$"):
        lower(tb)


def test_a_clean_helper_goes_only_on_a_clean_ancilla_no_gate_acts_on():
    """A clean-helper chain must start on |0>. Here the file's own cx pair
    writes the one clean ancilla around the wide tof, so that ancilla is no
    helper and the tof, with no dirty ancilla either, is refused. A second
    clean ancilla that no gate touches takes the helper, and the lowering
    is exact."""
    roles = (ROLE_PRIMARY,) * 5 + (ROLE_CLEAN, ROLE_PRIMARY)
    busy = Circuit(7, [cx(0, 5), tof((1, 2, 3, 4), 6), cx(0, 5)], roles)
    spec = TargetSpec((1, 2, 3, 4), 6)
    assert check_implements(busy, spec).exact
    with pytest.raises(InputError, match=r"^ancilla budget exceeded: lowering tof\(1,2,3,4;6\) "
                       "needs 1 dirty ancillae, circuit offers 0$"):
        lower(busy)
    spare = Circuit(8, busy.gates, roles + (ROLE_CLEAN,))
    low = lower(spare)
    helpers = {q for g in low.gates[1:-1] for q in g.support} - {1, 2, 3, 4, 6}
    assert helpers == {7}
    rep = check_implements(low, spec)
    assert rep.exact and rep.ancilla_ok


def test_lower_preserves_pz_and_other_kinds():
    c = Circuit(2, [p(0), pdg(1), z(0), y(1)])
    assert lower(c).gates == c.gates


def _digest(circuit):
    items = [circuit.width, circuit.roles]
    items += [(g.kind, g.controls, g.target, sorted(g.neg), g.param, g.dagger)
              for g in circuit.gates]
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def test_lower_output_is_pinned():
    """Gate count and digest of the lowered circuits, recorded before the
    clean/dirty choice moved into catalog.tofn; lowering must not drift."""
    cases = [
        (ladder_tofn(12), 324, "e81f757de1650a1d"),
        (cnu_parallel(8), 127, "d7b87533f3660e56"),
        (Circuit(7, [tof((0, 1, 2, 3), 4)], (ROLE_PRIMARY,) * 5 + (ROLE_CLEAN,) * 2),
         51, "b38cc22e484205d3"),
        (Circuit(6, [tof((0, 1, 2, 3), 4)], (ROLE_PRIMARY,) * 5 + (ROLE_DIRTY,)),
         54, "05f60a0f56b32b6d"),
    ]
    for circuit, length, digest in cases:
        low = lower(circuit)
        assert (len(low.gates), _digest(low)) == (length, digest)


# -- the expansion rule -----------------------------------------------------

def _expandable_gates():
    """Every tof of 0-2 controls with every subset of negative controls,
    every two-qubit kind with and without a negative control, and every
    marker either way round."""
    gates = []
    for n in range(3):
        controls = tuple(range(n))
        for r in range(n + 1):
            for neg in combinations(controls, r):
                gates.append(tof(controls, n, neg))
    for kind in ("cnot", "cz"):
        gates += [Gate(kind, (0,), 1), Gate(kind, (0,), 1, frozenset({0}))]
    for kind, block in sorted(MARKER_BLOCKS.items()):
        *controls, target = range(block.arity)
        gates += [marker(kind, controls, target), marker(kind, controls, target, dagger=True)]
    return gates


@pytest.mark.parametrize("g", _expandable_gates(), ids=str)
def test_a_gate_counts_and_lowers_as_its_qasm_expansion(g):
    """count_resources of the gate equals that of its lowering, and the
    statements its QASM directive carries (what a reader that skips the
    directive sees) lower to the same gates as the gate."""
    c = Circuit(len(g.support), [g])
    low = lower(c)
    assert low.is_lowered()
    r, lr = c.count_resources(), low.count_resources()
    assert (r.t, r.cnot, r.h, r.pz, r.other) == (lr.t, lr.cnot, lr.h, lr.pz, lr.other)
    text = emit_qasm(c)
    plain = "\n".join(line for line in text.splitlines() if not line.startswith("//"))
    assert lower(parse_qasm(plain)) == low
    assert parse_qasm(text) == c


@pytest.mark.parametrize("kind", ["cnot", "cz"])
def test_a_negatively_controlled_two_qubit_gate_is_not_lowered(kind):
    """A circuit is lowered when every gate is a KINDS kind with no
    negative controls: lower rewrites a negative control as an X pair, and
    emit_qasm writes it as a directive."""
    c = Circuit(2, [Gate(kind, (0,), 1, frozenset({0}))])
    assert not c.is_lowered()
    low = lower(c)
    assert low.is_lowered() and low.gates == (x(0), Gate(kind, (0,), 1), x(0))
    assert "// rphase" in emit_qasm(c) and "// rphase" not in emit_qasm(low)
