"""Lowering policies: marker expansion, tof chains, ancilla budgets."""

import hashlib

import pytest

from rphase.catalog import cnu_parallel, ladder_tofn, rtof3_long, toffoli3, two_block_tofn
from rphase.circuit import (
    Circuit,
    ROLE_CLEAN,
    ROLE_PRIMARY,
    ROLE_DIRTY,
    TargetSpec,
    cx,
    marker,
    p,
    pdg,
    tof,
    y,
    z,
)
from rphase.lowering import (
    AncillaBudgetExceeded,
    LoweringError,
    LoweringPolicy,
    lower,
)
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
    rep = check_implements(low, TargetSpec("tof", (0, 1, 2, 3), 4))
    assert rep.exact and rep.ancilla_ok


def test_lower_wide_tof_with_dirty_ancilla():
    c = Circuit(6, [tof((0, 1, 2, 3), 4)],
                roles=("primary",) * 5 + (ROLE_DIRTY,))
    low = lower(c)
    rep = check_implements(low, TargetSpec("tof", (0, 1, 2, 3), 4))
    assert rep.exact and rep.ancilla_ok
    # dirty pattern costs more CNOTs than the clean one
    assert low.count_resources().cnot == 20


def test_lower_three_control_tof_with_dirty_ancilla():
    c = Circuit(5, [tof((0, 1, 2), 3)],
                roles=("primary",) * 4 + (ROLE_DIRTY,))
    low = lower(c)
    rep = check_implements(low, TargetSpec("tof", (0, 1, 2), 3))
    assert rep.exact and rep.ancilla_ok
    assert low.count_resources().counts() == (16, 14, 6, 0)


def test_ancilla_budget_exceeded():
    c = Circuit(5, [tof((0, 1, 2, 3), 4)])
    with pytest.raises(AncillaBudgetExceeded):
        lower(c)
    # two_block with a 4-qubit fold block needs one helper to lower
    tb = two_block_tofn(5, 3)
    with pytest.raises(AncillaBudgetExceeded):
        lower(tb)


def test_policy_marker_impl_override():
    c = Circuit(3, [marker("rtof3l", (0, 1), 2)])
    same = lower(c, LoweringPolicy(marker_impls={"rtof3l": "rtof3_long"}))
    assert same.gates == lower(c).gates
    with pytest.raises(LoweringError):
        lower(c, LoweringPolicy(marker_impls={"rtof3l": "rtof4_long"}))


def test_policy_unknown_impl_name():
    c = Circuit(3, [marker("rtof3l", (0, 1), 2)])
    from rphase.catalog import ConstructionError

    with pytest.raises(ConstructionError, match="no construction for gate"):
        lower(c, LoweringPolicy(marker_impls={"rtof3l": "nope"}))


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
