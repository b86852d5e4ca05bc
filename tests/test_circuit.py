"""Circuit IR: gate validation, inversion, resource counting."""

import random

import pytest

from rphase.catalog import (
    marker_definition,
    rtof3_long,
    rtof4_long,
    toffoli3,
)
from rphase.circuit import (
    Circuit,
    Gate,
    MARKER_BLOCKS,
    ROLE_CLEAN,
    ROLE_DIRTY,
    cx,
    cz,
    h,
    marker,
    ry,
    t,
    tdg,
    tof,
    x,
)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("cnot", (0,), 0)  # control == target
    with pytest.raises(ValueError):
        Gate("tof", (0, 1), 1)
    with pytest.raises(ValueError):
        Gate("cnot", (0,), 1, neg=frozenset({2}))
    with pytest.raises(ValueError):
        Gate("rtof3l", (0,), 1)  # wrong marker arity
    with pytest.raises(ValueError):
        Gate("frobnicate", (), 0)
    with pytest.raises(ValueError):
        Gate("h", (), 0, dagger=True)


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, [cx(0, 2)])
    with pytest.raises(ValueError):
        Circuit(2, [], roles=("primary",))
    with pytest.raises(ValueError):
        Circuit(1, [], roles=("helper",))


def test_inverse_self_inverse_gate():
    c = Circuit(1, [h(0)])
    assert c.inverse() == c


def test_inverse_reverses_and_daggers():
    c = Circuit(2, [t(0), cx(0, 1)])
    assert c.inverse().gates == (cx(0, 1), tdg(0))


def test_inverse_ry():
    assert ry(0, 1).inverse() == ry(0, -1)


def test_rtof3_long_is_self_inverse_gate_for_gate():
    c = rtof3_long()
    assert c.inverse().gates == c.gates


def test_inverse_involution_random():
    rng = random.Random(13)
    pool = [h(0), t(1), tdg(2), cx(0, 2), cz(1, 2), x(1), tof((0, 1), 2),
            marker("rtof3l", (0, 1), 2), marker("srts3", (1, 2), 0, dagger=True),
            ry(0, 3)]
    for _ in range(25):
        gates = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        c = Circuit(3, gates)
        assert c.inverse().inverse() == c
        r, ri = c.count_resources(), c.inverse().count_resources()
        assert (r.t, r.cnot, r.h, r.pz, r.other) == (ri.t, ri.cnot, ri.h, ri.pz, ri.other)


def test_count_toffoli3():
    r = toffoli3().count_resources()
    assert (r.t, r.cnot, r.h, r.pz) == (7, 6, 2, 0)


def test_count_empty():
    r = Circuit(3).count_resources()
    assert (r.t, r.cnot, r.h, r.pz, r.other, r.t_depth) == (0, 0, 0, 0, 0, 0)
    assert r.ancilla_count == 0 and r.ancilla_type == "none"


def test_count_rtof4():
    r = rtof4_long().count_resources()
    assert (r.t, r.cnot, r.h) == (8, 6, 4)


def test_marker_counts_match_their_definitions():
    for kind in sorted(MARKER_BLOCKS):
        n_ctl = 2 if kind not in ("rtof4l", "rt4s") else 3
        g = marker(kind, tuple(range(n_ctl)), n_ctl)
        direct = Circuit(n_ctl + 1, [g]).count_resources()
        expanded = Circuit(n_ctl + 1, marker_definition(g)).count_resources()
        assert direct.counts() == expanded.counts(), kind


def test_count_wide_tof_requires_lowering():
    c = Circuit(5, [tof((0, 1, 2, 3), 4)])
    with pytest.raises(ValueError):
        c.count_resources()


def test_negative_controls_cost_two_x():
    plain = Circuit(3, [tof((0, 1), 2)]).count_resources()
    negated = Circuit(3, [tof((0, 1), 2, neg=(1,))]).count_resources()
    assert negated.t == plain.t and negated.cnot == plain.cnot
    assert negated.other == plain.other + 2


def test_ancilla_reporting():
    c = Circuit(3, [], roles=("primary", ROLE_CLEAN, "primary"))
    assert c.count_resources().ancilla_type == "clean"
    d = Circuit(3, [], roles=("primary", ROLE_CLEAN, ROLE_DIRTY))
    r = d.count_resources()
    assert r.ancilla_count == 2 and r.ancilla_type == "dirty"


def test_t_depth_layering():
    # parallel T gates share a layer; serial ones do not
    assert Circuit(2, [t(0), t(1)]).count_resources().t_depth == 1
    assert Circuit(1, [t(0), t(0)]).count_resources().t_depth == 2
    # an intervening gate on the qubit splits the layer
    assert Circuit(2, [t(0), cx(0, 1), t(1)]).count_resources().t_depth == 2


def test_resource_report_json_schema():
    d = toffoli3().count_resources().as_dict()
    assert set(d) == {"t", "cnot", "h", "pz", "other", "t_depth", "ancilla"}
    assert set(d["ancilla"]) == {"count", "type"}
