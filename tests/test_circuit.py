"""Circuit IR: gate validation, inversion, resource counting."""

import pickle
import random
from dataclasses import fields, replace

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
    UncountableGate,
    _gate_counts,
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


def _count_reference(circuit):
    """The per-gate loop count_resources replaced: counts summed gate by
    gate, T-depth over each gate's sorted qubits."""
    totals = [0] * 5
    frontier = [0] * circuit.width
    for g in circuit.gates:
        for i, v in enumerate(_gate_counts(g)):
            totals[i] += v
        qubits = sorted(frozenset(g.controls) | {g.target})
        depth = max(frontier[q] for q in qubits)
        if g.kind in ("t", "tdg"):
            depth += 1
        for q in qubits:
            frontier[q] = depth
    return tuple(totals), max(frontier, default=0)


def _random_countable(rng, width, length, wide=False):
    """Every plain kind, ry, cx/cz and tofs of 0-2 controls with negative
    controls, every marker either way round, and (when ``wide``) tofs of
    3-4 controls."""
    def qubits(k):
        return rng.sample(range(width), k)
    gates = []
    for _ in range(length):
        shape = rng.randrange(6 if wide else 5)
        if shape == 0:
            gates.append(Gate(rng.choice(("x", "y", "z", "p", "pdg", "t", "tdg", "h")), (),
                              rng.randrange(width)))
        elif shape == 1:
            gates.append(ry(rng.randrange(width), rng.randint(-8, 8)))
        elif shape == 2:
            gates.append(rng.choice((cx, cz))(*qubits(2)))
        elif shape == 3:
            *controls, target = qubits(rng.randint(1, 3))
            gates.append(tof(controls, target, rng.sample(controls, rng.randint(0, len(controls)))))
        elif shape == 4:
            kind = rng.choice(sorted(MARKER_BLOCKS))
            *controls, target = qubits(MARKER_BLOCKS[kind].arity)
            gates.append(marker(kind, controls, target, dagger=rng.random() < 0.5))
        else:
            *controls, target = qubits(rng.randint(4, 5))
            gates.append(tof(controls, target, rng.sample(controls, rng.randint(0, 2))))
    return Circuit(width, gates)


def test_count_resources_equals_the_per_gate_reference():
    rng = random.Random(15)
    for length in [0, 1, 2, 5] + [rng.randint(10, 400) for _ in range(40)]:
        c = _random_countable(rng, rng.randint(5, 8), length)
        r = c.count_resources()
        assert ((r.t, r.cnot, r.h, r.pz, r.other), r.t_depth) == _count_reference(c)


def test_count_resources_names_the_first_wide_tof():
    rng = random.Random(16)
    raised = 0
    for _ in range(40):
        c = _random_countable(rng, 7, rng.randint(1, 60), wide=True)
        try:
            want = _count_reference(c)
        except UncountableGate as exc:
            with pytest.raises(UncountableGate) as err:
                c.count_resources()
            assert str(err.value) == str(exc)
            raised += 1
        else:
            r = c.count_resources()
            assert ((r.t, r.cnot, r.h, r.pz, r.other), r.t_depth) == want
    assert raised >= 20


def test_stored_support_leaves_gate_identity_unchanged():
    """support is stored on each gate but is no field of ==, hash or repr,
    and dataclasses.replace recomputes it and validates again."""
    g = tof((3, 1), 2, neg=(1,))
    assert g.support == frozenset({1, 2, 3})
    assert repr(g) == ("Gate(kind='tof', controls=(3, 1), target=2, neg=frozenset({1}), "
                       "param=0, dagger=False)")
    assert hash(g) == hash(("tof", (3, 1), 2, frozenset({1}), 0, False))
    assert [f.name for f in fields(g) if f.compare] == [
        "kind", "controls", "target", "neg", "param", "dagger"]
    twin = Gate("tof", (3, 1), 2, frozenset({1}))
    assert twin == g and hash(twin) == hash(g) and twin is not g
    assert {g: 1}[twin] == 1
    assert g != tof((1, 3), 2, neg=(1,)) and g != tof((3, 1), 2)
    moved = replace(g, target=0)
    assert moved == tof((3, 1), 0, neg=(1,)) and moved.support == frozenset({0, 1, 3})
    with pytest.raises(ValueError):
        replace(g, target=3)
    m = marker("rt4s", (0, 1, 2), 3)
    assert replace(m, dagger=True) == m.inverse() and m.inverse().support == m.support
    assert pickle.loads(pickle.dumps(g)) == g and pickle.loads(pickle.dumps(g)).support == g.support
