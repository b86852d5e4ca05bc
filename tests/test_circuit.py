"""Circuit IR: gate validation, inversion, resource counting."""

import cmath
import json
import pickle
import random
from dataclasses import fields, replace

import pytest

import oracle
from rphase.catalog import (
    _tofn_markers,
    ladder_tofn,
    rtof3_long,
    rtof4_long,
    tofn,
    toffoli3,
)
from rphase.circuit import (
    Circuit,
    Gate,
    KINDS,
    MARKER_BLOCKS,
    ROLE_CLEAN,
    ROLE_DIRTY,
    InputError,
    _gate_counts,
    cx,
    cz,
    expand,
    h,
    marker,
    ry,
    t,
    tdg,
    tof,
    x,
)
from rphase.lowering import lower
from rphase.qasm import emit_qasm, parse_qasm
from rphase import simulate
from rphase.simulate import unitary_columns


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
    with pytest.raises(ValueError, match="^param is only meaningful for ry$"):
        Gate("h", (), 0, param=1)


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
        expanded = Circuit(n_ctl + 1, expand(g)).count_resources()
        assert direct.counts() == expanded.counts(), kind


def test_count_wide_tof_requires_lowering():
    c = Circuit(5, [tof((0, 1, 2, 3), 4)])
    with pytest.raises(InputError, match=r"^resource count of tof\(0,1,2,3;4\) depends on the "
                       r"lowering; lower first$"):
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
    gate, T-depth over each gate's sorted qubits, and None for it when a
    marker or a tof of two or more controls hides its T gates."""
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
    if any(g.is_marker or (g.kind == "tof" and len(g.controls) >= 2) for g in circuit.gates):
        return tuple(totals), None
    return tuple(totals), max(frontier, default=0)


def _random_countable(rng, width, length, wide=False):
    """Every ``KINDS`` kind (ry of -8..8 units, the two-qubit kinds with or
    without a negative control), tofs of 0-2 controls with negative
    controls, every marker either way round, and (when ``wide``) tofs of
    3-4 controls."""
    def qubits(k):
        return rng.sample(range(width), k)
    plain = sorted(k for k, row in KINDS.items() if row.controls == 0 and k != "ry")
    two = sorted(k for k, row in KINDS.items() if row.controls == 1)
    gates = []
    for _ in range(length):
        shape = rng.randrange(6 if wide else 5)
        if shape == 0:
            gates.append(Gate(rng.choice(plain), (), rng.randrange(width)))
        elif shape == 1:
            gates.append(ry(rng.randrange(width), rng.randint(-8, 8)))
        elif shape == 2:
            c, target = qubits(2)
            gates.append(Gate(rng.choice(two), (c,), target,
                              frozenset({c}) if rng.random() < 0.5 else frozenset()))
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


def _with_repeats(rng, circuit):
    """``circuit`` with about a third of its positions holding an earlier
    gate object again."""
    gates = list(circuit.gates)
    for i in range(1, len(gates)):
        if rng.random() < 0.3:
            gates[i] = gates[rng.randrange(i)]
    return Circuit(circuit.width, gates, circuit.roles)


def _rebuilt(circuit):
    """``circuit`` with every gate a fresh ``Gate``: no object is shared."""
    return Circuit(circuit.width, [Gate(g.kind, g.controls, g.target, g.neg, g.param, g.dagger)
                                   for g in circuit.gates], circuit.roles)


def _assert_counts_as_the_reference(c):
    try:
        want = _count_reference(c)
    except InputError as exc:
        with pytest.raises(InputError, match="depends on the lowering; lower first$") as err:
            c.count_resources()
        assert str(err.value) == str(exc)
        return False
    r = c.count_resources()
    assert ((r.t, r.cnot, r.h, r.pz, r.other), r.t_depth) == want, c
    return True


def test_count_resources_equals_the_per_gate_reference():
    """Counting and emitting key on gate objects within a call; repeated
    objects, shared block gates and fresh rebuilds give the same report
    and the same QASM."""
    rng = random.Random(15)
    circuits = []
    for length in [0, 1, 2, 5] + [rng.randint(10, 400) for _ in range(40)]:
        c = _random_countable(rng, rng.randint(5, 8), length, wide=length % 3 == 0)
        repeated = _with_repeats(rng, c)
        circuits += [c, repeated]
        assert length < 10 or len(set(map(id, repeated.gates))) < length
    for n in range(4, 13):
        for ancilla in ("clean", "dirty"):
            circuits += [tofn(n, ancilla)[0], _tofn_markers(n, ancilla)[0]]
    circuits += [lower(ladder_tofn(8)), parse_qasm(emit_qasm(lower(tofn(7, "dirty")[0]))),
                 Circuit(3, [tof((0, 1), 2, neg=(0,)), tof((2,), 0, neg=(2,)), tof((), 1)] * 2)]
    for c in circuits:
        _assert_counts_as_the_reference(c)
        _assert_counts_as_the_reference(_rebuilt(c))
        assert emit_qasm(c) == emit_qasm(_rebuilt(c)), c


def test_t_depth_of_a_tof_of_at_most_one_control():
    """A tof of 0 or 1 controls expands to x or cnot (plus X wraps) and
    hides no T gate, so its circuit has a T-depth, that of the same circuit
    written with x or cx."""
    assert Circuit(2, [tof((0,), 1), t(1)]).count_resources().t_depth == 1
    for tofs, plain in (([tof((0,), 1)], [cx(0, 1)]), ([tof((), 1)], [x(1)]),
                        ([tof((0,), 1, neg=(0,))], [x(0), cx(0, 1), x(0)])):
        for before in ([], [t(0)], [t(0), t(1)], [t(1), t(1), tdg(0)]):
            a = Circuit(2, before + tofs + [t(1)]).count_resources()
            b = Circuit(2, before + plain + [t(1)]).count_resources()
            assert a == b and a.t_depth >= 1
    assert Circuit(3, [tof((0, 1), 2), t(2)]).count_resources().t_depth is None
    assert Circuit(3, [marker("rtof3l", (0, 1), 2), t(2)]).count_resources().t_depth is None


def test_a_counted_t_gate_has_a_t_depth_or_none():
    """T-depth is never 0 next to a T count: an unlowered ccx, whose 7 T
    gates the layering cannot see, reports None; lowered, a depth."""
    ccx = Circuit(3, [tof((0, 1), 2)]).count_resources()
    assert (ccx.t, ccx.t_depth) == (7, None)
    assert json.loads(ccx.as_json())["t_depth"] is None
    assert lower(Circuit(3, [tof((0, 1), 2)])).count_resources().t_depth >= 1
    rng = random.Random(23)
    for length in [1, 2, 5] + [rng.randint(10, 200) for _ in range(40)]:
        c = _random_countable(rng, rng.randint(4, 8), length)
        for r in (c.count_resources(), lower(c).count_resources()):
            assert r.t == 0 or r.t_depth is None or r.t_depth >= 1, c


def test_count_resources_names_the_first_wide_tof():
    rng = random.Random(16)
    raised = 0
    for _ in range(40):
        c = _random_countable(rng, 7, rng.randint(1, 60), wide=True)
        for cc in (c, _with_repeats(rng, c)):
            raised += not _assert_counts_as_the_reference(cc)
    assert raised >= 40


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


# -- the KINDS table, against facts that do not read it ----------------------

# qelib1.inc statement names
QELIB_NAMES = {"x": "x", "y": "y", "z": "z", "p": "s", "pdg": "sdg", "t": "t",
               "tdg": "tdg", "h": "h", "ry": "ry", "cnot": "cx", "cz": "cz"}
# textbook diagonals over the gate's qubits, control first
_W = cmath.exp(1j * cmath.pi / 4)
TEXTBOOK_DIAGONALS = {
    "z": (1, -1), "p": (1, 1j), "pdg": (1, -1j), "t": (1, _W), "tdg": (1, _W.conjugate()),
    "cz": (1, 1, 1, -1),
}


def _gate_of(kind):
    """A gate of ``kind`` on qubits 0, 1: control 0 if it takes one."""
    if KINDS[kind].controls:
        return Gate(kind, (0,), 1)
    return Gate(kind, (), 0, param=3 if kind == "ry" else 0)


def test_kinds_are_the_eleven_elementary_gates():
    assert set(KINDS) == set(QELIB_NAMES)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_gate_then_its_inverse_is_the_identity(kind):
    g = _gate_of(kind)
    width = len(g.support)
    u = unitary_columns(Circuit(width, [g, g.inverse()]))
    assert u == unitary_columns(Circuit(width))
    if KINDS[kind].controls:
        negated = Gate(kind, (0,), 1, frozenset({0}))
        assert unitary_columns(Circuit(2, [negated, negated.inverse()])) == u
    else:
        with pytest.raises(ValueError, match=f"^{kind} takes no controls$"):
            Gate(kind, (1,), 0)
    if KINDS[kind].controls == 1:
        with pytest.raises(ValueError, match=f"^{kind} takes exactly one control$"):
            Gate(kind, (), 0)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_kinds_qasm_name_round_trips(kind):
    g = _gate_of(kind)
    c = Circuit(len(g.support), [g])
    text = emit_qasm(c)
    assert KINDS[kind].qasm == QELIB_NAMES[kind]
    assert text.splitlines()[-1].split(" ")[0].split("(")[0] == QELIB_NAMES[kind]
    assert parse_qasm(text) == c


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_kinds_omega_exponent_is_its_textbook_diagonal(kind):
    g = _gate_of(kind)
    width = len(g.support)
    c = Circuit(width, [g])
    starts = range(1 << width)
    assert oracle.agrees(c, starts, simulate._ring_columns(c, starts))
    u = unitary_columns(c)
    diagonal = u is not None and u.perm == tuple(range(1 << width))
    omega = KINDS[kind].omega
    assert diagonal == (kind in TEXTBOOK_DIAGONALS) == (omega is not None)
    if diagonal:
        want = TEXTBOOK_DIAGONALS[kind]
        assert all(abs(complex(a) - b) < 1e-9 for a, b in zip(u.phases, want))
        assert abs(_W ** omega - want[-1]) < 1e-9
