"""Sparse simulator: gate semantics, exact norms, whole-circuit unitaries."""

import cmath
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rphase.catalog import rtof4_long, toffoli3, tofn
from rphase.circuit import (
    BLOCKS, Circuit, cx, cz, h, marker, p, pdg, ry, t, tdg, tof, x, y, z)
from rphase import simulate
from rphase.rewrite import cancel_adjacent_inverses
from rphase.ring import IMAG, INV_SQRT2, OMEGA, ONE, ZERO, RingElement
from rphase.simulate import (
    MarkerInSimulation,
    NotAPhasePermutation,
    PhasePermutation,
    WidthLimitExceeded,
    backends_agree,
    compile_circuit,
    equivalent,
    fuse_ops,
    run_column_float,
    run_column_ring,
    same_phase,
    unitary_columns,
)


def _ring_columns(c):
    """Every column of the circuit as {row: RingElement}, run directly."""
    return [{i: RingElement(*a, k) for i, a in amps.items()}
            for amps, k, _ in run_column_ring(compile_circuit(c), range(1 << c.width), c.width)]


def test_h_on_zero():
    column, _ = _ring_columns(Circuit(1, [h(0)]))
    assert column == {0: INV_SQRT2, 1: INV_SQRT2}


def test_t_on_one():
    u = unitary_columns(Circuit(1, [t(0)]))
    assert u.perm[1] == 1 and u.phases[1] == OMEGA


def test_y_is_i_times_x_z_in_both_backends():
    u = unitary_columns(Circuit(1, [y(0)]))
    assert u.perm == (1, 0) and u.phases == (IMAG, -IMAG) and not u.half
    assert backends_agree(Circuit(1, [y(0)]))


def _entry(columns, row, col):
    """Entry (row, col) of a list of {row: amplitude} columns."""
    return columns[col].get(row, 0)


@pytest.mark.parametrize("units", range(-8, 9))
def test_ry_is_its_closed_form_exactly_on_the_ring_for_even_units(units):
    """RY(u pi/4) = [[cos, -sin], [sin, cos]] of u pi/8: for even u the
    ring result equals the exact form, (w^m +- w^-m) / 2 with m = u/2. For
    odd u the ring columns leave out the w^(1/2) = e^(i pi/8) that is not
    in the ring: times it, they are the closed form."""
    c = Circuit(1, [ry(0, units)])
    half = units * math.pi / 8
    want = [[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]]
    ring = _ring_columns(c)
    factor = cmath.exp(1j * math.pi / 8) if units % 2 else 1
    assert all(abs(complex(_entry(ring, r, s)) * factor - want[r][s]) < 1e-12
               for r in (0, 1) for s in (0, 1))
    if units % 2 == 0:
        m = units // 2
        quarter = INV_SQRT2 * INV_SQRT2
        cos = (RingElement.omega_power(m) + RingElement.omega_power(-m)) * quarter
        sin = (RingElement.omega_power(m + 6) - RingElement.omega_power(6 - m)) * quarter
        assert [[_entry(ring, r, s) for s in (0, 1)] for r in (0, 1)] == [[cos, -sin], [sin, cos]]
    assert backends_agree(c)
    ops = compile_circuit(c)
    floats = [run_column_float(ops, s)[0] for s in (0, 1)]
    assert all(abs(_entry(floats, r, s) * factor - want[r][s]) < 1e-9
               for r in (0, 1) for s in (0, 1))


def test_every_gate_kind_compiles_to_cp_and_h_ops_only():
    """No gate keeps an op code of its own, and every exponent is an
    integer in 0..7, for an even or an odd ry-unit total, however large
    the units."""
    gates = [x(0), y(1), z(2), p(0), pdg(1), t(2), tdg(0), h(1), cx(0, 1), cz(1, 2),
             tof((0, 1), 2), tof((0, 2), 1, neg=(2,)), ry(2, 3), ry(0, -10**30 - 1)]
    for ops in (compile_circuit(Circuit(3, gates)), compile_circuit(Circuit(3, gates[:-1]))):
        assert {op[0] for op in ops} == {"cp", "h"}
        assert all(type(op[4]) is int and 0 <= op[4] < 8 for op in ops if op[0] == "cp")


def test_cnot_basis():
    u = unitary_columns(Circuit(2, [cx(0, 1)]))
    assert u.perm[0b10] == 0b11 and u.phases[0b10] == ONE


def test_marker_gate_rejected():
    marked = Circuit(3, [marker("rtof3l", (0, 1), 2)])
    for run in (unitary_columns, lambda c: equivalent(c, Circuit(3)),
                lambda c: equivalent(Circuit(3), c)):
        with pytest.raises(MarkerInSimulation):
            run(marked)


def test_exact_unit_norm():
    gates = [h(0), t(0), cx(0, 1), h(1), t(1), cx(1, 0), h(0)]
    for i in range(1, len(gates) + 1):
        (amps, k, _), = run_column_ring(compile_circuit(Circuit(2, gates[:i])), [0], 2)
        norm = ZERO
        for c in amps.values():
            a = RingElement(*c, k)
            norm = norm + a.conj() * a
        assert norm == ONE  # no tolerance


def test_unitary_columns_toffoli_permutation():
    u = unitary_columns(toffoli3())
    assert isinstance(u, PhasePermutation)
    assert u.perm == (0, 1, 2, 3, 4, 5, 7, 6)
    assert all(p == ONE for p in u.phases)


def test_unitary_columns_of_h_is_no_phase_permutation():
    assert unitary_columns(Circuit(1, [h(0)])) is None
    with pytest.raises(NotAPhasePermutation, match="column 0 "):
        simulate._collapsed(Circuit(1, [h(0)]), [0, 1])
    assert _ring_columns(Circuit(1, [h(0)]))[1] == {0: INV_SQRT2, 1: -INV_SQRT2}


def test_rtof4_matrix():
    u = unitary_columns(rtof4_long())
    rp = u.row_phases()
    assert u.perm[14] == 15 and u.perm[15] == 14
    assert list(rp) == [ONE] * 12 + [IMAG, -IMAG, ONE, -ONE]


def test_width_limit():
    with pytest.raises(WidthLimitExceeded):
        unitary_columns(Circuit(17, [x(0)]))


# e^(-i pi/8) I: RY(pi/4) = w^(-1/2) S H T H S^dagger, undone up to w^(-1/2)
_HALF_PHASE = (ry(0, 1), pdg(0), h(0), tdg(0), h(0), p(0))


def test_inverse_unitary_relation():
    """Columns of the inverse circuit are the inverse permutation with
    conjugated phases (truncated blocks are not phase permutations), also
    with the half bit of an odd ry-unit total: e^(-i pi/8) I after the
    block."""
    checked = 0
    for name, block in BLOCKS.items():
        if block.junk:
            continue
        c = block.circuit
        for circuit in (c, Circuit(c.width, c.gates + _HALF_PHASE)):
            u = unitary_columns(circuit)
            v = unitary_columns(circuit.inverse())
            assert v == u.inverse() and v.half == u.half == (circuit is not c), name
            assert u.inverse().inverse() == u, name
        checked += 1
    assert checked >= 4


def test_a_circuit_then_its_inverse_is_the_identity():
    """The inverse circuit's unitary is the conjugate transpose, for
    circuits that are not phase permutations: c then c^-1 is exactly I,
    and the columns of c^-1 are the conjugated rows of c."""
    circs = [
        Circuit(1, [h(0)]),
        Circuit(2, [h(0), t(0), cx(0, 1), h(1)]),
        Circuit(3, [h(2), t(1), cx(1, 2), h(0), cx(0, 1), t(2), h(2)]),
        Circuit(4, [h(3), t(3), cx(2, 3), cx(0, 1), t(1), h(1), cx(3, 0)]),
    ]
    for c in circs:
        assert equivalent(Circuit(c.width, c.gates + c.inverse().gates), Circuit(c.width))
        u, v = _ring_columns(c), _ring_columns(c.inverse())
        dim = 1 << c.width
        for col in range(dim):
            for row in range(dim):
                assert v[col].get(row, ZERO) == u[row].get(col, ZERO).conj()


def test_float_and_ring_backends_agree():
    for name, block in BLOCKS.items():
        assert backends_agree(block.circuit), name


@st.composite
def clifford_t_circuits(draw):
    """Circuits of 1-4 qubits and at most 20 Clifford+T and R_Y gates,
    some R_Y angles far past one turn."""
    width = draw(st.integers(1, 4))
    qubit = st.integers(0, width - 1)
    units = st.integers(-16, 16) | st.integers(-2**80, 2**80)
    gates = []
    for _ in range(draw(st.integers(0, 20))):
        if width > 1 and draw(st.booleans()):
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            gates.append(draw(st.sampled_from((cx, cz)))(a, b))
        else:
            kind = draw(st.sampled_from((h, t, tdg, p, pdg, x, y, z, ry)))
            gates.append(ry(draw(qubit), draw(units)) if kind is ry else kind(draw(qubit)))
    return Circuit(width, gates)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(clifford_t_circuits(), st.integers(0, 3))
def test_ring_and_float_unitaries_compare_equal(c, q):
    """Every circuit runs on the ring, an odd ry-unit total with its half
    bit set. The ring columns agree with the float oracle's whatever their
    shape, and ``equivalent`` tells the circuit from itself with one more
    t on any qubit, as a phase permutation's ``==`` does; the inverse
    circuit's unitary is the inverse phase permutation."""
    odd = sum(g.param for g in c.gates) % 2 == 1
    extended = Circuit(c.width, list(c.gates) + [t(q % c.width)])
    assert backends_agree(c)
    assert equivalent(c, c) and not equivalent(c, extended)
    got = unitary_columns(c)
    if got is not None:
        assert got.half == odd
        assert got == unitary_columns(Circuit(c.width, c.gates))
        assert got != unitary_columns(extended)
        assert unitary_columns(c.inverse()) == got.inverse()


# -- equivalent: two streams of ring columns --------------------------------

def _wide_non_permutation():
    """13 qubits, past any cap but the width guard: h opens qubits 0 and
    12, and inverse pairs sit between the gates for cancellation."""
    gates = []
    for q in range(0, 13, 2):
        a, b = q, (q + 5) % 13
        gates += [h(0), t(a), cx(a, b), tdg(b), t(b), cx(a, b), h(12), cz(a, b), cz(a, b)]
    return Circuit(13, gates)


def test_equivalent_compares_a_13_qubit_non_permutation_exactly():
    c = _wide_non_permutation()
    short = cancel_adjacent_inverses(c)
    assert len(short.gates) < len(c.gates)
    assert unitary_columns(short) is None
    assert equivalent(c, short)
    assert not equivalent(c, Circuit(13, short.gates + (t(12),)))


def _counting_ring_kernel(monkeypatch):
    """The column counts of every ring kernel call from here on."""
    kernel, batches = simulate.run_column_ring, []

    def counted(ops, starts, width):
        batches.append(len(starts))
        return kernel(ops, starts, width)

    monkeypatch.setattr(simulate, "run_column_ring", counted)
    return batches


def test_equivalent_stops_at_the_batch_that_differs(monkeypatch):
    """One circuit runs, U's gates then V's inverse's: an equal pair runs
    its 256 // BATCH_COLUMNS batches, and a pair whose column 0 differs (z
    after h on the last qubit) runs one."""
    c = Circuit(8, [h(7), t(7), cx(0, 7)])
    batches = _counting_ring_kernel(monkeypatch)
    assert equivalent(c, Circuit(8, c.gates))
    assert batches == [simulate.BATCH_COLUMNS] * (256 // simulate.BATCH_COLUMNS)
    batches.clear()
    assert not equivalent(c, Circuit(8, c.gates + (z(7),)))
    assert batches == [simulate.BATCH_COLUMNS]


def test_equivalent_is_false_for_different_widths(monkeypatch):
    batches = _counting_ring_kernel(monkeypatch)
    assert not equivalent(Circuit(2), Circuit(3))
    assert not equivalent(Circuit(1, [h(0)]), Circuit(2, [h(0)]))
    assert batches == []


def test_equivalent_takes_odd_ry_totals_and_refuses_past_the_width_limit():
    """An odd ry-unit total runs on the ring with its half bit. e^(-i pi/8) I
    and I have equal ring columns (w^7 times I's): only the bit tells them
    apart."""
    odd = Circuit(1, [ry(0, 1)])
    assert equivalent(odd, odd) and equivalent(odd, Circuit(1, [ry(0, 17)]))
    assert not equivalent(Circuit(1), odd) and not equivalent(odd, Circuit(1, [ry(0, -1)]))
    shifted = Circuit(1, _HALF_PHASE)
    u = unitary_columns(shifted)
    assert u.half and u.perm == (0, 1) and u.phases == (OMEGA ** 7,) * 2
    assert not equivalent(Circuit(1), shifted)
    with pytest.raises(WidthLimitExceeded):
        equivalent(Circuit(17, [x(0)]), Circuit(17))


def _random_gate(rng, width):
    """One of h, t, p, y, ry of odd or even units, and on two or more
    qubits cx, cz or a tof with some negative controls."""
    q = rng.randrange(width)
    kinds = ("h", "t", "p", "y", "ry") + (("cx", "cz", "tof") if width > 1 else ())
    kind = rng.choice(kinds)
    if kind == "ry":
        return ry(q, rng.choice((-3, -2, -1, 1, 2, 3, 6, 17)))
    if kind in ("cx", "cz"):
        a, b = rng.sample(range(width), 2)
        return (cx if kind == "cx" else cz)(a, b)
    if kind == "tof":
        *controls, target = rng.sample(range(width), rng.randint(2, min(width, 4)))
        return tof(controls, target, neg=[c for c in controls if rng.random() < 0.4])
    return {"h": h, "t": t, "p": p, "y": y}[kind](q)


def _dense(c):
    """The circuit's unitary from the float oracle's columns, times the
    e^(i pi/8) its half bit leaves out."""
    ops = compile_circuit(c)
    factor = cmath.exp(1j * math.pi / 8) if sum(g.param for g in c.gates) % 2 else 1
    return [{i: a * factor for i, a in run_column_float(ops, s)[0].items()}
            for s in range(1 << c.width)]


def _dense_equal(u, v, phase=1):
    """Whether ``phase`` times the dense unitary u is v within 1e-9."""
    return all(abs(phase * a.get(r, 0) - b.get(r, 0)) < 1e-9
               for a, b in zip(u, v) for r in a.keys() | b.keys())


def test_equivalent_matches_a_dense_float_comparison():
    """Seeded 1-5 qubit circuits, each against itself, a g g^-1 insertion
    after ``cancel_adjacent_inverses``, a one-gate mutant, itself times -I
    (z x z x) and times e^(-i pi/8) (whose ring columns are its own times
    w^7), and an ry(16) and an ry(1) tail: ``equivalent`` says what
    the float oracle's dense unitaries say within 1e-9. Some equal pairs
    are no phase permutation, and some unequal pairs differ only by a
    global phase."""
    rng = random.Random(20261020)
    pairs = equal_non_permutations = phase_only = 0
    for _ in range(120):
        width = rng.randint(1, 5)
        gates = [_random_gate(rng, width) for _ in range(rng.randint(0, 14))]
        c = Circuit(width, gates)
        q = rng.randrange(width)
        i = rng.randint(0, len(gates))
        g = _random_gate(rng, width)
        inserted = cancel_adjacent_inverses(
            Circuit(width, gates[:i] + [g, g.inverse()] + gates[i:]))
        mutant = list(gates)
        if mutant:
            mutant[rng.randrange(len(mutant))] = _random_gate(rng, width)
        else:
            mutant.append(g)
        u = _dense(c)
        r = max(u[0], key=lambda i: abs(u[0][i]))  # a row where column 0 is not 0
        for other in (c, inserted, Circuit(width, mutant),
                     Circuit(width, gates + [z(q), x(q), z(q), x(q)]),
                     Circuit(width, gates + list(_HALF_PHASE)),
                     Circuit(width, gates + [ry(q, 16)]), Circuit(width, gates + [ry(q, 1)])):
            v = _dense(other)
            same = equivalent(c, other)
            assert same == _dense_equal(u, v), (c, other)
            pairs += 1
            equal_non_permutations += same and unitary_columns(c) is None
            phase_only += not same and _dense_equal(u, v, v[0].get(r, 0) / u[0][r])
    assert pairs == 840 and equal_non_permutations and phase_only


def test_column_subset():
    entries, max_support = simulate._collapsed(toffoli3(), [6, 7])
    assert entries == [(7, 0), (6, 0)] and max_support == 2


def test_float_backend_collapse():
    """The float oracle's columns of TOF collapse to its permutation with
    phase 1, and the ring driver takes no other backend."""
    ops = compile_circuit(toffoli3())
    columns = [run_column_float(ops, s)[0] for s in range(8)]
    significant = [{i: a for i, a in col.items() if abs(a) > simulate.FLOAT_TOL}
                   for col in columns]
    assert [list(col) for col in significant] == [[0], [1], [2], [3], [4], [5], [7], [6]]
    assert all(abs(a - 1) < 1e-9 for col in significant for a in col.values())
    for backend in ("float", "bogus"):
        with pytest.raises(ValueError, match=repr(backend)):
            unitary_columns(toffoli3(), backend=backend)


def test_sparse_support_stays_small():
    for name, block in BLOCKS.items():
        c = block.circuit
        ops = compile_circuit(c)
        assert max(ms for *_, ms in run_column_ring(ops, range(1 << c.width), c.width)) <= 64, name


# -- the batched, fused kernel against one-column gate-level runs ----------

def _assert_fused_columns_equal(circuit, columns):
    """Every listed column, run in batches through the plain and the
    memoised fused op list, and through ``_ring_columns``, returns the
    (amplitudes, k, max_support) of its one-column run through the
    gate-level list, and the float kernel's column under ``same_phase``:
    that kernel shares no code with the ring one. Batches of 5 and of
    BATCH_COLUMNS columns mix columns of different support; one memoised
    list serves every batch of a size, so later batches hit states that
    earlier ones met."""
    ops = compile_circuit(circuit)
    width = circuit.width
    columns = list(columns)
    alone = [run_column_ring(ops, [s], width)[0] for s in columns]
    for size in (5, simulate.BATCH_COLUMNS):
        for fused in (fuse_ops(ops), fuse_ops(ops, memoised=True)):
            batched = [r for i in range(0, len(columns), size)
                       for r in run_column_ring(fused, columns[i:i + size], width)]
            assert batched == alone, size
    assert list(simulate._ring_columns(circuit, columns)) == alone
    for s, (amps, k, max_support) in zip(columns, alone):
        floats, _, float_support = run_column_float(ops, s)
        assert amps.keys() == floats.keys() and max_support == float_support, s
        assert all(same_phase(RingElement(*amps[i], k), floats[i]) for i in amps), s


def test_a_batch_keeps_each_columns_own_max_support():
    """H T (X Tdg X) H on qubit 2, controlled by qubit 0, then h(1): the
    second h(2) recombines the columns with qubit 0 at 0 into one term and
    leaves two terms in the others, and h(1) doubles every column."""
    c = Circuit(3, [h(2), t(2), cx(0, 2), tdg(2), cx(0, 2), h(2), h(1)])
    ops = compile_circuit(c)
    batched = run_column_ring(fuse_ops(ops), range(8), 3)
    assert [ms for *_, ms in batched] == [2, 2, 2, 2, 4, 4, 4, 4]
    assert [len(amps) for amps, *_ in batched] == [2, 2, 2, 2, 4, 4, 4, 4]
    assert batched == [run_column_ring(ops, [s], 3)[0] for s in range(8)]


def test_an_hp_op_leaves_each_columns_support_after_its_last_h():
    """h(0) h(0) is one hp op whose support goes 2 then 1; a wide tof ends
    it, and the lone h(1) after it doubles the 1: max_support is 2."""
    wide = tof((1, 2, 3, 4), 5)
    c = Circuit(6, [h(0), h(0), wide, h(1), wide])
    fused = fuse_ops(compile_circuit(c), memoised=True)
    assert [op[0] for op in fused] == ["hp", "cp", "h", "cp"]
    assert {ms for *_, ms in run_column_ring(fused, range(64), 6)} == {2}
    _assert_fused_columns_equal(c, range(64))


@st.composite
def fusable_circuits(draw):
    """Circuits of 1-8 qubits mixing every perm/phase kind, ry gates (whose
    mask-0 global cp op joins any run), negatively controlled tofs up to 5
    controls, and h gates. Past 6 qubits more than BATCH_COLUMNS columns
    run through one memoised list."""
    width = draw(st.integers(1, 8))
    qubit = st.integers(0, width - 1)
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        arity = draw(st.integers(1, min(width, 6)))
        if arity == 1:
            kind = draw(st.sampled_from((h, t, tdg, p, pdg, x, y, z, ry)))
            gates.append(ry(draw(qubit), draw(st.integers(-9, 9))) if kind is ry
                         else kind(draw(qubit)))
        elif arity == 2:
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            gates.append(draw(st.sampled_from((cx, cz)))(a, b))
        else:
            *controls, target = draw(st.lists(qubit, min_size=arity, max_size=arity, unique=True))
            neg = draw(st.sets(st.sampled_from(controls)))
            gates.append(tof(controls, target, neg))
    return Circuit(width, gates)


def _inner_hadamards(fused):
    """The h ops of a fused list, in order, each with the mask of the one
    fused op that holds it."""
    for op in fused:
        if op[0] == "h":
            yield op, op[1]
        elif op[0] == "hp":
            yield from ((inner, op[1]) for inner, _ in _inner_hadamards(op[2]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(fusable_circuits())
def test_fused_kernel_equals_the_gate_level_kernel(c):
    """Each h op of ``ops`` lies, in order, in exactly one op of each fused
    list, whose mask covers it; a pp or hp op touches at most FUSE_QUBITS
    qubits, and an hp op's own run is plain."""
    ops = compile_circuit(c)
    hadamards = [op for op in ops if op[0] == "h"]
    for fused in (fuse_ops(ops), fuse_ops(ops, memoised=True)):
        inner = list(_inner_hadamards(fused))
        assert [op for op, _ in inner] == hadamards
        assert all(op[1] & mask == op[1] for op, mask in inner)
        assert all(op[1].bit_count() <= simulate.FUSE_QUBITS
                   for op in fused if op[0] in ("pp", "hp"))
        assert not any(o[0] == "hp" for op in fused if op[0] == "hp" for o in op[2])
    _assert_fused_columns_equal(c, range(1 << c.width))


def test_fusion_folds_every_run_between_hadamards():
    """tofn(8, "dirty")'s 114 ops fold into 42 with h ops between the runs,
    and into 12 with h ops inside them."""
    ops = compile_circuit(tofn(8, "dirty")[0])
    assert (len(ops), len(fuse_ops(ops))) == (114, 42)
    assert (len(ops), len(fuse_ops(ops, memoised=True))) == (114, 12)
    # a run wider than the cap splits; an op wider than it stays alone
    wide = tof((0, 1, 2, 3), 4)
    ops = compile_circuit(Circuit(5, [t(0), cx(0, 1), x(4), cz(2, 3), wide, t(4)]))
    assert [op[0] for op in fuse_ops(ops)] == ["pp", "cp", "cp", "cp"]
    ops = compile_circuit(Circuit(5, [h(0), t(0), h(1), cx(0, 1), wide, h(4), t(4)]))
    assert [op[0] for op in fuse_ops(ops, memoised=True)] == ["hp", "cp", "hp"]


def _counting_local_runs(monkeypatch):
    """The class visits of every hp op and the local runs (memo misses)
    from here on."""
    counts = {"visits": 0, "runs": 0}
    step, local_run = simulate._hp_step, simulate._local_run

    def visited(amps, op, *args):
        counts["visits"] += len({i & ~op[1] for i in amps})
        return step(amps, op, *args)

    def ran(*args):
        counts["runs"] += 1
        return local_run(*args)

    monkeypatch.setattr(simulate, "_hp_step", visited)
    monkeypatch.setattr(simulate, "_local_run", ran)
    return counts


def test_memoised_batches_run_few_local_states(monkeypatch):
    """On tofn(8, "dirty")'s 2048 columns, fewer than one class visit in
    five runs the hp op's run. A memo never outlives its ``_ring_columns``
    call: once the call is done nothing but this test holds it, a second
    call runs every local state again, and a call of one batch builds no
    memo."""
    c, _ = tofn(8, "dirty")
    starts = range(1 << c.width)
    counts = _counting_local_runs(monkeypatch)
    memos, fuse = [], simulate.fuse_ops

    def recorded(ops, memoised=False):
        fused = fuse(ops, memoised)
        memos.extend(op[3] for op in fused if op[0] == "hp")
        return fused

    monkeypatch.setattr(simulate, "fuse_ops", recorded)
    first = list(simulate._ring_columns(c, starts))
    runs, visits = counts["runs"], counts["visits"]
    assert 0 < 5 * runs < visits
    assert len(memos) == 12 and sum(map(len, memos)) == runs
    held_here = [{}]  # a dict that only a list holds, counted the same way
    assert {sys.getrefcount(m) for m in memos} == {sys.getrefcount(m) for m in held_here}
    counts.update(runs=0, visits=0)
    assert list(simulate._ring_columns(c, starts)) == first
    assert (counts["runs"], counts["visits"]) == (runs, visits)
    counts.update(runs=0, visits=0)
    list(simulate._ring_columns(c, range(simulate.BATCH_COLUMNS)))
    assert counts == {"runs": 0, "visits": 0}


def test_memos_past_their_cap_give_way_to_the_plain_list(monkeypatch):
    """Once the memos hold more than MEMO_STATES states after a batch, the
    batches left run the plain list: with a cap of 0 only the second batch
    runs the memoised one, and every column is unchanged."""
    c, _ = tofn(8, "dirty")
    starts = range(1 << c.width)
    expected = list(simulate._ring_columns(c, starts))
    counts = _counting_local_runs(monkeypatch)
    list(simulate._ring_columns(c, starts[:2 * simulate.BATCH_COLUMNS]))
    two_batches = dict(counts)
    counts.update(runs=0, visits=0)
    monkeypatch.setattr(simulate, "MEMO_STATES", 0)
    assert list(simulate._ring_columns(c, starts)) == expected
    assert counts == two_batches


def _rotated(c, e):
    """Coefficient 4-tuple times w^e, one w at a time (w^4 = -1)."""
    for _ in range(e % 8):
        c = (-c[3], c[0], c[1], c[2])
    return c


def _sum_of_paths(c):
    """Ops on 4 qubits whose column 0 holds 2c at output 0: h on each
    qubit, one cp op per path of the 16 giving it a power of w, h on each
    qubit again. The paths' powers sum to 2c, padded with pairs 1 + w^4."""
    powers = [j if v > 0 else j + 4 for j, v in enumerate(c) for _ in range(2 * abs(v))]
    powers += [0, 4] * ((16 - len(powers)) // 2)
    layer = [("h", 1 << q) for q in range(4)]
    return layer + [("cp", 15, path, 0, e) for path, e in enumerate(powers)] + layer


def test_a_cp_op_rotates_every_coefficient_case_by_each_exponent():
    """Each coefficient 4-tuple in -2..2 reaches output 0 (as 2c over
    sqrt(2)^8), then one global cp op multiplies every amplitude by w^e."""
    for c in itertools.product(range(-2, 3), repeat=4):
        ops = _sum_of_paths(c)
        (before, k, _), = run_column_ring(ops, [0], 4)
        assert before.get(0, (0, 0, 0, 0)) == tuple(2 * v for v in c) and k == 8, c
        for e in range(8):
            (after, k_after, _), = run_column_ring(ops + [("cp", 0, 0, 0, e)], [0], 4)
            assert k_after == k and after == {i: _rotated(a, e) for i, a in before.items()}, (c, e)


def test_large_coefficients_decode_exactly():
    """Numerators 2^j (1 + w) and 2^j (1 - w), times each w^e, come back
    as exact 4-tuples for j = 0..64: coefficients at +-2^j in every
    position, past any machine word; and w^e with no h op, where a
    coefficient has two bits."""
    for e in range(8):
        assert run_column_ring([("cp", 0, 0, 0, e)], [0], 1) == [
            ({0: _rotated((1, 0, 0, 0), e)}, 0, 1)]
    for j in range(65):
        ops = [("h", 2), ("cp", 2, 2, 0, 1), ("h", 2)] + [("h", 1)] * (2 * j)
        for e in range(8):
            (amps, k, _), = run_column_ring(ops + [("cp", 0, 0, 0, e)], [0], 2)
            big = 1 << j
            assert k == 2 * j + 2
            assert amps == {0: _rotated((big, big, 0, 0), e),
                            2: _rotated((big, -big, 0, 0), e)}, (j, e)


@st.composite
def hadamard_heavy_circuits(draw):
    """Clifford+T circuits of 1-4 qubits and at most 60 gates, at least 30
    of them h, so the kernel packs each amplitude into 128 bits or more."""
    width = draw(st.integers(1, 4))
    qubit = st.integers(0, width - 1)
    hadamards = draw(st.integers(30, 60))
    gates = [h(draw(qubit)) for _ in range(hadamards)]
    for _ in range(draw(st.integers(0, 60 - hadamards))):
        if width > 1 and draw(st.booleans()):
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            gates.append(draw(st.sampled_from((cx, cz)))(a, b))
        else:
            gates.append(draw(st.sampled_from((t, tdg, p, pdg, x, y, z)))(draw(qubit)))
    return Circuit(width, draw(st.permutations(gates)))


# the diagonal of each one-qubit phase kind on |1>, as a power of w
_PHASE_POWERS = {"z": 4, "p": 2, "pdg": 6, "t": 1, "tdg": 7}


def _ring_column(circuit, start):
    """Column ``start`` of the circuit, gate by gate in RingElement
    arithmetic: a reference that shares no code with the kernel."""
    width = circuit.width
    state = {start: ONE}
    for g in circuit.gates:
        bit = 1 << (width - 1 - g.target)
        ctl = sum(1 << (width - 1 - q) for q in g.controls)
        new = {}
        for i, a in state.items():
            if g.kind == "h":
                for o, v in ((i & ~bit, a), (i | bit, -a if i & bit else a)):
                    new[o] = new.get(o, ZERO) + v * INV_SQRT2
            elif g.kind in ("x", "cnot"):
                new[i ^ bit if i & ctl == ctl else i] = a
            elif g.kind == "y":
                new[i ^ bit] = -IMAG * a if i & bit else IMAG * a
            elif g.kind == "cz":
                new[i] = -a if i & (ctl | bit) == ctl | bit else a
            else:
                new[i] = a * RingElement.omega_power(_PHASE_POWERS[g.kind]) if i & bit else a
        state = {i: a for i, a in new.items() if not a.is_zero()}
    return state


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(hadamard_heavy_circuits())
def test_the_packed_kernel_equals_ring_element_arithmetic(c):
    ops = compile_circuit(c)
    starts = range(1 << c.width)
    expected = [_ring_column(c, s) for s in starts]
    for variant in (ops, fuse_ops(ops), fuse_ops(ops, memoised=True)):
        for s, (amps, k, _) in zip(starts, run_column_ring(variant, starts, c.width)):
            assert {i: RingElement(*a, k) for i, a in amps.items()} == expected[s], s


@pytest.mark.parametrize("ancilla", ["clean", "dirty"])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_fused_kernel_on_every_tofn_column(n, ancilla):
    c, _ = tofn(n, ancilla)
    _assert_fused_columns_equal(c, range(1 << c.width))


@pytest.mark.parametrize("ancilla", ["clean", "dirty"])
@pytest.mark.parametrize("n", [9, 10, 11])
def test_fused_kernel_on_sampled_wide_tofn_columns(n, ancilla):
    c, _ = tofn(n, ancilla)
    _assert_fused_columns_equal(c, random.Random(n).sample(range(1 << c.width), 64))


def test_fused_kernel_on_every_catalog_block_column():
    for name, block in BLOCKS.items():
        _assert_fused_columns_equal(block.circuit, range(1 << block.circuit.width))
