"""Conjugation matching, replacements, canonic decomposition, cancellation."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from rphase.catalog import rtof3_long, srtof3_ccix, toffoli3
from rphase.circuit import (
    BLOCKS, Circuit, Gate, InputError, TargetSpec, cx, cz, h, marker, p, pdg, t, tdg, tof, x, y, z)
from rphase.lowering import lower
from rphase.rewrite import (
    ConjugationMatch,
    admissible,
    apply_replacement,
    cancel_adjacent_inverses,
    classify_pair,
    find_conjugations,
)
from rphase.qasm import emit_qasm, parse_qasm
from rphase.ring import IMAG, OMEGA, ONE
from rphase.simulate import compile_circuit, equivalent, run_column_ring, unitary_columns
from rphase.verify import check_implements
from rphase.catalog import ladder_tofn


def same_unitary(a, b):
    return equivalent(*(c if c.is_lowered() else lower(c) for c in (a, b)))


def _replaced(circ, m, name):
    """``circ`` with the matched pair replaced by ``name`` and its inverse."""
    gates = list(circ.gates)
    gates[m.left_index], gates[m.right_index] = apply_replacement(m, name)
    return Circuit(circ.width, gates, circ.roles)


CLEAN5 = ("primary", "primary", "clean_ancilla", "primary", "primary")


def test_find_prop1_in_fold_pattern():
    c = Circuit(5, [tof((0, 1), 2), tof((2, 3), 4), tof((0, 1), 2)], CLEAN5)
    ms = find_conjugations(c)
    assert len(ms) == 1
    m = ms[0]
    assert (m.left_index, m.right_index, m.classification) == (0, 2, "prop1")


def test_find_no_matches():
    c = Circuit(3, [tof((0, 1), 2), cx(0, 1)])
    assert find_conjugations(c) == []


def _find_conjugations_by_scan(circ):
    """The all-pairs scan the per-gate index replaced, kept as a reference:
    every tof against every later gate."""
    gates = circ.gates
    return [classify_pair(circ, i, j) for i, gi in enumerate(gates) if gi.kind == "tof"
            for j in range(i + 1, len(gates)) if gates[j] == gi]


def test_find_conjugations_matches_the_scan_reference():
    """Same matches in the same order on 300 seeded random circuits, with
    triples of equal tofs and negative-control pairs among them."""
    from test_cli import _conjugation_circuit

    rng = random.Random(1710)
    triples = negs = 0
    for _ in range(300):
        c = _conjugation_circuit(rng, rng.randint(0, 40))
        ms = find_conjugations(c)
        assert ms == _find_conjugations_by_scan(c)
        triples += len({m.left_index for m in ms}) < len(ms)
        negs += any(m.neg for m in ms)
    assert triples >= 100 and negs >= 100


def test_classification_prop2_and_prop3():
    on_control = Circuit(4, [tof((0, 1), 2), cx(3, 1), tof((0, 1), 2)])
    m = find_conjugations(on_control)[0]
    assert m.classification == "prop2" and m.touched == frozenset({1})
    on_target = Circuit(4, [tof((0, 1), 2), cx(3, 2), tof((0, 1), 2)])
    m = find_conjugations(on_target)[0]
    assert m.classification == "prop3" and m.touched == frozenset()


def test_disjoint_middle_gates_are_ignored():
    c = Circuit(5, [tof((0, 1), 2), h(4), x(3), tof((0, 1), 2)])
    m = find_conjugations(c)[0]
    assert m.classification == "prop1" and m.touched == frozenset()


def test_apply_prop1_reproduces_fold_counts():
    c = Circuit(5, [tof((0, 1), 2), tof((2, 3), 4), tof((0, 1), 2)], CLEAN5)
    m = find_conjugations(c)[0]
    out = _replaced(c, m, "rtof3_long")
    assert out.gates[0].kind == "rtof3l" and out.gates[2].kind == "rtof3l"
    assert out.gates[2].dagger
    low = lower(out)
    r = low.count_resources()
    assert (r.t, r.cnot, r.h) == (15, 12, 6)
    assert same_unitary(c, out)


def test_apply_toffoli3_is_identity_replacement():
    c = Circuit(5, [tof((0, 1), 2), tof((2, 3), 4), tof((0, 1), 2)], CLEAN5)
    m = find_conjugations(c)[0]
    out = _replaced(c, m, "toffoli3")
    assert out.gates == c.gates
    assert out.count_resources() == c.count_resources()


def test_apply_errors():
    c = Circuit(5, [tof((0, 1), 2), tof((2, 3), 4), tof((0, 1), 2)], CLEAN5)
    m = find_conjugations(c)[0]
    with pytest.raises(InputError, match="^arity mismatch: rtof4_long has 4 qubits, pair has 3$"):
        _replaced(c, m, "rtof4_long")
    on_control = Circuit(4, [tof((0, 1), 2), cx(3, 1), tof((0, 1), 2)])
    m2 = find_conjugations(on_control)[0]
    with pytest.raises(InputError, match=r"^special-form type violated: rtof3_long does not "
                       r"provide a type-\[1\] special form for this prop2 match$"):
        _replaced(on_control, m2, "rtof3_long")


def test_negative_control_pairs_are_refused():
    c = Circuit(4, [tof((0, 1), 2, neg=(1,)), cx(2, 3), tof((0, 1), 2, neg=(1,))])
    m = find_conjugations(c)[0]
    assert m.neg == frozenset({1})
    assert not admissible("rtof3_long", m)
    with pytest.raises(InputError, match="^pair has negative controls; no catalog "
                       "implementation carries them$"):
        _replaced(c, m, "rtof3_long")


def test_admissible_is_exactly_what_apply_replacement_accepts():
    """The predicate against its former definition, exhaustively: every
    block name and one unknown name, each class with every set of touched
    controls, no negative control or any one, arities 3 to 5."""
    names = sorted(BLOCKS) + ["no_such_block"]
    seen = set()
    for arity in (3, 4, 5):
        controls = tuple(range(arity - 1))
        for r in range(arity):
            for touched in combinations(controls, r):
                for neg in [()] + [(q,) for q in controls]:
                    for cls in ("prop1", "prop2", "prop3"):
                        m = ConjugationMatch(0, 1, cls, controls, arity - 1,
                                             frozenset(touched), frozenset(neg))
                        for name in names:
                            try:
                                apply_replacement(m, name)
                                accepted = True
                            except InputError:
                                accepted = False
                            assert admissible(name, m) == accepted, (name, m)
                            seen.add(accepted)
    assert seen == {True, False}


def test_junk_marker_middle_still_sound():
    """A truncated marker in the middle with the pair's target among its
    controls: markers are block-diagonal in every control, so the prop1
    replacement stays exact."""
    from rphase.circuit import expand, marker

    mid = marker("rtof3s", (3, 2), 4)  # pair target 2 sits in the junk role
    c = Circuit(5, [tof((0, 1), 2), mid, tof((0, 1), 2)])
    m = find_conjugations(c)[0]
    assert m.classification == "prop1"
    out = _replaced(c, m, "rtof3_long")

    def expand_markers(circ):
        gates = []
        for g in circ.gates:
            gates.extend(expand(g) if g.is_marker else [g])
        return Circuit(circ.width, gates, circ.roles)

    assert same_unitary(expand_markers(c), expand_markers(out))


def test_forced_bad_replacement_changes_unitary():
    """The replacement the special-form check refuses, built by hand: an
    rtof3_long pair around a middle that touches control 1."""
    on_control = Circuit(4, [tof((0, 1), 2), cx(3, 1), tof((0, 1), 2)])
    forced = Circuit(4, [marker("rtof3l", (0, 1), 2), cx(3, 1),
                         marker("rtof3l", (0, 1), 2, dagger=True)])
    assert not same_unitary(on_control, forced)


def test_replacement_leaves_middle_untouched():
    mid = [cx(3, 1), h(3)]
    c = Circuit(4, [tof((0, 1), 2)] + mid + [tof((0, 1), 2)])
    m = find_conjugations(c)[0]
    out = _replaced(c, m, "srts3")
    assert list(out.gates[1:3]) == mid
    assert same_unitary(c, out)


# -- canonic decomposition -----------------------------------------------------
# A relative-phase Toffoli is its tof's flip followed by a diagonal D: the
# permutation is the spec's, and D is the row-indexed phases.

def _canonic(u, controls, target):
    """D of ``u``, once its permutation is the flip of tof(controls; target)."""
    assert list(u.perm) == oracle.permutation(TargetSpec(controls, target), u.width)
    return u.row_phases()


def test_canonic_decompose_rtof3_long():
    u = unitary_columns(rtof3_long())
    d = _canonic(u, (0, 1), 2)
    assert list(d) == [ONE] * 5 + [-ONE, -IMAG, IMAG]
    # multiplying back: column s carries d[perm(s)]
    perm = oracle.permutation(TargetSpec((0, 1), 2), 3)
    assert all(u.phases[s] == d[perm[s]] for s in range(8))


def test_canonic_decompose_exact_tof():
    d = _canonic(unitary_columns(toffoli3()), (0, 1), 2)
    assert all(p == ONE for p in d)


def test_canonic_decompose_ccix_block_entries():
    d = _canonic(unitary_columns(srtof3_ccix()), (0, 1), 2)
    assert d[6] == IMAG and d[7] == IMAG


def test_canonic_decompose_rejects_non_rtof():
    """No choice of controls (of either polarity) and target makes any of
    these a relative-phase Toffoli."""
    ident = Circuit(2, [t(0)])
    swap_like = Circuit(2, [cx(0, 1), cx(1, 0), cx(0, 1)])
    # single-bit flip on a parity condition is not a control subcube
    xor_flip = Circuit(3, [cx(0, 2), cx(1, 2)])
    for c in (ident, swap_like, xor_flip):
        for target in range(c.width):
            rest = [q for q in range(c.width) if q != target]
            for r in range(1, len(rest) + 1):
                for controls in combinations(rest, r):
                    for k in range(r + 1):
                        for neg in combinations(controls, k):
                            spec = TargetSpec(controls, target, neg=frozenset(neg))
                            assert not check_implements(c, spec).relative_phase, (c, spec)


def test_canonic_decompose_small_arities():
    u = unitary_columns(Circuit(2, [cx(0, 1), t(1)]))
    # column phases recombine as D after the flip
    assert list(_canonic(u, (0,), 1)) == [ONE, OMEGA, ONE, OMEGA]


# -- cancellation ----------------------------------------------------------------

def test_cancel_simple_pair():
    c = Circuit(1, [t(0), tdg(0)])
    assert cancel_adjacent_inverses(c).gates == ()


def test_cancel_through_disjoint_gates():
    c = Circuit(3, [t(0), cx(1, 2), h(1), tdg(0)])
    out = cancel_adjacent_inverses(c)
    assert out.gates == (cx(1, 2), h(1))


def test_cancel_blocked_by_overlap():
    c = Circuit(2, [t(0), cx(0, 1), tdg(0)])
    assert cancel_adjacent_inverses(c).gates == c.gates


def test_cancel_exposes_nested_pairs():
    c = Circuit(2, [t(0), h(1), x(1), x(1), h(1), tdg(0)])
    assert cancel_adjacent_inverses(c).gates == ()


def test_cancel_already_minimal():
    c = toffoli3()
    assert cancel_adjacent_inverses(c).gates == c.gates


def test_cancel_cz_symmetry_and_polarity():
    sym = Circuit(2, [Gate("cz", (0,), 1), Gate("cz", (1,), 0)])
    assert cancel_adjacent_inverses(sym).gates == ()
    mixed = Circuit(2, [Gate("cz", (0,), 1, neg=frozenset({0})), Gate("cz", (1,), 0)])
    assert cancel_adjacent_inverses(mixed).gates == mixed.gates


def test_cancel_idempotent_and_sound_random():
    rng = random.Random(99)
    pool = [t(0), tdg(0), h(0), h(1), x(2), cx(0, 1), cx(1, 2), cx(2, 0),
            t(2), tdg(2), Gate("cz", (0,), 2), Gate("p", (), 1), Gate("pdg", (), 1)]
    for _ in range(40):
        gates = [rng.choice(pool) for _ in range(rng.randint(0, 14))]
        c = Circuit(3, gates)
        once = cancel_adjacent_inverses(c)
        twice = cancel_adjacent_inverses(once)
        assert once.gates == twice.gates
        assert equivalent(c, once)


@st.composite
def clifford_t_circuits(draw):
    """Circuits of 1-4 qubits over x, y, z, s, sdg, t, tdg, h, cx and cz."""
    width = draw(st.integers(1, 4))
    qubit = st.integers(0, width - 1)
    one = st.builds(lambda f, q: f(q), st.sampled_from((x, y, z, p, pdg, t, tdg, h)), qubit)
    gate = one
    if width > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
        gate = one | st.builds(lambda f, ab: f(*ab), st.sampled_from((cx, cz)), pair)
    return Circuit(width, draw(st.lists(gate, max_size=20)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(clifford_t_circuits())
def test_cancel_is_idempotent_and_keeps_the_unitary(c):
    once = cancel_adjacent_inverses(c)
    assert cancel_adjacent_inverses(once).gates == once.gates
    assert equivalent(once, c)


def _undoes(a, b):
    """The reference's own inverse test: b is a's inverse, or both are
    positive cz gates on the same two qubits (cz is symmetric in them)."""
    if b == a.inverse():
        return True
    return (a.kind == b.kind == "cz" and not a.neg and not b.neg
            and a.support == b.support)


def _cancel_by_sweeps(circ):
    """The sweep-and-backtrack cancellation the one-pass version replaced,
    kept as a reference: it repeats whole sweeps until nothing changes."""
    gates = list(circ.gates)
    dirty = True
    while dirty:
        dirty = False
        i = 0
        while i < len(gates):
            sup = gates[i].support
            removed = False
            for j in range(i + 1, len(gates)):
                if _undoes(gates[i], gates[j]):
                    del gates[j]
                    del gates[i]
                    removed = dirty = True
                    break
                if gates[j].support & sup:
                    break
            i = max(i - 1, 0) if removed else i + 1
    return Circuit(circ.width, gates, circ.roles)


def test_cancel_one_pass_matches_sweep_reference():
    """On 2000 seeded random 4-qubit circuits the one-pass cancellation
    leaves a fixed point of the sweep reference, as short as the reference
    leaves it, with the input's ring unitary."""
    rng = random.Random(2024)
    pool = [t(0), tdg(0), p(1), pdg(1), h(2), x(3), t(3), tdg(3),
            cx(0, 1), cx(1, 0), cx(2, 3), cz(0, 2), cz(2, 0), cz(1, 3),
            tof((0, 1), 2), tof((1, 3), 0),
            marker("rtof3l", (0, 1), 3), marker("rtof3l", (0, 1), 3, dagger=True)]
    for _ in range(2000):
        c = Circuit(4, [rng.choice(pool) for _ in range(rng.randint(0, 24))])
        once = cancel_adjacent_inverses(c)
        assert _cancel_by_sweeps(once).gates == once.gates
        assert len(once.gates) == len(_cancel_by_sweeps(c).gates)
        assert once.gates == c.gates or same_unitary(c, once)


def test_cancel_builds_one_inverse_per_distinct_gate(monkeypatch):
    """On a parsed, lowered ladder, whose gates share few objects, the pass
    builds each distinct object's inverse at most once and cancels as before."""
    circ = lower(parse_qasm(emit_qasm(ladder_tofn(12))))
    distinct = len({id(g) for g in circ.gates})
    assert distinct < len(circ.gates) // 4
    calls = 0
    real = Gate.inverse

    def counted(self):
        nonlocal calls
        calls += 1
        return real(self)

    monkeypatch.setattr(Gate, "inverse", counted)
    out = cancel_adjacent_inverses(circ)
    assert 0 < calls <= distinct
    monkeypatch.undo()
    assert out.count_resources().t == 12 * 11 - 20
    assert _cancel_by_sweeps(out).gates == out.gates


def test_cancel_shared_and_distinct_gate_objects_agree():
    """Equal gates as one shared object (the identity shortcut) and as
    distinct objects (the value comparison) cancel alike, to a fixed point
    of the sweep reference as short as the one it leaves."""
    rng = random.Random(5)
    pool = [t(0), tdg(0), p(1), pdg(1), h(2), x(3), t(3), tdg(3),
            cx(0, 1), cx(1, 0), cx(2, 3), cz(0, 2), cz(2, 0), cz(1, 3),
            tof((0, 1), 2), tof((1, 3), 0),
            marker("rtof3l", (0, 1), 3), marker("rtof3l", (0, 1), 3, dagger=True)]
    for _ in range(500):
        shared = Circuit(4, [rng.choice(pool) for _ in range(rng.randint(0, 24))])
        distinct = Circuit(4, [Gate(g.kind, g.controls, g.target, g.neg, g.param, g.dagger)
                               for g in shared.gates])
        once = cancel_adjacent_inverses(shared)
        assert cancel_adjacent_inverses(distinct).gates == once.gates
        assert _cancel_by_sweeps(once).gates == once.gates
        assert len(once.gates) == len(_cancel_by_sweeps(distinct).gates)


def test_cancel_ladder_t_count():
    # the 12k-20 law for one ladder size; the acceptance suite sweeps k
    low = lower(ladder_tofn(7))
    assert low.count_resources().t == 16 * 6 - 32
    cancelled = cancel_adjacent_inverses(low)
    assert cancelled.count_resources().t == 12 * 6 - 20


def test_cancel_never_increases_counts():
    low = lower(ladder_tofn(6))
    before = low.count_resources()
    after = cancel_adjacent_inverses(low).count_resources()
    assert after.t <= before.t and after.cnot <= before.cnot and after.h <= before.h


def test_every_marker_is_block_diagonal_in_its_controls():
    """Load-bearing for prop1 matching: a marker in the middle block may be
    treated as controlled on each of its control qubits, i.e. its unitary
    never mixes the control's 0- and 1-subspaces."""
    from rphase.circuit import MARKER_BLOCKS, expand, marker

    for kind in sorted(MARKER_BLOCKS):
        nc = MARKER_BLOCKS[kind].arity - 1
        width = nc + 1
        g = marker(kind, tuple(range(nc)), nc)
        ops = compile_circuit(Circuit(width, expand(g)))
        columns = run_column_ring(ops, range(1 << width), width)
        for ctl in range(nc):
            bit = 1 << (width - 1 - ctl)
            for s, (amps, _, _) in enumerate(columns):
                assert all((r & bit) == (s & bit) for r in amps), (kind, ctl)


def test_engine_rewrites_full_borrowed_ancilla_ladder():
    """The 12-Toffoli borrowed-ancilla network: the engine replaces every
    pair soundly on its own (head pair first, exactly the documented
    order), and the result still implements the 5-control Toffoli."""
    seq = [
        tof((4, 7), 8),
        tof((3, 6), 7), tof((2, 5), 6), tof((0, 1), 5),
        tof((2, 5), 6), tof((3, 6), 7),
        tof((4, 7), 8),
        tof((3, 6), 7), tof((2, 5), 6), tof((0, 1), 5),
        tof((2, 5), 6), tof((3, 6), 7),
    ]
    circ = Circuit(9, seq)
    base = unitary_columns(circ)
    assert base.perm[0b111110000] == 0b111110001  # it is TOF^6(0..4; 8)

    from rphase.circuit import expand

    def pick(m):
        order = ["rtof3_long", "srts3", "srtof3_ccix", "rtof4_long"]
        for name in order:
            if admissible(name, m):
                return name
        return None

    work = circ
    steps = 0
    while True:
        matches = [m for m in find_conjugations(work)
                   if work.gates[m.left_index].kind == "tof"]
        m = next((m for m in matches if pick(m)), None)
        if m is None:
            break
        work = _replaced(work, m, pick(m))
        steps += 1
        assert steps <= 6
    assert steps == 6
    assert all(g.is_marker for g in work.gates)
    expanded = []
    for g in work.gates:
        expanded.extend(expand(g))
    after = unitary_columns(Circuit(9, expanded))
    assert after.perm == base.perm and list(after.phases) == list(base.phases)
