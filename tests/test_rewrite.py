"""Conjugation matching, replacements, canonic decomposition, cancellation."""

import random

import pytest

from rphase.catalog import rtof3_long, srtof3_ccix, toffoli3
from rphase.circuit import Circuit, Gate, cx, cz, h, marker, p, pdg, t, tdg, tof, x
from rphase.lowering import lower
from rphase.rewrite import (
    ArityMismatch,
    NotRelativePhaseToffoli,
    SpecialFormViolated,
    _cancels,
    apply_replacement,
    cancel_adjacent_inverses,
    canonic_decompose,
    find_conjugations,
)
from rphase.ring import IMAG, ONE
from rphase.simulate import unitary_columns
from rphase.catalog import ladder_tofn


def u_of(c):
    return unitary_columns(c if c.is_lowered() else lower(c))


def same_unitary(a, b):
    ua, ub = u_of(a), u_of(b)
    if hasattr(ua, "perm") and hasattr(ub, "perm"):
        return ua.perm == ub.perm and list(ua.phases) == list(ub.phases)
    return type(ua) is type(ub) and ua == ub


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
    out = apply_replacement(c, m, "rtof3_long")
    assert out.gates[0].kind == "rtof3l" and out.gates[2].kind == "rtof3l"
    assert out.gates[2].dagger
    low = lower(out)
    r = low.count_resources()
    assert (r.t, r.cnot, r.h) == (15, 12, 6)
    assert same_unitary(c, out)


def test_apply_toffoli3_is_identity_replacement():
    c = Circuit(5, [tof((0, 1), 2), tof((2, 3), 4), tof((0, 1), 2)], CLEAN5)
    m = find_conjugations(c)[0]
    out = apply_replacement(c, m, "toffoli3")
    assert out.gates == c.gates
    assert out.count_resources() == c.count_resources()


def test_apply_errors():
    c = Circuit(5, [tof((0, 1), 2), tof((2, 3), 4), tof((0, 1), 2)], CLEAN5)
    m = find_conjugations(c)[0]
    with pytest.raises(ArityMismatch):
        apply_replacement(c, m, "rtof4_long")
    on_control = Circuit(4, [tof((0, 1), 2), cx(3, 1), tof((0, 1), 2)])
    m2 = find_conjugations(on_control)[0]
    with pytest.raises(SpecialFormViolated):
        apply_replacement(c_pair := on_control, m2, "rtof3_long")


def test_negative_control_pairs_are_refused():
    from rphase.rewrite import RewriteError, admissible

    c = Circuit(4, [tof((0, 1), 2, neg=(1,)), cx(2, 3), tof((0, 1), 2, neg=(1,))])
    m = find_conjugations(c)[0]
    assert m.neg == frozenset({1})
    assert not admissible("rtof3_long", m)
    with pytest.raises(RewriteError):
        apply_replacement(c, m, "rtof3_long")


def test_junk_marker_middle_still_sound():
    """A truncated marker in the middle with the pair's target among its
    controls: markers are block-diagonal in every control, so the prop1
    replacement stays exact."""
    from rphase.catalog import marker_definition
    from rphase.circuit import marker

    mid = marker("rtof3s", (3, 2), 4)  # pair target 2 sits in the junk role
    c = Circuit(5, [tof((0, 1), 2), mid, tof((0, 1), 2)])
    m = find_conjugations(c)[0]
    assert m.classification == "prop1"
    out = apply_replacement(c, m, "rtof3_long")

    def expand(circ):
        gates = []
        for g in circ.gates:
            gates.extend(marker_definition(g) if g.is_marker else [g])
        return Circuit(circ.width, gates, circ.roles)

    assert same_unitary(expand(c), expand(out))


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
    out = apply_replacement(c, m, "srts3")
    assert list(out.gates[1:3]) == mid
    assert same_unitary(c, out)


# -- canonic decomposition -----------------------------------------------------

def test_canonic_decompose_rtof3_long():
    u = unitary_columns(rtof3_long())
    spec, d = canonic_decompose(u)
    assert spec.controls == (0, 1) and spec.target == 2
    assert list(d) == [ONE] * 5 + [-ONE, -IMAG, IMAG]
    # multiplying back: column s carries d[perm(s)]
    from rphase.verify import target_permutation

    perm = target_permutation(spec, 3)
    assert all(u.phases[s] == d[perm[s]] for s in range(8))


def test_canonic_decompose_exact_tof():
    u = unitary_columns(toffoli3())
    spec, d = canonic_decompose(u)
    assert spec.controls == (0, 1) and all(p == ONE for p in d)


def test_canonic_decompose_ccix_block_entries():
    u = unitary_columns(srtof3_ccix())
    _, d = canonic_decompose(u)
    assert d[6] == IMAG and d[7] == IMAG


def test_canonic_decompose_rejects_non_rtof():
    ident = unitary_columns(Circuit(2, [t(0)]))
    with pytest.raises(NotRelativePhaseToffoli):
        canonic_decompose(ident)
    swap_like = unitary_columns(Circuit(2, [cx(0, 1), cx(1, 0), cx(0, 1)]))
    with pytest.raises(NotRelativePhaseToffoli):
        canonic_decompose(swap_like)
    # single-bit flip on a parity condition is not a control subcube
    xor_flip = unitary_columns(Circuit(3, [cx(0, 2), cx(1, 2)]))
    with pytest.raises(NotRelativePhaseToffoli):
        canonic_decompose(xor_flip)


def test_canonic_decompose_small_arities():
    u = unitary_columns(Circuit(2, [cx(0, 1), t(1)]))
    spec, d = canonic_decompose(u)
    assert spec.controls == (0,) and spec.target == 1
    # column phases recombine as D after the flip
    from rphase.ring import OMEGA, ONE

    assert list(d) == [ONE, OMEGA, ONE, OMEGA]


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
        ua, ub = unitary_columns(c), unitary_columns(once)
        if hasattr(ua, "perm") and hasattr(ub, "perm"):
            assert ua.perm == ub.perm and list(ua.phases) == list(ub.phases)
        else:
            assert ua == ub


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
                if _cancels(gates[i], gates[j]):
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
    from rphase.circuit import MARKER_KINDS, MARKER_NUM_CONTROLS, marker
    from rphase.catalog import marker_definition
    from rphase.simulate import DenseMatrix

    for kind in sorted(MARKER_KINDS):
        nc = MARKER_NUM_CONTROLS[kind]
        width = nc + 1
        g = marker(kind, tuple(range(nc)), nc)
        u = unitary_columns(Circuit(width, marker_definition(g)))
        for ctl in range(nc):
            bit = 1 << (width - 1 - ctl)
            if isinstance(u, DenseMatrix):
                for s in range(1 << width):
                    for r in u.columns[s]:
                        assert (r & bit) == (s & bit), (kind, ctl)
            else:
                assert all((u.perm[s] & bit) == (s & bit) for s in range(1 << width))


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

    from rphase.catalog import marker_definition

    def pick(m):
        order = ["rtof3_long", "srts3", "srtof3_ccix", "rtof4_long"]
        from rphase.rewrite import admissible

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
        work = apply_replacement(work, m, pick(m))
        steps += 1
        assert steps <= 6
    assert steps == 6
    assert all(g.is_marker for g in work.gates)
    expanded = []
    for g in work.gates:
        expanded.extend(marker_definition(g))
    after = unitary_columns(Circuit(9, expanded))
    assert after.perm == base.perm and list(after.phases) == list(base.phases)
