"""Verification predicates and reports."""

import multiprocessing
import multiprocessing.process
import random
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

import oracle
from rphase import simulate
from rphase.catalog import (
    margolus_ry,
    margolus_t_variant,
    rtof3_long,
    rtof3_ry_negctrl,
    rtof4_long,
    srtof3_ccix,
    toffoli3,
    tofn,
    tofn_clean,
    tofn_clean_spec,
    tofn_dirty,
    tofn_dirty_spec,
)
from rphase.circuit import (
    BLOCKS, ROLE_CLEAN, ROLE_DIRTY, ROLE_PRIMARY, Circuit, InputError, TargetSpec, cx, h, p,
    pdg, ry, t, tdg, tof, x, z)
from rphase.ring import RingElement
from rphase.simulate import NotAPhasePermutation, equivalent, unitary_columns
from rphase.verify import check_implements


def test_check_tof4_clean_exact():
    rep = check_implements(tofn_clean(4), tofn_clean_spec(4))
    assert rep.exact and rep.global_phase and rep.relative_phase and rep.ancilla_ok
    # columns run on the ring only, so no report names a backend
    assert not hasattr(rep, "backend") and "backend" not in rep.as_dict()


def test_an_exact_check_compares_shared_phases_by_identity(monkeypatch):
    """Every collapsed ring phase is some w^j, and the check decides every
    phase verdict on the exponents j, so an exact check of a construction
    whose phases are all 1 makes no RingElement.__eq__ call."""
    circuit, spec = tofn(6, "clean")
    calls = []
    real = RingElement.__eq__

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(RingElement, "__eq__", counted)
    rep = check_implements(circuit, spec)
    assert rep.exact and rep.global_phase and rep.ancilla_ok
    assert calls == []


def test_check_rtof3_long_relative_only():
    spec = TargetSpec((0, 1), 2, equivalence="relative_phase")
    rep = check_implements(rtof3_long(), spec)
    assert rep.relative_phase and not rep.exact and not rep.global_phase


def test_check_ccix_special_form():
    spec = TargetSpec((0, 1), 2, xprime=frozenset({2}),
                      equivalence="special_form")
    rep = check_implements(srtof3_ccix(), spec)
    assert rep.relative_phase and rep.special_form_holds
    assert rep.satisfies("special_form")


def test_check_report_schema():
    rep = check_implements(toffoli3(), TargetSpec((0, 1), 2))
    d = rep.as_dict()
    assert set(d) == {"exact", "global_phase", "relative_phase", "special_form",
                      "ancilla_ok", "max_support"}
    assert d["special_form"] == {"xprime": [], "holds": True}
    # toffoli3's two Hadamards act on the target in turn: support 2 at most
    assert d["max_support"] == rep.max_support == 2


def test_check_non_phase_permutation():
    with pytest.raises(NotAPhasePermutation):
        check_implements(Circuit(1, [h(0)]), TargetSpec((), 0))


def test_check_names_the_column_that_does_not_collapse():
    # H T (X Tdg X) H on qubit 1: the identity when qubit 0 is 0, and
    # H S H up to a phase (two outputs) when it is 1
    c = Circuit(2, [h(1), t(1), cx(0, 1), tdg(1), cx(0, 1), h(1)])
    with pytest.raises(NotAPhasePermutation, match="column 10 "):
        check_implements(c, TargetSpec((0,), 1))


def _no_process(*args, **kwargs):
    raise AssertionError("a process was started")


def test_check_starts_no_process(monkeypatch):
    """Columns run in the calling process, however many there are:
    tofn_dirty(9) (548,864 column-ops) as much as tofn(8, "dirty") and
    tofn(11, "clean"), the widest checks of the certify-wide benchmark.
    Every process pool starts its workers through ``BaseProcess.start``."""
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _no_process)
    for c, spec in [(tofn_dirty(6), tofn_dirty_spec(6)), (tofn_dirty(9), tofn_dirty_spec(9)),
                    tofn(8, "dirty"), tofn(11, "clean")]:
        assert check_implements(c, spec).exact
    assert not multiprocessing.active_children()


def _dropped_t_mutant():
    """tofn_dirty(8) without one t gate: its first column that does not
    collapse is 256, past the first batches of columns."""
    c, spec = tofn_dirty(8), tofn_dirty_spec(8)
    assert c.gates[30] == t(7)
    return Circuit(c.width, c.gates[:30] + c.gates[31:], c.roles), spec


def _scan_every_column(circuit):
    """The first column, in index order, of a one-column-at-a-time scan of
    every column that does not collapse, or None."""
    ops = simulate.compile_circuit(circuit)
    results = [simulate.run_column_ring(ops, [s], circuit.width)[0]
               for s in range(1 << circuit.width)]
    return next((s for s, (amps, k, _) in enumerate(results)
                 if simulate._collapse(amps, k) is None), None)


def test_the_first_failing_column_past_the_first_batch_is_named():
    c, spec = _dropped_t_mutant()
    assert _scan_every_column(c) == 256 > simulate.BATCH_COLUMNS
    with pytest.raises(NotAPhasePermutation) as failed:
        check_implements(c, spec)
    assert str(failed.value) == ("not a phase permutation: column 00100000000 "
                                 "does not collapse to one basis state")


def test_a_serial_check_stops_at_the_batch_that_fails(monkeypatch):
    c, spec = _dropped_t_mutant()
    kernel, simulated = simulate.run_column_ring, []

    def counted(ops, starts, width):
        simulated.append(len(starts))
        return kernel(ops, starts, width)

    monkeypatch.setattr(simulate, "run_column_ring", counted)
    with pytest.raises(NotAPhasePermutation, match="column 00100000000 "):
        check_implements(c, spec)
    batch = simulate.BATCH_COLUMNS
    assert sum(simulated) == (256 // batch + 1) * batch < 1 << c.width


def test_only_the_check_restricts_columns_to_clean_ancillae_at_zero(monkeypatch):
    """A CNOT routed through one clean ancilla, with 14 dirty ancillae: 17
    qubits. check_implements runs the 2^16 columns whose clean bit is 0 and
    finds it exact; unitary_columns, which has no subspace, counts 2^17
    columns and raises an InputError before any column runs."""
    roles = [ROLE_PRIMARY, ROLE_PRIMARY, ROLE_CLEAN] + [ROLE_DIRTY] * 14
    c = Circuit(17, [cx(0, 2), cx(2, 1), cx(0, 2)], roles)
    kernel, simulated = simulate.run_column_ring, []

    def counted(ops, starts, width):
        simulated.append(len(starts))
        return kernel(ops, starts, width)

    monkeypatch.setattr(simulate, "run_column_ring", counted)
    assert check_implements(c, TargetSpec((0,), 1)).exact
    assert sum(simulated) == 1 << 16
    simulated.clear()
    with pytest.raises(InputError, match=r"^width limit exceeded: 2\^17 columns to "
                                         r"simulate, limit 2\^16$"):
        unitary_columns(c)
    assert simulated == []


def test_a_non_permutation_streams_its_one_column_runs():
    """H T (X Tdg X) H on the last qubit, controlled by the first: columns
    128 on do not collapse, so the full set of 8-qubit columns is no phase
    permutation, collapsing every column raises NotAPhasePermutation naming
    column 128, and the ring column stream's batches return the one-column
    runs of every column, k and max_support included."""
    c = Circuit(8, [h(7), t(7), cx(0, 7), tdg(7), cx(0, 7), h(7)])
    assert _scan_every_column(c) == 128
    assert unitary_columns(c) is None
    with pytest.raises(NotAPhasePermutation, match="column 10000000 "):
        simulate._collapsed(c, range(1 << c.width))
    ops = simulate.compile_circuit(c)
    alone = [simulate.run_column_ring(ops, [s], c.width)[0] for s in range(1 << c.width)]
    assert max(ms for *_, ms in alone) == 2
    assert list(simulate._ring_columns(c, range(1 << c.width))) == alone
    assert equivalent(c, Circuit(8, c.gates))
    assert not equivalent(c, Circuit(8, c.gates[:-1]))


def _special_form(circuit, xprime, spec) -> bool:
    return check_implements(circuit, replace(spec, xprime=frozenset(xprime))).special_form_holds


def test_is_relative_phase_of():
    assert check_implements(rtof4_long(), TargetSpec((0, 1, 2), 3)).relative_phase
    assert check_implements(toffoli3(), TargetSpec((0, 1), 2)).relative_phase
    cnot_only = Circuit(3, [cx(0, 2)])
    assert not check_implements(cnot_only, TargetSpec((0, 1), 2)).relative_phase


def test_is_special_form_cases():
    spec = TargetSpec((0, 1), 2)
    assert _special_form(srtof3_ccix(), {2}, spec)
    # full-set special form would mean Toffoli up to global phase; ccix is not
    assert not _special_form(srtof3_ccix(), {0, 1, 2}, spec)
    assert not _special_form(rtof3_long(), {2}, spec)  # the -1 breaks the class


def test_exact_toffoli_is_special_form_of_every_type():
    spec = TargetSpec((0, 1), 2)
    for xp in [set(), {0}, {1}, {2}, {0, 1}, {0, 1, 2}]:
        assert _special_form(toffoli3(), xp, spec)


def test_verdicts_equal_the_phase_class_rule_on_every_block():
    """On each phase-permutation block, alone and followed by a Z on its
    target (which gives its two moved rows unequal phases), against its own
    spec and one with target and first control swapped, and for every
    xprime: the relative phase verdict is "same permutation", and the
    special form verdict is that plus "row phases constant across flips of
    xprime", both computed here from the circuit's columns."""
    covered = 0
    for name, block in BLOCKS.items():
        if block.junk:
            continue
        covered += 1
        first, *rest = block.spec.controls
        swapped = TargetSpec((block.spec.target, *rest), first)
        z_tail = Circuit(block.arity, block.gates + (z(block.spec.target),))
        for circuit in (block.circuit, z_tail):
            u = unitary_columns(circuit)
            rows, width = u.row_phases(), u.width
            for spec in (block.spec, swapped):
                same_perm = list(u.perm) == oracle.permutation(spec, width)
                for r in range(width + 1):
                    for xprime in combinations(range(width), r):
                        mask = sum(1 << (width - 1 - q) for q in xprime)
                        classes = all(rows[i] == rows[i & ~mask] for i in range(len(rows)))
                        report = check_implements(
                            circuit, replace(spec, xprime=frozenset(xprime)))
                        assert report.relative_phase == same_perm, (name, spec)
                        assert report.special_form_holds == (same_perm and classes), (
                            name, circuit, spec, xprime)
    assert covered == 4


def test_global_phase_equal():
    spec = TargetSpec((0, 1), 2)
    same = check_implements(toffoli3(), spec)
    assert same.exact and same.global_phase
    # Z X Z X = -identity: a global phase circuit
    minus = Circuit(3, list(toffoli3().gates) + [z(0), x(0), z(0), x(0)])
    report = check_implements(minus, spec)
    assert report.global_phase and not report.exact
    report = check_implements(rtof3_long(), spec)
    assert report.relative_phase and not report.global_phase


# e^(-i pi/8) I on qubit 0: an odd ry-unit total, so the half bit is set
_HALF_PHASE = [ry(0, 1), pdg(0), h(0), tdg(0), h(0), p(0)]


def test_an_odd_ry_total_is_a_global_phase_and_never_exact():
    """TOF times e^(-i pi/8): its ring phases are all w^7, and with the
    half bit no power of w makes it 1. The verdicts that read no global
    phase hold as for TOF; rtof3_long's relative phases stay relative."""
    spec = TargetSpec((0, 1), 2)
    tof3 = list(toffoli3().gates)
    omega = [t(0), x(0), t(0), x(0)]  # w I
    report = check_implements(Circuit(3, tof3 + _HALF_PHASE), spec)
    assert not report.exact and report.global_phase and report.relative_phase
    assert report.special_form_holds and report.ancilla_ok
    assert "backend" not in report.as_dict()
    # w^7 w = 1 on the ring part, still e^(i pi/8) off
    report = check_implements(Circuit(3, tof3 + _HALF_PHASE + omega), spec)
    assert not report.exact and report.global_phase
    report = check_implements(Circuit(3, list(rtof3_long().gates) + _HALF_PHASE), spec)
    assert report.relative_phase and not report.global_phase and not report.exact
    # two of them are e^(-i pi/4) = w^7, back in the ring
    assert check_implements(Circuit(3, tof3 + _HALF_PHASE * 2 + omega), spec).exact


def _negated(u):
    return replace(u, phases=tuple(-p for p in u.phases))


def _matrix(u):
    """A ring PhasePermutation with no half bit as a complex matrix."""
    m = np.zeros((u.dim, u.dim), dtype=complex)
    for s, (r, phase) in enumerate(zip(u.perm, u.phases)):
        m[r, s] = complex(phase)
    return m


def _close(a, b) -> bool:
    return np.allclose(a, b, rtol=0, atol=oracle.TOL)


def test_global_phase_equal_on_float_and_mixed_pairs():
    """Margolus's R_Y circuit is TOF then -1 on row 101, in the textbook
    oracle's floats; a Z X Z X tail turns every phase to its negative. The
    ring's phase permutations say the same exactly, and their matrices are
    the oracle's."""
    u = oracle.unitary(margolus_ry())
    v = oracle.unitary(Circuit(3, list(margolus_ry().gates) + [z(0), x(0), z(0), x(0)]))
    assert _close(v, -u) and not _close(u, v)
    tof = oracle.unitary(toffoli3())
    assert not _close(tof, u) and not _close(tof, -u)
    # the same unitary over the ring: TOF, then X(1) CCZ X(1) with CCZ = H(2) TOF H(2)
    tof3 = list(toffoli3().gates)
    ring = unitary_columns(Circuit(3, tof3 + [x(1), h(2)] + tof3 + [h(2), x(1)]))
    assert not ring.half and _close(_matrix(ring), u) and unitary_columns(margolus_ry()) == ring
    ring_v = unitary_columns(Circuit(3, list(margolus_ry().gates) + [z(0), x(0), z(0), x(0)]))
    assert ring_v == _negated(ring) and _negated(ring_v) == ring and ring_v != ring
    assert _close(_matrix(ring_v), v)
    for m in (_matrix(unitary_columns(toffoli3())), _matrix(unitary_columns(rtof3_long()))):
        assert not any(_close(m, w) for w in (u, -u, v, -v))


def test_permutation_parity():
    """A permutation's sign is the determinant of its 0/1 matrix, which
    ``np.linalg.det`` gives exactly: the oracle's TOF4 is odd on 4 qubits
    and even on 5, as det(A (x) I2) = det(A)^2; the identity is even, and
    the permutation under toffoli3's phases is odd."""
    tof4 = [tof((0, 1, 2), 3)]
    assert np.linalg.det(oracle.unitary(Circuit(4, tof4))) == -1
    assert np.linalg.det(oracle.unitary(Circuit(5, tof4))) == 1
    assert np.linalg.det(oracle.unitary(Circuit(4, []))) == 1
    assert np.linalg.det(abs(oracle.unitary(toffoli3())) > 0.5) == -1


def test_every_catalog_rtof_inverse_is_an_rtof():
    """The inverse of each relative-phase Toffoli is again one, with
    conjugated phases on the diagonal positions."""
    for name in ("toffoli3", "rtof3_long", "srtof3_ccix", "rtof4_long"):
        block = BLOCKS[name]
        u = unitary_columns(block.circuit)
        spec = TargetSpec(block.spec.controls, block.spec.target)
        v = unitary_columns(block.circuit.inverse())
        assert check_implements(block.circuit.inverse(), spec).relative_phase, name
        zr, wr = u.row_phases(), v.row_phases()
        for i in range(u.dim):
            if u.perm[i] == i:
                assert wr[i] == zr[i].conj(), (name, i)


def test_target_permutation_negative_controls():
    """A negative control fires on |0>, in the oracle's permutation of the
    spec and in the simulator's tof alike."""
    spec = TargetSpec((0, 1), 2, neg=frozenset({1}))
    perm = oracle.permutation(spec, 3)
    assert perm[0b100] == 0b101 and perm[0b110] == 0b110
    assert list(unitary_columns(Circuit(3, [tof((0, 1), 2, neg=(1,))])).perm) == perm


def test_check_with_scattered_clean_qubits_and_negative_controls():
    """With clean ancillae between the gate's qubits and negative
    controls, the per-column target is the spec's flip: a tof meets its
    own spec exactly and fails every spec with one control negated."""
    rng = random.Random(7)
    for _ in range(40):
        width = rng.randint(3, 8)
        qubits = rng.sample(range(width), rng.randint(2, min(4, width)))
        controls, target = tuple(qubits[:-1]), qubits[-1]
        neg = frozenset(q for q in controls if rng.random() < 0.4)
        clean = [q for q in range(width) if q not in qubits and rng.random() < 0.6]
        roles = [ROLE_CLEAN if q in clean else ROLE_PRIMARY for q in range(width)]
        c = Circuit(width, [tof(controls, target, neg)], roles)
        spec = TargetSpec(controls, target, neg=neg)
        assert check_implements(c, spec).exact
        for q in controls:
            report = check_implements(c, TargetSpec(controls, target, neg=neg ^ {q}))
            assert not report.exact and not report.relative_phase


def test_a_spec_naming_a_qubit_outside_the_circuit_is_refused(monkeypatch):
    """A spec names one of the four equivalence classes and an xprime
    within the gate's qubits, and check_implements refuses a gate qubit
    outside the circuit, naming it, before it compiles anything."""
    with pytest.raises(ValueError, match="^unknown equivalence class 'foo'$"):
        TargetSpec((0, 1), 2, equivalence="foo")
    with pytest.raises(ValueError, match="xprime"):
        TargetSpec((0, 1), 2, xprime=frozenset({5}))

    def no_compile(circuit):
        raise AssertionError("compiled before the spec was checked")

    monkeypatch.setattr(simulate, "compile_circuit", no_compile)
    for spec, q in ((TargetSpec((0, 1), 4), 4), (TargetSpec((-1, 1), 2), -1)):
        with pytest.raises(ValueError, match=f"qubit {q} outside width 3"):
            check_implements(toffoli3(), spec)


def _reference_verdicts(u, controls, target, neg):
    """(exact, global phase, relative phase, {gate qubit: special form}) of a
    PhasePermutation of primary qubits only, from its perm and phases with
    RingElement ==, and a flip of the spec's tof written out here."""
    width = u.width
    bit = [1 << (width - 1 - q) for q in range(width)]
    want = [s ^ bit[target] if all(bool(s & bit[q]) != (q in neg) for q in controls) else s
            for s in range(u.dim)]
    perm_ok = list(u.perm) == want
    rows = [None] * u.dim
    for s, ph in enumerate(u.phases):
        rows[u.perm[s]] = ph
    one = RingElement.from_int(1)
    exact = perm_ok and not u.half and all(ph == one for ph in u.phases)
    global_phase = perm_ok and all(ph == u.phases[0] for ph in u.phases)
    special = {p: perm_ok and all(rows[r] == rows[r ^ bit[p]] for r in range(u.dim))
               for p in (*controls, target)}
    return exact, global_phase, perm_ok, special


def test_exponent_verdicts_equal_a_ring_element_reference():
    """check_implements decides its verdicts on w exponents; on every
    junk-free block and the three Margolus-style variants, each also with
    one gate deleted and times e^(-i pi/8) or w, they equal verdicts
    recomputed from unitary_columns' ring phases, and a circuit that is no
    phase permutation is refused by both."""
    base = [(b.circuit, b.spec) for b in BLOCKS.values() if not b.junk]
    base += [(margolus_t_variant(), TargetSpec((0,), 2)),
             (margolus_ry(), TargetSpec((0, 1), 2)),
             (rtof3_ry_negctrl(), TargetSpec((0, 1), 2, neg=frozenset({1})))]
    omega = (t(0), x(0), t(0), x(0))  # w I
    cases = base + [(Circuit(c.width, c.gates + tuple(extra)), spec)
                    for c, spec in base for extra in (_HALF_PHASE, omega)]
    cases += [(Circuit(c.width, c.gates[:i] + c.gates[i + 1:]), spec)
              for c, spec in base for i in range(len(c.gates))]
    patterns = set()
    for c, spec in cases:
        u = unitary_columns(c)
        if u is None:
            with pytest.raises(NotAPhasePermutation):
                check_implements(c, spec)
            patterns.add(None)
            continue
        exact, global_phase, relative, special = _reference_verdicts(
            u, spec.controls, spec.target, spec.neg)
        rep = check_implements(c, spec)
        assert (rep.exact, rep.global_phase, rep.relative_phase) == (
            exact, global_phase, relative), str(c)
        for p in special:
            got = check_implements(c, replace(spec, xprime=frozenset({p})))
            assert got.special_form_holds == special[p], (str(c), p)
        patterns.add((u.half, exact, global_phase, relative, sum(special.values())))
    # (half, exact, global, relative, special-form qubits): every verdict
    # both ways, with and without the half bit, and a non-permutation
    assert {None, (False, True, True, True, 3), (False, False, True, True, 3),
            (True, False, True, True, 3), (False, False, False, True, 1),
            (False, False, False, False, 0)} <= patterns
