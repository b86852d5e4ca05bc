"""Construction generators: matrices, counts, and functional verification."""

import hashlib
from math import ceil

import numpy as np
import pytest

from rphase.catalog import (
    ConstructionError,
    cnu_clean_chain,
    cnu_parallel,
    cnu_spec,
    get_entry,
    ladder_tofn,
    ladder_tofn_spec,
    margolus_ry,
    margolus_t_variant,
    rtof3_long,
    rtof3_ry_negctrl,
    rtof4_long,
    srtof3_ccix,
    toffoli3,
    tof4_dirty,
    tof4_dirty_spec,
    tof5_dirty,
    tof5_dirty_spec,
    tofn,
    tofn_clean,
    tofn_clean_spec,
    tofn_dirty,
    tofn_dirty_spec,
    two_block_tofn,
    two_block_tofn_spec,
)
from rphase.circuit import BLOCKS, Circuit, ROLE_CLEAN, TargetSpec, cz, h
from rphase.lowering import lower
from rphase.qasm import emit_qasm
from rphase.ring import IMAG, ONE, RingElement
from rphase.simulate import compile_circuit, run_column_ring, unitary_columns
from rphase.verify import check_implements

TOF3_PERM = (0, 1, 2, 3, 4, 5, 7, 6)


def u_of(circuit, **kw):
    return unitary_columns(circuit if circuit.is_lowered() else lower(circuit), **kw)


def test_every_entry_claim_matches_count():
    for name, block in BLOCKS.items():
        r = block.circuit.count_resources()
        assert (r.t, r.cnot, r.h, r.pz) == block.stated + (0,), name


def test_unknown_entry():
    with pytest.raises(ConstructionError):
        get_entry("margolus")


def test_toffoli3_is_exact_tof():
    u = u_of(toffoli3())
    assert u.perm == TOF3_PERM and all(p == ONE for p in u.phases)
    # truth table spot checks
    assert u.perm[0b110] == 0b111 and u.perm[0b010] == 0b010


def test_rtof3_long_matrix():
    u = u_of(rtof3_long())
    assert u.perm == TOF3_PERM
    assert list(u.row_phases()) == [ONE] * 5 + [-ONE, -IMAG, IMAG]


def test_rtof3_long_self_inverse_and_control_swap():
    c = rtof3_long()
    assert c.inverse().gates == c.gates
    # interchanging the two controls still gives a relative-phase Toffoli
    swapped = Circuit(3, [g.remap({0: 1, 1: 0, 2: 2}) for g in c.gates])
    u = u_of(swapped)
    assert check_implements(swapped, TargetSpec((0, 1), 2)).relative_phase
    assert all(p.is_unit_magnitude() for p in u.phases)


def test_ccix_matrix():
    u = u_of(srtof3_ccix())
    assert u.perm == TOF3_PERM
    assert list(u.row_phases()) == [ONE] * 6 + [IMAG, IMAG]
    assert u.phases[0b100] == ONE  # non-triggering input keeps phase 1


def test_ccix_with_trailing_cz():
    """Moving the leading controlled-Z to the end flips the block to -i."""
    body = list(srtof3_ccix().gates[1:])
    moved = Circuit(3, body + [cz(0, 2)])
    u = u_of(moved)
    assert u.perm == TOF3_PERM
    assert list(u.row_phases()) == [ONE] * 6 + [-IMAG, -IMAG]


def test_rts3_is_rtof3_long_prefix():
    rts3 = BLOCKS["rts3"].circuit
    prefix = rts3.gates
    full = rtof3_long().gates
    assert full[: len(prefix)] == prefix and len(prefix) == 5
    r = rts3.count_resources()
    assert (r.t, r.cnot, r.h) == (2, 2, 1)
    # dropped tail acts on (second control, target) only
    tail = full[len(prefix):]
    assert set().union(*(g.support for g in tail)) == {1, 2}


def test_rts3_matrix_product_oracle():
    """unitary(rts3) followed by the tail equals unitary(rtof3_long)."""
    tail = Circuit(3, rtof3_long().gates[5:])
    m_rts = _numpy_unitary(BLOCKS["rts3"].circuit)
    m_tail = _numpy_unitary(tail)
    m_rtl = _numpy_unitary(rtof3_long())
    assert np.allclose(m_tail @ m_rts, m_rtl, atol=1e-12)


def _numpy_unitary(circuit):
    """The circuit's matrix, each column read from the ring kernel."""
    width = circuit.width
    m = np.zeros((1 << width, 1 << width), dtype=complex)
    columns = run_column_ring(compile_circuit(circuit), range(1 << width), width)
    for s, (amps, k, _) in enumerate(columns):
        for r, a in amps.items():
            m[r, s] = complex(RingElement(*a, k))
    return m


def test_srts3_is_toffoli3_prefix():
    srts3 = BLOCKS["srts3"].circuit
    prefix = srts3.gates
    full = toffoli3().gates
    assert full[: len(prefix)] == prefix and len(prefix) == 9
    r = srts3.count_resources()
    assert (r.t, r.cnot, r.h) == (4, 4, 1)
    tail = full[len(prefix):]
    assert set().union(*(g.support for g in tail)) == {0, 2}
    m_tail = _numpy_unitary(Circuit(3, tail))
    assert np.allclose(m_tail @ _numpy_unitary(srts3), _numpy_unitary(toffoli3()),
                       atol=1e-12)


def test_rtof4_long_matrix():
    u = u_of(rtof4_long())
    assert u.perm[:14] == tuple(range(14)) and u.perm[14:] == (15, 14)
    assert list(u.row_phases()) == [ONE] * 12 + [IMAG, -IMAG, ONE, -ONE]
    # |1110> picks up the -1: the column phase at 14 lands on row 15
    assert u.phases[14] == -ONE
    r = rtof4_long().count_resources()
    assert (r.t, r.cnot, r.h) == (8, 6, 4)


def test_rt4s_is_rtof4_prefix():
    rt4s = BLOCKS["rt4s"].circuit
    prefix = rt4s.gates
    full = rtof4_long().gates
    assert full[: len(prefix)] == prefix and len(prefix) == 10
    r = rt4s.count_resources()
    assert (r.t, r.cnot, r.h) == (4, 4, 2)
    tail = Circuit(4, full[len(prefix):])
    assert set().union(*(g.support for g in tail.gates)) == {1, 2, 3}
    assert np.allclose(_numpy_unitary(tail) @ _numpy_unitary(rt4s),
                       _numpy_unitary(rtof4_long()), atol=1e-12)


# -- Margolus-style variants -------------------------------------------------

def test_t_variant_phase_pattern():
    """Phases w^{c + (b+c) - (a+b+c) - (a+c)} over the c -> c+a permutation."""
    u = u_of(margolus_t_variant())
    for s in range(8):
        a, b, c = (s >> 2) & 1, (s >> 1) & 1, s & 1
        f = c + (b ^ c) - (a ^ b ^ c) - (a ^ c)
        assert u.perm[s] == (s & ~1) | (c ^ a)
        assert u.phases[s] == RingElement.omega_power(f)


def test_t_variant_h_conjugated_is_negctrl_rtof():
    tv = margolus_t_variant()
    conj = Circuit(3, [h(2)] + list(tv.gates) + [h(2)])
    u = u_of(conj)
    spec = TargetSpec((0, 1), 2, neg=frozenset({1}))
    assert check_implements(conj, spec).relative_phase
    assert all(p.is_unit_magnitude() for p in u.phases)


def test_margolus_ry_is_relative_phase_toffoli():
    u = unitary_columns(margolus_ry())
    assert not u.half
    assert check_implements(margolus_ry(), TargetSpec((0, 1), 2)).relative_phase
    assert all(abs(abs(p) - 1) < 1e-9 for p in u.phases)


def test_ry_negctrl_variant():
    spec = TargetSpec((0, 1), 2, neg=frozenset({1}))
    assert check_implements(rtof3_ry_negctrl(), spec).relative_phase


# -- explicit 4- and 5-control constructions ---------------------------------

def test_tof4_clean():
    c = tofn_clean(4)
    r = c.count_resources()
    assert (r.t, r.cnot, r.h, r.pz) == (15, 12, 6, 0)
    assert r.ancilla_count == 1 and r.ancilla_type == "clean"
    rep = check_implements(c, tofn_clean_spec(4))
    assert rep.exact and rep.ancilla_ok
    # truth table: |1101 0> -> |1101 1> in the (a,b,anc,c,d) layout
    u = unitary_columns(c)
    assert u.perm[0b11010] == 0b11011 and u.phases[0b11010] == ONE


def test_tof4_dirty():
    c = tof4_dirty()
    r = c.count_resources()
    assert (r.t, r.cnot, r.h, r.pz) == (16, 14, 6, 0)
    assert r.ancilla_count == 1 and r.ancilla_type == "dirty"
    rep = check_implements(c, tof4_dirty_spec())
    assert rep.exact and rep.ancilla_ok  # factorizes over both ancilla values


def test_tof5_clean():
    c = tofn_clean(5)
    r = c.count_resources()
    assert (r.t, r.cnot, r.h) == (23, 18, 10)
    assert r.ancilla_count == 1
    rep = check_implements(c, tofn_clean_spec(5))
    assert rep.exact and rep.ancilla_ok
    # all-zero input is a fixed point
    u = unitary_columns(c)
    assert u.perm[0] == 0 and u.phases[0] == ONE


def test_tof5_dirty():
    c = tof5_dirty()
    r = c.count_resources()
    assert (r.t, r.cnot, r.h) == (24, 20, 10)
    rep = check_implements(c, tof5_dirty_spec())
    assert rep.exact and rep.ancilla_ok


# -- general-n families --------------------------------------------------------

def test_tofn_clean_closed_forms():
    for n in range(4, 17):
        r = tofn_clean(n).count_resources()
        assert (r.t, r.cnot, r.h, r.pz) == (8 * n - 17, 6 * n - 12, 4 * n - 10, 0), n
        assert r.ancilla_count == ceil((n - 3) / 2), n
        assert r.ancilla_type == "clean"


def test_tofn_dirty_closed_forms():
    for n in range(5, 17):
        r = tofn_dirty(n).count_resources()
        assert (r.t, r.cnot, r.h, r.pz) == (8 * n - 16, 8 * n - 20, 4 * n - 10, 0), n
        assert r.ancilla_count == ceil((n - 3) / 2), n
        assert r.ancilla_type == "dirty"


def _digest(circuit, spec):
    items = [circuit.width, circuit.roles]
    items += [(g.kind, g.controls, g.target, sorted(g.neg), g.param, g.dagger)
              for g in circuit.gates]
    # specs name no kind; the literal keeps the digests recorded with one
    items.append(("tof", spec.controls, spec.target))
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def test_tofn_matches_per_site_builders():
    """tofn(n, ancilla) is the circuit and spec each call site used to pick
    for itself; the digest pins every (n, ancilla) pair to the circuits
    built before the dispatch moved into the catalog."""
    whole = hashlib.sha256()
    for n in range(3, 17):
        for ancilla in ("clean", "dirty"):
            if n == 3:
                want = toffoli3(), TargetSpec((0, 1), 2)
            elif ancilla == "clean":
                want = tofn_clean(n), tofn_clean_spec(n)
            elif n == 4:
                want = tof4_dirty(), tof4_dirty_spec()
            else:
                want = tofn_dirty(n), tofn_dirty_spec(n)
            got = tofn(n, ancilla)
            assert got == want, (n, ancilla)
            whole.update(_digest(*got).encode())
    assert whole.hexdigest()[:16] == "018cee853981c78f"
    for bad in ((2, "clean"), (2, "dirty"), (5, "borrowed")):
        with pytest.raises(ConstructionError):
            tofn(*bad)


def test_wide_dirty_ladder_is_pinned():
    """QASM and spec of tofn(n, "dirty") for n = 17..64 and 310, recorded
    while the ladder was still built rung by rung and merged pairwise."""
    whole = hashlib.sha256()
    for n in list(range(17, 65)) + [310]:
        c, spec = tofn(n, "dirty")
        whole.update(emit_qasm(c).encode())
        whole.update(repr(("tof", spec.controls, spec.target, sorted(spec.neg))).encode())
    assert whole.hexdigest()[:16] == "8448fb8410619d4a"


def test_skeletons_and_reference_circuits_are_pinned():
    """Gates, roles and spec of ladder_tofn (n = 6..12, 40), cnu_clean_chain
    and cnu_parallel (n = 2..8, u = x, z, p), two_block_tofn (every valid
    (n, k) with n <= 8), tof4_dirty and tof5_dirty, recorded while each
    was still written out by hand rather than built from combinators."""
    whole = hashlib.sha256()
    for n in list(range(6, 13)) + [40]:
        whole.update(_digest(ladder_tofn(n), ladder_tofn_spec(n)).encode())
    for n in range(2, 9):
        for u in ("x", "z", "p"):
            for build in (cnu_clean_chain, cnu_parallel):
                whole.update(_digest(build(n, u), cnu_spec(n)).encode())
    for n in range(4, 9):
        for k in range(3, n):
            whole.update(_digest(two_block_tofn(n, k), two_block_tofn_spec(n, k)).encode())
    whole.update(_digest(tof4_dirty(), tof4_dirty_spec()).encode())
    whole.update(_digest(tof5_dirty(), tof5_dirty_spec()).encode())
    assert whole.hexdigest()[:16] == "811e9275430d5a15"


def test_tofn_dirty_5_matches_tof5_dirty_counts():
    a = tofn_dirty(5).count_resources()
    b = tof5_dirty().count_resources()
    assert a.counts() == b.counts() and a.ancilla_count == b.ancilla_count == 1


def test_tofn_rejects_small_n():
    with pytest.raises(ConstructionError):
        tofn_clean(3)
    with pytest.raises(ConstructionError):
        tofn_dirty(4)


@pytest.mark.parametrize("n", [6, 7])
def test_tofn_simulation_small(n):
    rep = check_implements(tofn_clean(n), tofn_clean_spec(n))
    assert rep.exact and rep.ancilla_ok
    rep = check_implements(tofn_dirty(n), tofn_dirty_spec(n))
    assert rep.exact and rep.ancilla_ok


# -- marker-level skeletons ----------------------------------------------------

def test_ladder_structure():
    lad = ladder_tofn(6)
    assert lad.width == 9
    kinds = [g.kind for g in lad.gates]
    assert kinds.count("rtof3l") == 10
    assert kinds.count("srts3") == 2
    s_markers = [g for g in lad.gates if g.kind == "srts3"]
    assert s_markers[0].dagger is False and s_markers[1].dagger is True


def test_ladder_lowered_is_exact_tof6():
    low = lower(ladder_tofn(6))
    rep = check_implements(low, ladder_tofn_spec(6))
    assert rep.exact and rep.ancilla_ok


def test_ladder_t_count_before_cancel():
    # every marker lowers to a 4-T block: 16k - 32 in total for k controls
    for n in (6, 8):
        k = n - 1
        assert lower(ladder_tofn(n)).count_resources().t == 16 * k - 32


def test_two_block_shape():
    c = two_block_tofn(8, 6)
    assert c.width == 9
    kinds = [(g.kind, g.controls, g.target) for g in c.gates]
    assert kinds[0] == ("tof", (0, 1, 2, 3, 4), 7)
    assert kinds[1] == ("tof", (5, 6, 7), 8)
    assert c.gates[2] == c.gates[0] and c.gates[3] == c.gates[1]


def test_two_block_degenerate_k_collapses():
    # k = n-1: one fold of all-but-one controls plus a 3-qubit special block
    c = two_block_tofn(5, 4)
    assert c.gates[0].kind == "rtof4l" and c.gates[1].kind == "srts3"


def test_two_block_simulation():
    c = two_block_tofn(5, 3)
    wide = Circuit(7, c.gates, c.roles + (ROLE_CLEAN,))  # room to lower the tof4
    rep = check_implements(lower(wide), TargetSpec((0, 1, 2, 3), 5))
    assert rep.exact and rep.ancilla_ok


@pytest.mark.parametrize("n,k", [(4, 3), (6, 3), (6, 4), (7, 5), (8, 6)])
def test_two_block_marker_level_simulation(n, k):
    """Markers expanded in place, wide tof blocks simulated natively."""
    from rphase.circuit import expand

    c = two_block_tofn(n, k)
    gates = []
    for g in c.gates:
        gates.extend(expand(g) if g.is_marker else [g])
    expanded = Circuit(c.width, gates, c.roles)
    rep = check_implements(expanded, two_block_tofn_spec(n, k))
    assert rep.exact and rep.ancilla_ok, (n, k)


def test_fold_pattern_cnot_bound():
    """Constructive cost bound: folding a Toffoli through one clean ancilla
    costs twice the relative-phase block's CNOTs plus the middle CNOT."""
    rtl_cnots = rtof3_long().count_resources().cnot
    chain = lower(cnu_clean_chain(2))  # rtof3l pair around one cx
    assert chain.count_resources().cnot == 2 * rtl_cnots + 1
    rt4l_cnots = rtof4_long().count_resources().cnot
    from rphase.circuit import cx as cx_gate, marker

    fold4 = Circuit(
        5,
        [marker("rtof4l", (0, 1, 2), 4), cx_gate(4, 3),
         marker("rtof4l", (0, 1, 2), 4, dagger=True)],
        ("primary",) * 4 + (ROLE_CLEAN,),
    )
    low = lower(fold4)
    assert low.count_resources().cnot == 2 * rt4l_cnots + 1
    rep = check_implements(low, TargetSpec((0, 1, 2), 3))
    assert rep.exact and rep.ancilla_ok


def test_cnu_chain_markers():
    c = cnu_clean_chain(5)
    assert sum(1 for g in c.gates if g.kind == "rtof3l") == 8  # 2n-2
    assert sum(1 for g in c.gates if g.kind == "cnot") == 1


def test_cnu_degenerate():
    c = cnu_clean_chain(2)
    kinds = [g.kind for g in c.gates]
    assert kinds == ["rtof3l", "cnot", "rtof3l"]
    assert c.gates[2].dagger


def test_cnu_exhaustive_n4():
    for build in (cnu_clean_chain, cnu_parallel):
        circ = lower(build(4))
        rep = check_implements(circ, cnu_spec(4))
        assert rep.exact and rep.ancilla_ok, build.__name__


def test_cnu_other_u_choices():
    """U = z and U = p stay in the ring: check the resulting diagonals."""
    for u_name, phase in (("z", -ONE), ("p", IMAG)):
        circ = lower(cnu_clean_chain(3, u=u_name))
        u = unitary_columns(circ)
        w = circ.width
        for s in range(1 << w):
            if s & 0b0011_0:  # clean ancillae must be 0 (qubits 3,4 of 6)
                continue
            assert u.perm[s] == s, (u_name, s)
            expected = phase if (s >> (w - 3)) == 0b111 and s & 1 else ONE
            assert u.phases[s] == expected, (u_name, s)


def test_cnu_parallel_matches_chain_unitary():
    a = u_of(cnu_clean_chain(3))
    b = u_of(cnu_parallel(3))
    assert a.perm == b.perm and list(a.phases) == list(b.phases)
