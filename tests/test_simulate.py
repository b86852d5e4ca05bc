"""Sparse simulator: gate semantics, exact norms, whole-circuit unitaries."""

import pytest

from rphase.catalog import catalog_entries, rtof4_long, toffoli3
from rphase.circuit import Circuit, cx, h, marker, t, x
from rphase.ring import IMAG, INV_SQRT2, OMEGA, ONE, ZERO, RingElement
from rphase.simulate import (
    DenseMatrix,
    MarkerInSimulation,
    PhasePermutation,
    WidthLimitExceeded,
    compile_circuit,
    run_column_ring,
    unitary_columns,
)


def test_h_on_zero():
    u = unitary_columns(Circuit(1, [h(0)]))
    assert u.entry(0, 0) == INV_SQRT2
    assert u.entry(1, 0) == INV_SQRT2


def test_t_on_one():
    u = unitary_columns(Circuit(1, [t(0)]), column_indices=[1])
    assert u.perm[1] == 1 and u.phases[1] == OMEGA


def test_cnot_basis():
    u = unitary_columns(Circuit(2, [cx(0, 1)]), column_indices=[0b10])
    assert u.perm[0b10] == 0b11 and u.phases[0b10] == ONE


def test_marker_gate_rejected():
    with pytest.raises(MarkerInSimulation):
        unitary_columns(Circuit(3, [marker("rtof3l", (0, 1), 2)]), column_indices=[0])


def test_exact_unit_norm():
    gates = [h(0), t(0), cx(0, 1), h(1), t(1), cx(1, 0), h(0)]
    for i in range(1, len(gates) + 1):
        amps, k, _ = run_column_ring(compile_circuit(Circuit(2, gates[:i])), 0)
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


def test_unitary_columns_dense_for_h():
    u = unitary_columns(Circuit(1, [h(0)]))
    assert isinstance(u, DenseMatrix)
    assert u.entry(0, 0) == INV_SQRT2
    assert u.entry(1, 1) == -INV_SQRT2


def test_rtof4_matrix():
    u = unitary_columns(rtof4_long())
    rp = u.row_phases()
    assert u.perm[14] == 15 and u.perm[15] == 14
    assert list(rp) == [ONE] * 12 + [IMAG, -IMAG, ONE, -ONE]


def test_width_limit():
    with pytest.raises(WidthLimitExceeded):
        unitary_columns(Circuit(17, [x(0)]))


def test_inverse_unitary_relation():
    """Columns of the inverse circuit are the inverse permutation with
    conjugated phases (truncated blocks are not phase permutations)."""
    checked = 0
    for name, entry in catalog_entries().items():
        u = unitary_columns(entry.circuit)
        if not isinstance(u, PhasePermutation):
            continue
        v = unitary_columns(entry.circuit.inverse())
        assert v == u.inverse(), name
        checked += 1
    assert checked >= 4


def test_dense_inverse_is_conjugate_transpose():
    circs = [
        Circuit(1, [h(0)]),
        Circuit(2, [h(0), t(0), cx(0, 1), h(1)]),
        Circuit(3, [h(2), t(1), cx(1, 2), h(0), cx(0, 1), t(2), h(2)]),
        Circuit(4, [h(3), t(3), cx(2, 3), cx(0, 1), t(1), h(1), cx(3, 0)]),
    ]
    for c in circs:
        u = unitary_columns(c)
        v = unitary_columns(c.inverse())
        dim = 1 << c.width
        for col in range(dim):
            for row in range(dim):
                assert v.entry(row, col) == u.entry(col, row).conj()


def test_float_and_ring_backends_agree():
    from rphase.verify import backends_agree

    for name, entry in catalog_entries().items():
        assert backends_agree(entry.circuit), name


def test_column_subset():
    u = unitary_columns(toffoli3(), column_indices=[6, 7])
    assert u.perm == {6: 7, 7: 6}


def test_float_backend_collapse():
    u = unitary_columns(toffoli3(), backend="float")
    assert isinstance(u, PhasePermutation)
    assert u.perm == (0, 1, 2, 3, 4, 5, 7, 6)
    assert all(abs(p - 1) < 1e-9 for p in u.phases)


def test_parallel_columns_match_serial():
    c = toffoli3()
    assert unitary_columns(c, processes=2) == unitary_columns(c)


def test_sparse_support_stays_small():
    for name, entry in catalog_entries().items():
        u = unitary_columns(entry.circuit)
        assert u.max_support <= 64, name
