"""Verification predicates and reports."""

import pytest

from rphase.catalog import (
    catalog_entries,
    rtof3_long,
    rtof4_long,
    srtof3_ccix,
    toffoli3,
    tofn_clean,
    tofn_clean_spec,
    tofn_dirty,
    tofn_dirty_spec,
)
from rphase.circuit import Circuit, TargetSpec, cx, x, z
from rphase.simulate import NotAPhasePermutation, unitary_columns
from rphase.verify import (
    check_implements,
    env_backend,
    global_phase_equal,
    is_relative_phase_of,
    is_special_form,
    permutation_parity,
    target_permutation,
)


def test_check_tof4_clean_exact():
    rep = check_implements(tofn_clean(4), tofn_clean_spec(4))
    assert rep.exact and rep.global_phase and rep.relative_phase and rep.ancilla_ok
    assert rep.backend == "ring"


def test_check_rtof3_long_relative_only():
    spec = TargetSpec("rtof", (0, 1), 2, equivalence="relative_phase")
    rep = check_implements(rtof3_long(), spec)
    assert rep.relative_phase and not rep.exact and not rep.global_phase


def test_check_ccix_special_form():
    spec = TargetSpec("srtof", (0, 1), 2, xprime=frozenset({2}),
                      equivalence="special_form")
    rep = check_implements(srtof3_ccix(), spec)
    assert rep.relative_phase and rep.special_form_holds
    assert rep.satisfies("special_form")


def test_check_report_schema():
    rep = check_implements(toffoli3(), TargetSpec("tof", (0, 1), 2))
    d = rep.as_dict()
    assert set(d) == {"exact", "global_phase", "relative_phase", "special_form",
                      "ancilla_ok", "backend", "max_support"}
    assert d["special_form"] == {"xprime": [], "holds": True}
    # toffoli3's two Hadamards act on the target in turn: support 2 at most
    assert d["max_support"] == rep.max_support == 2


def test_check_non_phase_permutation():
    from rphase.circuit import h

    with pytest.raises(NotAPhasePermutation):
        check_implements(Circuit(1, [h(0)]), TargetSpec("tof", (), 0))


def test_check_names_the_column_that_does_not_collapse():
    from rphase.circuit import h, t, tdg

    # H T (X Tdg X) H on qubit 1: the identity when qubit 0 is 0, and
    # H S H up to a phase (two outputs) when it is 1
    c = Circuit(2, [h(1), t(1), cx(0, 1), tdg(1), cx(0, 1), h(1)])
    with pytest.raises(NotAPhasePermutation, match="column 10 "):
        check_implements(c, TargetSpec("tof", (0,), 1))


def test_check_parallel_equals_serial():
    c, spec = tofn_dirty(6), tofn_dirty_spec(6)
    serial = check_implements(c, spec)
    assert serial.exact and serial.ancilla_ok
    assert check_implements(c, spec, processes=2) == serial


def test_is_relative_phase_of():
    assert is_relative_phase_of(unitary_columns(rtof4_long()),
                                TargetSpec("tof", (0, 1, 2), 3))
    assert is_relative_phase_of(unitary_columns(toffoli3()),
                                TargetSpec("tof", (0, 1), 2))
    cnot_only = Circuit(3, [cx(0, 2)])
    assert not is_relative_phase_of(unitary_columns(cnot_only),
                                    TargetSpec("tof", (0, 1), 2))


def test_is_special_form_cases():
    spec = TargetSpec("tof", (0, 1), 2)
    u_ccix = unitary_columns(srtof3_ccix())
    assert is_special_form(u_ccix, {2}, spec)
    # full-set special form would mean Toffoli up to global phase; ccix is not
    assert not is_special_form(u_ccix, {0, 1, 2}, spec)
    u_rtl = unitary_columns(rtof3_long())
    assert not is_special_form(u_rtl, {2}, spec)  # the -1 breaks the class


def test_exact_toffoli_is_special_form_of_every_type():
    u = unitary_columns(toffoli3())
    spec = TargetSpec("tof", (0, 1), 2)
    for xp in [set(), {0}, {1}, {2}, {0, 1}, {0, 1, 2}]:
        assert is_special_form(u, xp, spec)


def test_global_phase_equal():
    u = unitary_columns(toffoli3())
    assert global_phase_equal(u, u)
    # Z X Z X = -identity: a global phase circuit
    minus = Circuit(3, list(toffoli3().gates) + [z(0), x(0), z(0), x(0)])
    v = unitary_columns(minus)
    assert global_phase_equal(u, v)
    assert not global_phase_equal(u, unitary_columns(rtof3_long()))


def test_permutation_parity():
    spec4 = TargetSpec("tof", (0, 1, 2), 3)
    assert permutation_parity(spec4) == -1
    assert permutation_parity(spec4, width=5) == 1  # det(A (x) I2) = det(A)^2
    assert permutation_parity(range(16)) == 1
    assert permutation_parity(unitary_columns(toffoli3())) == -1


def test_every_catalog_rtof_inverse_is_an_rtof():
    """The inverse of each relative-phase Toffoli is again one, with
    conjugated phases on the diagonal positions."""
    for name in ("toffoli3", "rtof3_long", "srtof3_ccix", "rtof4_long"):
        entry = catalog_entries()[name]
        u = unitary_columns(entry.circuit)
        spec = TargetSpec("tof", entry.spec.controls, entry.spec.target)
        v = unitary_columns(entry.circuit.inverse())
        assert is_relative_phase_of(v, spec), name
        zr, wr = u.row_phases(), v.row_phases()
        for i in range(u.dim):
            if u.perm[i] == i:
                assert wr[i] == zr[i].conj(), (name, i)


def test_target_permutation_negative_controls():
    spec = TargetSpec("tof", (0, 1), 2, neg=frozenset({1}))
    perm = target_permutation(spec, 3)
    assert perm[0b100] == 0b101 and perm[0b110] == 0b110


def test_env_backend(monkeypatch):
    monkeypatch.delenv("RPHASE_BACKEND", raising=False)
    assert env_backend() is None
    monkeypatch.setenv("RPHASE_BACKEND", "float")
    assert env_backend() == "float"
    monkeypatch.setenv("RPHASE_BACKEND", "nonsense")
    with pytest.raises(ValueError):
        env_backend()
