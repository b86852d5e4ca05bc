"""Correctness certificates for circuits claiming a (relative-phase)
multiple-control Toffoli.

``check_implements`` simulates a circuit column by column against a
TargetSpec and reports every verdict at once: exact equality, equality up
to a global phase, relative-phase equality (permutation matches, every
phase unit-magnitude), the special-form phase-class condition, and the
ancilla contract (clean helpers enter and leave |0>, dirty helpers factor
out). In the ring backend every verdict is tolerance-free.

The columns come from ``simulate.unitary_columns``, the one column
driver. Clean ancillae restrict the checked subspace: only columns whose
clean bits are 0 are simulated, which is the whole contract for such
circuits, and the width guard counts only those. Dirty ancillae are
enumerated and must factor out exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .circuit import Circuit, ROLE_CLEAN, ROLE_DIRTY, TargetSpec
from .ring import RingElement
from .simulate import FLOAT_TOL, PhasePermutation, unitary_columns
# perfbench/tracer.py binds its simulate spans to these names in this module
from .simulate import compile_circuit, run_column_float, run_column_ring  # noqa: F401


@dataclass(frozen=True)
class VerificationReport:
    exact: bool
    global_phase: bool
    relative_phase: bool
    special_form_xprime: tuple[int, ...]
    special_form_holds: bool
    ancilla_ok: bool
    backend: str
    max_support: int = 0

    def as_dict(self) -> dict:
        return {
            "exact": self.exact,
            "global_phase": self.global_phase,
            "relative_phase": self.relative_phase,
            "special_form": {
                "xprime": list(self.special_form_xprime),
                "holds": self.special_form_holds,
            },
            "ancilla_ok": self.ancilla_ok,
            "backend": self.backend,
            "max_support": self.max_support,
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict())

    def satisfies(self, equivalence: str) -> bool:
        ok = {
            "exact": self.exact,
            "global_phase": self.global_phase,
            "relative_phase": self.relative_phase,
            "special_form": self.special_form_holds and self.relative_phase,
        }[equivalence]
        return ok and self.ancilla_ok


def target_permutation(spec: TargetSpec, width: int) -> list[int]:
    """The permutation of ``spec`` acting on ``width`` qubits (identity on
    qubits the spec does not mention)."""
    cm = cv = 0
    for q in spec.controls:
        b = 1 << (width - 1 - q)
        cm |= b
        if q not in spec.neg:
            cv |= b
    tb = 1 << (width - 1 - spec.target)
    return [(s ^ tb) if (s & cm) == cv else s for s in range(1 << width)]


def _phase_one(phase, backend: str) -> bool:
    if backend == "ring":
        return phase == RingElement.from_int(1)
    return abs(phase - 1.0) < FLOAT_TOL


def _phases_equal(a, b, backend: str) -> bool:
    if backend == "ring":
        return a == b
    return abs(a - b) < FLOAT_TOL


def check_implements(
    circuit: Circuit,
    spec: TargetSpec,
    processes: int | None = None,
) -> VerificationReport:
    """Exhaustive basis simulation of ``circuit`` against ``spec``."""
    width = circuit.width
    bit = lambda q: 1 << (width - 1 - q)
    clean_mask = sum(bit(q) for q, r in enumerate(circuit.roles) if r == ROLE_CLEAN)
    dirty_mask = sum(bit(q) for q, r in enumerate(circuit.roles) if r == ROLE_DIRTY)
    cols = unitary_columns(
        circuit, processes=processes,
        column_indices=(s for s in range(1 << width) if not s & clean_mask))
    perm, phase, backend = cols.perm, cols.phases, cols.backend
    columns = list(perm)
    expected = target_permutation(spec, width)

    clean_ok = all(not perm[s] & clean_mask for s in columns)
    dirty_preserved = all(perm[s] & dirty_mask == s & dirty_mask for s in columns)
    perm_ok = all(perm[s] == expected[s] for s in columns)

    # dirty factorization: action and phase independent of the dirty bits
    factor_ok = True
    if dirty_mask:
        base = {}
        for s in columns:
            key = s & ~dirty_mask
            if key in base:
                b = base[key]
                if (perm[s] ^ s) != (perm[b] ^ b) or not _phases_equal(
                    phase[s], phase[b], backend
                ):
                    factor_ok = False
                    break
            else:
                base[key] = s
    ancilla_ok = clean_ok and dirty_preserved and factor_ok

    all_one = all(_phase_one(phase[s], backend) for s in columns)
    first = phase[columns[0]]
    constant = all(_phases_equal(phase[s], first, backend) for s in columns)

    # every collapsed phase is unit-magnitude, so relative phase needs
    # only the permutation and the ancilla contract
    exact = perm_ok and all_one and ancilla_ok
    global_phase = perm_ok and constant and ancilla_ok
    relative = perm_ok and ancilla_ok

    xprime = tuple(sorted(spec.xprime))
    sf_holds = False
    if perm_ok:
        row_phase = {perm[s]: phase[s] for s in columns}
        sf_holds = _classes_equal(row_phase, xprime, width, backend)

    return VerificationReport(
        exact=exact,
        global_phase=global_phase,
        relative_phase=relative,
        special_form_xprime=xprime,
        special_form_holds=sf_holds,
        ancilla_ok=ancilla_ok,
        backend=backend,
        max_support=cols.max_support,
    )


def _classes_equal(row_phase: dict, xprime, width: int, backend: str) -> bool:
    """Phases equal within every class of indices differing only in the
    xprime digits (evaluated on the canonic row-indexed diagonal)."""
    xmask = sum(1 << (width - 1 - q) for q in xprime)
    reps = {}
    for idx, ph in row_phase.items():
        rep = idx & ~xmask
        if rep in reps:
            if not _phases_equal(ph, reps[rep], backend):
                return False
        else:
            reps[rep] = ph
    return True


# -- phase-permutation level predicates -------------------------------------

def is_relative_phase_of(u: PhasePermutation, spec: TargetSpec) -> bool:
    """Permutations equal; phases are unit-magnitude by the type invariant."""
    return list(u.perm) == target_permutation(spec, u.width)


def is_special_form(u: PhasePermutation, xprime, spec: TargetSpec) -> bool:
    """True iff the canonic row phases are constant on every class of
    basis states differing only in the ``xprime`` digits."""
    if not is_relative_phase_of(u, spec):
        return False
    row = {i: ph for i, ph in enumerate(u.row_phases())}
    return _classes_equal(row, tuple(xprime), u.width, u.backend)


def global_phase_equal(u: PhasePermutation, v: PhasePermutation) -> bool:
    """Same permutation and columnwise phase ratio constant."""
    if u.width != v.width or u.perm != v.perm:
        return False
    if u.backend == "ring" and v.backend == "ring":
        z0, w0 = u.phases[0], v.phases[0]
        return all(
            z * w0 == w * z0 for z, w in zip(u.phases, v.phases)
        )
    ratio0 = complex(u.phases[0]) / complex(v.phases[0])
    return all(
        abs(complex(z) / complex(w) - ratio0) < FLOAT_TOL
        for z, w in zip(u.phases, v.phases)
    )


def permutation_parity(obj, width: int | None = None) -> int:
    """Sign of the permutation part: +1 or -1.

    Accepts a PhasePermutation, an explicit permutation sequence, or a
    TargetSpec (width defaults to the tightest register holding it)."""
    if isinstance(obj, PhasePermutation):
        perm = list(obj.perm)
    elif isinstance(obj, TargetSpec):
        if width is None:
            width = max(obj.qubits) + 1
        perm = target_permutation(obj, width)
    else:
        perm = list(obj)
    seen = [False] * len(perm)
    sign = 1
    for s in range(len(perm)):
        if seen[s]:
            continue
        length = 0
        q = s
        while not seen[q]:
            seen[q] = True
            q = perm[q]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def backends_agree(circuit: Circuit, tol: float = FLOAT_TOL) -> bool:
    """Float and ring backends produce the same unitary within ``tol``."""
    u_ring = unitary_columns(circuit, backend="ring")
    u_float = unitary_columns(circuit, backend="float")
    if isinstance(u_ring, PhasePermutation) != isinstance(u_float, PhasePermutation):
        return False
    if isinstance(u_ring, PhasePermutation):
        if u_ring.perm != u_float.perm:
            return False
        return all(
            abs(complex(a) - b) < tol
            for a, b in zip(u_ring.phases, u_float.phases)
        )
    for c, d in zip(u_ring.columns, u_float.columns):
        for r in set(c) | set(d):
            if abs(complex(c.get(r, 0)) - complex(d.get(r, 0))) > tol:
                return False
    return True
