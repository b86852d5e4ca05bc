"""Correctness certificates for circuits claiming a (relative-phase)
multiple-control Toffoli.

``check_implements`` simulates a circuit column by column against a
TargetSpec and reports every verdict at once: exact equality, equality up
to a global phase, relative-phase equality (permutation matches, every
phase unit-magnitude), the special-form phase-class condition, and the
ancilla contract (clean helpers enter and leave |0>, dirty helpers factor
out). Each column collapses to one output and a phase w^j, and every
verdict is decided on those integers j, so every verdict is exact. The
columns' ``half`` bit (an odd ry-unit total's e^(i pi/8) on every phase)
only rules out exact equality, the one verdict that reads a global
phase. It is the one place these verdicts are decided: the rewrite engine
reads a block's special-form types from it too.

The columns come from ``simulate._collapsed``, the ring column stream,
and this module alone chooses them. Clean ancillae restrict the checked
subspace: only columns whose clean bits are 0 are simulated, which is the
whole contract for such circuits, and the width guard counts only those.
Those columns are enumerated directly, and each is checked against the
target's flip on its own, so a check costs 2^(width - clean ancillae),
never 2^width. Dirty ancillae are enumerated and must factor out exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .circuit import Circuit, ROLE_CLEAN, ROLE_DIRTY, TargetSpec, basis_bit, tof
from .simulate import compile_gate, _collapsed, _half, _submasks, _width_guard
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


def _flip(spec: TargetSpec, width: int) -> tuple[int, int, int]:
    """(control mask, control value, flip mask) of the spec's tof gate."""
    (_, cm, cv, flip, _), = compile_gate(tof(spec.controls, spec.target, spec.neg), width)
    return cm, cv, flip


def target_permutation(spec: TargetSpec, width: int) -> list[int]:
    """The permutation of ``spec`` acting on ``width`` qubits (identity on
    qubits the spec does not mention): the flip of its tof gate."""
    cm, cv, flip = _flip(spec, width)
    return [(s ^ flip) if (s & cm) == cv else s for s in range(1 << width)]


def check_implements(circuit: Circuit, spec: TargetSpec) -> VerificationReport:
    """Exhaustive basis simulation of ``circuit`` against ``spec``; a spec
    naming a qubit outside the circuit is a ValueError."""
    width = circuit.width
    for q in sorted(spec.qubits):
        if not 0 <= q < width:
            raise ValueError(f"spec names qubit {q} outside width {width}")
    clean_mask = sum(basis_bit(width, q) for q, r in enumerate(circuit.roles) if r == ROLE_CLEAN)
    dirty_mask = sum(basis_bit(width, q) for q, r in enumerate(circuit.roles) if r == ROLE_DIRTY)
    _width_guard(width - clean_mask.bit_count())
    columns = list(_submasks(((1 << width) - 1) & ~clean_mask))
    entries, max_support = _collapsed(circuit, columns)
    pairs = list(zip(columns, entries))
    cm, cv, flip = _flip(spec, width)

    clean_ok = all(not o & clean_mask for o, _ in entries)
    dirty_preserved = all(o & dirty_mask == s & dirty_mask for s, (o, _) in pairs)
    perm_ok = all(o == (s ^ flip if s & cm == cv else s) for s, (o, _) in pairs)

    # dirty factorization: action and phase independent of the dirty bits
    factor_ok = not dirty_mask or _constant_on_classes(
        ((s, (o ^ s, j)) for s, (o, j) in pairs), dirty_mask)
    ancilla_ok = clean_ok and dirty_preserved and factor_ok

    # every collapsed phase is some w^j, so relative phase needs only the
    # permutation and the ancilla contract; e^(i pi/8) w^j != 1
    exponents = {j for _, j in entries}
    exact = perm_ok and exponents == {0} and ancilla_ok and not _half(circuit)
    global_phase = perm_ok and len(exponents) == 1 and ancilla_ok
    relative = perm_ok and ancilla_ok

    # special form is read on the canonic row-indexed diagonal: the
    # (output, j) entries, one per row once perm_ok holds
    xprime = tuple(sorted(spec.xprime))
    sf_holds = perm_ok and _constant_on_classes(
        entries, sum(basis_bit(width, q) for q in xprime))

    return VerificationReport(
        exact=exact,
        global_phase=global_phase,
        relative_phase=relative,
        special_form_xprime=xprime,
        special_form_holds=sf_holds,
        ancilla_ok=ancilla_ok,
        max_support=max_support,
    )


def _constant_on_classes(pairs, mask: int) -> bool:
    """True iff the values of the (index, value) ``pairs`` are equal
    within every class of indices that differ only in the ``mask`` bits."""
    first = {}
    return all(v == first.setdefault(i & ~mask, v) for i, v in pairs)


# -- phase-permutation level predicates -------------------------------------

def permutation_parity(perm) -> int:
    """Sign of a permutation given as the sequence of its images: +1 or -1.
    Pass ``target_permutation(spec, width)`` or a ``PhasePermutation``'s
    ``perm``."""
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

