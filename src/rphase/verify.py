"""Correctness certificates for circuits claiming a (relative-phase)
multiple-control Toffoli.

``check_implements`` simulates a circuit column by column against a
TargetSpec and reports every verdict at once: exact equality, equality up
to a global phase, relative-phase equality (permutation matches, every
phase unit-magnitude), the special-form phase-class condition, and the
ancilla contract (clean helpers enter and leave |0>, dirty helpers factor
out). Every phase is a ring element, so every verdict is exact. The
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
from .ring import ONE
from .simulate import PhasePermutation, compile_gate, same_phase
from .simulate import _collapsed, _columns, _half, _same_columns, _width_guard
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
    """Exhaustive basis simulation of ``circuit`` against ``spec``."""
    width = circuit.width
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
        ((s, (o ^ s, ph)) for s, (o, ph) in pairs), dirty_mask,
        lambda a, b: a[0] == b[0] and same_phase(a[1], b[1]))
    ancilla_ok = clean_ok and dirty_preserved and factor_ok

    first = entries[0][1]
    all_one = all(same_phase(ph, ONE) for _, ph in entries)
    constant = all(same_phase(ph, first) for _, ph in entries)

    # every collapsed phase is unit-magnitude, so relative phase needs
    # only the permutation and the ancilla contract; e^(i pi/8) w^j != 1
    exact = perm_ok and all_one and ancilla_ok and not _half(circuit)
    global_phase = perm_ok and constant and ancilla_ok
    relative = perm_ok and ancilla_ok

    # special form is read on the canonic row-indexed diagonal: the
    # (output, phase) entries, one per row once perm_ok holds
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


def _submasks(mask: int):
    """Every index whose set bits lie in ``mask``, in ascending order."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def _constant_on_classes(pairs, mask: int, same=same_phase) -> bool:
    """True iff the values of the (index, value) ``pairs`` agree under
    ``same`` within every class of indices that differ only in the
    ``mask`` bits."""
    first = {}
    return all(same(v, first.setdefault(i & ~mask, v)) for i, v in pairs)


# -- phase-permutation level predicates -------------------------------------

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


def backends_agree(circuit: Circuit) -> bool:
    """Whether every column of the circuit's unitary, of any shape, is
    the same on the ring and float kernels under ``same_phase``; both
    leave out ``half``'s factor alike."""
    return _same_columns(_columns(circuit, "ring"), _columns(circuit, "float"))
