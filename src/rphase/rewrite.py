"""Peephole engine: conjugation replacements, canonic decomposition, and
inverse-pair cancellation.

The central move replaces a pair of identical multi-control tof gates that
conjugate a compatible middle block with a cheaper relative-phase
implementation and its inverse, leaving the overall unitary unchanged.
Which implementations are sound depends on how the middle touches the
pair's qubits; the three cases are classified from syntactic qubit
support only (gates on disjoint qubits commute, nothing finer):

* ``prop1``  -- every middle gate either avoids the pair's qubits, is
  controlled on the pair's target, or is diagonal. Any relative-phase
  implementation of the pair works; a junk unitary on the controls is
  tolerated.
* ``prop2``  -- the middle never touches the pair's target. The touched
  controls Y demand an implementation whose phase diagonal is constant
  across flips of Y (a type-Y special form); junk on the untouched
  controls plus the target is tolerated.
* ``prop3``  -- the middle reaches the target in any other way. The
  implementation's phases must be constant across flips of the touched
  controls and the target; junk only on untouched controls.

Soundness in all three cases reduces to the same commutation fact: the
implementation's canonic phase diagonal must commute with the middle
block, which holds exactly when the diagonal is flip-invariant on every
qubit the middle acts on.

Cancellation is one forward pass over a per-qubit stack of kept gates:
each gate cancels the latest kept gate on its qubits when the two are
inverse, and is kept otherwise. No cancellable pair is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import catalog as cat
from .circuit import Circuit, Gate, TargetSpec, marker, tof
from .simulate import PhasePermutation, unitary_columns


class RewriteError(Exception):
    pass


class ArityMismatch(RewriteError):
    pass


class SpecialFormViolated(RewriteError):
    pass


class NotRelativePhaseToffoli(RewriteError):
    pass


_DIAGONAL_KINDS = frozenset({"z", "p", "pdg", "t", "tdg", "cz"})


def _block_diagonal_controls(g: Gate) -> frozenset[int]:
    """Qubits in which the gate acts block-diagonally as a control.

    Markers qualify on every control: their relative-phase core is a
    Toffoli times a diagonal, and each truncation tail touches a control
    qubit only through CNOT controls or diagonal gates, never a Hadamard
    (verified mechanically in the test suite).
    """
    if g.kind in ("tof", "cnot") or g.is_marker:
        return frozenset(g.controls)
    return frozenset()


@dataclass(frozen=True)
class ConjugationMatch:
    """An identical tof pair at (left_index, right_index) and the
    classification of the block between them."""

    left_index: int
    right_index: int
    classification: str          # "prop1" | "prop2" | "prop3"
    controls: tuple[int, ...]    # the pair's controls
    target: int
    touched: frozenset[int]      # pair controls the middle acts on
    neg: frozenset[int] = frozenset()

    @property
    def arity(self) -> int:
        return len(self.controls) + 1

    @property
    def untouched(self) -> frozenset[int]:
        """Pair controls the middle block never acts on (where junk may go)."""
        return frozenset(self.controls) - self.touched


def _blocks_prop1(g: Gate, target: int, controls: frozenset) -> bool:
    """Middle gate compatible with prop1: it stays off the pair's controls
    and is block-diagonal in the pair's target -- a diagonal gate, or a
    gate holding the target as a junk-free control."""
    if g.support & controls:
        return False
    if g.kind in _DIAGONAL_KINDS:
        return True
    return target in _block_diagonal_controls(g)


def classify_pair(circ: Circuit, i: int, j: int) -> ConjugationMatch | None:
    gi, gj = circ.gates[i], circ.gates[j]
    if gi.kind != "tof" or gi != gj:
        return None
    controls = frozenset(gi.controls)
    target = gi.target
    pair_qubits = controls | {target}
    middle = [g for g in circ.gates[i + 1:j] if g.support & pair_qubits]
    support = frozenset().union(*(g.support for g in middle)) if middle else frozenset()
    touched = frozenset(support & controls)
    if all(_blocks_prop1(g, target, controls) for g in middle):
        cls = "prop1"
    elif target not in support:
        cls = "prop2"
    else:
        cls = "prop3"
    return ConjugationMatch(i, j, cls, gi.controls, target, touched, gi.neg)


def find_conjugations(circ: Circuit) -> list[ConjugationMatch]:
    """All classified pairs (i, j), i < j, of equal tof gates."""
    out = []
    gates = circ.gates
    for i, gi in enumerate(gates):
        if gi.kind != "tof":
            continue
        for j in range(i + 1, len(gates)):
            if gates[j] == gi:
                m = classify_pair(circ, i, j)
                if m is not None:
                    out.append(m)
    return out


# -- implementation admissibility ------------------------------------------

@dataclass(frozen=True)
class _ImplInfo:
    name: str
    arity: int
    invariant: frozenset[int]    # role positions whose flips leave phases fixed
    junk: frozenset[int]         # role positions carrying the truncation junk
    emit_kind: str | None        # marker kind, or None for the exact tof


@lru_cache(maxsize=None)
def _impl_info(name: str) -> _ImplInfo:
    entry = cat.get_entry(name)
    arity = entry.circuit.width
    junk_map = {
        "toffoli3": frozenset(),
        "rtof3_long": frozenset(),
        "srtof3_ccix": frozenset(),
        "rtof4_long": frozenset(),
        "rts3": frozenset({1, 2}),
        "srts3": frozenset({0, 2}),
        "rt4s": frozenset({1, 2, 3}),
    }
    if name not in junk_map:
        raise RewriteError(f"{name} is not usable as a conjugation replacement")
    base_map = {  # junk-free circuit whose phases define the diagonal
        "rts3": "rtof3_long",
        "srts3": "toffoli3",
        "rt4s": "rtof4_long",
    }
    base = cat.get_entry(base_map.get(name, name))
    u = unitary_columns(base.circuit)
    assert isinstance(u, PhasePermutation)
    z = u.row_phases()
    invariant = frozenset(
        pos for pos in range(arity)
        if _flip_invariant(z, arity, pos)
    )
    emit = entry.marker_kind if entry.name != "toffoli3" else None
    return _ImplInfo(name, arity, invariant, junk_map[name], emit)


def _flip_invariant(z, arity: int, pos: int) -> bool:
    mask = 1 << (arity - 1 - pos)
    return all(z[s] == z[s ^ mask] for s in range(1 << arity))


REPLACEMENT_IMPLS = (
    "rtof3_long", "srts3", "srtof3_ccix", "toffoli3", "rtof4_long",
)


def _junk_region(cls: str, touched: frozenset, controls, target) -> frozenset:
    untouched = frozenset(controls) - touched
    if cls == "prop1":
        return frozenset(controls)
    if cls == "prop2":
        return untouched | {target}
    return untouched


def _wire_maps(info: _ImplInfo, m: ConjugationMatch):
    """Yield role-position -> circuit-qubit maps satisfying the type and
    junk constraints, cheapest-first by the natural control order."""
    from itertools import permutations

    need_invariant = m.touched if m.classification == "prop2" else (
        frozenset() if m.classification == "prop1" else m.touched | {m.target})
    junk_allowed = _junk_region(m.classification, m.touched, m.controls, m.target)
    tgt_pos = info.arity - 1
    for perm in permutations(m.controls):
        mapping = {pos: q for pos, q in enumerate(perm)}
        mapping[tgt_pos] = m.target
        ok = True
        for q in need_invariant:
            pos = next(p for p, qq in mapping.items() if qq == q)
            if pos not in info.invariant:
                ok = False
                break
        if ok:
            for pos in info.junk:
                if mapping[pos] not in junk_allowed:
                    ok = False
                    break
        if ok:
            yield mapping


def admissible(impl_name: str, m: ConjugationMatch) -> bool:
    if m.neg:
        return False  # the catalog holds no negative-control implementations
    info = _impl_info(impl_name)
    if info.arity != m.arity:
        return False
    return next(_wire_maps(info, m), None) is not None


def apply_replacement(circ: Circuit, m: ConjugationMatch, impl_name: str) -> Circuit:
    """Replace the matched tof pair with ``impl_name`` and its inverse.

    The pair's gates become markers (or stay exact tofs) on the same
    qubits; everything between them is untouched, so gate counts change
    only at the two replaced positions.
    """
    if m.neg:
        raise RewriteError(
            "pair has negative controls; no catalog implementation carries them")
    info = _impl_info(impl_name)
    if info.arity != m.arity:
        raise ArityMismatch(
            f"arity mismatch: {impl_name} has {info.arity} qubits, "
            f"pair has {m.arity}")
    mapping = next(_wire_maps(info, m), None)
    if mapping is None:
        raise SpecialFormViolated(
            f"special-form type violated: {impl_name} does not provide a "
            f"type-{sorted(m.touched)} special form for this {m.classification} match")
    if info.emit_kind is None:
        left = tof(m.controls, m.target)
        right = left
    else:
        wires = tuple(mapping[pos] for pos in range(info.arity - 1))
        left = marker(info.emit_kind, wires, m.target)
        right = left.inverse()
    gates = list(circ.gates)
    gates[m.left_index] = left
    gates[m.right_index] = right
    return Circuit(circ.width, gates, circ.roles)


# -- canonic decomposition ---------------------------------------------------

def canonic_decompose(u: PhasePermutation) -> tuple[TargetSpec, tuple]:
    """Split a relative-phase Toffoli into the exact tof and the diagonal
    that follows it (tof-then-D order), returning (tof spec, row phases).

    Multiplying back -- column s carries phase D[perm(s)] -- reproduces the
    input exactly.
    """
    dim = u.dim
    moved = [s for s in range(dim) if u.perm[s] != s]
    if not moved:
        raise NotRelativePhaseToffoli(
            "not a relative-phase Toffoli: permutation part is the identity")
    flip = u.perm[moved[0]] ^ moved[0]
    if flip.bit_count() != 1 or any(u.perm[s] ^ s != flip for s in moved):
        raise NotRelativePhaseToffoli(
            "not a relative-phase Toffoli: columns move more than one bit")
    target = u.width - flip.bit_length()
    # moved set must be exactly the all-controls-one subcube
    expect_controls = [
        q for q in range(u.width)
        if q != target and all((s >> (u.width - 1 - q)) & 1 for s in moved)
    ]
    cm = sum(1 << (u.width - 1 - q) for q in expect_controls)
    if len(moved) * 2 ** len(expect_controls) != dim or any(
        (s & cm) != cm for s in moved
    ):
        raise NotRelativePhaseToffoli(
            "not a relative-phase Toffoli: flipped set is not a control subcube")
    spec = TargetSpec("tof", tuple(expect_controls), target)
    return spec, u.row_phases()


# -- inverse-pair cancellation -----------------------------------------------

def _cancels(a: Gate, b: Gate) -> bool:
    if b == a.inverse():
        return True
    # cz is symmetric in its two qubits (positive polarity only)
    return (a.kind == "cz" and b.kind == "cz" and not a.neg and not b.neg
            and a.support == b.support)


def cancel_adjacent_inverses(circ: Circuit) -> Circuit:
    """Remove gate pairs g, g^-1 on identical qubits that are adjacent up
    to commuting through gates on disjoint qubits; the unitary is unchanged.

    One forward pass keeps, per qubit, a stack of the kept gates on it. A
    gate cancels the latest kept gate on any of its qubits when the two
    are inverse (that gate then tops every one of their shared stacks) and
    is kept otherwise. A removal exposes the gates below it to every later
    gate, so the result holds no cancellable pair.
    """
    gates = circ.gates
    kept = [True] * len(gates)
    wires: list[list[int]] = [[] for _ in range(circ.width)]
    for i, g in enumerate(gates):
        sup = g.support
        last = max((wires[q][-1] for q in sup if wires[q]), default=-1)
        if last >= 0 and _cancels(gates[last], g):
            kept[last] = kept[i] = False
            for q in sup:
                wires[q].pop()
        else:
            for q in sup:
                wires[q].append(i)
    return Circuit(circ.width, [g for g, k in zip(gates, kept) if k], circ.roles)
