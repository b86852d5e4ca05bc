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

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, permutations

from .circuit import BLOCKS, Block, Circuit, Gate, TargetSpec, basis_bit, marker, tof
from .simulate import PhasePermutation
from .verify import check_implements


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


def classify_pair(circ: Circuit, i: int, j: int) -> ConjugationMatch:
    """Classify the equal tofs at i < j by the block between them."""
    gi = circ.gates[i]
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


def _equal_tof_pairs(circ: Circuit) -> list[tuple[int, int]]:
    """Every pair (i, j), i < j, of equal tof gates, ordered by i then j.
    Equal tofs meet in one index list per gate."""
    at: dict[Gate, list[int]] = {}
    for i, g in enumerate(circ.gates):
        if g.kind == "tof":
            at.setdefault(g, []).append(i)
    return sorted((i, j) for idx in at.values()
                  for k, i in enumerate(idx) for j in idx[k + 1:])


def find_conjugations(circ: Circuit) -> list[ConjugationMatch]:
    """All classified pairs (i, j), i < j, of equal tof gates, ordered by
    i then j."""
    return [classify_pair(circ, i, j) for i, j in _equal_tof_pairs(circ)]


# -- implementation admissibility ------------------------------------------

@lru_cache(maxsize=None)
def _invariant(name: str) -> frozenset[int]:
    """Positions of block ``name`` whose flips leave its untruncated base's
    phase diagonal fixed: a type-{p} special form, as ``check_implements``
    certifies it."""
    b = BLOCKS[name]
    if b.base != name:
        return _invariant(b.base)
    return frozenset(
        p for p in range(b.arity)
        if check_implements(b.circuit, replace(b.spec, xprime=frozenset({p}))).special_form_holds)


def _wire_maps(block: Block, m: ConjugationMatch):
    """Yield wires tuples (role position -> circuit qubit, target last)
    satisfying the type and junk constraints, cheapest-first by the
    natural control order."""
    if m.classification == "prop1":
        need_invariant, junk_allowed = frozenset(), frozenset(m.controls)
    elif m.classification == "prop2":
        need_invariant, junk_allowed = m.touched, m.untouched | {m.target}
    else:
        need_invariant, junk_allowed = m.touched | {m.target}, m.untouched
    invariant = _invariant(block.name)
    for perm in permutations(m.controls):
        wires = perm + (m.target,)
        if all((q not in need_invariant or pos in invariant)
               and (pos not in block.junk or q in junk_allowed)
               for pos, q in enumerate(wires)):
            yield wires


def admissible(impl_name: str, m: ConjugationMatch) -> bool:
    """Whether ``apply_replacement`` accepts ``impl_name`` for the match."""
    try:
        apply_replacement(m, impl_name)
    except RewriteError:
        return False
    return True


def _admits_some_match(block: Block) -> bool:
    """Whether any match can take the block. prop1 touches no control and
    prop2 at least one; prop3 may touch any number."""
    controls = tuple(range(block.arity - 1))
    for r in range(block.arity):
        for touched in combinations(controls, r):
            for cls in ("prop2" if r else "prop1", "prop3"):
                m = ConjugationMatch(0, 1, cls, controls, block.arity - 1, frozenset(touched))
                if next(_wire_maps(block, m), None) is not None:
                    return True
    return False


# Blocks some match can take, cheapest first: by CNOT, then T, then H count.
REPLACEMENT_IMPLS = tuple(b.name for b in sorted(
    (b for b in BLOCKS.values() if _admits_some_match(b)),
    key=lambda b: (b.counts[1], b.counts[0], b.counts[2])))


def apply_replacement(m: ConjugationMatch, impl_name: str) -> tuple[Gate, Gate]:
    """The gates that replace the matched tof pair: ``impl_name`` and its
    inverse, as markers (or exact tofs) on the pair's qubits.

    Writing them at ``m.left_index`` and ``m.right_index`` leaves everything
    between untouched, so gate counts change only at those two positions.
    """
    if m.neg:
        raise RewriteError(
            "pair has negative controls; no catalog implementation carries them")
    block = BLOCKS.get(impl_name)
    if block is None:
        raise RewriteError(f"{impl_name} is not usable as a conjugation replacement")
    if block.arity != m.arity:
        raise ArityMismatch(
            f"arity mismatch: {impl_name} has {block.arity} qubits, "
            f"pair has {m.arity}")
    wires = next(_wire_maps(block, m), None)
    if wires is None:
        raise SpecialFormViolated(
            f"special-form type violated: {impl_name} does not provide a "
            f"type-{sorted(m.touched)} special form for this {m.classification} match")
    if block.kind is None:
        left = tof(m.controls, m.target)
        return left, left
    left = marker(block.kind, wires[:-1], m.target)
    return left, left.inverse()


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
    bits = [basis_bit(u.width, q) for q in range(u.width)]
    flip = u.perm[moved[0]] ^ moved[0]
    if flip not in bits or any(u.perm[s] ^ s != flip for s in moved):
        raise NotRelativePhaseToffoli(
            "not a relative-phase Toffoli: columns move more than one bit")
    target = bits.index(flip)
    # moved set must be exactly the all-controls-one subcube
    expect_controls = [
        q for q, b in enumerate(bits) if q != target and all(s & b for s in moved)
    ]
    cm = sum(bits[q] for q in expect_controls)
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
