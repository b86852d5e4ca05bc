"""The rewrite pass: conjugation replacements and inverse-pair cancellation.

``apply_rules(circuit, rules)`` is the whole pass ``rphase rewrite`` runs.
It walks the pairs of equal tofs once, replaces each pair of an enabled
class with the cheapest block that fits (none when that is the exact
toffoli3: a tof pair for a tof pair changes nothing), and under
``cancel`` lowers the result and removes adjacent inverse pairs. Only
this module knows what a rule does.

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

Admissibility reads the wire maps: an implementation fits a match when
some map of its roles onto the pair's qubits meets the type and junk
constraints. The test builds no gate; ``apply_replacement`` makes the same
checks and builds only the pair it returns, and the pass builds the chosen
pair from the wires its one check found.

Cancellation is one forward pass over a per-qubit stack of kept gates:
each gate cancels the latest kept gate on its qubits when it is that
gate's inverse (or both are positive cz gates on the same two qubits),
and is kept otherwise. No cancellable pair is left. Each distinct
gate object's inverse is built at most once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .circuit import BLOCKS, KINDS, Block, Circuit, Gate, InputError, marker, tof
from .lowering import lower

# Rule names ``apply_rules`` takes: the classes of pairs it may replace,
# and the lowering and inverse-pair cancellation of the result.
RULES = ("prop1", "prop2", "prop3", "cancel")


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
    and is block-diagonal in the pair's target -- a diagonal gate (a
    ``KINDS`` row with an omega exponent), or a gate holding the target as
    a junk-free control."""
    if g.support & controls:
        return False
    row = KINDS.get(g.kind)
    if row is not None and row.omega is not None:
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


def _equal_tof_pairs(circ: Circuit):
    """Yield each tof i with the indices j > i of the equal tofs after it,
    both in order: the pairs (i, j), built only as a caller reads them."""
    at: dict[Gate, list[int]] = {}
    for i, g in enumerate(circ.gates):
        if g.kind == "tof":
            at.setdefault(g, []).append(i)
    for i, g in enumerate(circ.gates):
        if g.kind == "tof":
            idx = at[g]
            yield i, idx[idx.index(i) + 1:]


def find_conjugations(circ: Circuit) -> list[ConjugationMatch]:
    """All classified pairs (i, j), i < j, of equal tof gates, ordered by
    i then j."""
    return [classify_pair(circ, i, j) for i, later in _equal_tof_pairs(circ) for j in later]


# -- implementation admissibility ------------------------------------------

def _invariant(name: str) -> frozenset[int]:
    """Positions of block ``name`` whose flips leave its untruncated base's
    phase diagonal fixed, read from the base's row: every position for an
    exact spec, the xprime of a special form, none for a relative phase.
    The tests certify each row's type against ``check_implements`` and the
    oracle."""
    spec = BLOCKS[BLOCKS[name].base].spec
    return {"exact": spec.qubits, "special_form": spec.xprime}.get(spec.equivalence, frozenset())


_INVARIANT = {name: _invariant(name) for name in BLOCKS}


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
    invariant = _INVARIANT[block.name]
    for perm in permutations(m.controls):
        wires = perm + (m.target,)
        if all((q not in need_invariant or pos in invariant)
               and (pos not in block.junk or q in junk_allowed)
               for pos, q in enumerate(wires)):
            yield wires


def _refusal(m: ConjugationMatch, impl_name: str):
    """(None, wires) when ``impl_name`` fits the match, with the first wire
    map that fits; (reason, None) when it does not."""
    if m.neg:
        return "pair has negative controls; no catalog implementation carries them", None
    block = BLOCKS.get(impl_name)
    if block is None:
        return f"{impl_name} is not usable as a conjugation replacement", None
    if block.arity != m.arity:
        return (f"arity mismatch: {impl_name} has {block.arity} qubits, "
                f"pair has {m.arity}"), None
    wires = next(_wire_maps(block, m), None)
    if wires is None:
        return (f"special-form type violated: {impl_name} does not provide a "
                f"type-{sorted(m.touched)} special form for this {m.classification} match"), None
    return None, wires


def admissible(impl_name: str, m: ConjugationMatch) -> bool:
    """Whether ``apply_replacement`` accepts ``impl_name`` for the match:
    the checks it makes, read from the wire maps, building no gate."""
    return _refusal(m, impl_name)[0] is None


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
    reason, wires = _refusal(m, impl_name)
    if reason is not None:
        raise InputError(reason)
    return _replacement(m, impl_name, wires)


def _replacement(m: ConjugationMatch, impl_name: str, wires) -> tuple[Gate, Gate]:
    """``impl_name`` and its inverse on ``wires``, a fitting wire map."""
    kind = BLOCKS[impl_name].kind
    if kind is None:
        left = tof(m.controls, m.target)
        return left, left
    left = marker(kind, wires[:-1], m.target)
    return left, left.inverse()


def _chosen_pair(m: ConjugationMatch) -> tuple[Gate, Gate] | None:
    """The pair that replaces the match: the first block in cost order that
    fits, on the wires its check found. None when none fits, or when that
    is toffoli3: replacing a tof pair with exact tofs is a no-op."""
    for name in REPLACEMENT_IMPLS:
        reason, wires = _refusal(m, name)
        if reason is None:
            return None if name == "toffoli3" else _replacement(m, name, wires)
    return None


# -- inverse-pair cancellation -----------------------------------------------

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
    # id of a gate of circ.gates -> its inverse, built once; the gates tuple
    # keeps every object alive, so no id is reused within the call
    inverses: dict[int, Gate] = {}
    for i, g in enumerate(gates):
        sup = g.support
        last = -1
        for q in sup:
            stack = wires[q]
            if stack and stack[-1] > last:
                last = stack[-1]
        # an inverse acts on the same qubits: compare those before building one
        if last >= 0 and gates[last].support == sup:
            a = gates[last]
            inv = inverses.get(id(a))
            if inv is None:
                inv = inverses[id(a)] = a.inverse()
            # cz is symmetric in its two qubits (positive polarity only)
            if g is inv or g == inv or (a.kind == g.kind == "cz" and not a.neg and not g.neg):
                kept[last] = kept[i] = False
                for q in sup:
                    wires[q].pop()
                continue
        for q in sup:
            wires[q].append(i)
    return Circuit(circ.width, [g for g, k in zip(gates, kept) if k], circ.roles)


# -- the pass ----------------------------------------------------------------

def apply_rules(circuit: Circuit, rules) -> Circuit:
    """``circuit`` rewritten by ``rules``, names from ``RULES``: each enabled
    class of pair replaced by a cheaper block and its inverse, then under
    ``cancel`` the result lowered (when it is not yet) and rid of adjacent
    inverse pairs. The unitary is unchanged. An unknown rule name, or a wide
    tof that ``cancel`` cannot lower, raises ``InputError``."""
    rules = tuple(rules)
    bad = [r for r in rules if r not in RULES]
    if bad:
        raise InputError(f"unknown rules {bad}")
    enabled = {r for r in rules if r != "cancel"}
    if enabled:
        # one pair search suffices: a replacement leaves markers on the same
        # qubits; a pair is classified only while neither gate is replaced
        gates = list(circuit.gates)
        used: set[int] = set()
        for i, later in _equal_tof_pairs(circuit):
            if i in used:
                continue
            for j in later:
                if j in used:
                    # never reached: j's pair would skip tof i, and only toffoli3 fits that
                    continue
                m = classify_pair(circuit, i, j)
                pair = _chosen_pair(m) if m.classification in enabled else None
                if pair is not None:
                    gates[i], gates[j] = pair
                    used |= {i, j}
                    break
                if m.classification in enabled or m.classification == "prop3":
                    # no later j is replaced either: the middle only grows
                    # with j, so the class only goes prop1 -> prop2 -> prop3
                    # and the touched controls only grow, and with them the
                    # blocks that fit only get fewer; a prop1 pair fails only
                    # on its arity or negative controls, which j leaves as is
                    break
        circuit = Circuit(circuit.width, gates, circuit.roles)
    if "cancel" in rules:
        if not circuit.is_lowered():
            circuit = lower(circuit)
        circuit = cancel_adjacent_inverses(circuit)
    return circuit
