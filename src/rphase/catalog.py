"""Generators for the relative-phase Toffoli building blocks and the
multiple-control Toffoli constructions assembled from them.

Building blocks: ``get_entry(name)`` returns a row of ``circuit.BLOCKS``,
whose stated counts were checked against its gates at import time; each
junk-free block has a builder returning its row's circuit. The truncations
rts3, srts3 and rt4s carry junk: they are reached as markers or by row.
Besides them, the Margolus-style variants: a T/CNOT phase circuit and two
R_Y circuits (``margolus_t_variant``, ``margolus_ry``, ``rtof3_ry_negctrl``).

Constructions: ``tofn_clean``, ``tof4_dirty`` and ``tofn_dirty`` realize
a multiple-control Toffoli over Clifford+T with one clean or dirty helper
chain, and ``tofn(n, ancilla)`` picks among them;
``ladder_tofn``, ``two_block_tofn`` and the two ``cnu_*`` generators emit
marker-level skeletons whose pairs of identical high-level gates are the
raw material for the rewrite engine. ``tofn``, ``ladder_tofn`` and the
``cnu_*`` generators refuse, before building, a circuit wider than
``qasm.QREG_LIMIT`` qubits: no such circuit could be read back.

Every construction is written once, as one marker-level expression
over two combinators. The clean chains (``tofn_clean``, the ``cnu_*``)
are compute-uncompute, ``_conj(F, M)`` = F M F^-1; the borrowed-ancilla
circuits of Barenco et al. (``tof4_dirty``, ``tof5_dirty``,
``tofn_dirty``, ``ladder_tofn``, ``two_block_tofn``) are commutators,
``_commutator(A, B)`` = A B A^-1 B^-1; the combinators invert each
distinct marker once per call (``circuit.map_once``). Expansion happens
in one place, ``circuit.expand_all``, which ``lowering`` uses too.
``tofn`` and the builders of its constructions return the expansion of
their expression, made of markers and 2-control tofs; ``_tofn_markers``
returns it unexpanded, and ``table`` counts that. ``expand_all`` builds
each distinct block once per call and takes a daggered marker's gates
from its forward marker's; nothing is cached between calls.
"""

from __future__ import annotations

from math import ceil

from .circuit import (
    BLOCKS,
    Block,
    Circuit,
    Gate,
    InputError,
    MARKER_BLOCKS,
    ROLE_CLEAN,
    ROLE_DIRTY,
    ROLE_PRIMARY,
    TargetSpec,
    cx,
    cz,
    expand_all,
    map_once,
    marker,
    ry,
    t,
    tdg,
    tof,
)
from .qasm import QREG_LIMIT


def _within_qreg_limit(name: str, width: int) -> None:
    """Refuse, before building, a circuit wider than a QASM file can be."""
    if width > QREG_LIMIT:
        raise InputError(
            f"{name} needs {width} qubits, wider than the limit of {QREG_LIMIT}")


# -- building blocks ---------------------------------------------------------

def get_entry(name: str) -> Block:
    """The block table's row ``name``."""
    try:
        return BLOCKS[name]
    except KeyError:
        raise InputError(f"no construction for gate {name!r}") from None


def toffoli3() -> Circuit:
    return BLOCKS["toffoli3"].circuit


def srtof3_ccix() -> Circuit:
    return BLOCKS["srtof3_ccix"].circuit


def rtof3_long() -> Circuit:
    return BLOCKS["rtof3_long"].circuit


def rtof4_long() -> Circuit:
    return BLOCKS["rtof4_long"].circuit


def margolus_t_variant() -> Circuit:
    """T-phase circuit applying T to {c, b+c} and Tdg to {a+b+c, a+c}.

    On its own this is a CNOT(a;c) dressed with basis-state phases;
    conjugating qubit c by Hadamards turns it into a relative-phase
    Toffoli with a negative control on b.
    """
    return Circuit(3, [t(2), cx(1, 2), t(2), cx(0, 2), tdg(2), cx(1, 2), tdg(2)])


def margolus_ry() -> Circuit:
    """The Margolus gate: the T-phase circuit with R_Y(+-pi/4) in place of
    T/Tdg; a relative-phase Toffoli on (a,b;c)."""
    return Circuit(3, [ry(2, 1), cx(1, 2), ry(2, 1), cx(0, 2), ry(2, -1), cx(1, 2), ry(2, -1)])


def rtof3_ry_negctrl() -> Circuit:
    """R_Y(+-pi/4) in place of rtof3_long's T/Tdg (gates 2-8): a
    relative-phase Toffoli with a negative control on b."""
    return Circuit(3, [ry(2, 1), cx(1, 2), ry(2, -1), cx(0, 2), ry(2, 1), cx(1, 2), ry(2, -1)])


# -- combinators -------------------------------------------------------------

def _inverse(gates: list[Gate]) -> list[Gate]:
    """gates^-1: the inverses in reverse order."""
    return map_once(Gate.inverse, reversed(gates))


def _conj(outer: list[Gate], inner: list[Gate]) -> list[Gate]:
    """Compute-uncompute: outer, inner, outer^-1."""
    return [*outer, *inner, *_inverse(outer)]


def _commutator(a: list[Gate], b: list[Gate]) -> list[Gate]:
    """a, b, a^-1, b^-1."""
    return [*_conj(a, b), *_inverse(b)]


def _expanded(circuit: Circuit) -> Circuit:
    """The gate-level circuit of a marker-level construction."""
    return Circuit(circuit.width, expand_all(circuit.gates), circuit.roles)


# -- clean-ancilla multiple-control Toffolis --------------------------------

def _tofn_clean(n: int) -> tuple[Circuit, TargetSpec]:
    """Marker-level circuit and spec of tofn_clean from one gadget plan.

    ceil((n-3)/2) gadgets fold controls into fresh ancillae: all rtof4l
    except an innermost rtof3l when n is even (the parity leftover). Each
    gadget's controls are the previous ancilla (none for the first) and
    the fresh controls after it, and its ancilla comes right after them,
    matching the explicit 4- and 5-control circuits.
    """
    if n < 4:
        raise InputError("tofn_clean requires n >= 4")
    ancs = [3 * i for i in range(1, ceil((n - 3) / 2) + 1)]
    if n % 2 == 0:
        ancs[-1] -= 1  # the innermost gadget is an rtof3l
    chain = [marker("rtof4l" if b - a == 3 else "rtof3l", range(a, b), b)
             for a, b in zip([0] + ancs, ancs)]
    width = ancs[-1] + 3  # the last ancilla, the last control, the target
    gates = _conj(chain, [tof((width - 3, width - 2), width - 1)])
    clean = set(ancs)
    roles = [ROLE_CLEAN if q in clean else ROLE_PRIMARY for q in range(width)]
    controls = tuple(q for q in range(width - 1) if q not in clean)
    return Circuit(width, gates, roles), TargetSpec(controls, width - 1)


def tofn_clean(n: int) -> Circuit:
    """TOF with n-1 controls using ceil((n-3)/2) clean ancillae.

    A chain of relative-phase Toffoli gadgets folds the controls pairwise
    into fresh |0> ancillae, a single exact toffoli3 acts in the middle,
    and the inverse chain restores every ancilla. Totals: 8n-17 T,
    6n-12 CNOT, 4n-10 H.
    """
    return _expanded(_tofn_clean(n)[0])


def tofn_clean_spec(n: int) -> TargetSpec:
    return _tofn_clean(n)[1]


# -- dirty-ancilla multiple-control Toffolis --------------------------------

def _borrowed_pair(kind: str) -> tuple[Circuit, TargetSpec]:
    """Marker-level TOF over (controls, x, c, t) with x borrowed, and its
    spec: a ``kind`` gadget folding the leading controls into x, commuted
    with srts3(c, x; t)."""
    x = MARKER_BLOCKS[kind].arity - 1
    fold, blk = marker(kind, range(x), x), marker("srts3", (x + 1, x), x + 2)
    roles = [ROLE_DIRTY if q == x else ROLE_PRIMARY for q in range(x + 3)]
    return (Circuit(x + 3, _commutator([fold], [blk]), roles),
            TargetSpec((*range(x), x + 1), x + 2))


def tof4_dirty() -> Circuit:
    """TOF(a,b,c;d) over (a, b, x, c, d) with x a borrowed qubit in an
    unknown state: rtof3_long / srts3 commutator. 16 T, 14 CNOT, 6 H."""
    return _expanded(_borrowed_pair("rtof3l")[0])


def tof4_dirty_spec() -> TargetSpec:
    return _borrowed_pair("rtof3l")[1]


def tof5_dirty() -> Circuit:
    """TOF(a,b,c,d;e) over (a, b, c, x, d, e), x dirty: rtof4_long / srts3.

    A reference circuit, not what ``tofn(5, "dirty")`` builds: the tests
    check that ``tofn_dirty(5)`` matches its counts and ancilla use."""
    return _expanded(_borrowed_pair("rtof4l")[0])


def tof5_dirty_spec() -> TargetSpec:
    return _borrowed_pair("rtof4l")[1]


def _tofn_dirty(n: int) -> tuple[Circuit, TargetSpec]:
    """Marker-level circuit and spec of tofn_dirty.

    The borrowed-ancilla ladder, over the 1..2n-3 numbering: the
    commutator of srts3 at the target end with rtof4l(1, 2, 3; n+1) at the
    bottom conjugated by a descending chain of rungs. Each rt4s rung folds
    two controls into the next ancilla down, so every other ancilla is
    free; for even n one rtof3s rung heads the chain. The qubits it uses
    are then numbered from 0 in order.
    """
    if n < 5:
        raise InputError("tofn_dirty requires n >= 5")
    head = marker("srts3", (n - 1, 2 * n - 4), 2 * n - 3)
    chain = [marker("rtof3s", (2 * n - 5, n - 2), 2 * n - 4)] if n % 2 == 0 else []
    chain += [
        marker("rt4s", (2 * n - 5 - k, n - 2 - k, n - 1 - k), 2 * n - 3 - k)
        for k in range(2 - n % 2, n - 4, 2)
    ]
    bottom = marker("rtof4l", (1, 2, 3), n + 1)
    used = sorted({q for g in (head, bottom, *chain) for q in g.support})
    remap = {q: i for i, q in enumerate(used)}
    head, bottom, *chain = (g.remap(remap) for g in (head, bottom, *chain))
    primaries = set(range(1, n)) | {2 * n - 3}
    roles = [ROLE_PRIMARY if q in primaries else ROLE_DIRTY for q in used]
    gates = _commutator([head], _conj(chain, [bottom]))
    controls = tuple(remap[q] for q in range(1, n))
    return Circuit(len(used), gates, roles), TargetSpec(controls, remap[2 * n - 3])


def tofn_dirty(n: int) -> Circuit:
    """TOF with n-1 controls using ceil((n-3)/2) borrowed (dirty) ancillae,
    returned unchanged. Totals: 8n-16 T, 8n-20 CNOT, 4n-10 H."""
    return _expanded(_tofn_dirty(n)[0])


def tofn_dirty_spec(n: int) -> TargetSpec:
    return _tofn_dirty(n)[1]


def _tofn_markers(n: int, ancilla: str) -> tuple[Circuit, TargetSpec]:
    """``tofn(n, ancilla)`` before expansion: its markers and 2-control
    tofs, whose counts are the gate-level ones (``count_resources``
    counts a marker as its block and such a tof as toffoli3)."""
    if ancilla not in ("clean", "dirty"):
        raise InputError(f"ancilla must be 'clean' or 'dirty', got {ancilla!r}")
    if n < 3:
        raise InputError(f"TOF needs n >= 3 qubits, got {n}")
    _within_qreg_limit(f"TOF{n}", n + (n - 2) // 2)  # ceil((n-3)/2) helpers
    if n == 3:
        return Circuit(3, [tof((0, 1), 2)]), TargetSpec((0, 1), 2)
    if ancilla == "clean":
        return _tofn_clean(n)
    return _borrowed_pair("rtof3l") if n == 4 else _tofn_dirty(n)


def tofn(n: int, ancilla: str) -> tuple[Circuit, TargetSpec]:
    """The construction of TOF with n-1 controls over ``ancilla`` ("clean"
    or "dirty") helpers, and the spec it implements: toffoli3 for n = 3
    (no helper), else tofn_clean, or tof4_dirty for n = 4 and tofn_dirty
    above. Every request for a multiple-control Toffoli comes here."""
    circuit, spec = _tofn_markers(n, ancilla)
    return _expanded(circuit), spec


# -- marker-level skeletons --------------------------------------------------

def ladder_tofn(n: int) -> Circuit:
    """Marker-level borrowed-ancilla ladder for TOF with n-1 controls over
    2n-3 qubits: 4(n-4)+2 rtof3l markers and an srts3 pair. Lowering it and
    cancelling inverse pairs reproduces the 12k-20 T count for k = n-1
    controls.

    Rung control order is (primary, lower ancilla): the rung's trailing
    CNOT is then controlled by the ancilla the inner block acts on, so
    cancellation between a rung and its mirror stops after one T/H pair
    per junction, which is what the 12k-20 count assumes. The opposite
    order lets the trailing CNOT pair cancel too and lands at 8k-8.
    """
    if n < 6:
        raise InputError("ladder_tofn requires n >= 6")
    _within_qreg_limit(f"ladder_tofn({n})", 2 * n - 3)
    head = marker("srts3", (n - 2, 2 * n - 5), 2 * n - 4)
    rungs = [
        marker("rtof3l", (n - 2 - k, 2 * n - 5 - k), 2 * n - 4 - k)
        for k in range(1, n - 3)
    ]
    bottom = marker("rtof3l", (0, 1), n - 1)
    roles = [ROLE_PRIMARY] * (n - 1) + [ROLE_DIRTY] * (n - 3) + [ROLE_PRIMARY]
    return Circuit(2 * n - 3, _commutator([head], _conj(rungs, [bottom])), roles)


def ladder_tofn_spec(n: int) -> TargetSpec:
    return TargetSpec(tuple(range(n - 1)), 2 * n - 4)


def two_block_tofn(n: int, k: int) -> Circuit:
    """TOF with n-1 controls over n+1 qubits as two conjugated blocks: a
    relative-phase Toffoli of k qubits folds k-1 controls into one dirty
    ancilla, and a special-form block (type-{ancilla}) of n-k+2 qubits
    applies the rest. Markers are used where an implementation of the
    right arity exists, otherwise the exact tof stands in.

    Only the (n=8, k=6) instance has a worked-out reference layout; the
    wiring for other (n, k) follows the block arities (first k-1 controls
    fold, the rest join the special-form block) and is pinned down by the
    simulation tests rather than a stated general rule.
    """
    if not 3 <= k <= n - 1:
        raise InputError("two_block_tofn requires 3 <= k <= n-1")
    anc = n - 1  # layout: controls 0..n-2, ancilla, target
    target = n
    first_ctl = tuple(range(k - 1))
    rest_ctl = tuple(range(k - 1, n - 1))
    if k == 3:
        fold = marker("rtof3l", first_ctl, anc)
    elif k == 4:
        fold = marker("rtof4l", first_ctl, anc)
    else:
        fold = tof(first_ctl, anc)
    s_arity = n - k + 2
    if s_arity == 3:
        blk = marker("srts3", (rest_ctl[0], anc), target)
    else:
        blk = tof(rest_ctl + (anc,), target)
    roles = [ROLE_PRIMARY] * (n - 1) + [ROLE_DIRTY, ROLE_PRIMARY]
    return Circuit(n + 1, _commutator([fold], [blk]), roles)


def two_block_tofn_spec(n: int, k: int) -> TargetSpec:
    return TargetSpec(tuple(range(n - 1)), n)


def _cu_gates(u: str, control: int, target: int) -> list[Gate]:
    """Controlled-U for the ring-friendly choices of U."""
    if u == "x":
        return [cx(control, target)]
    if u == "z":
        return [cz(control, target)]
    if u == "p":
        # controlled-P = diag(1,1,1,i) from T gates and CNOTs
        return [t(control), t(target), cx(control, target), tdg(target), cx(control, target)]
    raise InputError(f"unsupported controlled-U choice {u!r}")


def cnu_clean_chain(n: int, u: str = "x") -> Circuit:
    """C^n U via a linear chain: 2n-2 rtof3l markers fold the n controls
    into n-1 clean ancillae, one CU fires from the last ancilla.
    Layout: controls 0..n-1, ancillae n..2n-2, target 2n-1."""
    if n < 2:
        raise InputError("cnu_clean_chain requires n >= 2")
    _within_qreg_limit(f"cnu_clean_chain({n})", 2 * n)
    chain = [marker("rtof3l", (0, 1), n)]
    chain += [marker("rtof3l", (i, n + i - 2), n + i - 1) for i in range(2, n)]
    gates = _conj(chain, _cu_gates(u, 2 * n - 2, 2 * n - 1))
    roles = [ROLE_PRIMARY] * n + [ROLE_CLEAN] * (n - 1) + [ROLE_PRIMARY]
    return Circuit(2 * n, gates, roles)


def cnu_parallel(n: int, u: str = "x") -> Circuit:
    """C^n U via a balanced tree of rtof3l markers: same 2n-2 marker count
    and n-1 clean ancillae as the chain, logarithmic marker depth."""
    if n < 2:
        raise InputError("cnu_parallel requires n >= 2")
    _within_qreg_limit(f"cnu_parallel({n})", 2 * n)
    forward = []
    nodes = list(range(n))  # frontier of not-yet-folded wires
    next_anc = n
    while len(nodes) > 1:
        paired = []
        for i in range(0, len(nodes) - 1, 2):
            forward.append(marker("rtof3l", (nodes[i], nodes[i + 1]), next_anc))
            paired.append(next_anc)
            next_anc += 1
        if len(nodes) % 2:
            paired.append(nodes[-1])
        nodes = paired
    gates = _conj(forward, _cu_gates(u, nodes[0], 2 * n - 1))
    roles = [ROLE_PRIMARY] * n + [ROLE_CLEAN] * (n - 1) + [ROLE_PRIMARY]
    return Circuit(2 * n, gates, roles)


def cnu_spec(n: int) -> TargetSpec:
    """C^n X viewed as a Toffoli with n controls (U = x only)."""
    return TargetSpec(tuple(range(n)), 2 * n - 1)

