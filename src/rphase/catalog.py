"""Generators for the relative-phase Toffoli building blocks and the
multiple-control Toffoli constructions assembled from them.

Each catalog entry pairs a concrete circuit with the TargetSpec it claims
to implement and the resource report of that circuit; the report is
recomputed at construction time, so a stale claim fails immediately.

Building blocks (3 qubits unless noted):

* ``toffoli3``      exact Toffoli, 15 gates: 7 T, 6 CNOT, 2 H. The gate
  order keeps every late gate on qubits (a, c), which is what makes the
  truncation below useful.
* ``srtof3_ccix``   doubly-controlled iX: CZ followed by the 9-gate block.
  diag{1,1,1,1,1,1,[[0,i],[i,0]]}; special form on the target.
* ``rtof3_long``    the 9-gate block alone (RTL): relative-phase Toffoli
  diag{1,1,1,1,1,-1,[[0,-i],[i,0]]}; self-inverse.
* ``rts3``          RTL truncated after gate 5 (RTS): RTL followed by an
  undo of its last four gates, all on (second control, target).
* ``srts3``         toffoli3 truncated after gate 9 (SRTS): the Toffoli
  followed by an undo of its last six gates, all on (first control,
  target).
* ``rtof4_long``    18-gate relative-phase Toffoli-4 (RT4L), built by
  widening RTL's middle CNOT into a ccix block:
  diag{1 x 12, i, -i, [[0,1],[-1,0]]}.
* ``rt4s``          RT4L truncated after gate 10 (RT4S).
* Margolus-style variants: a T/CNOT phase circuit and two R_Y circuits
  (see ``margolus_variants``).

Constructions: ``tofn_clean``, ``tof4_dirty`` and ``tofn_dirty`` realize
a multiple-control Toffoli over Clifford+T with one clean or dirty helper
chain, and ``tofn(n, ancilla)`` picks among them;
``ladder_tofn``, ``two_block_tofn`` and the two ``cnu_*`` generators emit
marker-level skeletons whose pairs of identical high-level gates are the
raw material for the rewrite engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .circuit import (
    Circuit,
    Gate,
    ResourceReport,
    ROLE_CLEAN,
    ROLE_DIRTY,
    ROLE_PRIMARY,
    TargetSpec,
    cx,
    cz,
    h,
    marker,
    ry,
    t,
    tdg,
    tof,
)


class ConstructionError(Exception):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    """A named circuit plus its claim and self-checked resource report."""

    name: str
    circuit: Circuit
    spec: TargetSpec
    claimed: ResourceReport
    marker_kind: str | None = None  # emitted by the rewrite engine, if any
    description: str = ""


# -- elementary building blocks -------------------------------------------

def _toffoli3_gates(a, b, c):
    """Exact TOF(a,b;c): 7 T, 6 CNOT, 2 H. Gates 10-15 act on (a, c) only."""
    return [
        h(c), cx(c, b), tdg(b), cx(a, b), t(b), cx(c, b), tdg(b), cx(a, b), t(b),
        cx(a, c), tdg(c), cx(a, c), t(a), t(c), h(c),
    ]


def _rtof3_long_gates(a, b, c):
    """Relative-phase TOF(a,b;c), 9 gates, self-inverse."""
    return [h(c), t(c), cx(b, c), tdg(c), cx(a, c), t(c), cx(b, c), tdg(c), h(c)]


def _srtof3_ccix_gates(a, b, c):
    """Doubly-controlled iX on (a,b;c)."""
    return [cz(a, c)] + _rtof3_long_gates(a, b, c)


def _rts3_gates(a, b, c):
    """First five gates of rtof3_long; the dropped tail acts on (b, c)."""
    return _rtof3_long_gates(a, b, c)[:5]


def _srts3_gates(a, b, c):
    """First nine gates of toffoli3; the dropped tail acts on (a, c)."""
    return _toffoli3_gates(a, b, c)[:9]


def _rtof4_long_gates(a, b, c, d):
    """Relative-phase TOF(a,b,c;d), 18 gates."""
    return [
        h(d), t(d), cx(c, d), tdg(d), h(d),
        cx(a, d), t(d), cx(b, d), tdg(d), cx(a, d), t(d), cx(b, d), tdg(d),
        h(d), t(d), cx(c, d), tdg(d), h(d),
    ]


def _rt4s_gates(a, b, c, d):
    """First ten gates of rtof4_long; the dropped tail acts on (b, c, d)."""
    return _rtof4_long_gates(a, b, c, d)[:10]


MARKER_GATES = {
    "rtof3l": _rtof3_long_gates,
    "rtof3s": _rts3_gates,
    "srtof3": _srtof3_ccix_gates,
    "srts3": _srts3_gates,
    "rtof4l": _rtof4_long_gates,
    "rt4s": _rt4s_gates,
}


def marker_definition(g: Gate) -> list[Gate]:
    """The defining gate list of a marker (inverted when dagger is set)."""
    gates = MARKER_GATES[g.kind](*g.controls, g.target)
    if g.dagger:
        gates = [gg.inverse() for gg in reversed(gates)]
    return gates


def toffoli3() -> Circuit:
    return Circuit(3, _toffoli3_gates(0, 1, 2))


def srtof3_ccix() -> Circuit:
    return Circuit(3, _srtof3_ccix_gates(0, 1, 2))


def rtof3_long() -> Circuit:
    return Circuit(3, _rtof3_long_gates(0, 1, 2))


def rts3() -> Circuit:
    return Circuit(3, _rts3_gates(0, 1, 2))


def srts3() -> Circuit:
    return Circuit(3, _srts3_gates(0, 1, 2))


def rtof4_long() -> Circuit:
    return Circuit(4, _rtof4_long_gates(0, 1, 2, 3))


def rt4s() -> Circuit:
    return Circuit(4, _rt4s_gates(0, 1, 2, 3))


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


def margolus_variants() -> list[Circuit]:
    return [margolus_t_variant(), margolus_ry(), rtof3_ry_negctrl()]


# -- clean-ancilla multiple-control Toffolis --------------------------------

def _tofn_clean(n: int) -> tuple[Circuit, TargetSpec]:
    """Circuit and spec of tofn_clean from one gadget plan.

    ceil((n-3)/2) gadgets fold controls into fresh ancillae: all rtof4l
    except an innermost rtof3l when n is even (the parity leftover). Qubit
    order interleaves each ancilla right after the controls its gadget
    absorbs, matching the explicit 4- and 5-control circuits.
    """
    if n < 4:
        raise ConstructionError("tofn_clean requires n >= 4")
    m = ceil((n - 3) / 2)
    kinds = ["rtof4l"] * m
    if n % 2 == 0:
        kinds[-1] = "rtof3l"

    roles: list[str] = []
    controls: list[int] = []

    def alloc(role):
        roles.append(role)
        return len(roles) - 1

    def take_control():
        q = alloc(ROLE_PRIMARY)
        controls.append(q)
        return q

    forward = []
    prev_anc = None
    for i, kind in enumerate(kinds):
        fresh = 3 if kind == "rtof4l" else 2
        if i > 0:
            fresh -= 1  # the previous ancilla feeds in as one control
        got = [take_control() for _ in range(fresh)]
        anc = alloc(ROLE_CLEAN)
        ctl = tuple(got) if i == 0 else (prev_anc, *got)
        forward.extend(MARKER_GATES[kind](*ctl, anc))
        prev_anc = anc
    last_ctl = take_control()
    target = alloc(ROLE_PRIMARY)
    gates = list(forward)
    gates.extend(_toffoli3_gates(prev_anc, last_ctl, target))
    gates.extend(g.inverse() for g in reversed(forward))
    return Circuit(len(roles), gates, roles), TargetSpec("tof", tuple(controls), target)


def tofn_clean(n: int) -> Circuit:
    """TOF with n-1 controls using ceil((n-3)/2) clean ancillae.

    A chain of relative-phase Toffoli gadgets folds the controls pairwise
    into fresh |0> ancillae, a single exact toffoli3 acts in the middle,
    and the inverse chain restores every ancilla. Totals: 8n-17 T,
    6n-12 CNOT, 4n-10 H.
    """
    return _tofn_clean(n)[0]


def tofn_clean_spec(n: int) -> TargetSpec:
    return _tofn_clean(n)[1]


# -- dirty-ancilla multiple-control Toffolis --------------------------------

def tof4_dirty() -> Circuit:
    """TOF(a,b,c;d) over (a, b, x, c, d) with x a borrowed qubit in an
    unknown state: rtof3_long / srts3 conjugation pair. 16 T, 14 CNOT, 6 H."""
    gates = []
    gates += _rtof3_long_gates(0, 1, 2)
    gates += _srts3_gates(3, 2, 4)
    gates += [g.inverse() for g in reversed(_rtof3_long_gates(0, 1, 2))]
    gates += [g.inverse() for g in reversed(_srts3_gates(3, 2, 4))]
    roles = (ROLE_PRIMARY, ROLE_PRIMARY, ROLE_DIRTY, ROLE_PRIMARY, ROLE_PRIMARY)
    return Circuit(5, gates, roles)


def tof4_dirty_spec() -> TargetSpec:
    return TargetSpec("tof", (0, 1, 3), 4)


def tof5_dirty() -> Circuit:
    """TOF(a,b,c,d;e) over (a, b, c, x, d, e), x dirty: rtof4_long / srts3.

    A reference circuit, not what ``tofn(5, "dirty")`` builds: the tests
    check that ``tofn_dirty(5)`` matches its counts and ancilla use."""
    gates = []
    gates += _rtof4_long_gates(0, 1, 2, 3)
    gates += _srts3_gates(4, 3, 5)
    gates += [g.inverse() for g in reversed(_rtof4_long_gates(0, 1, 2, 3))]
    gates += [g.inverse() for g in reversed(_srts3_gates(4, 3, 5))]
    roles = (ROLE_PRIMARY,) * 3 + (ROLE_DIRTY,) + (ROLE_PRIMARY,) * 2
    return Circuit(6, gates, roles)


def tof5_dirty_spec() -> TargetSpec:
    return TargetSpec("tof", (0, 1, 2, 4), 5)


def _dirty_markers(n: int):
    """Marker-level dirty construction over the 1..2n-3 numbering.

    The borrowed-ancilla ladder: srts3 at the target end, a descending run
    of rtof3s rungs, rtof3l at the bottom, then the mirror inverses; the
    whole pattern twice. The bottom triple collapses into one rtof4l and
    neighbouring rung pairs merge into rt4s blocks, freeing every other
    ancilla.
    """
    if n < 5:
        raise ConstructionError("tofn_dirty requires n >= 5")
    head = marker("srts3", (n - 1, 2 * n - 4), 2 * n - 3)
    rungs = [
        marker("rtof3s", (2 * n - 4 - k, n - 1 - k), 2 * n - 3 - k)
        for k in range(1, n - 3)
    ]
    bottom = marker("rtof3l", (1, 2), n)

    # collapse [last rung, bottom, inverse last rung] -> rtof4l(1,2,3; n+1)
    assert not rungs or rungs[-1] == marker("rtof3s", (n, 3), n + 1)
    chain = rungs[:-1] if rungs else []
    bottom = marker("rtof4l", (1, 2, 3), n + 1)

    # merge neighbouring rung pairs into rt4s blocks, freeing qubit n+2k
    merged = list(chain)
    for k in range(1, ceil((n - 6) / 2) + 1):
        pair_hi = marker("rtof3s", (n + 2 * k, 2 * k + 3), n + 2 * k + 1)
        pair_lo = marker("rtof3s", (n - 1 + 2 * k, 2 * k + 2), n + 2 * k)
        idx = merged.index(pair_hi)
        assert merged[idx + 1] == pair_lo
        merged[idx:idx + 2] = [
            marker("rt4s", (n - 1 + 2 * k, 2 * k + 2, 2 * k + 3), n + 2 * k + 1)
        ]
    chain = merged

    inv_chain = [g.inverse() for g in reversed(chain)]
    seq = (
        [head] + chain + [bottom] + inv_chain
        + [head.inverse()] + chain + [bottom.inverse()] + inv_chain
    )
    return seq


def _tofn_dirty(n: int) -> tuple[Circuit, TargetSpec]:
    """Circuit and spec of tofn_dirty from one marker sequence."""
    seq = _dirty_markers(n)
    used = sorted({q for g in seq for q in g.support})
    remap = {q: i for i, q in enumerate(used)}
    primaries = set(range(1, n)) | {2 * n - 3}
    roles = [ROLE_PRIMARY if q in primaries else ROLE_DIRTY for q in used]
    gates = []
    for g in seq:
        gates.extend(gg.remap(remap) for gg in marker_definition(g))
    controls = tuple(remap[q] for q in range(1, n))
    return Circuit(len(used), gates, roles), TargetSpec("tof", controls, remap[2 * n - 3])


def tofn_dirty(n: int) -> Circuit:
    """TOF with n-1 controls using ceil((n-3)/2) borrowed (dirty) ancillae,
    returned unchanged. Totals: 8n-16 T, 8n-20 CNOT, 4n-10 H."""
    return _tofn_dirty(n)[0]


def tofn_dirty_spec(n: int) -> TargetSpec:
    return _tofn_dirty(n)[1]


def tofn(n: int, ancilla: str) -> tuple[Circuit, TargetSpec]:
    """The construction of TOF with n-1 controls over ``ancilla`` ("clean"
    or "dirty") helpers, and the spec it implements: toffoli3 for n = 3
    (no helper), else tofn_clean, or tof4_dirty for n = 4 and tofn_dirty
    above. Every request for a multiple-control Toffoli comes here."""
    if ancilla not in ("clean", "dirty"):
        raise ConstructionError(f"ancilla must be 'clean' or 'dirty', got {ancilla!r}")
    if n < 3:
        raise ConstructionError(f"TOF needs n >= 3 qubits, got {n}")
    if n == 3:
        return toffoli3(), TargetSpec("tof", (0, 1), 2)
    if ancilla == "clean":
        return _tofn_clean(n)
    if n == 4:
        return tof4_dirty(), tof4_dirty_spec()
    return _tofn_dirty(n)


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
        raise ConstructionError("ladder_tofn requires n >= 6")
    head = marker("srts3", (n - 2, 2 * n - 5), 2 * n - 4)
    rungs = [
        marker("rtof3l", (n - 2 - k, 2 * n - 5 - k), 2 * n - 4 - k)
        for k in range(1, n - 3)
    ]
    bottom = marker("rtof3l", (0, 1), n - 1)
    inv_rungs = [g.inverse() for g in reversed(rungs)]
    seq = (
        [head] + rungs + [bottom] + inv_rungs
        + [head.inverse()] + rungs + [bottom.inverse()] + inv_rungs
    )
    roles = [ROLE_PRIMARY] * (n - 1) + [ROLE_DIRTY] * (n - 3) + [ROLE_PRIMARY]
    return Circuit(2 * n - 3, seq, roles)


def ladder_tofn_spec(n: int) -> TargetSpec:
    return TargetSpec("tof", tuple(range(n - 1)), 2 * n - 4)


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
        raise ConstructionError("two_block_tofn requires 3 <= k <= n-1")
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
    gates = [fold, blk, fold.inverse(), blk.inverse()]
    roles = [ROLE_PRIMARY] * (n - 1) + [ROLE_DIRTY, ROLE_PRIMARY]
    return Circuit(n + 1, gates, roles)


def two_block_tofn_spec(n: int, k: int) -> TargetSpec:
    return TargetSpec("tof", tuple(range(n - 1)), n)


_CU_GATES = ("x", "z", "p")


def _cu_gates(u: str, control: int, target: int) -> list[Gate]:
    """Controlled-U for the ring-friendly choices of U."""
    if u == "x":
        return [cx(control, target)]
    if u == "z":
        return [cz(control, target)]
    if u == "p":
        # controlled-P = diag(1,1,1,i) from T gates and CNOTs
        return [t(control), t(target), cx(control, target), tdg(target), cx(control, target)]
    raise ConstructionError(f"unsupported controlled-U choice {u!r}")


def cnu_clean_chain(n: int, u: str = "x") -> Circuit:
    """C^n U via a linear chain: 2n-2 rtof3l markers fold the n controls
    into n-1 clean ancillae, one CU fires from the last ancilla.
    Layout: controls 0..n-1, ancillae n..2n-2, target 2n-1."""
    if n < 2:
        raise ConstructionError("cnu_clean_chain requires n >= 2")
    gates = []
    forward = [marker("rtof3l", (0, 1), n)]
    for i in range(2, n):
        forward.append(marker("rtof3l", (i, n + i - 2), n + i - 1))
    gates.extend(forward)
    gates.extend(_cu_gates(u, 2 * n - 2, 2 * n - 1))
    gates.extend(g.inverse() for g in reversed(forward))
    roles = [ROLE_PRIMARY] * n + [ROLE_CLEAN] * (n - 1) + [ROLE_PRIMARY]
    return Circuit(2 * n, gates, roles)


def cnu_parallel(n: int, u: str = "x") -> Circuit:
    """C^n U via a balanced tree of rtof3l markers: same 2n-2 marker count
    and n-1 clean ancillae as the chain, logarithmic marker depth."""
    if n < 2:
        raise ConstructionError("cnu_parallel requires n >= 2")
    gates = []
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
    gates.extend(forward)
    gates.extend(_cu_gates(u, nodes[0], 2 * n - 1))
    gates.extend(g.inverse() for g in reversed(forward))
    roles = [ROLE_PRIMARY] * n + [ROLE_CLEAN] * (n - 1) + [ROLE_PRIMARY]
    return Circuit(2 * n, gates, roles)


def cnu_spec(n: int) -> TargetSpec:
    """C^n X viewed as a Toffoli with n controls (U = x only)."""
    return TargetSpec("tof", tuple(range(n)), 2 * n - 1)


# -- the catalog -------------------------------------------------------------

def _claim(circuit: Circuit, t: int, cnot: int, h_: int, pz: int = 0) -> ResourceReport:
    """The circuit's own report, cross-checked against the stated counts."""
    r = circuit.count_resources()
    if (r.t, r.cnot, r.h, r.pz) != (t, cnot, h_, pz):
        raise ConstructionError(
            f"stated counts {(t, cnot, h_, pz)} != built {(r.t, r.cnot, r.h, r.pz)}")
    return r


def _entries() -> list[CatalogEntry]:
    c_tof3 = toffoli3()
    c_ccix = srtof3_ccix()
    c_rtl = rtof3_long()
    c_rts = rts3()
    c_srts = srts3()
    c_rt4l = rtof4_long()
    c_rt4s = rt4s()
    return [
        CatalogEntry(
            "toffoli3", c_tof3, TargetSpec("tof", (0, 1), 2),
            _claim(c_tof3, 7, 6, 2), marker_kind=None,
            description="exact 3-qubit Toffoli, minimal T and CNOT counts",
        ),
        CatalogEntry(
            "srtof3_ccix", c_ccix,
            TargetSpec("srtof", (0, 1), 2, xprime=frozenset({2}),
                       equivalence="special_form"),
            _claim(c_ccix, 4, 4, 2), marker_kind="srtof3",
            description="doubly-controlled iX; phases constant across the target",
        ),
        CatalogEntry(
            "rtof3_long", c_rtl,
            TargetSpec("rtof", (0, 1), 2, equivalence="relative_phase"),
            _claim(c_rtl, 4, 3, 2), marker_kind="rtof3l",
            description="9-gate relative-phase Toffoli, self-inverse",
        ),
        CatalogEntry(
            "rts3", c_rts,
            TargetSpec("rtof", (0, 1), 2, equivalence="relative_phase"),
            _claim(c_rts, 2, 2, 1), marker_kind="rtof3s",
            description="truncated rtof3_long; undo of the tail acts on (b, target)",
        ),
        CatalogEntry(
            "srts3", c_srts,
            TargetSpec("srtof", (0, 1), 2, xprime=frozenset({0, 1, 2}),
                       equivalence="special_form"),
            _claim(c_srts, 4, 4, 1), marker_kind="srts3",
            description="truncated toffoli3; undo of the tail acts on (a, target)",
        ),
        CatalogEntry(
            "rtof4_long", c_rt4l,
            TargetSpec("rtof", (0, 1, 2), 3, equivalence="relative_phase"),
            _claim(c_rt4l, 8, 6, 4), marker_kind="rtof4l",
            description="18-gate relative-phase Toffoli-4",
        ),
        CatalogEntry(
            "rt4s", c_rt4s,
            TargetSpec("rtof", (0, 1, 2), 3, equivalence="relative_phase"),
            _claim(c_rt4s, 4, 4, 2), marker_kind="rt4s",
            description="truncated rtof4_long; undo of the tail acts on (b, c, target)",
        ),
    ]


_CATALOG: dict[str, CatalogEntry] | None = None


def catalog_entries() -> dict[str, CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = {e.name: e for e in _entries()}
    return _CATALOG


def get_entry(name: str) -> CatalogEntry:
    try:
        return catalog_entries()[name]
    except KeyError:
        raise ConstructionError(f"no construction for gate {name!r}") from None
