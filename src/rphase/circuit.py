"""Circuit data model: gates over indexed qubits with signed controls.

Gates are immutable. A circuit is an ordered gate list over ``width``
qubits plus a per-qubit ancilla role. Qubit 0 is the most significant bit
of a basis-state index, which matches writing a multi-controlled gate as
diag{1, ..., 1, X-block}: controls come before the target.

``KINDS`` is the one table of the 11 elementary gate kinds: one row per
kind with its number of controls, its OpenQASM statement name, its
inverse kind, the ``ResourceReport`` count it adds one to, and its w
exponent if it is diagonal (z, p, pdg, t, tdg, cz), where w = e^(i pi/4).
Validation, inversion, counting, QASM, lowering, simulation and the
rewrite's diagonal test all read it. There are two families of high-level
gates:

* ``tof`` -- a multiple-control Toffoli with any number of controls
  (0 controls = X, 1 = CNOT), each control positive or negative;
* six relative-phase Toffoli building blocks, kept as opaque markers so
  rewrite rules can recognize them before lowering.

``BLOCKS`` is the one table of building blocks; a marker kind names the
block it stands for, and everything else about a block (its marker's
control count, lowered counts and gate definition, its circuit, the tail
a truncation drops) is derived from its row at import time, where its
stated counts are checked against its gates:

  ===========  ======  ======  ============================================
  block        marker  qubits  gates
  ===========  ======  ======  ============================================
  toffoli3     --      3       15-gate exact Toffoli; gates 10-15 act on
                               (a, target) only
  srtof3_ccix  srtof3  3       CZ(a, target) + rtof3_long: doubly-controlled
                               iX, special form on the target
  rtof3_long   rtof3l  3       9-gate relative-phase Toffoli (self-inverse)
  rts3         rtof3s  3       rtof3_long[:5]; the tail acts on (b, target)
  srts3        srts3   3       toffoli3[:9]; the tail acts on (a, target)
  rtof4_long   rtof4l  4       18-gate relative-phase Toffoli-4
  rt4s         rt4s    4       rtof4_long[:10]; the tail acts on
                               (b, c, target)
  ===========  ======  ======  ============================================

toffoli3 has no marker: the rewrite emits it as the exact ``tof``. As
unitaries, rtof3_long is diag{1,1,1,1,1,-1,[[0,-i],[i,0]]}, srtof3_ccix
is diag{1,1,1,1,1,1,[[0,i],[i,0]]}, and rtof4_long (rtof3_long with its
middle CNOT widened into a ccix block) is diag{1 x 12, i, -i,
[[0,1],[-1,0]]}.
Markers carry an ordered control tuple because the truncated blocks are
not symmetric in their controls, plus a ``dagger`` flag for inverses.
``expand`` is the one rule for high-level gates: a marker becomes its
block's gates, a negative control an X pair around the positive gate,
and a tof of 0 or 1 controls an x or a cnot. ``expand_all`` takes a gate
list to ``KINDS`` gates with that rule, a 2-control tof as toffoli3 and a
wider one through a callback; the catalog and lowering both use it.
``ry`` angles are integer multiples of pi/4 stored in ``param``.

A gate is validated once, when it is built, and its qubit set
``support`` is computed then and stored on it; ``support`` takes no part
in equality, hashing or repr. Equal gates of a block are one object.
Per-gate work that repeats for equal gates (remapping a block,
inverting) goes through ``map_once`` or a dict local to one call, so it
is paid once per distinct gate per call. ``count_resources`` and
``qasm.emit_qasm`` key on gate objects instead, by ``id`` within one
call, where the circuit's gate tuple keeps every object alive: they visit
each distinct object once, and equal but distinct objects are just
visited separately, with the same result. T-depth is layered only for a
circuit with no marker and no tof of two or more controls, the circuits
whose report holds a number. Nothing is cached across calls: each
command pays for its own work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple


class Kind(NamedTuple):
    """One row of ``KINDS``."""

    controls: int
    qasm: str
    inverse: str
    bucket: str        # the ResourceReport count the gate adds one to
    omega: int | None  # w exponent of a diagonal gate, None otherwise


KINDS = {
    #            controls  qasm   inverse  bucket  omega
    "x":    Kind(0,        "x",   "x",     "other", None),
    "y":    Kind(0,        "y",   "y",     "other", None),
    "z":    Kind(0,        "z",   "z",     "pz",    4),
    "p":    Kind(0,        "s",   "pdg",   "pz",    2),
    "pdg":  Kind(0,        "sdg", "p",     "pz",    6),
    "t":    Kind(0,        "t",   "tdg",   "t",     1),
    "tdg":  Kind(0,        "tdg", "t",     "t",     7),
    "h":    Kind(0,        "h",   "h",     "h",     None),
    "ry":   Kind(0,        "ry",  "ry",    "other", None),
    "cnot": Kind(1,        "cx",  "cnot",  "cnot",  None),
    "cz":   Kind(1,        "cz",  "cz",    "cnot",  4),
}
# the order of ResourceReport.counts() plus "other"
_BUCKETS = ("t", "cnot", "h", "pz", "other")
_T_KINDS = frozenset(k for k, row in KINDS.items() if row.bucket == "t")

ROLE_PRIMARY = "primary"
ROLE_CLEAN = "clean_ancilla"
ROLE_DIRTY = "dirty_ancilla"
ROLES = (ROLE_PRIMARY, ROLE_CLEAN, ROLE_DIRTY)


class InputError(Exception):
    """A file, flag or request the tools refuse: the command line reports
    its message and exits 2. Not a ValueError, so that no handler meant
    for a malformed value re-wraps it."""


def basis_bit(width: int, q: int) -> int:
    """The bit of qubit ``q`` in a basis-state index over ``width`` qubits:
    qubit 0 is the most significant bit."""
    return 1 << (width - 1 - q)


@dataclass(frozen=True)
class Gate:
    kind: str
    controls: tuple[int, ...] = ()
    target: int = 0
    neg: frozenset[int] = frozenset()
    param: int = 0
    dagger: bool = False
    # the qubits the gate acts on, set once by __post_init__; not a field of
    # equality, hash or repr
    support: frozenset[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # plain gates are checked without the block table, which is built
        # from plain gates at import time
        kind = self.kind
        row = KINDS.get(kind)
        if row is not None and len(self.controls) != row.controls:
            raise ValueError(f"{kind} takes exactly one control" if row.controls
                             else f"{kind} takes no controls")
        if row is None and kind != "tof":
            if kind not in MARKER_BLOCKS:
                raise ValueError(f"unknown gate kind {kind!r}")
            num_controls = MARKER_BLOCKS[kind].arity - 1
            if len(self.controls) != num_controls:
                raise ValueError(f"{kind} takes {num_controls} controls")
            if self.neg:
                raise ValueError("markers do not support negative controls")
        elif self.dagger:
            raise ValueError("dagger flag is reserved for marker kinds")
        if self.param and kind != "ry":
            raise ValueError("param is only meaningful for ry")
        qubits = self.controls + (self.target,)
        support = frozenset(qubits)
        if len(support) != len(qubits):
            raise ValueError(f"control and target qubits must be distinct: {qubits}")
        if self.neg and not self.neg <= set(self.controls):
            raise ValueError("negative-control set must be a subset of the controls")
        object.__setattr__(self, "support", support)

    @property
    def is_marker(self) -> bool:
        return self.kind in MARKER_BLOCKS

    def inverse(self) -> "Gate":
        row = KINDS.get(self.kind)
        if row is None:
            if self.kind == "tof":
                return self
            # marker: flip the dagger flag
            return Gate(self.kind, self.controls, self.target, dagger=not self.dagger)
        if self.param:
            return Gate("ry", (), self.target, param=-self.param)
        if row.inverse == self.kind:
            return self
        return Gate(row.inverse, self.controls, self.target, self.neg)

    def remap(self, mapping) -> "Gate":
        """The gate with each qubit q moved to ``mapping[q]`` (a dict or a
        sequence indexed by qubit)."""
        return Gate(
            self.kind,
            tuple(mapping[q] for q in self.controls),
            mapping[self.target],
            frozenset(mapping[q] for q in self.neg) if self.neg else self.neg,
            self.param,
            self.dagger,
        )

    def __str__(self):
        name = self.kind + ("dg" if self.dagger else "")
        if self.kind == "ry":
            name = f"ry({self.param}pi/4)"
        if not self.controls:
            return f"{name}({self.target})"
        ctl = ",".join(f"!{q}" if q in self.neg else str(q) for q in self.controls)
        return f"{name}({ctl};{self.target})"


# -- gate factories ------------------------------------------------------

def x(q): return Gate("x", (), q)
def y(q): return Gate("y", (), q)
def z(q): return Gate("z", (), q)
def p(q): return Gate("p", (), q)
def pdg(q): return Gate("pdg", (), q)
def t(q): return Gate("t", (), q)
def tdg(q): return Gate("tdg", (), q)
def h(q): return Gate("h", (), q)


def ry(q, units: int):
    """Y-rotation by ``units`` * pi/4."""
    return Gate("ry", (), q, param=units)


def cx(c, tgt):
    return Gate("cnot", (c,), tgt)


def cz(a, b):
    return Gate("cz", (a,), b)


def tof(controls, target, neg=()):
    return Gate("tof", tuple(controls), target, frozenset(neg))


def marker(kind, controls, target, dagger: bool = False):
    return Gate(kind, tuple(controls), target, dagger=dagger)


@dataclass(frozen=True)
class Circuit:
    """Immutable gate sequence; unitary = product of gate matrices in
    reverse order with respect to the gate order."""

    width: int
    gates: tuple[Gate, ...] = ()
    roles: tuple[str, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.roles is None:
            object.__setattr__(self, "roles", (ROLE_PRIMARY,) * self.width)
        else:
            object.__setattr__(self, "roles", tuple(self.roles))
        if len(self.roles) != self.width:
            raise ValueError("one role per qubit required")
        for r in self.roles:
            if r not in ROLES:
                raise ValueError(f"unknown ancilla role {r!r}")
        for g in self.gates:
            for q in g.support:
                if not 0 <= q < self.width:
                    raise ValueError(f"gate {g} references qubit {q} outside width {self.width}")

    # -- structure ----------------------------------------------------

    def inverse(self) -> "Circuit":
        return Circuit(self.width, tuple(g.inverse() for g in reversed(self.gates)), self.roles)

    def is_lowered(self) -> bool:
        """Every gate is a ``KINDS`` kind with no negative controls."""
        return all(g.kind in KINDS and not g.neg for g in self.gates)

    def ancilla_qubits(self) -> tuple[int, ...]:
        return tuple(q for q, r in enumerate(self.roles) if r != ROLE_PRIMARY)

    def primary_qubits(self) -> tuple[int, ...]:
        return tuple(q for q, r in enumerate(self.roles) if r == ROLE_PRIMARY)

    def __str__(self):
        return " ".join(str(g) for g in self.gates) if self.gates else "(empty)"

    # -- resource counting ---------------------------------------------

    def count_resources(self) -> "ResourceReport":
        return count_resources(self)


@dataclass(frozen=True)
class TargetSpec:
    """What a circuit claims to implement: the tof on ``controls`` (those in
    ``neg`` firing on |0>) and ``target``, at the ``equivalence`` class
    exact, global_phase, relative_phase or special_form. ``xprime``, a
    subset of the gate's qubits, names the flips across which the special
    form's phase classes are constant.
    """

    controls: tuple[int, ...]
    target: int
    neg: frozenset[int] = frozenset()
    xprime: frozenset[int] = frozenset()
    equivalence: str = "exact"

    def __post_init__(self):
        if self.equivalence not in ("exact", "global_phase", "relative_phase", "special_form"):
            raise ValueError(f"unknown equivalence class {self.equivalence!r}")
        if not self.xprime <= self.qubits:
            raise ValueError("xprime must be a subset of the gate's qubits")

    @property
    def qubits(self) -> frozenset[int]:
        return frozenset(self.controls) | {self.target}


@dataclass(frozen=True)
class ResourceReport:
    t: int = 0
    cnot: int = 0
    h: int = 0
    pz: int = 0
    other: int = 0
    t_depth: int | None = 0  # None: a marker or a tof of 2+ controls hides its T gates
    ancilla_count: int = 0
    ancilla_type: str = "none"

    def as_dict(self) -> dict:
        return {
            "t": self.t, "cnot": self.cnot, "h": self.h, "pz": self.pz,
            "other": self.other, "t_depth": self.t_depth,
            "ancilla": {"count": self.ancilla_count, "type": self.ancilla_type},
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict())

    def counts(self) -> tuple[int, int, int, int]:
        return (self.t, self.cnot, self.h, self.pz)


def _gate_counts(g: Gate) -> tuple[int, int, int, int, int]:
    """(t, cnot, h, pz, other) for one gate: a ``KINDS`` gate without
    negative controls adds one to its bucket, a marker counts as its block
    and a tof of two positive controls as toffoli3, and any other gate as
    its expansion."""
    row = KINDS.get(g.kind)
    if row is not None and not g.neg:
        return tuple(int(b == row.bucket) for b in _BUCKETS)
    if g.kind in MARKER_BLOCKS:
        return MARKER_BLOCKS[g.kind].counts
    if g.kind == "tof" and len(g.controls) > 2:
        raise InputError(
            f"resource count of {g} depends on the lowering; lower first")
    if g.kind == "tof" and len(g.controls) == 2 and not g.neg:
        return BLOCKS["toffoli3"].counts
    return tuple(map(sum, zip(*map(_gate_counts, expand(g)))))


def count_resources(circuit: Circuit) -> ResourceReport:
    """Aggregate gate counts, greedy T-depth, and ancilla usage.

    A gate's counts depend only on its kind and its numbers of controls and
    negative controls. The gates are tallied by object in one pass, and
    each such triple is looked up once per call, on the first gate that
    has it, so a wide tof is reported at its first occurrence.

    T-depth layering: two T gates share a layer iff they act on distinct
    qubits with no intervening gate on either qubit. A marker or a tof of
    two or more controls hides its T gates, so T-depth is None for a
    circuit holding one, and the layering runs only when it is not.
    """
    gates = circuit.gates
    # id -> [gate, occurrences], in first-occurrence order; the gates tuple
    # keeps every object alive, so no id is reused within the call
    objects: dict[int, list] = {}
    for g in gates:
        seen = objects.get(id(g))
        if seen is None:
            objects[id(g)] = [g, 1]
        else:
            seen[1] += 1
    tally: dict[tuple, list] = {}  # (kind, #controls, #neg) -> [its first gate, occurrences]
    for g, k in objects.values():
        key = (g.kind, len(g.controls), len(g.neg))
        seen = tally.get(key)
        if seen is None:
            tally[key] = [g, k]
        else:
            seen[1] += k
    t = cnot = hh = pz = other = 0
    for g, k in tally.values():
        dt, dc, dh, dp, do = _gate_counts(g)
        t += k * dt; cnot += k * dc; hh += k * dh; pz += k * dp; other += k * do
    t_depth = None
    if all(kind in KINDS or (kind == "tof" and n < 2) for kind, n, _ in tally):
        # every gate has at most one control and acts as its KINDS gate
        frontier = [0] * circuit.width
        for g in gates:
            if g.controls:
                c, tgt = g.controls[0], g.target
                depth = frontier[c]
                if frontier[tgt] > depth:
                    depth = frontier[tgt]
                frontier[c] = frontier[tgt] = depth
            elif g.kind in _T_KINDS:
                frontier[g.target] += 1
        t_depth = max(frontier, default=0)
    ancillae = circuit.ancilla_qubits()
    if not ancillae:
        atype = "none"
    elif any(circuit.roles[q] == ROLE_DIRTY for q in ancillae):
        atype = "dirty"
    else:
        atype = "clean"
    return ResourceReport(
        t=t, cnot=cnot, h=hh, pz=pz, other=other, t_depth=t_depth,
        ancilla_count=len(ancillae), ancilla_type=atype,
    )


def map_once(fn, items) -> list:
    """``[fn(x) for x in items]``, calling ``fn`` once per distinct ``x``
    (equal items share one result object); the memo lives for this call
    only."""
    done: dict = {}
    out = []
    for item in items:
        y = done.get(item)
        if y is None:
            y = done[item] = fn(item)
        out.append(y)
    return out


# -- the building blocks --------------------------------------------------

_RTOF3_LONG = (h(2), t(2), cx(1, 2), tdg(2), cx(0, 2), t(2), cx(1, 2), tdg(2), h(2))

# One row per block: catalog name, marker kind (None: the rewrite emits the
# exact tof), gates on qubits 0..n-1 with the target last (a truncation as
# (base, kept prefix)), the spec it claims and the paper's (T, CNOT, H); the
# module docstring's table says what each block is.
_BLOCK_ROWS = (
    ("toffoli3", None,
     (h(2), cx(2, 1), tdg(1), cx(0, 1), t(1), cx(2, 1), tdg(1), cx(0, 1), t(1),
      cx(0, 2), tdg(2), cx(0, 2), t(0), t(2), h(2)),
     TargetSpec((0, 1), 2), (7, 6, 2)),
    ("srtof3_ccix", "srtof3", (cz(0, 2),) + _RTOF3_LONG,
     TargetSpec((0, 1), 2, xprime=frozenset({2}), equivalence="special_form"),
     (4, 4, 2)),
    ("rtof3_long", "rtof3l", _RTOF3_LONG,
     TargetSpec((0, 1), 2, equivalence="relative_phase"),
     (4, 3, 2)),
    ("rts3", "rtof3s", ("rtof3_long", 5),
     TargetSpec((0, 1), 2, equivalence="relative_phase"),
     (2, 2, 1)),
    ("srts3", "srts3", ("toffoli3", 9),
     TargetSpec((0, 1), 2, xprime=frozenset({0, 1, 2}), equivalence="special_form"),
     (4, 4, 1)),
    ("rtof4_long", "rtof4l",
     (h(3), t(3), cx(2, 3), tdg(3), h(3),
      cx(0, 3), t(3), cx(1, 3), tdg(3), cx(0, 3), t(3), cx(1, 3), tdg(3),
      h(3), t(3), cx(2, 3), tdg(3), h(3)),
     TargetSpec((0, 1, 2), 3, equivalence="relative_phase"),
     (8, 6, 4)),
    ("rt4s", "rt4s", ("rtof4_long", 10),
     TargetSpec((0, 1, 2), 3, equivalence="relative_phase"),
     (4, 4, 2)),
)


@dataclass(frozen=True)
class Block:
    """One row of the block table plus what is derived from it."""

    name: str
    kind: str | None
    gates: tuple[Gate, ...]
    spec: TargetSpec
    stated: tuple[int, int, int]
    base: str                              # the untruncated block
    junk: frozenset[int]                   # qubits the dropped tail acts on
    counts: tuple[int, int, int, int, int]  # lowered (t, cnot, h, pz, other)
    undo: tuple[int, ...] | None           # of a marker's block: positions in
    #                                        gates of its inverse's gates

    @property
    def arity(self) -> int:
        return len(self.spec.controls) + 1

    @property
    def circuit(self) -> Circuit:
        return Circuit(self.arity, self.gates)


def _blocks() -> dict[str, Block]:
    out: dict[str, Block] = {}
    for name, kind, gates, spec, stated in _BLOCK_ROWS:
        base, junk = name, frozenset()
        if isinstance(gates[0], str):
            base, keep = gates
            whole = out[base].gates
            gates = whole[:keep]
            junk = frozenset().union(*(g.support for g in whole[keep:]))
        # equal gates of a block become one object, so that block_gates'
        # memo finds each repeat by identity, without comparing fields
        gates = tuple(map_once(lambda g: g, gates))
        counts = tuple(map(sum, zip(*map(_gate_counts, gates))))
        if counts[:4] != stated + (0,):
            raise ValueError(f"{name}: stated counts {stated + (0,)} != built {counts[:4]}")
        undo = None
        if kind:  # a marker's inverse is built from the marker's own gates
            at = {g: i for i, g in enumerate(gates)}
            undo = tuple(at.get(g.inverse(), -1) for g in reversed(gates))
            if -1 in undo:
                raise ValueError(f"{name}: the inverse of one of its gates is not one of them")
        out[name] = Block(name, kind, gates, spec, stated, base, junk, counts, undo)
    return out


BLOCKS = _blocks()
MARKER_BLOCKS = {b.kind: b for b in BLOCKS.values() if b.kind}


def block_gates(name: str, wires) -> list[Gate]:
    """The gates of block ``name`` with its qubit i on ``wires[i]``."""
    return map_once(lambda g: g.remap(wires), BLOCKS[name].gates)


def expand(g: Gate) -> list[Gate]:
    """The gates ``g`` stands for: a marker's block gates (inverted when
    dagger is set), a negative control as an X pair around the positive
    gate, and a tof of 0 or 1 controls as x or cnot. Each gate returned is
    a ``KINDS`` gate without negative controls or a tof of two or more
    positive controls, and such a gate expands to itself."""
    if g.kind in MARKER_BLOCKS:
        blk = MARKER_BLOCKS[g.kind]
        gates = block_gates(blk.name, g.controls + (g.target,))
        return [gates[i] for i in blk.undo] if g.dagger else gates
    if g.neg:
        wraps = [x(q) for q in sorted(g.neg)]
        return wraps + expand(Gate(g.kind, g.controls, g.target, param=g.param)) + wraps[::-1]
    if g.kind == "tof" and len(g.controls) < 2:
        return [Gate("cnot" if g.controls else "x", g.controls, g.target)]
    return [g]


def expand_all(gates, wide=None) -> list[Gate]:
    """``gates`` with each one taken to ``KINDS`` gates: ``expand(g)``, a
    tof of two positive controls as toffoli3's gates and one of three or
    more as the expansion of ``wide(g)``, a list of markers, 2-control
    tofs and ``KINDS`` gates. Each distinct gate is expanded once per
    call, and a marker and its inverse on the same wires share one
    ``block_gates`` call: the uncompute half of a construction builds no
    gate."""
    bodies: dict[Gate, list[Gate]] = {}
    forward: dict[tuple, list[Gate]] = {}  # (marker kind, wires) -> its gates
    out: list[Gate] = []
    for g in gates:
        body = bodies.get(g)
        if body is None:
            blk = MARKER_BLOCKS.get(g.kind)
            if blk is not None:
                wires = g.controls + (g.target,)
                fwd = forward.get((g.kind, wires))
                if fwd is None:
                    fwd = forward[g.kind, wires] = block_gates(blk.name, wires)
                body = [fwd[i] for i in blk.undo] if g.dagger else fwd
            else:
                body = []
                for gg in expand(g):
                    if gg.kind != "tof":
                        body.append(gg)
                    elif len(gg.controls) == 2:
                        body += block_gates("toffoli3", gg.controls + (gg.target,))
                    else:
                        body += expand_all(wide(gg))
            bodies[g] = body
        out += body
    return out
