"""Circuit data model: gates over indexed qubits with signed controls.

Gates are immutable. A circuit is an ordered gate list over ``width``
qubits plus a per-qubit ancilla role. Qubit 0 is the most significant bit
of a basis-state index, which matches writing a multi-controlled gate as
diag{1, ..., 1, X-block}: controls come before the target.

Besides the elementary set {x, y, z, p, pdg, t, tdg, h, ry, cnot, cz}
there are two families of high-level gates:

* ``tof`` -- a multiple-control Toffoli with any number of controls
  (0 controls = X, 1 = CNOT), each control positive or negative;
* six relative-phase Toffoli building blocks, kept as opaque markers so
  rewrite rules can recognize them before lowering:

  ==========  ======  =====================================================
  kind        qubits  circuit it stands for
  ==========  ======  =====================================================
  rtof3l      3       9-gate relative-phase Toffoli (self-inverse)
  rtof3s      3       its 5-gate truncation (trailing 4 gates dropped)
  srtof3      3       10-gate doubly-controlled iX (special form on target)
  srts3       3       9-gate truncated Toffoli (trailing 6 gates dropped)
  rtof4l      4       18-gate relative-phase Toffoli-4
  rt4s        4       its 10-gate truncation (trailing 8 gates dropped)
  ==========  ======  =====================================================

Markers carry an ordered control tuple because the truncated blocks are
not symmetric in their controls, plus a ``dagger`` flag for inverses.
``ry`` angles are integer multiples of pi/4 stored in ``param``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

ONE_QUBIT_KINDS = frozenset({"x", "y", "z", "p", "pdg", "t", "tdg", "h", "ry"})
MARKER_KINDS = frozenset({"rtof3l", "rtof3s", "srtof3", "srts3", "rtof4l", "rt4s"})
MARKER_NUM_CONTROLS = {
    "rtof3l": 2, "rtof3s": 2, "srtof3": 2, "srts3": 2, "rtof4l": 3, "rt4s": 3,
}
LOWERED_KINDS = ONE_QUBIT_KINDS | {"cnot", "cz"}
_SELF_INVERSE = frozenset({"x", "y", "z", "h", "cnot", "cz", "tof"})
_INVERSE_KIND = {"t": "tdg", "tdg": "t", "p": "pdg", "pdg": "p"}

# Lowered (t, cnot, h, pz, other) totals of each marker's defining circuit;
# kept in sync with the catalog by a test.
MARKER_COUNTS = {
    "rtof3l": (4, 3, 2, 0, 0),
    "rtof3s": (2, 2, 1, 0, 0),
    "srtof3": (4, 4, 2, 0, 0),
    "srts3": (4, 4, 1, 0, 0),
    "rtof4l": (8, 6, 4, 0, 0),
    "rt4s": (4, 4, 2, 0, 0),
}
_TOF3_COUNTS = (7, 6, 2, 0, 0)

ROLE_PRIMARY = "primary"
ROLE_CLEAN = "clean_ancilla"
ROLE_DIRTY = "dirty_ancilla"
ROLES = (ROLE_PRIMARY, ROLE_CLEAN, ROLE_DIRTY)


@dataclass(frozen=True)
class Gate:
    kind: str
    controls: tuple[int, ...] = ()
    target: int = 0
    neg: frozenset[int] = frozenset()
    param: int = 0
    dagger: bool = False

    def __post_init__(self):
        if self.kind not in ONE_QUBIT_KINDS | {"cnot", "cz", "tof"} | MARKER_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in ONE_QUBIT_KINDS and self.controls:
            raise ValueError(f"{self.kind} takes no controls")
        if self.kind in ("cnot", "cz") and len(self.controls) != 1:
            raise ValueError(f"{self.kind} takes exactly one control")
        if self.kind in MARKER_KINDS:
            if len(self.controls) != MARKER_NUM_CONTROLS[self.kind]:
                raise ValueError(f"{self.kind} takes {MARKER_NUM_CONTROLS[self.kind]} controls")
            if self.neg:
                raise ValueError("markers do not support negative controls")
        if self.dagger and self.kind not in MARKER_KINDS:
            raise ValueError("dagger flag is reserved for marker kinds")
        if self.param and self.kind != "ry":
            raise ValueError("param is only meaningful for ry")
        qubits = self.controls + (self.target,)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"control and target qubits must be distinct: {qubits}")
        if not self.neg <= set(self.controls):
            raise ValueError("negative-control set must be a subset of the controls")

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.controls) | {self.target}

    @property
    def is_marker(self) -> bool:
        return self.kind in MARKER_KINDS

    def inverse(self) -> "Gate":
        if self.kind in _SELF_INVERSE:
            return self
        if self.kind in _INVERSE_KIND:
            return Gate(_INVERSE_KIND[self.kind], self.controls, self.target, self.neg)
        if self.kind == "ry":
            return Gate("ry", (), self.target, param=-self.param)
        # marker: flip the dagger flag
        return Gate(self.kind, self.controls, self.target, dagger=not self.dagger)

    def remap(self, mapping: dict[int, int]) -> "Gate":
        return Gate(
            self.kind,
            tuple(mapping[q] for q in self.controls),
            mapping[self.target],
            frozenset(mapping[q] for q in self.neg),
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


def cx(c, tgt, negated: bool = False):
    return Gate("cnot", (c,), tgt, frozenset({c} if negated else ()))


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
        return all(g.kind in LOWERED_KINDS for g in self.gates)

    def ancilla_qubits(self) -> tuple[int, ...]:
        return tuple(q for q, r in enumerate(self.roles) if r != ROLE_PRIMARY)

    def primary_qubits(self) -> tuple[int, ...]:
        return tuple(q for q, r in enumerate(self.roles) if r == ROLE_PRIMARY)

    def __len__(self):
        return len(self.gates)

    def __str__(self):
        return " ".join(str(g) for g in self.gates) if self.gates else "(empty)"

    # -- resource counting ---------------------------------------------

    def count_resources(self) -> "ResourceReport":
        return count_resources(self)


@dataclass(frozen=True)
class TargetSpec:
    """What a circuit claims to implement.

    ``kind`` is "tof", "rtof" or "srtof"; for "srtof" the phase classes are
    constant across flips of the qubits in ``xprime``. ``equivalence`` names
    the class the claim is made at: exact, global_phase, relative_phase or
    special_form.
    """

    kind: str
    controls: tuple[int, ...]
    target: int
    neg: frozenset[int] = frozenset()
    xprime: frozenset[int] = frozenset()
    equivalence: str = "exact"

    def __post_init__(self):
        if self.kind not in ("tof", "rtof", "srtof"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.equivalence not in ("exact", "global_phase", "relative_phase", "special_form"):
            raise ValueError(f"unknown equivalence class {self.equivalence!r}")
        if self.kind == "srtof" and not self.xprime <= (set(self.controls) | {self.target}):
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
    t_depth: int = 0
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
    """(t, cnot, h, pz, other) for one gate; markers via their definitions."""
    extra_x = 2 * len(g.neg)
    if g.kind in ("t", "tdg"):
        return (1, 0, 0, 0, 0)
    if g.kind == "cnot":
        return (0, 1, 0, 0, extra_x)
    # cz costs one two-qubit gate, same bucket as cnot
    if g.kind == "cz":
        return (0, 1, 0, 0, extra_x)
    if g.kind == "h":
        return (0, 0, 1, 0, 0)
    if g.kind in ("p", "pdg", "z"):
        return (0, 0, 0, 1, 0)
    if g.kind in ("x", "y", "ry"):
        return (0, 0, 0, 0, 1)
    if g.kind in MARKER_KINDS:
        c = MARKER_COUNTS[g.kind]
        return (c[0], c[1], c[2], c[3], c[4])
    if g.kind == "tof":
        nc = len(g.controls)
        if nc == 0:
            return (0, 0, 0, 0, 1 + extra_x)
        if nc == 1:
            return (0, 1, 0, 0, extra_x)
        if nc == 2:
            c = _TOF3_COUNTS
            return (c[0], c[1], c[2], c[3], c[4] + extra_x)
        raise ValueError(
            f"resource count of a {nc}-control tof depends on the lowering; lower first")
    raise AssertionError(g.kind)


def count_resources(circuit: Circuit) -> ResourceReport:
    """Aggregate gate counts, greedy T-depth, and ancilla usage.

    T-depth layering: two T gates share a layer iff they act on distinct
    qubits with no intervening gate on either qubit. Markers are treated as
    opaque blockers, so T-depth is only meaningful for lowered circuits.
    """
    t = cnot = hh = pz = other = 0
    frontier = [0] * circuit.width
    for g in circuit.gates:
        dt, dc, dh, dp, do = _gate_counts(g)
        t += dt; cnot += dc; hh += dh; pz += dp; other += do
        qubits = sorted(g.support)
        depth = max((frontier[q] for q in qubits), default=0)
        if g.kind in ("t", "tdg"):
            depth += 1
        for q in qubits:
            frontier[q] = depth
    ancillae = circuit.ancilla_qubits()
    if not ancillae:
        atype = "none"
    elif any(circuit.roles[q] == ROLE_DIRTY for q in ancillae):
        atype = "dirty"
    else:
        atype = "clean"
    return ResourceReport(
        t=t, cnot=cnot, h=hh, pz=pz, other=other,
        t_depth=max(frontier, default=0),
        ancilla_count=len(ancillae), ancilla_type=atype,
    )
