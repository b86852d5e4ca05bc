"""Sparse statevector simulation with an exact ring backend.

States are maps from basis index to amplitude. The ring backend keeps one
global sqrt(2)-denominator exponent for the whole state and stores each
amplitude as a 4-tuple of integer coefficients of (1, w, w^2, w^3), so a
Hadamard only bumps the shared exponent and adds integers: Clifford+T
circuits simulate with zero rounding error. The float backend stores
complex amplitudes and is required for ry gates, whose cos(pi/8) entries
live outside the ring. Backend choice is automatic from the gate set.

``unitary_columns`` is the one column driver: it applies a circuit to
every basis state, or to a requested subset, which is how
``verify.check_implements`` runs. If every column collapses to a single
basis state carrying a unit-magnitude phase the result is a
``PhasePermutation`` (a ``ColumnSet`` for a subset) -- the shape of every
(relative phase) multiple-control Toffoli -- else a column-sparse
``DenseMatrix``, or ``NotAPhasePermutation`` naming the first column
that does not collapse.

Columns are independent; ``processes > 1`` fans them out over a process
pool with a deterministic merge.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .circuit import ROLE_CLEAN, Circuit, Gate
from .ring import RingElement

FLOAT_TOL = 1e-9
DENSE_WIDTH_LIMIT = 12
WIDTH_LIMIT = 16


class SimulationError(Exception):
    pass


class MarkerInSimulation(SimulationError):
    """A relative-phase marker reached the simulator; lower the circuit first."""


class WidthLimitExceeded(SimulationError):
    pass


class NotAPhasePermutation(SimulationError):
    pass


# -- gate compilation -----------------------------------------------------
#
# Gates become small tuples interpreted by a tight loop:
#   ("perm", ctl_mask, ctl_value, flip_mask)          x / cnot / tof
#   ("h", bit_mask)
#   ("phase", ctl_mask, ctl_value, omega_exponent)    z/p/pdg/t/tdg/cz
#   ("y", bit_mask)
#   ("ry", bit_mask, units)                           float backend only
#
# A gate fires on index i iff (i & ctl_mask) == ctl_value, which encodes
# positive and negative controls uniformly.

def _bit(width: int, q: int) -> int:
    return 1 << (width - 1 - q)  # qubit 0 is the most significant bit


def _control_masks(width: int, g: Gate) -> tuple[int, int]:
    mask = value = 0
    for q in g.controls:
        b = _bit(width, q)
        mask |= b
        if q not in g.neg:
            value |= b
    return mask, value


def compile_gate(g: Gate, width: int):
    if g.is_marker:
        raise MarkerInSimulation(f"marker gate in simulation: {g}")
    tb = _bit(width, g.target)
    if g.kind in ("x", "cnot", "tof"):
        cm, cv = _control_masks(width, g)
        return ("perm", cm, cv, tb)
    if g.kind == "h":
        return ("h", tb)
    if g.kind == "y":
        return ("y", tb)
    if g.kind == "ry":
        return ("ry", tb, g.param)
    if g.kind == "cz":
        cm, cv = _control_masks(width, g)
        return ("phase", cm | tb, cv | tb, 4)
    exponent = {"z": 4, "p": 2, "pdg": -2, "t": 1, "tdg": -1}[g.kind]
    return ("phase", tb, tb, exponent)


def compile_circuit(circuit: Circuit):
    return tuple(compile_gate(g, circuit.width) for g in circuit.gates)


# -- ring kernel ----------------------------------------------------------

def _omega_mul(c, e):
    """Coefficient 4-tuple times w^e, e in [-2, 4]."""
    c0, c1, c2, c3 = c
    e %= 8
    if e == 0:
        return c
    if e == 1:
        return (-c3, c0, c1, c2)
    if e == 2:
        return (-c2, -c3, c0, c1)
    if e == 4:
        return (-c0, -c1, -c2, -c3)
    if e == 6:
        return (c2, c3, -c0, -c1)
    if e == 7:
        return (c1, c2, c3, -c0)
    raise AssertionError(e)


_ZERO4 = (0, 0, 0, 0)


def run_column_ring(ops, start: int):
    """Propagate one basis state; returns (amplitudes, k, max_support)."""
    return _run_ring_from(ops, {start: (1, 0, 0, 0)}, 0)


def run_column_float(ops, start: int):
    amps, max_support = _run_float_from(ops, {start: 1.0 + 0.0j})
    return amps, max_support


def _run_ring_from(ops, amps, k):
    max_support = len(amps)
    for op in ops:
        code = op[0]
        if code == "perm":
            _, cm, cv, tb = op
            amps = {(i ^ tb if (i & cm) == cv else i): a for i, a in amps.items()}
        elif code == "phase":
            _, cm, cv, e = op
            amps = {i: (_omega_mul(a, e) if (i & cm) == cv else a) for i, a in amps.items()}
        elif code == "h":
            tb = op[1]
            k += 1
            new = {}
            get = new.get
            for i, (c0, c1, c2, c3) in amps.items():
                lo, hi = i & ~tb, i | tb
                d0, d1, d2, d3 = get(lo, _ZERO4)
                new[lo] = (d0 + c0, d1 + c1, d2 + c2, d3 + c3)
                d0, d1, d2, d3 = get(hi, _ZERO4)
                if i & tb:
                    new[hi] = (d0 - c0, d1 - c1, d2 - c2, d3 - c3)
                else:
                    new[hi] = (d0 + c0, d1 + c1, d2 + c2, d3 + c3)
            amps = {i: a for i, a in new.items() if a != _ZERO4}
        elif code == "y":
            tb = op[1]
            amps = {i ^ tb: _omega_mul(a, 2 if not i & tb else 6) for i, a in amps.items()}
        else:
            raise SimulationError("ry gate requires the float backend")
        if len(amps) > max_support:
            max_support = len(amps)
    return amps, k, max_support


def _run_float_from(ops, amps):
    max_support = len(amps)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    omega = cmath.exp(1j * math.pi / 4)
    for op in ops:
        code = op[0]
        if code == "perm":
            _, cm, cv, tb = op
            amps = {(i ^ tb if (i & cm) == cv else i): a for i, a in amps.items()}
        elif code == "phase":
            _, cm, cv, e = op
            w = omega ** e
            amps = {i: (a * w if (i & cm) == cv else a) for i, a in amps.items()}
        elif code == "h":
            tb = op[1]
            new = {}
            get = new.get
            for i, a in amps.items():
                a *= inv_sqrt2
                lo, hi = i & ~tb, i | tb
                new[lo] = get(lo, 0.0) + a
                new[hi] = get(hi, 0.0) + (-a if i & tb else a)
            amps = {i: a for i, a in new.items() if abs(a) > 1e-14}
        elif code == "y":
            tb = op[1]
            amps = {i ^ tb: (a * 1j if not i & tb else a * -1j) for i, a in amps.items()}
        else:
            _, tb, units = op
            half = units * math.pi / 8
            c, s = math.cos(half), math.sin(half)
            new = {}
            get = new.get
            for i, a in amps.items():
                lo, hi = i & ~tb, i | tb
                if i & tb:
                    new[lo] = get(lo, 0.0) - s * a
                    new[hi] = get(hi, 0.0) + c * a
                else:
                    new[lo] = get(lo, 0.0) + c * a
                    new[hi] = get(hi, 0.0) + s * a
            amps = {i: a for i, a in new.items() if abs(a) > 1e-14}
        if len(amps) > max_support:
            max_support = len(amps)
    return amps, max_support


# -- whole-circuit unitaries ----------------------------------------------

@dataclass(frozen=True)
class PhasePermutation:
    """Permutation with a unit-magnitude phase per column.

    ``perm[s]`` is the output basis state for input ``s`` and ``phases[s]``
    its amplitude, so column s of the matrix is phases[s] * e_{perm[s]}.
    Row-indexed phases (the diagonal of the canonic TOF-then-D form) are
    ``row_phases``.
    """

    width: int
    perm: tuple[int, ...]
    phases: tuple
    backend: str = "ring"
    max_support: int = 1

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a bijection over basis states")

    @property
    def dim(self) -> int:
        return 1 << self.width

    def row_phases(self) -> tuple:
        out = [None] * self.dim
        for s in range(self.dim):
            out[self.perm[s]] = self.phases[s]
        return tuple(out)

    def inverse(self) -> "PhasePermutation":
        perm = [0] * self.dim
        phases = [None] * self.dim
        for s in range(self.dim):
            t_ = self.perm[s]
            perm[t_] = s
            ph = self.phases[s]
            phases[t_] = ph.conj() if isinstance(ph, RingElement) else ph.conjugate()
        return PhasePermutation(self.width, tuple(perm), tuple(phases), self.backend)

    def __eq__(self, other):
        if not isinstance(other, PhasePermutation):
            return NotImplemented
        if self.width != other.width or self.perm != other.perm:
            return False
        if self.backend == "ring" and other.backend == "ring":
            return self.phases == other.phases
        return all(
            abs(complex(a) - complex(b)) < FLOAT_TOL
            for a, b in zip(self.phases, other.phases)
        )


@dataclass(frozen=True)
class DenseMatrix:
    """Column-sparse unitary; exact entries in the ring backend."""

    width: int
    columns: tuple  # tuple of {row: amplitude} dicts
    backend: str = "ring"
    max_support: int = 1

    @property
    def dim(self) -> int:
        return 1 << self.width

    def entry(self, row: int, col: int):
        val = self.columns[col].get(row)
        if val is not None:
            return val
        return RingElement(0, 0, 0, 0) if self.backend == "ring" else 0.0 + 0j

    def to_numpy(self):
        """Dense complex matrix; requires numpy (not a package dependency)."""
        import numpy as np

        m = np.zeros((self.dim, self.dim), dtype=complex)
        for s, col in enumerate(self.columns):
            for r, a in col.items():
                m[r, s] = complex(a)
        return m

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.width != other.width:
            return False
        if self.backend == "ring" and other.backend == "ring":
            return all(
                {r: a for r, a in c.items() if not a.is_zero()}
                == {r: a for r, a in d.items() if not a.is_zero()}
                for c, d in zip(self.columns, other.columns)
            )
        for c, d in zip(self.columns, other.columns):
            for r in set(c) | set(d):
                if abs(complex(c.get(r, 0))) <= FLOAT_TOL and abs(complex(d.get(r, 0))) <= FLOAT_TOL:
                    continue
                if abs(complex(c.get(r, 0)) - complex(d.get(r, 0))) > FLOAT_TOL:
                    return False
        return True


def pick_backend(circuit: Circuit, backend: str | None = None) -> str:
    if backend in ("ring", "float"):
        return backend
    if backend is not None:
        raise ValueError(f"unknown backend {backend!r}")
    return "float" if any(g.kind == "ry" for g in circuit.gates) else "ring"


def _column_batch(args):
    """(amplitudes, k, max_support) of each listed column, in order."""
    ops, backend, indices = args
    if backend == "ring":
        return [run_column_ring(ops, s) for s in indices]
    return [(amps, 0, ms) for amps, ms in (run_column_float(ops, s) for s in indices)]


def unitary_columns(
    circuit: Circuit,
    backend: str | None = None,
    processes: int | None = None,
    column_indices=None,
):
    """Apply the circuit to each basis state (or to ``column_indices``).

    Returns a PhasePermutation when every column collapses to one basis
    state with a unit-magnitude phase, else a DenseMatrix (full-column set
    only, width <= 12). A requested subset returns a ColumnSet, and a
    column of it that does not collapse raises NotAPhasePermutation.

    One width guard runs before ``column_indices`` (which may be lazy) is
    consumed: a subset is taken to lie in the clean-ancilla-0 subspace, as
    check_implements requests, so it counts 2^(width - clean ancillae)
    columns; the full set counts 2^width. Either must be at most
    2^WIDTH_LIMIT.
    """
    full = column_indices is None
    free = circuit.width - (0 if full else circuit.roles.count(ROLE_CLEAN))
    if free > WIDTH_LIMIT:
        raise WidthLimitExceeded(
            f"width limit exceeded: 2^{free} columns to simulate, limit 2^{WIDTH_LIMIT}")
    backend = pick_backend(circuit, backend)
    ops = compile_circuit(circuit)
    indices = range(1 << circuit.width) if full else list(column_indices)

    if processes and processes > 1:
        chunk = max(1, len(indices) // (processes * 4))
        batches = [
            (ops, backend, indices[i:i + chunk])
            for i in range(0, len(indices), chunk)
        ]
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = [r for batch in pool.map(_column_batch, batches) for r in batch]
    else:
        results = _column_batch((ops, backend, indices))
    max_support = max((ms for _, _, ms in results), default=1)

    perm = []
    phases = []
    for s, (amps, k, _) in zip(indices, results):
        entry = _collapse(amps, k, backend)
        if entry is None:
            if full and circuit.width <= DENSE_WIDTH_LIMIT:
                return _dense(circuit.width, results, backend, max_support)
            raise NotAPhasePermutation(
                f"not a phase permutation: column {s:0{circuit.width}b} "
                f"does not collapse to one basis state")
        perm.append(entry[0])
        phases.append(entry[1])

    if full:
        return PhasePermutation(circuit.width, tuple(perm), tuple(phases), backend, max_support)
    return ColumnSet(circuit.width, dict(zip(indices, perm)),
                     dict(zip(indices, phases)), backend, max_support)


def _dense(width, results, backend, max_support) -> DenseMatrix:
    if backend == "ring":
        columns = [{i: RingElement(*c, k) for i, c in amps.items()} for amps, k, _ in results]
    else:
        columns = [dict(amps) for amps, _, _ in results]
    return DenseMatrix(width, tuple(columns), backend, max_support)


@dataclass(frozen=True)
class ColumnSet:
    """Phase-permutation data restricted to a subset of input columns."""

    width: int
    perm: dict
    phases: dict
    backend: str = "ring"
    max_support: int = 1


def _collapse(amps, k, backend):
    """(output index, phase) of a column holding one unit-magnitude
    amplitude, else None."""
    if backend == "ring":
        if len(amps) != 1:
            return None
        (i, c), = amps.items()
        phase = RingElement(*c, k)
        if not phase.is_unit_magnitude():
            return None
        return i, phase
    significant = {i: a for i, a in amps.items() if abs(a) > FLOAT_TOL}
    if len(significant) != 1:
        return None
    (i, a), = significant.items()
    if abs(abs(a) - 1.0) > FLOAT_TOL:
        return None
    return i, a
