"""A textbook reference for circuit unitaries, the one the tests hold the
simulator against.

Each gate is its 2x2 matrix on the target, applied where every control
holds: a positive control on |1>, a negative one on |0>. The matrices are
written out below from their definitions -- X, Y, Z, S, S^dagger, T,
T^dagger, H and RY(u pi/4) -- in complex floats, and a marker is the
product of the gates ``circuit.expand`` gives it. Nothing here reads the
simulator, the ring or the w exponents of the gate table, so a wrong
entry in the simulator's gate compilation cannot pass both.

A column is sparse, {row: amplitude}, so wide circuits run column by
column. The kernels leave out the e^(i pi/8) of an odd ry-unit total;
``agrees`` puts it back before it compares.
"""

import cmath
import math

import numpy as np

from rphase.circuit import Circuit, Gate, TargetSpec, expand, tof

TOL = 1e-9
# terms below this are rounding left over from a cancellation
_CUTOFF = 1e-12

_W = cmath.exp(1j * math.pi / 4)
_R = 1 / math.sqrt(2)
_X = ((0, 1), (1, 0))
_Z = ((1, 0), (0, -1))

# each kind's matrix on its target; cnot and tof are controlled X, cz a
# controlled Z
MATRICES = {
    "x": _X, "cnot": _X, "tof": _X,
    "y": ((0, -1j), (1j, 0)),
    "z": _Z, "cz": _Z,
    "p": ((1, 0), (0, 1j)),
    "pdg": ((1, 0), (0, -1j)),
    "t": ((1, 0), (0, _W)),
    "tdg": ((1, 0), (0, _W.conjugate())),
    "h": ((_R, _R), (_R, -_R)),
}


def ry_matrix(units: int):
    """RY(theta) = [[cos theta/2, -sin theta/2], [sin theta/2, cos theta/2]]
    at theta = units pi/4, units read mod 16 as RY(4 pi) = I."""
    half = units % 16 * math.pi / 8
    c, s = math.cos(half), math.sin(half)
    return ((c, -s), (s, c))


def _steps(circuit: Circuit) -> list:
    """(matrix, target bit, control mask, control value) of each gate, a
    marker's expansion in its place: the matrix acts on the target bit of
    each index whose control bits are 1, or 0 for a negative control."""
    width = circuit.width
    bit = [1 << (width - 1 - q) for q in range(width)]
    steps = []
    for g in circuit.gates:
        for gg in expand(g) if g.is_marker else (g,):
            m = ry_matrix(gg.param) if gg.kind == "ry" else MATRICES[gg.kind]
            steps.append((m, bit[gg.target], sum(bit[q] for q in gg.controls),
                          sum(bit[q] for q in gg.controls if q not in gg.neg)))
    return steps


def _apply(state: dict, step) -> dict:
    m, tb, cm, cv = step
    new = {}
    for i, a in state.items():
        if i & cm != cv:
            new[i] = new.get(i, 0) + a
            continue
        j = 1 if i & tb else 0
        for out, entry in ((i & ~tb, m[0][j]), (i | tb, m[1][j])):
            if entry:
                new[out] = new.get(out, 0) + entry * a
    return {i: a for i, a in new.items() if abs(a) > _CUTOFF}


def columns(circuit: Circuit, starts):
    """For each basis state of ``starts``: (its column of the circuit's
    unitary as {row: amplitude}, the most terms that column held after any
    gate, a marker's counted gate by gate)."""
    steps = _steps(circuit)
    for start in starts:
        state, peak = {start: 1}, 1
        for step in steps:
            state = _apply(state, step)
            peak = max(peak, len(state))
        yield state, peak


def unitary(circuit: Circuit) -> np.ndarray:
    """The circuit's matrix, column by column."""
    dim = 1 << circuit.width
    m = np.zeros((dim, dim), dtype=complex)
    for s, (col, _) in enumerate(columns(circuit, range(dim))):
        for r, a in col.items():
            m[r, s] = a
    return m


def permutation(spec: TargetSpec, width: int) -> list[int]:
    """The basis permutation of the spec's tof on ``width`` qubits: for
    each column of its matrix, the row holding the column's 1."""
    m = unitary(Circuit(width, [tof(spec.controls, spec.target, spec.neg)]))
    return [int(np.argmax(abs(m[:, s]))) for s in range(1 << width)]


def value(a, k: int) -> complex:
    """A kernel amplitude as a complex number: a ring coefficient 4-tuple
    (c0, c1, c2, c3) is sum c_j e^(i j pi/4) over sqrt(2)^k; a float
    kernel's amplitude (k = 0) is itself."""
    if isinstance(a, tuple):
        return sum(c * _W ** j for j, c in enumerate(a)) / math.sqrt(2) ** k
    return a


def agrees(circuit: Circuit, starts, kernel, tol: float = TOL) -> bool:
    """Whether the ``kernel`` columns of the basis states ``starts`` -- one
    (amplitudes, k, max_support) each -- times e^(i pi/8) for an odd
    ry-unit total, are the oracle's within ``tol`` on the union of their
    rows, a missing row read as 0. A kernel column's max_support is the
    oracle's if the circuit has no ry gate, and at least that if it has:
    a kernel runs ry as S^dagger H T^u H S, whose inner h may widen it."""
    factor = cmath.exp(1j * math.pi / 8) if sum(g.param for g in circuit.gates) % 2 else 1
    has_ry = any(g.kind == "ry" for g in circuit.gates)
    for (amps, k, support), (want, peak) in zip(kernel, columns(circuit, starts), strict=True):
        got = {r: value(a, k) * factor for r, a in amps.items()}
        if any(abs(got.get(r, 0) - want.get(r, 0)) >= tol for r in got.keys() | want.keys()):
            return False
        if support < peak or (support != peak and not has_ry):
            return False
    return True
