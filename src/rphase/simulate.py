"""Sparse statevector simulation over the exact ring Z[w, 1/sqrt(2)].

States are maps from basis index to amplitude. The ring kernel keeps one
global sqrt(2)-denominator exponent k and packs each numerator's four
coefficients into one integer's base-2^L digits, each at most 2^h in
magnitude after h Hadamards (see the ring kernel): a Hadamard only bumps
k and adds integers, so Clifford+T circuits simulate with zero rounding
error. The float kernel stores complex amplitudes: it is only the oracle
of ``verify.backends_agree`` and the tests. Both kernels return
(amplitudes, k, max_support) per column, ring amplitudes as coefficient
4-tuples, k = 0 for floats: the ring kernel for each column of a batch,
the float kernel for one.

Every gate but h compiles to "cp" ops: a controlled bit flip times a
power of w, the action of a phase permutation on one basis index. As
RY(u pi/4) = w^(-u/2) S H T^u H S^dagger, the w^(-U/2) of a circuit's
ry-unit total U is one global cp op, w^floor(-U/2). An odd U leaves
w^(1/2) = e^(i pi/8) outside the ring: results carry it as one bit,
``half`` (U mod 2), on every phase they list. As e^(i pi/8) is not in
Q(w), unitaries whose bits differ are never equal.
The ring kernel runs a fused op list: ``fuse_ops`` folds each run of cp
ops between Hadamards, on at most FUSE_QUBITS qubits, into one table
lookup per amplitude. Such a run never changes the number of amplitudes,
so a fused column returns exactly what the gate-level one does,
max_support included.

Amplitudes compare through ``same_phase``, the one rule: exactly for two
ring elements, within FLOAT_TOL = 1e-9 as complex numbers otherwise, which
only the oracle comparison meets.

Every ring column runs through one lazy stream, ``_ring_columns``: it
compiles and fuses a circuit once and yields its ring columns for a
sequence of basis states, one batch at a time. ``_collapsed`` reads it into the
(output, phase) of each column -- the shape of every (relative phase)
multiple-control Toffoli -- and raises NotAPhasePermutation naming the
first column, in the order given, that does not collapse; no batch runs
past that one. ``unitary_columns`` runs it on every basis state and
returns a ``PhasePermutation``, or None for a circuit that is none;
``verify.check_implements`` runs it on the columns it chooses.
``equivalent`` compares two circuits' unitaries of any shape exactly: the
bits first, then the columns up to the first that differs, one batch of
ring columns at a time.

Columns run in batches of BATCH_COLUMNS. A batch is one sparse state:
column n's indices carry n in the bits from the circuit width up, which
no op reads or writes, so each op runs once over the whole batch. The
batches run in order in the calling process.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .circuit import KINDS, Circuit, Gate, basis_bit
from .ring import ZERO, RingElement, as_omega_power

FLOAT_TOL = 1e-9
WIDTH_LIMIT = 16
# Columns run together as one tagged sparse state (see run_column_ring).
BATCH_COLUMNS = 64
# Most qubits one fused cp run may touch: its table has 2^4 rows.
FUSE_QUBITS = 4


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
#   ("cp", ctl_mask, ctl_value, flip_mask, w_exponent)  every gate but h
#   ("h", bit_mask)
#   ("pp", qubit_mask, table)                           fused run
#
# A cp op fires on index i iff (i & ctl_mask) == ctl_value, which encodes
# positive and negative controls uniformly; it then flips flip_mask and
# multiplies the amplitude by w^w_exponent. A diagonal kind (a KINDS row
# with an omega exponent: z, p, pdg, t, tdg, cz) is one cp op with its
# target, and its controls, in the control mask; x, cnot and tof flip the
# target with no phase; y is Z then iX, two cp ops; ry is S^dagger, H,
# T^u, H, S. Every exponent is an integer in 0..7.
# ``fuse_ops`` folds each run of cp ops between Hadamards into one "pp"
# op: ``table`` maps the run's bits of an index, i & qubit_mask, to its
# output bits and the w exponent (mod 8) the run multiplies the amplitude
# by.

def _control_masks(width: int, g: Gate) -> tuple[int, int]:
    mask = value = 0
    for q in g.controls:
        b = basis_bit(width, q)
        mask |= b
        if q not in g.neg:
            value |= b
    return mask, value


def compile_gate(g: Gate, width: int) -> tuple:
    """The ops of one gate: one op, two for y, five for ry."""
    if g.is_marker:
        raise MarkerInSimulation(f"marker gate in simulation: {g}")
    tb = basis_bit(width, g.target)
    kind = g.kind
    if kind == "h":
        return (("h", tb),)
    if kind == "ry":
        return (("cp", tb, tb, 0, 6), ("h", tb), ("cp", tb, tb, 0, g.param % 8),
                ("h", tb), ("cp", tb, tb, 0, 2))
    if kind == "y":
        return (("cp", tb, tb, 0, 4), ("cp", 0, 0, tb, 2))
    cm, cv = _control_masks(width, g)
    row = KINDS.get(kind)
    if row is not None and row.omega is not None:
        return (("cp", cm | tb, cv | tb, 0, row.omega),)
    return (("cp", cm, cv, tb, 0),)


def compile_circuit(circuit: Circuit):
    """The circuit's ops, then one mask-0 cp op w^floor(-U/2) for its ry
    gates' global w^(-U/2), less the e^(i pi/8) that ``_half`` notes."""
    width = circuit.width
    ops = tuple(op for g in circuit.gates for op in compile_gate(g, width))
    # U is the ry-unit total (param is 0 on every other gate), read mod 16
    # (RY(4 pi) = I) in integers, so no angle is ever rounded
    e = (-sum(g.param for g in circuit.gates) % 16) // 2
    if e:
        ops += (("cp", 0, 0, 0, e),)
    return ops


def _half(circuit: Circuit) -> bool:
    """Whether the ry-unit total is odd: e^(i pi/8) is then left out."""
    return sum(g.param for g in circuit.gates) % 2 == 1


def fuse_ops(ops):
    """The ring kernel's op list with each maximal run of cp ops touching
    at most FUSE_QUBITS qubits folded into one pp op. A run ends at an h
    op or where one more op would pass the cap; a run of one op stays that
    op. No cp op changes the support, so a column through the fused list
    returns what it returns through ``ops``."""
    groups = []  # [touched mask, ops] per run; mask None for h
    for op in ops:
        touched = op[1] | op[3] if op[0] == "cp" else None
        last = groups[-1][0] if groups else None
        if touched is not None and last is not None and (last | touched).bit_count() <= FUSE_QUBITS:
            groups[-1][0] |= touched
            groups[-1][1].append(op)
        else:
            groups.append([touched, [op]])
    return tuple(run[0] if len(run) == 1 else ("pp", mask, _run_table(run, mask))
                 for mask, run in groups)


def _run_table(run, mask):
    """{local input bits: (local output bits, w exponent mod 8)} of a run
    of cp ops, from each of the 2^m basis states on its m qubits."""
    states = [0]
    rest = mask
    while rest:
        b = rest & -rest
        states += [s | b for s in states]
        rest ^= b
    table = {}
    for start in states:
        i, e = start, 0
        for _, cm, cv, flip, step in run:
            if (i & cm) == cv:
                i ^= flip
                e += step
        table[start] = (i, e % 8)
    return table


# -- ring kernel ----------------------------------------------------------
#
# Z[w] is Z[x]/(x^4 + 1), so the kernel holds each numerator
# c0 + c1 w + c2 w^2 + c3 w^3 as the one integer E = c0 + c1 B + c2 B^2
# + c3 B^3 at B = 2^L, with L two more than the number of h ops. A cp or
# pp rotation only permutes coefficients and flips signs, and an h op at
# most doubles the largest |coefficient|, so after h of them every
# |coefficient| <= 2^h < B/2: each one is one balanced base-B digit of E,
# E is the balanced residue of its class mod N = B^4 + 1, and w^e is
# (E << e L) mod N taken to the balanced residue. An h op adds, subtracts
# or negates whole integers, and E = 0 iff the amplitude is 0.

def run_column_ring(ops, starts, width: int):
    """Propagate the basis states ``starts`` of a ``width``-qubit circuit
    as one sparse state; returns (amplitudes, k, max_support) per column,
    in order, each amplitude a coefficient 4-tuple over sqrt(2)^k.

    Column n's indices carry n in the bits from ``width`` up. No op reads
    or writes those bits, so each op runs once on the union, and a batch
    of one is the single-column case. ``ops`` is gate-level or fused; only
    an h op changes a column's support. An h op that finds no term's
    partner (its index with the h bit flipped) writes no output twice and
    doubles every column's support; after any other, the supports are
    recounted, so each column's max_support is its own."""
    digit = sum(op[0] == "h" for op in ops) + 2  # L: bits per coefficient
    modulus = (1 << 4 * digit) + 1               # N = B^4 + 1
    half = modulus >> 1
    amps = {n << width | s: 1 for n, s in enumerate(starts)}
    k = 0
    base = [1] * len(amps)  # each column's support at the last recount
    peak = list(base)       # each column's max_support up to that recount
    doubled = 0             # h ops since then, each doubling every support
    for op in ops:
        code = op[0]
        if code == "pp":
            _, mask, table = op
            keep = ~mask
            new = {}
            for i, a in amps.items():
                o, e = table[i & mask]
                if e:
                    a = (a << e * digit) % modulus
                    if a > half:
                        a -= modulus
                new[i & keep | o] = a
            amps = new
        elif code == "h":
            tb = op[1]
            k += 1
            new = {}
            partner = amps.get
            paired = False
            for i, c in amps.items():
                d = partner(i ^ tb)
                if d is None:
                    # a lone term: no other term meets it, so nothing cancels
                    if i & tb:
                        new[i ^ tb] = c
                        new[i] = -c
                    else:
                        new[i] = new[i | tb] = c
                elif not i & tb:
                    paired = True
                    a = c + d
                    if a:
                        new[i] = a
                    a = c - d
                    if a:
                        new[i | tb] = a
            amps = new
            if not paired:
                # every column's support doubled
                doubled += 1
                continue
            # supports only doubled since the last recount, so each
            # column's largest support since then is its latest
            peak = [max(p, b << doubled) for p, b in zip(peak, base)]
            base = [0] * len(base)
            for i in amps:
                base[i >> width] += 1
            doubled = 0
        else:
            _, cm, cv, flip, e = op
            s = e * digit
            new = {}
            for i, a in amps.items():
                if (i & cm) == cv:
                    i ^= flip
                    if s:
                        a = (a << s) % modulus
                        if a > half:
                            a -= modulus
                new[i] = a
            amps = new
    # E + offset has every balanced digit raised by B/2 into [0, B): read
    # the four digits with no borrow, then lower each again
    lift = 1 << digit - 1
    offset = sum(lift << j * digit for j in range(4))
    low_digit = (1 << digit) - 1
    columns = [{} for _ in base]
    low = (1 << width) - 1
    for i, a in amps.items():
        u = a + offset
        columns[i >> width][i & low] = (
            (u & low_digit) - lift, (u >> digit & low_digit) - lift,
            (u >> 2 * digit & low_digit) - lift, (u >> 3 * digit) - lift)
    return [(c, k, max(p, b << doubled)) for c, p, b in zip(columns, peak, base)]


def run_column_float(ops, start: int):
    """Propagate one basis state; returns (amplitudes, 0, max_support)
    with complex amplitudes, the shape of one ``run_column_ring`` column."""
    amps, max_support = {start: 1.0 + 0.0j}, 1
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    omega = cmath.exp(1j * math.pi / 4)
    for op in ops:
        code = op[0]
        if code == "cp":
            _, cm, cv, flip, e = op
            w = omega ** e
            new = {}
            for i, a in amps.items():
                if (i & cm) == cv:
                    i ^= flip
                    if e:
                        a *= w
                new[i] = a
            amps = new
        else:
            tb = op[1]
            new = {}
            get = new.get
            for i, a in amps.items():
                a *= inv_sqrt2
                lo, hi = i & ~tb, i | tb
                new[lo] = get(lo, 0.0) + a
                new[hi] = get(hi, 0.0) + (-a if i & tb else a)
            amps = {i: a for i, a in new.items() if abs(a) > 1e-14}
        if len(amps) > max_support:
            max_support = len(amps)
    return amps, 0, max_support


# -- whole-circuit unitaries ----------------------------------------------

def same_phase(a, b) -> bool:
    """The one rule for comparing two amplitudes: two ring elements are
    equal exactly, any other pair within FLOAT_TOL as complex numbers. The
    same object is equal to itself at once: each collapsed ring phase is
    one of eight shared w^j objects."""
    if a is b:
        return True
    if isinstance(a, RingElement) and isinstance(b, RingElement):
        return a == b
    return abs(complex(a) - complex(b)) < FLOAT_TOL


@dataclass(frozen=True)
class PhasePermutation:
    """Permutation with a unit-magnitude phase per column.

    ``perm[s]`` is the output basis state for input ``s`` and ``phases[s]``
    its amplitude, so column s of the matrix is phases[s] * e_{perm[s]}.
    Row-indexed phases (the diagonal of the canonic TOF-then-D form) are
    ``row_phases``. With ``half`` set, each phase carries one more
    e^(i pi/8).
    """

    width: int
    perm: tuple[int, ...]
    phases: tuple
    half: bool = False
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
            ph = self.phases[s].conj()
            # the conjugate of e^(i pi/8) w^j is e^(i pi/8) w^(7 - j)
            phases[t_] = ph * RingElement.omega_power(7) if self.half else ph
        return PhasePermutation(self.width, tuple(perm), tuple(phases), self.half)

    def __eq__(self, other):
        if not isinstance(other, PhasePermutation):
            return NotImplemented
        return ((self.width, self.perm, self.half) == (other.width, other.perm, other.half)
                and all(map(same_phase, self.phases, other.phases)))


def _width_guard(columns: int) -> None:
    if columns > WIDTH_LIMIT:
        raise WidthLimitExceeded(
            f"width limit exceeded: 2^{columns} columns to simulate, limit 2^{WIDTH_LIMIT}")


def _ring_columns(circuit: Circuit, starts):
    """(amplitudes, k, max_support) of the ring column of each basis state
    in ``starts`` (a sequence), in order: the fused ops run on one batch of
    BATCH_COLUMNS at a time, each when it is reached."""
    width = circuit.width
    ops = fuse_ops(compile_circuit(circuit))
    for n in range(0, len(starts), BATCH_COLUMNS):
        yield from run_column_ring(ops, starts[n:n + BATCH_COLUMNS], width)


def _collapsed(circuit: Circuit, starts):
    """The (output, phase) of each column of ``starts``, in order, and the
    largest max_support among them. A column that does not collapse to one
    basis state with a unit-magnitude phase raises NotAPhasePermutation
    naming it; no batch runs past its own."""
    entries, max_support = [], 1
    for s, (amps, k, ms) in zip(starts, _ring_columns(circuit, starts)):
        max_support = max(max_support, ms)
        entry = _collapse(amps, k)
        if entry is None:
            raise NotAPhasePermutation(
                f"not a phase permutation: column {s:0{circuit.width}b} "
                f"does not collapse to one basis state")
        entries.append(entry)
    return entries, max_support


def unitary_columns(circuit: Circuit, backend: str = "ring"):
    """Apply the circuit to every basis state: a PhasePermutation when each
    column collapses to one basis state with a unit-magnitude phase, else
    None, with no column run past the first that does not. At most
    2^WIDTH_LIMIT columns; any ``backend`` but "ring" is a ValueError."""
    if backend != "ring":
        raise ValueError(f"unknown backend {backend!r}: columns run on the ring only")
    width = circuit.width
    _width_guard(width)
    try:
        entries, max_support = _collapsed(circuit, range(1 << width))
    except NotAPhasePermutation:
        return None
    perm, phases = zip(*entries)
    return PhasePermutation(width, perm, phases, _half(circuit), max_support)


def _columns(circuit: Circuit, backend: str):
    """Every column of the circuit's compiled ops (so without ``_half``'s
    factor) as {row: amplitude}, in order, each ring batch run when it is
    reached: RingElements, or the oracle's complex numbers for "float"."""
    _width_guard(circuit.width)
    starts = range(1 << circuit.width)
    if backend == "float":
        ops = compile_circuit(circuit)
        return (run_column_float(ops, s)[0] for s in starts)
    return ({i: RingElement(*c, k) for i, c in amps.items()}
            for amps, k, _ in _ring_columns(circuit, starts))


def _same_columns(xs, ys) -> bool:
    """Whether two column streams agree under ``same_phase`` on the union
    of each column pair's rows, a missing row read as 0. Stops at the
    first column that differs."""
    return all(same_phase(c.get(r, ZERO), d.get(r, ZERO))
               for c, d in zip(xs, ys) for r in c.keys() | d.keys())


def equivalent(a: Circuit, b: Circuit) -> bool:
    """Whether two circuits have the same unitary, exactly. False for
    different widths or ``_half`` bits; else both circuits' ring columns
    run, one batch at a time each, up to the first column that differs."""
    return (a.width == b.width and _half(a) == _half(b)
            and _same_columns(_columns(a, "ring"), _columns(b, "ring")))


def _collapse(amps, k):
    """(output index, phase) of a ring column holding one unit-magnitude
    amplitude, else None."""
    if len(amps) != 1:
        return None
    (i, c), = amps.items()
    phase = as_omega_power(c, k)
    return None if phase is None else (i, phase)
