"""Sparse statevector simulation over the exact ring Z[w, 1/sqrt(2)].

States are maps from basis index to amplitude. The ring kernel keeps one
global sqrt(2)-denominator exponent k and packs each numerator's four
coefficients into one integer's base-2^L digits, each at most 2^h in
magnitude after h Hadamards (see the ring kernel): a Hadamard only bumps
k and adds integers, so Clifford+T circuits simulate with zero rounding
error. The float kernel stores complex amplitudes: no verdict reads it;
perfbench's tracer binds it through ``verify``, and the tests hold it,
as they hold the ring kernel, against their textbook oracle. Both
kernels return (amplitudes, k, max_support) per column, ring amplitudes
as coefficient 4-tuples, k = 0 for floats: the ring kernel for each
column of a batch, the float kernel for one.

Every gate but h compiles to "cp" ops: a controlled bit flip times a
power of w, the action of a phase permutation on one basis index. A
marker compiles as the gates it expands to, so any circuit that
``parse_qasm`` returns simulates as it stands, and a marker-level one
gives the columns of its lowering. As
RY(u pi/4) = w^(-u/2) S H T^u H S^dagger, the w^(-U/2) of a circuit's
ry-unit total U is one global cp op, w^floor(-U/2). An odd U leaves
w^(1/2) = e^(i pi/8) outside the ring: results carry it as one bit,
``half`` (U mod 2), on every phase they list. As e^(i pi/8) is not in
Q(w), unitaries whose bits differ are never equal.
The ring kernel runs a fused op list (``fuse_ops``): each run of ops on
at most FUSE_QUBITS qubits becomes one op. In the plain list, h ops end
the runs, and a run of cp ops is one table lookup per amplitude; it never
changes the number of amplitudes. In the memoised list, h ops join the
runs, and a run with h ops inside runs once per distinct local state:
the terms whose indices agree outside the run's qubits form a class, and
a class whose (local bits, amplitude) pairs were met before, in the
same order, takes the run's cached output and peak (see ``_hp_step``).
Either way a fused column returns exactly what the gate-level one does,
max_support included: a column's support after each inner h op is the
sum of its classes', and a column of one class peaks where it does.

Every decision reads the (output, j) of collapsed ring columns, so none
does ring-element arithmetic or reads a tolerance; the only ring
elements built here are the shared ``ring.OMEGA_POWERS`` that
``PhasePermutation`` lists.

Every ring column runs through one lazy stream, ``_ring_columns``: it
compiles and fuses a circuit once and yields its ring columns for a
sequence of basis states, one batch at a time. ``_collapsed`` reads it into the
(output, j) of each column, its phase w^j -- the shape of every (relative
phase) multiple-control Toffoli -- and raises NotAPhasePermutation naming the
first column, in the order given, that does not collapse; no batch runs
past that one. ``unitary_columns`` runs it on every basis state and
returns a ``PhasePermutation`` of the shared ``ring.OMEGA_POWERS``, or
None for a circuit that is none; ``verify.check_implements`` runs it on
the columns it chooses and decides its verdicts on the exponents.
``equivalent`` decides U = V for two circuits of any shape as V^-1 U = I:
the bits first, then one circuit, U's gates followed by V's inverse's,
whose every column s must collapse to (s, 0), up to the first that does
not, one batch of ring columns at a time.

A request for more than 2^WIDTH_LIMIT columns is an ``InputError``,
raised before any column runs; a column that does not collapse where
one must is a ``NotAPhasePermutation``, a failed verification.

Columns run in batches of BATCH_COLUMNS. A batch is one sparse state:
column n's indices carry n in the bits from the circuit width up, which
no op reads or writes, so each op runs once over the whole batch. The
batches run in order in the calling process. A call of one batch runs
the plain list and builds no memo; in a call of more, every batch from
the first shares one memoised list, whose memos live as long as the
call. Once they hold more than MEMO_STATES local states after a batch,
the columns share too little: the memos go, and the rest run the plain
list. So the memos never hold more than MEMO_STATES local states
plus one per class visit of one batch, each at most 2^FUSE_QUBITS terms
in and out.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .circuit import KINDS, Circuit, Gate, InputError, basis_bit, expand
from .ring import OMEGA_POWERS, omega_exponent

WIDTH_LIMIT = 16
# Columns run together as one tagged sparse state (see run_column_ring).
BATCH_COLUMNS = 64
# Most qubits one fused run may touch: a pp op's table has 2^4 rows, and
# an hp op's class holds at most 2^4 terms.
FUSE_QUBITS = 4
# Most local states the memos of one call keep past a batch (see
# _ring_columns); of the tofn constructions up to n = 11, tofn(11, "dirty")
# needs the most, 5082 over its 32768 columns.
MEMO_STATES = 1 << 14


class NotAPhasePermutation(Exception):
    """A column that does not collapse to one basis state and a phase: a
    verification failure, not an input error."""


# -- gate compilation -----------------------------------------------------
#
# Gates become small tuples interpreted by a tight loop:
#   ("cp", ctl_mask, ctl_value, flip_mask, w_exponent)  every gate but h
#   ("h", bit_mask)
#   ("pp", qubit_mask, table)                           fused cp run
#   ("hp", qubit_mask, run, memo)                       fused run with h
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
# by. In the memoised list it folds a run with h ops into one "hp" op:
# ``run`` is the run's own plain fused list, and ``memo`` maps each local
# state the op has met to the run's output on it (see _hp_step).

def _control_masks(width: int, g: Gate) -> tuple[int, int]:
    mask = value = 0
    for q in g.controls:
        b = basis_bit(width, q)
        mask |= b
        if q not in g.neg:
            value |= b
    return mask, value


def compile_gate(g: Gate, width: int) -> tuple:
    """The ops of one gate: one op, two for y, five for ry; a marker's are
    those of the gates it expands to."""
    if g.is_marker:
        return tuple(op for gg in expand(g) for op in compile_gate(gg, width))
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


def fuse_ops(ops, memoised: bool = False):
    """The ring kernel's op list with each maximal run of ops touching at
    most FUSE_QUBITS qubits folded into one op; a run ends where one more
    op would pass the cap, and a run of one op stays that op. A run of cp
    ops becomes one pp op, which changes no support.

    Without ``memoised``, an h op ends every run. With it, h ops join the
    runs (a mask-0 cp op joins any), and a run holding one becomes an hp
    op: the run's own plain fused list and an empty memo, which lives as
    long as the returned list (see ``_hp_step``). A column through either
    list returns what it returns through ``ops``, max_support included."""
    groups = []  # [touched mask, ops] per run; mask None for an unfused h
    for op in ops:
        touched = op[1] | op[3] if op[0] == "cp" else op[1] if memoised else None
        last = groups[-1][0] if groups else None
        if touched is not None and last is not None and (last | touched).bit_count() <= FUSE_QUBITS:
            groups[-1][0] |= touched
            groups[-1][1].append(op)
        else:
            groups.append([touched, [op]])
    return tuple(_fused(mask, run) for mask, run in groups)


def _fused(mask, run):
    """One run of ``fuse_ops`` as one op."""
    if len(run) == 1:
        return run[0]
    if any(op[0] == "h" for op in run):
        return ("hp", mask, fuse_ops(run), {})
    return ("pp", mask, _run_table(run, mask))


def _submasks(mask: int):
    """Every index whose set bits lie in ``mask``, in ascending order."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def _run_table(run, mask):
    """{local input bits: (local output bits, w exponent mod 8)} of a run
    of cp ops, from each of the 2^m basis states on its m qubits."""
    table = {}
    for start in _submasks(mask):
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
    doubles every column's support; after any other, and after any h op
    that follows an hp op, the supports are recounted, so each column's
    max_support is its own. An hp op gives each column's largest support
    after any of its h ops (see ``_hp_step``)."""
    digit = _hadamards(ops) + 2   # L: bits per coefficient
    modulus = (1 << 4 * digit) + 1  # N = B^4 + 1
    top = modulus >> 1              # the largest balanced residue
    amps = {n << width | s: 1 for n, s in enumerate(starts)}
    columns = len(amps)
    support = [1] * columns  # each column's support; None after an hp op
    peak = list(support)     # each column's max_support so far
    for op in ops:
        code = op[0]
        if code == "pp":
            amps = _pp_step(amps, op, digit, modulus, top)
        elif code == "hp":
            amps, peaks = _hp_step(amps, op, columns, width, digit, modulus, top)
            peak = list(map(max, peak, peaks))
            support = None
        elif code == "h":
            amps, paired = _h_step(amps, op[1])
            if paired or support is None:
                support = [0] * columns
                for i in amps:
                    support[i >> width] += 1
            else:
                # no term met another: every column's support doubled
                support = [n << 1 for n in support]
            peak = list(map(max, peak, support))
        else:
            amps = _cp_step(amps, op, digit, modulus, top)
    # E + offset has every balanced digit raised by B/2 into [0, B): read
    # the four digits with no borrow, then lower each again
    lift = 1 << digit - 1
    offset = sum(lift << j * digit for j in range(4))
    low_digit = (1 << digit) - 1
    out = [{} for _ in peak]
    low = (1 << width) - 1
    for i, a in amps.items():
        u = a + offset
        out[i >> width][i & low] = (
            (u & low_digit) - lift, (u >> digit & low_digit) - lift,
            (u >> 2 * digit & low_digit) - lift, (u >> 3 * digit) - lift)
    return [(c, digit - 2, p) for c, p in zip(out, peak)]


def _hadamards(ops) -> int:
    """The number of h ops in an op list, those inside hp ops included."""
    return sum(_hadamards(op[2]) if op[0] == "hp" else op[0] == "h" for op in ops)


def _pp_step(amps, op, digit, modulus, top):
    """The sparse state after one pp op."""
    _, mask, table = op
    keep = ~mask
    new = {}
    for i, a in amps.items():
        o, e = table[i & mask]
        if e:
            a = (a << e * digit) % modulus
            if a > top:
                a -= modulus
        new[i & keep | o] = a
    return new


def _cp_step(amps, op, digit, modulus, top):
    """The sparse state after one cp op."""
    _, cm, cv, flip, e = op
    s = e * digit
    new = {}
    for i, a in amps.items():
        if (i & cm) == cv:
            i ^= flip
            if s:
                a = (a << s) % modulus
                if a > top:
                    a -= modulus
        new[i] = a
    return new


def _h_step(amps, tb):
    """The sparse state after one h op on bit ``tb``, and whether any term
    met its partner."""
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
    return new, paired


# A class's support after each h op of an hp op, one field per h op, so
# that adding two packed values adds the supports field by field: no
# support, bounded by the terms of a state, reaches 2^32.
_SUPPORT_BITS = 32
_SUPPORT_FIELD = (1 << _SUPPORT_BITS) - 1


def _hp_step(amps, op, columns, width, digit, modulus, top):
    """The sparse state after one hp op, and each of the ``columns``'
    largest support after any of its h ops.

    The op's run reads and writes only its mask bits, so it runs on each
    class of indices equal outside the mask alone, and what it makes of a
    class depends only on the class's local state: the (mask bits,
    amplitude) of its terms in the order they arrive. Packed amplitudes
    are canonical, so a local state met again, in the same order, is the
    same state: the memo maps each local state met to the run's output
    terms, its supports and their peak, and a state met again costs one
    lookup. A column met by one class takes that class's peak; the
    supports of a column met by more, after each h op, are the sums of
    its classes', so its peak is the largest summed field. Either way
    max_support stays exact."""
    _, mask, run, memo = op
    keep = ~mask
    classes = {}  # class -> its local state, flat (mask bits, amplitude) pairs
    get = classes.get
    for i, a in amps.items():
        c = i & keep
        t = get(c)
        classes[c] = (i & mask, a) if t is None else t + (i & mask, a)
    new = {}
    peaks = [0] * columns   # the peak of a column's one class; 0 once a second meets it
    packed = [0] * columns  # the packed supports of a column's classes, summed
    for c, key in classes.items():
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _local_run(run, key, digit, modulus, top)
        items, supports, most = hit
        for o, a in items:
            new[c | o] = a
        n = c >> width
        peaks[n] = 0 if packed[n] else most
        packed[n] += supports
    for n, most in enumerate(peaks):
        if not most:
            p = packed[n]
            most = p & _SUPPORT_FIELD
            for f in range(_SUPPORT_BITS, p.bit_length(), _SUPPORT_BITS):
                if p >> f & _SUPPORT_FIELD > most:
                    most = p >> f & _SUPPORT_FIELD
            peaks[n] = most
    return new, peaks


def _local_run(run, terms, digit, modulus, top):
    """(output (mask bits, amplitude) pairs, packed supports, largest
    support) of an hp op's ``run`` on one class's local state, its flat
    ``terms``."""
    state = dict(zip(terms[::2], terms[1::2]))
    supports = shift = most = 0
    for op in run:
        code = op[0]
        if code == "h":
            state = _h_step(state, op[1])[0]
            supports |= len(state) << shift
            shift += _SUPPORT_BITS
            most = max(most, len(state))
        elif code == "pp":
            state = _pp_step(state, op, digit, modulus, top)
        else:
            state = _cp_step(state, op, digit, modulus, top)
    return tuple(state.items()), supports, most


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

@dataclass(frozen=True)
class PhasePermutation:
    """Permutation with a unit-magnitude phase per column.

    ``perm[s]`` is the output basis state for input ``s`` and ``phases[s]``
    its amplitude, so column s of the matrix is phases[s] * e_{perm[s]}.
    Row-indexed phases (the diagonal of the canonic TOF-then-D form) are
    ``row_phases``. With ``half`` set, each phase carries one more
    e^(i pi/8). Two are equal, and hash equal, when their width, perm,
    phases and half are; max_support, a cost of the run, takes no part.
    """

    width: int
    perm: tuple[int, ...]
    phases: tuple
    half: bool = False
    max_support: int = field(default=1, compare=False)

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


def _width_guard(columns: int) -> None:
    if columns > WIDTH_LIMIT:
        raise InputError(
            f"width limit exceeded: 2^{columns} columns to simulate, limit 2^{WIDTH_LIMIT}")


def _ring_columns(circuit: Circuit, starts):
    """(amplitudes, k, max_support) of the ring column of each basis state
    in ``starts`` (a sequence), in order: the fused ops run on one batch of
    BATCH_COLUMNS at a time, each when it is reached. A call of one batch
    runs the plain fused list; in a call of more, the batches share one
    memoised list from the first, whose memos end with this call, until
    they hold more than MEMO_STATES states."""
    width = circuit.width
    ops = compile_circuit(circuit)
    memoised = len(starts) > BATCH_COLUMNS
    fused = fuse_ops(ops, memoised)
    for n in range(0, len(starts), BATCH_COLUMNS):
        if memoised and sum(len(op[3]) for op in fused if op[0] == "hp") > MEMO_STATES:
            memoised, fused = False, fuse_ops(ops)  # the columns share too little: drop the memos
        yield from run_column_ring(fused, starts[n:n + BATCH_COLUMNS], width)


def _collapsed(circuit: Circuit, starts):
    """The (output, j) of each column of ``starts``, its phase w^j, in
    order, and the largest max_support among them. A column that does not
    collapse to one basis state with a unit-magnitude phase raises
    NotAPhasePermutation naming it; no batch runs past its own."""
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
    perm, exponents = zip(*entries)
    phases = tuple(OMEGA_POWERS[j] for j in exponents)
    return PhasePermutation(width, perm, phases, _half(circuit), max_support)


def equivalent(a: Circuit, b: Circuit) -> bool:
    """Whether two circuits have the same unitary U = V, exactly, decided
    as V^-1 U = I. False for different widths or ``_half`` bits; else the
    ring columns of ``a`` then ``b.inverse()`` run, one batch at a time,
    up to the first column s that does not collapse to (s, 0)."""
    if a.width != b.width or _half(a) != _half(b):
        return False
    _width_guard(a.width)
    starts = range(1 << a.width)
    composite = Circuit(a.width, a.gates + b.inverse().gates)
    return all(_collapse(amps, k) == (s, 0)
               for s, (amps, k, _) in zip(starts, _ring_columns(composite, starts)))


def _collapse(amps, k):
    """(output index, j) of a ring column holding the one amplitude w^j,
    else None."""
    if len(amps) != 1:
        return None
    (i, c), = amps.items()
    j = omega_exponent(c, k)
    return None if j is None else (i, j)
