"""Workload definitions: seeded input generators, op schedules and the
known answer of every op.

An op is one ``rphase.cli.main(argv)`` call. Its known answer never comes
from the program under test:

* the paper's constructions, and catalog blocks verified at their stated
  class, exit 0; synth, count and table report the paper's closed forms;
* a mutant (one dropped ``t``/``tdg`` line, or one ``cx`` with its qubits
  swapped) exits 1. Each mutant is kept only once this module's own float
  simulator has found an input column on which it differs from the target
  Toffoli, so the expected verdict rests on a witness, not on the verifier;
* the R_Y variant with a negative control (``rtof3-ry``) and the phased
  CNOT (``margolus-t``) exit 1 under a positive-control layout;
* ``rewrite --rules cancel`` of ``ladder_tofn(n)`` leaves T = 12k-20 for
  k = n-1 controls, and a rewritten tof chain keeps the T/CNOT counts the
  generator put into its input before rewriting and never raises them.

Input files are generated once per run, before timing; the program only
reads the files. The same seed always gives the same files.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from itertools import combinations

WORKLOADS = ("certify-wide", "certify-small", "rewrite", "synth")


@dataclass
class Op:
    """One CLI call and the answer it must give."""

    label: str                 # groups ops in reports, e.g. "verify-mutant"
    argv: list[str]
    expect_rc: int
    work: int                  # columns (certify) or gates (rewrite, synth)
    check: object = None       # optional fn(op, stdout) -> error string or None
    counts: dict = field(default_factory=dict)  # filled by the check


def judge(op: Op, rc: int, out: str) -> str | None:
    """None when the op gave its known answer, else why it did not."""
    if rc != op.expect_rc:
        return f"{op.label}: exit {rc}, expected {op.expect_rc}"
    if op.check is not None:
        return op.check(op, out)
    return None


# -- QASM text helpers (independent of rphase) ------------------------------

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
_STMT = re.compile(r"^(\w+)\s+q\[(\d+)\](?:\s*,\s*q\[(\d+)\])?(?:\s*,\s*q\[(\d+)\])?;$")


def qasm_roles(text: str) -> list[str]:
    """Qubit roles of a file: the rphase roles directive, else all primary."""
    width = int(re.search(r"qreg q\[(\d+)\];", text).group(1))
    for line in text.splitlines():
        if line.startswith("// rphase:") and '"roles"' in line:
            return json.loads(line[len("// rphase:"):])["roles"]
    return ["primary"] * width


def qasm_gates(text: str) -> list[tuple]:
    """(name, qubit, ...) for each plain gate statement."""
    out = []
    for line in text.splitlines():
        m = _STMT.match(line.strip())
        if m and m.group(1) != "qreg":
            out.append((m.group(1),) + tuple(int(g) for g in m.groups()[1:] if g is not None))
    return out


def certified_columns(text: str) -> int:
    """Basis columns a verify of this file simulates: 2^(width - clean)."""
    roles = qasm_roles(text)
    return 1 << (len(roles) - roles.count("clean_ancilla"))


# -- independent simulators --------------------------------------------------

_W = cmath.exp(1j * math.pi / 4)
_PHASE = {"t": 1, "tdg": -1, "s": 2, "sdg": -2, "z": 4}


def float_column(gates, width: int, start: int) -> dict[int, complex]:
    """Sparse float simulation of one basis column (qubit 0 is the MSB)."""
    bit = lambda q: 1 << (width - 1 - q)
    amps = {start: 1.0 + 0j}
    r = 1 / math.sqrt(2)
    for g in gates:
        name, qs = g[0], g[1:]
        if name == "h":
            b = bit(qs[0])
            new = {}
            for i, a in amps.items():
                new[i & ~b] = new.get(i & ~b, 0) + a * r
                new[i | b] = new.get(i | b, 0) + (-a if i & b else a) * r
            amps = {i: a for i, a in new.items() if abs(a) > 1e-12}
        elif name in _PHASE:
            b = bit(qs[0])
            w = _W ** _PHASE[name]
            amps = {i: a * w if i & b else a for i, a in amps.items()}
        elif name in ("x", "cx", "ccx"):
            cm = sum(bit(q) for q in qs[:-1])
            b = bit(qs[-1])
            amps = {(i ^ b if i & cm == cm else i): a for i, a in amps.items()}
        elif name == "cz":
            cm = bit(qs[0]) | bit(qs[1])
            amps = {i: -a if i & cm == cm else a for i, a in amps.items()}
        else:
            raise ValueError(f"float_column: unsupported gate {name}")
    return amps


def tof_image(s: int, width: int, controls, target) -> int:
    cm = sum(1 << (width - 1 - q) for q in controls)
    return s ^ (1 << (width - 1 - target)) if s & cm == cm else s


def phase_permutation(gates, width: int) -> tuple[list[int], list[int]]:
    """(perm, omega exponents mod 8) of a circuit of x/cx/ccx/cz and
    diagonal phase gates, evaluated classically per basis state."""
    bit = lambda q: 1 << (width - 1 - q)
    perm, phase = [], []
    for s in range(1 << width):
        e = 0
        for g in gates:
            name, qs = g[0], g[1:]
            if name in _PHASE:
                if s & bit(qs[0]):
                    e += _PHASE[name]
            elif name == "cz":
                if s & bit(qs[0]) and s & bit(qs[1]):
                    e += 4
            else:
                cm = sum(bit(q) for q in qs[:-1])
                if s & cm == cm:
                    s ^= bit(qs[-1])
        perm.append(s)
        phase.append(e % 8)
    return perm, phase


# -- generators ----------------------------------------------------------------

def pick_mutant(text: str, rng: random.Random, tries: int = 64) -> str:
    """A one-line mutant of a Toffoli construction.

    Drops one ``t``/``tdg`` line or swaps the qubits of one ``cx``. A
    candidate is kept only when a witness column shows it no longer
    implements the Toffoli on the primaries (controls first, target last)
    with every clean ancilla at |0>; otherwise another is drawn.
    """
    lines = text.splitlines()
    roles = qasm_roles(text)
    width = len(roles)
    primaries = [q for q, r in enumerate(roles) if r == "primary"]
    controls, target = primaries[:-1], primaries[-1]
    clean_mask = sum(1 << (width - 1 - q) for q, r in enumerate(roles) if r == "clean_ancilla")
    columns = [s for s in range(1 << width) if not s & clean_mask]
    candidates = [i for i, ln in enumerate(lines)
                  if ln.startswith(("t q[", "tdg q[", "cx q["))]
    for _ in range(tries):
        i = rng.choice(candidates)
        g = qasm_gates(lines[i])[0]
        if g[0] == "cx":
            mutated = lines[:i] + [f"cx q[{g[2]}],q[{g[1]}];"] + lines[i + 1:]
        else:
            mutated = lines[:i] + lines[i + 1:]
        gates = qasm_gates("\n".join(mutated))
        for s in rng.sample(columns, min(16, len(columns))):
            amps = float_column(gates, width, s)
            want = tof_image(s, width, controls, target)
            if abs(amps.get(want, 0) - 1) > 1e-6:
                return "\n".join(mutated) + "\n"
    raise RuntimeError("no detectable mutant found")


def tof_chain(rng: random.Random, primaries: int, ancillae: int, blocks: int) -> str:
    """Interleaved compute / payload / uncompute chain of exact tofs into
    clean ancillae, as QASM.

    Each block computes ``ccx c1,c2,a`` into a free ancilla, runs a payload
    just before it uncomputes with the identical ``ccx``, and other blocks
    open and close in between. Half the payloads read the ancilla
    (``cx a,p``), the shape of a prop1 match; the other half put a ``t`` on
    one control, the shape of a prop2 match. Open blocks never share a
    control and payloads write only qubits no open block controls, so every
    pair stays a prop1 or prop2 match, and no tof appears outside its own
    pair, so each rewrite pass sees only the open pairs. Needs
    ``primaries >= 2 * ancillae + 1`` and fewer blocks than distinct tofs;
    the gate count is ``3 * blocks``.
    """
    width = primaries + ancillae
    kinds = ["prop1", "prop2"] * (blocks // 2) + ["prop1"] * (blocks % 2)
    rng.shuffle(kinds)
    free = list(range(primaries, width))
    open_blocks: list[tuple] = []
    busy: set[int] = set()  # controls of the open blocks
    used: set[tuple] = set()  # no tof repeats outside its own pair
    body: list[str] = []
    while kinds or open_blocks:
        idle = [q for q in range(primaries) if q not in busy]
        a = rng.choice(free) if kinds and free and len(idle) >= 3 else None
        fresh = [p for p in combinations(idle, 2) if p + (a,) not in used] if a is not None else []
        if fresh and (not open_blocks or rng.random() < 0.5):
            free.remove(a)
            c1, c2 = rng.choice(fresh)
            used.add((c1, c2, a))
            busy |= {c1, c2}
            body.append(f"ccx q[{c1}],q[{c2}],q[{a}];")
            open_blocks.append((kinds.pop(), c1, c2, a))
            continue
        kind, c1, c2, a = open_blocks.pop(rng.randrange(len(open_blocks)))
        if kind == "prop1":
            body.append(f"cx q[{a}],q[{rng.choice(idle)}];")
        else:
            body.append(f"t q[{rng.choice((c1, c2))}];")
        body.append(f"ccx q[{c1}],q[{c2}],q[{a}];")
        busy -= {c1, c2}
        free.append(a)
    roles = ["primary"] * primaries + ["clean_ancilla"] * ancillae
    return (HEADER + f"qreg q[{width}];\n"
            + "// rphase: " + json.dumps({"roles": roles}) + "\n"
            + "\n".join(body) + "\n")


def chain_counts(text: str) -> dict:
    """T and CNOT counts of a chain by the paper's 7-T / 6-CNOT Toffoli."""
    gates = qasm_gates(text)
    ccx = sum(g[0] == "ccx" for g in gates)
    return {"t": 7 * ccx + sum(g[0] in ("t", "tdg") for g in gates),
            "cnot": 6 * ccx + sum(g[0] == "cx" for g in gates),
            "gates": len(gates)}


# -- closed forms from the paper -------------------------------------------------

def tof_counts(n: int, ancilla: str) -> tuple[int, int, int]:
    if ancilla == "clean":
        return (8 * n - 17, 6 * n - 12, 4 * n - 10)
    if n == 4:
        return (16, 14, 6)
    return (8 * n - 16, 8 * n - 20, 4 * n - 10)


def ladder_counts(n: int) -> tuple[int, int, int]:
    """4(n-4)+2 rtof3l blocks (4 T, 3 CNOT, 2 H) and two srts3 (4, 4, 1)."""
    rtl = 4 * (n - 4) + 2
    return (4 * rtl + 8, 3 * rtl + 8, 2 * rtl + 2)


def cnu_counts(n: int) -> tuple[int, int, int]:
    """2n-2 rtof3l blocks and one CNOT."""
    return (4 * (2 * n - 2), 3 * (2 * n - 2) + 1, 2 * (2 * n - 2))


def _report_check(expected: tuple[int, int, int]):
    def check(op: Op, out: str) -> str | None:
        r = json.loads(out.strip().splitlines()[-1])
        got = (r["t"], r["cnot"], r["h"])
        if got != expected:
            return f"{op.label} {op.argv[1:]}: T/CNOT/H {got}, expected {expected}"
        return None
    return check


def _table_check(n_list):
    def check(op: Op, out: str) -> str | None:
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        want = {(f"TOF{n}", a): tof_counts(n, a) for n in n_list for a in ("clean", "dirty")}
        got = {(r[0], r[1]): tuple(int(v) for v in r[2:5]) for r in rows}
        if got != want:
            bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            return f"table: rows {bad[:3]} differ from the closed forms"
        return None
    return check


def _rewrite_check(before: dict, t_after: int | None = None):
    def check(op: Op, out: str) -> str | None:
        r = json.loads(out.strip().splitlines()[-1])
        b, a = r["before"], r["after"]
        op.counts = {"t_out": a["t"], "cnot_out": a["cnot"]}
        if (b["t"], b["cnot"]) != (before["t"], before["cnot"]):
            return f"{op.label}: input counted {b['t']}/{b['cnot']}, generated {before}"
        if a["t"] > b["t"] or a["cnot"] > b["cnot"]:
            return f"{op.label}: rewrite raised T/CNOT {b} -> {a}"
        if t_after is not None and a["t"] != t_after:
            return f"{op.label}: T {a['t']} after cancel, expected {t_after}"
        return None
    return check


# -- schedules -----------------------------------------------------------------

class Workload:
    """Generated inputs of one workload and the ops of one pass over them.

    ``run(argv)`` is the in-process CLI call; it makes the seeded inputs
    that only the program can produce (the paper's constructions via
    ``synth``), before any timing.
    """

    def __init__(self, name: str, seed: int, work_dir: str, run):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.dir = work_dir
        self.run = run
        self.ops: list[Op] = []
        self.chain_check: tuple[str, str] | None = None
        getattr(self, "_wl_" + name.replace("-", "_"))()

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _make_input(self, argv: list[str], path: str) -> str:
        rc, out, err = self.run(argv + ["--out", path])
        if rc != 0:
            raise RuntimeError(f"input generation failed: {argv}: {err.strip()}")
        with open(path) as fh:
            return fh.read()

    def _write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def _tof_verify_ops(self, cases, mutated) -> None:
        """A good verify op per (n, ancilla) case, and a mutant one for
        each case in ``mutated``."""
        for n, anc in cases:
            good = self.path(f"tof{n}_{anc}.qasm")
            text = self._make_input(["synth", "--gate", "tof", "--n", str(n), "--ancilla", anc], good)
            cols = certified_columns(text)
            argv = ["verify", "--target", "tof", "--n", str(n)]
            self.ops.append(Op(f"verify-tof{n}-{anc}", argv[:1] + [good] + argv[1:], 0, cols))
            if (n, anc) in mutated:
                bad = self._write(f"tof{n}_{anc}_mutant.qasm", pick_mutant(text, self.rng))
                self.ops.append(Op(f"verify-tof{n}-{anc}-mutant", argv[:1] + [bad] + argv[1:], 1, cols))

    def _wl_certify_wide(self) -> None:
        # TOF8 dirty (11 qubits) and TOF11 clean (15 qubits) both certify
        # 2048 columns, so good and mutant ops cost about the same and the
        # median op sits inside one cluster of samples rather than on the
        # gap between two sizes. TOF9-TOF11 dirty (4096 to 32768 columns)
        # would each take most of a 20 s run.
        cases = [(8, "dirty"), (11, "clean")]
        self._tof_verify_ops(cases, cases)

    def _wl_certify_small(self) -> None:
        # Catalog blocks at the class the paper states (--xprime for special
        # forms). The truncated blocks rts3, srts3 and rt4s carry junk and
        # hold their claim only inside a conjugation, so they are left out.
        blocks = [
            ("toffoli3", "exact", []), ("srtof3_ccix", "special_form", ["2"]),
            ("rtof3_long", "relative_phase", []), ("rtof4_long", "relative_phase", []),
            ("margolus-ry", "relative_phase", []),
            # negative control on b / a phased CNOT: not a positive TOF
            ("rtof3-ry", "relative_phase", None), ("margolus-t", "relative_phase", None),
        ]
        for gate, cls, xprime in blocks:
            path = self.path(f"{gate}.qasm")
            text = self._make_input(["synth", "--gate", gate], path)
            width = len(qasm_roles(text))
            layout = ",".join(["ctrl"] * (width - 1) + ["target"])
            argv = ["verify", path, "--layout", layout, "--class", cls]
            if xprime:
                argv += ["--xprime"] + xprime
            self.ops.append(Op(f"verify-{gate}", argv, 1 if xprime is None else 0, 1 << width))
        cases = [(n, "clean") for n in range(4, 9)] + [(n, "dirty") for n in range(4, 8)]
        self._tof_verify_ops(cases, cases)

    def _wl_rewrite(self) -> None:
        for i in range(4):
            text = tof_chain(self.rng, primaries=13, ancillae=6, blocks=120)
            path = self._write(f"chain{i}.qasm", text)
            counts = chain_counts(text)
            self.ops.append(Op("rewrite-chain",
                               ["rewrite", path, "--rules", "prop1,prop2,cancel",
                                "--out", self.path(f"chain{i}_out.qasm")],
                               0, counts["gates"], _rewrite_check(counts)))
        for i in range(2):  # ladders about as costly as a chain keep op times unimodal
            n = self.rng.randint(88, 96)
            path = self.path(f"ladder{i}.qasm")
            text = self._make_input(["synth", "--gate", "ladder", "--n", str(n)], path)
            t, cnot, _ = ladder_counts(n)
            self.ops.append(Op("rewrite-ladder",
                               ["rewrite", path, "--rules", "cancel",
                                "--out", self.path(f"ladder{i}_out.qasm")],
                               0, len(qasm_gates(text)),
                               _rewrite_check({"t": t, "cnot": cnot}, 12 * (n - 1) - 20)))
        # reduced instance (width 10) for the once-per-run equivalence check
        small = tof_chain(self.rng, primaries=7, ancillae=3, blocks=10)
        self.chain_check = (self._write("chain_small.qasm", small), self.path("chain_small_out.qasm"))

    def _wl_synth(self) -> None:
        for base in (120, 180, 240, 300):
            n = base + self.rng.randint(-10, 10)
            for anc in ("clean", "dirty"):
                self._synth_and_count(f"tof{n}_{anc}", ["--gate", "tof", "--n", str(n),
                                                        "--ancilla", anc], tof_counts(n, anc))
        n = 90 + self.rng.randint(-10, 10)
        self._synth_and_count(f"ladder{n}", ["--gate", "ladder", "--n", str(n)], ladder_counts(n))
        n = 120 + self.rng.randint(-10, 10)
        self._synth_and_count(f"cnu{n}", ["--gate", "cnu-parallel", "--n", str(n)], cnu_counts(n))
        last = 40 + self.rng.randint(-3, 3)
        n_list = list(range(4, last + 1))
        gates = sum(sum(tof_counts(n, a)) for n in n_list for a in ("clean", "dirty"))
        self.ops.append(Op("table", ["table", "--csv", "--n-list", ",".join(map(str, n_list))],
                           0, gates, _table_check(n_list)))

    def _synth_and_count(self, stem: str, args: list[str], expected: tuple) -> None:
        path = self.path(stem + ".qasm")
        check = _report_check(expected)
        self.ops.append(Op("synth", ["synth"] + args + ["--out", path], 0, sum(expected), check))
        self.ops.append(Op("count", ["count", path], 0, sum(expected), check))
