"""OpenQASM 2.0 interchange for the supported subset.

Emitted programs use one ``qreg`` and the gates
``x, y, z, s, sdg, t, tdg, h, ry(theta), cx, cz, ccx`` with theta an
integer multiple of pi/4: the statement names of ``circuit.KINDS``, plus
``ccx`` for a tof of two controls. Parse/emit round-trips lowered
circuits exactly.

Constructs QASM has no word for ride along in structured comments::

    // rphase: {"roles": [...]}                      ancilla roles
    // rphase: {"marker": ..., "gates": N}           marker + N-gate expansion
    // rphase: {"gate": "tof"|..., "neg": [...], "gates": N}
                                                     negative controls / wide tof

A directive is a JSON object that names each key once and no key beyond
those above, and a gate directive's keys build one ``Gate``, which
refuses ``"neg"`` on a marker and ``"dagger"`` on any other gate;
``"marker"`` must name a marker kind and ``"gate"`` any other kind.
A file holds at most one roles directive: a list under its one key, never
inside an expansion. A directive with ``"gates": N`` is followed by its
N-statement expansion, ``circuit.expand`` of its gate; the parser checks
that the N statements are exactly that expansion, swallows them and
restores the high-level gate, so other QASM consumers still see a
runnable program of the same unitary. A tof with three or more controls
cannot be expanded without ancillae and is emitted with an empty
expansion (``"gates": 0``); any other directive with ``"gates": 0`` is an
error.

``parse_qasm`` parses, validates and register-checks each distinct
statement text once, on its first line, and reuses that gate for later
copies; it builds each directive gate's expansion once, and compares it
with every copy. These memos are local to the call, so a bad statement
is reported at its first line and nothing carries over to the next file.
"""

from __future__ import annotations

import json
import re
from math import gcd

from .circuit import KINDS, Circuit, Gate, ROLE_PRIMARY, ROLES, expand

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
# Widest qreg the parser accepts, far above the widest circuit synth
# writes (TOF310, 464 qubits), so that a huge declared width is an input
# error rather than a circuit the process cannot hold.
QREG_LIMIT = 1 << 16

# Statement names by gate kind, and kinds by statement name: the KINDS
# names, plus ccx for a tof of two controls.
_NAME = {kind: row.qasm for kind, row in KINDS.items()} | {"tof": "ccx"}
_KIND = {name: kind for kind, name in _NAME.items()}
_QUBIT_WORDS = {2: "two", 3: "three"}


class QasmError(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"line {line}, col {col or 1}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class UnsupportedGate(QasmError):
    pass


def _theta_str(units: int) -> str:
    """Integer multiple of pi/4 as a QASM expression."""
    if units == 0:
        return "0"
    sign = "-" if units < 0 else ""
    num, den = abs(units), 4
    g = gcd(num, den)
    num, den = num // g, den // g
    s = "pi" if num == 1 else f"{num}*pi"
    if den > 1:
        s += f"/{den}"
    return sign + s


_THETA_RE = re.compile(r"^(-?)(?:(\d+)\*)?pi(?:/(\d+))?$")


def _parse_theta(text: str, line: int, col: int) -> int:
    text = text.replace(" ", "")
    if text == "0":
        return 0
    m = _THETA_RE.match(text)
    if not m:
        raise QasmError(f"unsupported angle {text!r} (multiples of pi/4 only)", line, col)
    sign = -1 if m.group(1) else 1
    num = int(m.group(2) or 1)
    den = int(m.group(3) or 1)
    if den not in (1, 2, 4):
        raise QasmError(f"unsupported angle {text!r} (multiples of pi/4 only)", line, col)
    return sign * num * (4 // den)


def _basic_stmt(g: Gate, reg: str) -> str:
    """One QASM statement for a ``KINDS`` gate without negative controls or
    a tof of two positive controls."""
    name = _NAME[g.kind]
    c = g.controls
    if not c:
        if g.kind == "ry":
            name = f"ry({_theta_str(g.param)})"
        return f"{name} {reg}[{g.target}];"
    if len(c) == 1:
        return f"{name} {reg}[{c[0]}],{reg}[{g.target}];"
    return f"{name} {reg}[{c[0]}],{reg}[{c[1]}],{reg}[{g.target}];"


def _wide(g: Gate) -> bool:
    """A tof of three or more controls: it expands only with ancillae, so
    its directive carries no statements."""
    return g.kind == "tof" and len(g.controls) > 2


def emit_qasm(circuit: Circuit) -> str:
    """Serialize; markers and negative controls become rphase directives."""
    reg = "q"
    lines = [HEADER.rstrip("\n"), f"qreg {reg}[{circuit.width}];"]
    if any(r != ROLE_PRIMARY for r in circuit.roles):
        lines.append("// rphase: " + json.dumps({"roles": list(circuit.roles)}))
    for g in circuit.gates:
        if g.neg or (g.kind not in KINDS and not (g.kind == "tof" and len(g.controls) == 2)):
            body = [] if _wide(g) else expand(g)
            info: dict = {"controls": list(g.controls), "target": g.target,
                          "gates": len(body)}
            if g.is_marker:
                info = {"marker": g.kind, **info, "dagger": g.dagger}
            else:
                info = {"gate": g.kind, **info, "neg": sorted(g.neg)}
            lines.append("// rphase: " + json.dumps(info))
            for gg in body:
                lines.append(_basic_stmt(gg, reg))
        else:
            lines.append(_basic_stmt(g, reg))
    return "\n".join(lines) + "\n"


_STMT_RE = re.compile(r"^(\w+)\s*(\(([^)]*)\))?\s*(.*)$")
_ARG_RE = re.compile(r"^(\w+)\[(\d+)\]$")


def _parse_args(text: str, reg: str, line: int) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        m = _ARG_RE.match(piece)
        if not m:
            raise QasmError(f"cannot parse qubit argument {piece!r}", line, 1)
        if m.group(1) != reg:
            raise QasmError(f"unknown register {m.group(1)!r}", line, 1)
        out.append(int(m.group(2)))
    return out


def parse_qasm(text: str) -> Circuit:
    """Parse the supported subset back into a circuit."""
    reg = None
    width = 0
    roles = roles_at = None  # the roles directive and its line
    gates: list[Gate] = []
    pending = None  # (high-level Gate, directive line, statement count, statements so far)
    stmts: dict[str, Gate] = {}
    expansions: dict[Gate, list[Gate]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("//"):
            payload = line[2:].strip()
            if not payload.startswith("rphase:"):
                continue
            try:
                info = json.loads(payload[len("rphase:"):].strip(),
                                  object_pairs_hook=_unique_keys)
                if isinstance(info, dict) and "roles" in info:
                    if pending is not None:
                        raise _nested(pending, lineno)
                    if roles is not None:
                        raise QasmError(f"second roles directive; the first is on line {roles_at}",
                                        lineno, 1)
                    roles, roles_at = info.pop("roles"), lineno
                    if info:
                        raise QasmError("bad rphase directive: a roles directive takes no other "
                                        f"key, got {json.dumps(sorted(info))}", lineno, 1)
                    if not isinstance(roles, list):
                        raise QasmError('bad rphase directive: "roles" must be a list, got '
                                        f"{json.dumps(roles)}", lineno, 1)
                    for r in roles:
                        if r not in ROLES:
                            raise QasmError(f"unknown ancilla role {r!r}", lineno, 1)
                    roles = tuple(roles)
                    continue
                count = info["gates"]
                kind_key = "marker" if "marker" in info else "gate"
                extra = info.keys() - {kind_key, "controls", "target", "gates", "neg", "dagger"}
                if extra:
                    raise QasmError(f"bad rphase directive: a {kind_key} directive takes no "
                                    f"key {json.dumps(sorted(extra))}", lineno, 1)
                for v in (count, info["target"], *info["controls"], *info.get("neg", ())):
                    if not _is_index(v):
                        raise QasmError("bad rphase directive: qubits and \"gates\" must be "
                                        f"integers, got {json.dumps(v)}", lineno, 1)
                if count < 0:
                    raise QasmError(f'bad rphase directive: "gates" is {count}', lineno, 1)
                dagger = info.get("dagger", False)
                if not isinstance(dagger, bool):
                    raise QasmError('bad rphase directive: "dagger" must be true or false, '
                                    f"got {json.dumps(dagger)}", lineno, 1)
                g = Gate(info[kind_key], tuple(info["controls"]), info["target"],
                         frozenset(info.get("neg", ())), dagger=dagger)
                if g.is_marker != (kind_key == "marker"):
                    raise QasmError(f"bad rphase directive: {g.kind!r} is not a {kind_key} kind",
                                    lineno, 1)
            except (ValueError, KeyError, TypeError) as exc:
                what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise QasmError(f"bad rphase directive: {what}", lineno, 1) from None
            if reg is None:
                raise QasmError("gate before qreg declaration", lineno, 1)
            _check_register(g, width, lineno)
            if pending is not None:
                raise _nested(pending, lineno)
            if count == 0:
                if not _wide(g):
                    raise QasmError(f"rphase directive for {g} without its expansion", lineno, 1)
                gates.append(g)
            else:
                pending = (g, lineno, count, [])
            continue
        g = stmts.get(line)
        if g is None:
            if line.startswith("OPENQASM") or line.startswith("include"):
                continue
            if not line.endswith(";"):
                raise QasmError("missing ';'", lineno, len(raw))
            stmt = line[:-1].strip()
            m = _STMT_RE.match(stmt)
            if not m:
                raise QasmError(f"cannot parse statement {stmt!r}", lineno, 1)
            name, _, param, rest = m.groups()
            if name == "qreg":
                mm = _ARG_RE.match(rest.replace(" ", "")) if param is None else None
                if not mm:
                    raise QasmError("cannot parse qreg declaration", lineno, 1)
                if reg is not None:
                    raise QasmError("multiple qreg declarations are not supported", lineno, 1)
                size = mm.group(2).lstrip("0") or "0"
                if len(size) > len(str(QREG_LIMIT)) or int(size) > QREG_LIMIT:
                    raise QasmError(f"qreg of {size} qubits is wider than the limit of "
                                    f"{QREG_LIMIT}", lineno, 1)
                reg, width = mm.group(1), int(size)
                continue
            if reg is None:
                raise QasmError("gate before qreg declaration", lineno, 1)
            try:
                g = _parse_gate(name, param, rest, reg, lineno)
            except ValueError as exc:
                raise QasmError(str(exc), lineno, 1) from None
            _check_register(g, width, lineno)
            stmts[line] = g
        if pending is not None:
            high, at, count, body = pending
            body.append(g)
            if len(body) == count:
                want = expansions.get(high)
                if want is None:
                    want = expansions[high] = expand(high)
                if body != want:
                    raise QasmError(
                        f"expansion does not match the rphase directive's {high}", at, 1)
                gates.append(high)
                pending = None
            continue
        gates.append(g)

    if pending is not None:
        raise QasmError("rphase directive expansion truncated", pending[1], 1)
    if reg is None:
        raise QasmError("no qreg declaration found", None, None)
    if roles is not None and len(roles) != width:
        raise QasmError("roles directive does not match register size", None, None)
    return Circuit(width, gates, roles)


def _nested(pending, lineno: int) -> QasmError:
    return QasmError("rphase directive inside the expansion of the "
                     f"directive on line {pending[1]}", lineno, 1)


def _unique_keys(pairs) -> dict:
    """The dict of one JSON object's (key, value) pairs; a key named twice
    is a ValueError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {json.dumps(key)}")
        out[key] = value
    return out


def _is_index(v) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_register(g: Gate, width: int, lineno: int) -> None:
    for q in g.support:
        if not 0 <= q < width:
            raise QasmError(f"qubit {q} outside register of {width}", lineno, 1)


def _parse_gate(name: str, param: str | None, rest: str, reg: str, lineno: int) -> Gate:
    args = _parse_args(rest, reg, lineno)
    kind = _KIND.get(name)
    if kind is None:
        raise UnsupportedGate(f"unsupported gate {name!r}", lineno, 1)
    row = KINDS.get(kind)
    arity = row.controls + 1 if row else 3
    # ry, and only ry, takes a parameter
    if (param is None) == (kind == "ry") or (arity == 1 and len(args) != 1):
        raise QasmError(f"malformed {name} statement", lineno, 1)
    if len(args) != arity:
        raise QasmError(f"{name} takes {_QUBIT_WORDS[arity]} qubits", lineno, 1)
    if arity == 1:
        units = _parse_theta(param, lineno, 1) if param is not None else 0
        return Gate(kind, (), args[0], param=units)
    return Gate(kind, tuple(args[:-1]), args[-1])
