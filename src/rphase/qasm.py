"""OpenQASM 2.0 interchange for the supported subset.

Emitted programs use one ``qreg`` and the gates
``x, y, z, s, sdg, t, tdg, h, ry(theta), cx, cz, ccx`` with theta an
integer multiple of pi/4. Parse/emit round-trips lowered circuits
exactly.

Constructs QASM has no word for ride along in structured comments::

    // rphase: {"roles": [...]}                      ancilla roles
    // rphase: {"marker": ..., "gates": N}           marker + N-gate expansion
    // rphase: {"gate": "tof"|..., "neg": [...], "gates": N}
                                                     negative controls / wide tof

A directive with ``"gates": N`` is followed by its N-statement expansion;
the parser checks that the N statements are exactly the expansion the
emitter writes for the gate, swallows them and restores the high-level
gate, so other QASM consumers still see a runnable program of the same
unitary. A tof with three or more controls cannot be expanded without
ancillae and is emitted with an empty expansion (``"gates": 0``); any
other directive with ``"gates": 0`` is an error.

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

from .circuit import (
    Circuit,
    Gate,
    ROLE_PRIMARY,
    ROLES,
    cx,
    cz,
    marker,
    marker_definition,
    ry,
    tof,
)

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
# Widest qreg the parser accepts, far above the widest circuit synth
# writes (TOF310, 464 qubits), so that a huge declared width is an input
# error rather than a circuit the process cannot hold.
QREG_LIMIT = 1 << 16

_KIND_TO_QASM = {
    "x": "x", "y": "y", "z": "z", "p": "s", "pdg": "sdg",
    "t": "t", "tdg": "tdg", "h": "h",
}
_QASM_TO_KIND = {v: k for k, v in _KIND_TO_QASM.items()}


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
    if g.kind in _KIND_TO_QASM:
        return f"{_KIND_TO_QASM[g.kind]} {reg}[{g.target}];"
    if g.kind == "ry":
        return f"ry({_theta_str(g.param)}) {reg}[{g.target}];"
    if g.kind == "cnot":
        return f"cx {reg}[{g.controls[0]}],{reg}[{g.target}];"
    if g.kind == "cz":
        return f"cz {reg}[{g.controls[0]}],{reg}[{g.target}];"
    if g.kind == "tof" and len(g.controls) == 2:
        c1, c2 = g.controls
        return f"ccx {reg}[{c1}],{reg}[{c2}],{reg}[{g.target}];"
    raise UnsupportedGate(f"unsupported gate {g.kind}")


def _expansion(g: Gate) -> list[Gate]:
    """Plain-gate expansion of a high-level gate, [] when impossible."""
    if g.is_marker:
        return marker_definition(g)
    if g.kind == "tof" and len(g.controls) > 2:
        return []  # would need ancillae; directive-only
    if g.kind == "tof" and len(g.controls) < 2:
        base = Gate("cnot" if g.controls else "x", g.controls, g.target)
    else:
        base = Gate(g.kind, g.controls, g.target, frozenset(), g.param)
    wraps = [Gate("x", (), q) for q in sorted(g.neg)]
    return wraps + [base] + list(reversed(wraps))


def emit_qasm(circuit: Circuit) -> str:
    """Serialize; markers and negative controls become rphase directives."""
    reg = "q"
    lines = [HEADER.rstrip("\n"), f"qreg {reg}[{circuit.width}];"]
    if any(r != ROLE_PRIMARY for r in circuit.roles):
        lines.append("// rphase: " + json.dumps({"roles": list(circuit.roles)}))
    for g in circuit.gates:
        if g.is_marker or g.neg or (g.kind == "tof" and len(g.controls) != 2):
            body = _expansion(g)
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
    roles = None
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
                info = json.loads(payload[len("rphase:"):].strip())
                if "roles" in info:
                    roles = tuple(info["roles"])
                    for r in roles:
                        if r not in ROLES:
                            raise QasmError(f"unknown ancilla role {r!r}", lineno, 1)
                    continue
                count = info["gates"]
                for v in (count, info["target"], *info["controls"], *info.get("neg", ())):
                    if not _is_index(v):
                        raise QasmError("bad rphase directive: qubits and \"gates\" must be "
                                        f"integers, got {json.dumps(v)}", lineno, 1)
                if count < 0:
                    raise QasmError(f'bad rphase directive: "gates" is {count}', lineno, 1)
                if "marker" in info:
                    dagger = info.get("dagger", False)
                    if not isinstance(dagger, bool):
                        raise QasmError('bad rphase directive: "dagger" must be true or false, '
                                        f"got {json.dumps(dagger)}", lineno, 1)
                    g = marker(info["marker"], tuple(info["controls"]), info["target"],
                               dagger=dagger)
                else:
                    g = Gate(info["gate"], tuple(info["controls"]), info["target"],
                             frozenset(info.get("neg", ())))
            except (ValueError, KeyError, TypeError) as exc:
                what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise QasmError(f"bad rphase directive: {what}", lineno, 1) from None
            if reg is None:
                raise QasmError("gate before qreg declaration", lineno, 1)
            _check_register(g, width, lineno)
            if pending is not None:
                raise QasmError("rphase directive inside the expansion of the "
                                f"directive on line {pending[1]}", lineno, 1)
            if count == 0:
                if _expansion(g):
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
                    want = expansions[high] = _expansion(high)
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


def _is_index(v) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_register(g: Gate, width: int, lineno: int) -> None:
    for q in g.support:
        if not 0 <= q < width:
            raise QasmError(f"qubit {q} outside register of {width}", lineno, 1)


def _parse_gate(name: str, param: str | None, rest: str, reg: str, lineno: int) -> Gate:
    args = _parse_args(rest, reg, lineno)
    if name in _QASM_TO_KIND:
        if param is not None or len(args) != 1:
            raise QasmError(f"malformed {name} statement", lineno, 1)
        return Gate(_QASM_TO_KIND[name], (), args[0])
    if name == "ry":
        if param is None or len(args) != 1:
            raise QasmError("malformed ry statement", lineno, 1)
        return ry(args[0], _parse_theta(param, lineno, 1))
    if name == "cx":
        if len(args) != 2:
            raise QasmError("cx takes two qubits", lineno, 1)
        return cx(args[0], args[1])
    if name == "cz":
        if len(args) != 2:
            raise QasmError("cz takes two qubits", lineno, 1)
        return cz(args[0], args[1])
    if name == "ccx":
        if len(args) != 3:
            raise QasmError("ccx takes three qubits", lineno, 1)
        return tof((args[0], args[1]), args[2])
    raise UnsupportedGate(f"unsupported gate {name!r}", lineno, 1)
