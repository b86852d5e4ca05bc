"""Lowering: expand marker gates and multi-control tof gates into the
elementary set {x, y, z, p, pdg, t, tdg, h, ry, cnot, cz}.

* each marker lowers through its block's gates (``marker_definition``);
* ``tof`` with 0/1 controls becomes x/cnot, with 2 controls the 15-gate
  toffoli3 block, and with 3+ controls a clean- or dirty-helper chain
  built over ancilla qubits the circuit declares but the gate does not
  touch ("ancilla budget exceeded" otherwise);
* negative controls are wrapped in X gates on the spot.
"""

from __future__ import annotations

from math import ceil

from . import catalog as cat
from .circuit import (
    Circuit,
    Gate,
    ROLE_CLEAN,
    ROLE_DIRTY,
    block_gates,
    cx,
    marker_definition,
    x,
)


class LoweringError(Exception):
    pass


class AncillaBudgetExceeded(LoweringError):
    pass


def lower(circuit: Circuit) -> Circuit:
    """Expand every marker and tof gate; unitary semantics preserved per
    the chosen constructions' verified contracts."""
    out: list[Gate] = []
    for g in circuit.gates:
        _lower_gate(g, circuit, out)
    return Circuit(circuit.width, out, circuit.roles)


def _lower_gate(g: Gate, circuit: Circuit, out: list[Gate]):
    if g.is_marker:
        out.extend(marker_definition(g))
        return
    if g.neg:
        wraps = sorted(g.neg)
        for q in wraps:
            out.append(x(q))
        _lower_gate(Gate(g.kind, g.controls, g.target, frozenset(), g.param), circuit, out)
        for q in reversed(wraps):
            out.append(x(q))
        return
    if g.kind != "tof":
        out.append(g)
        return
    nc = len(g.controls)
    if nc == 0:
        out.append(x(g.target))
    elif nc == 1:
        out.append(cx(g.controls[0], g.target))
    elif nc == 2:
        out.extend(block_gates("toffoli3", g.controls + (g.target,)))
    else:
        out.extend(_expand_big_tof(g, circuit))


def _free_ancillae(g: Gate, circuit: Circuit, role: str) -> list[int]:
    return [
        q for q in range(circuit.width)
        if circuit.roles[q] == role and q not in g.support
    ]


def _expand_big_tof(g: Gate, circuit: Circuit) -> list[Gate]:
    """The helper chain over free clean ancillae if there are enough of
    them, else over free dirty ones."""
    n = len(g.controls) + 1
    need = ceil((n - 3) / 2)
    flavour, pool = "clean", _free_ancillae(g, circuit, ROLE_CLEAN)
    if len(pool) < need:
        flavour, pool = "dirty", _free_ancillae(g, circuit, ROLE_DIRTY)
    if len(pool) < need:
        raise AncillaBudgetExceeded(
            f"ancilla budget exceeded: lowering {g} needs "
            f"{need} {flavour} ancillae, circuit offers {len(pool)}")
    template, tspec = cat.tofn(n, flavour)
    mapping = {}
    for i, q in enumerate(tspec.controls):
        mapping[q] = g.controls[i]
    mapping[tspec.target] = g.target
    it = iter(pool)
    for q in range(template.width):
        if q not in mapping:
            mapping[q] = next(it)
    return [gg.remap(mapping) for gg in template.gates]
