"""Lowering: expand marker gates and multi-control tof gates into the
elementary set {x, y, z, p, pdg, t, tdg, h, ry, cnot, cz}.

* each marker lowers through its block's gates (``marker_definition``);
* ``tof`` with 0/1 controls becomes x/cnot, with 2 controls the 15-gate
  toffoli3 block, and with 3+ controls a clean- or dirty-helper chain
  built over ancilla qubits the circuit declares but the gate does not
  touch ("ancilla budget exceeded" otherwise);
* negative controls are wrapped in X gates on the spot.

Each distinct gate of a circuit is lowered once per ``lower`` call.
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
    map_once,
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
    bodies = map_once(lambda g: _lower_gate(g, circuit), circuit.gates)
    return Circuit(circuit.width, [gg for body in bodies for gg in body], circuit.roles)


def _lower_gate(g: Gate, circuit: Circuit) -> list[Gate]:
    if g.is_marker:
        return marker_definition(g)
    if g.neg:
        wraps = [x(q) for q in sorted(g.neg)]
        plain = Gate(g.kind, g.controls, g.target, frozenset(), g.param)
        return wraps + _lower_gate(plain, circuit) + wraps[::-1]
    if g.kind != "tof":
        return [g]
    nc = len(g.controls)
    if nc == 0:
        return [x(g.target)]
    if nc == 1:
        return [cx(g.controls[0], g.target)]
    if nc == 2:
        return block_gates("toffoli3", g.controls + (g.target,))
    return _expand_big_tof(g, circuit)


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
    return map_once(lambda gg: gg.remap(mapping), template.gates)
