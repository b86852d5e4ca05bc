"""Lowering: expand marker gates and multi-control tof gates into the
elementary set ``circuit.KINDS``, {x, y, z, p, pdg, t, tdg, h, ry, cnot,
cz}, with no negative controls.

``circuit.expand`` takes each gate to elementary gates and tofs of two or
more positive controls: a marker to its block's gates, a negative control
to an X pair around the positive gate, and a tof of 0/1 controls to x or
cnot. Here a tof of 2 controls becomes the 15-gate toffoli3 block, and
one of 3+ controls a clean- or dirty-helper chain built over ancilla
qubits the circuit declares but the gate does not touch ("ancilla budget
exceeded" otherwise).

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
    expand,
    map_once,
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
    out = []
    for gg in expand(g):
        if gg.kind != "tof":
            out.append(gg)
        elif len(gg.controls) == 2:
            out += block_gates("toffoli3", gg.controls + (gg.target,))
        else:
            out += _expand_big_tof(gg, circuit)
    return out


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
