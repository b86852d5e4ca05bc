"""Lowering: expand marker gates and multi-control tof gates into the
elementary set ``circuit.KINDS``, {x, y, z, p, pdg, t, tdg, h, ry, cnot,
cz}, with no negative controls.

``circuit.expand_all``, the expansion the catalog builds its
constructions with, does the work: a marker becomes its block's gates, a
negative control an X pair around the positive gate, a tof of 0/1
controls an x or a cnot, and a tof of 2 controls the 15-gate toffoli3
block. Here a tof of 3+ controls becomes ``catalog.tofn``'s clean- or
dirty-helper chain, placed at marker level over ancilla qubits the
circuit declares but the gate does not touch (an "ancilla budget
exceeded" ``InputError`` otherwise), then expanded.

Each distinct gate of a circuit is lowered once per ``lower`` call, and
a daggered marker reuses its forward marker's gates, inverted.
"""

from __future__ import annotations

from math import ceil

from . import catalog as cat
from .circuit import (
    Circuit,
    Gate,
    InputError,
    ROLE_CLEAN,
    ROLE_DIRTY,
    expand_all,
    map_once,
)


def lower(circuit: Circuit) -> Circuit:
    """Expand every marker and tof gate; unitary semantics preserved per
    the chosen constructions' verified contracts."""
    gates = expand_all(circuit.gates, lambda g: _expand_big_tof(g, circuit))
    return Circuit(circuit.width, gates, circuit.roles)


def _free_ancillae(g: Gate, circuit: Circuit, role: str) -> list[int]:
    return [
        q for q in range(circuit.width)
        if circuit.roles[q] == role and q not in g.support
    ]


def _expand_big_tof(g: Gate, circuit: Circuit) -> list[Gate]:
    """The helper chain over free clean ancillae if there are enough of
    them, else over free dirty ones, at marker level: ``expand_all``
    expands it."""
    n = len(g.controls) + 1
    need = ceil((n - 3) / 2)
    flavour, pool = "clean", _free_ancillae(g, circuit, ROLE_CLEAN)
    if len(pool) < need:
        flavour, pool = "dirty", _free_ancillae(g, circuit, ROLE_DIRTY)
    if len(pool) < need:
        raise InputError(
            f"ancilla budget exceeded: lowering {g} needs "
            f"{need} {flavour} ancillae, circuit offers {len(pool)}")
    template, tspec = cat._tofn_markers(n, flavour)
    mapping = {}
    for i, q in enumerate(tspec.controls):
        mapping[q] = g.controls[i]
    mapping[tspec.target] = g.target
    it = iter(pool)
    for q in range(template.width):
        if q not in mapping:
            mapping[q] = next(it)
    return map_once(lambda gg: gg.remap(mapping), template.gates)
