"""Lowering: expand marker gates and multi-control tof gates into the
elementary set ``circuit.KINDS``, {x, y, z, p, pdg, t, tdg, h, ry, cnot,
cz}, with no negative controls.

``circuit.expand_all``, the expansion the catalog builds its
constructions with, does the work: a marker becomes its block's gates, a
negative control an X pair around the positive gate, a tof of 0/1
controls an x or a cnot, and a tof of 2 controls the 15-gate toffoli3
block. Here a tof of 3+ controls becomes ``catalog.tofn``'s clean- or
dirty-helper chain, placed at marker level over ancilla qubits the
circuit declares (an "ancilla budget exceeded" ``InputError`` otherwise),
then expanded. A clean helper goes only on a clean ancilla that no gate
of the circuit acts on, so it is |0> when the chain starts; a dirty
helper goes on any dirty ancilla the gate does not touch.

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
    idle = None  # clean ancillae no gate acts on, found at the first wide tof

    def wide(g: Gate) -> list[Gate]:
        nonlocal idle
        if idle is None:
            busy = set().union(*(h.support for h in circuit.gates))
            idle = [q for q in range(circuit.width)
                    if circuit.roles[q] == ROLE_CLEAN and q not in busy]
        return _expand_big_tof(g, circuit, idle)

    gates = expand_all(circuit.gates, wide)
    return Circuit(circuit.width, gates, circuit.roles)


def _expand_big_tof(g: Gate, circuit: Circuit, idle: list[int]) -> list[Gate]:
    """The helper chain over idle clean ancillae if there are enough of
    them, else over dirty ones the gate does not touch, at marker level:
    ``expand_all`` expands it. A clean helper must start and end in |0>,
    which only a clean ancilla no gate acts on is known to do."""
    n = len(g.controls) + 1
    need = ceil((n - 3) / 2)
    flavour, pool = "clean", idle
    if len(pool) < need:
        flavour = "dirty"
        pool = [q for q in range(circuit.width)
                if circuit.roles[q] == ROLE_DIRTY and q not in g.support]
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
