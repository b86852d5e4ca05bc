"""Lowering: expand marker gates and multi-control tof gates into the
elementary set {x, y, z, p, pdg, t, tdg, h, ry, cnot, cz}.

A policy names the expansion for every high-level kind present:

* each marker kind lowers through its defining circuit (the default) or
  any catalog entry of the same arity named in ``marker_impls``;
* ``tof`` with 0/1 controls becomes x/cnot, with 2 controls the 15-gate
  Toffoli circuit, and with 3+ controls a clean- or dirty-helper chain
  built over ancilla qubits the circuit declares but the gate does not
  touch ("ancilla budget exceeded" otherwise);
* negative controls are wrapped in X gates on the spot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from . import catalog as cat
from .circuit import (
    Circuit,
    Gate,
    MARKER_KINDS,
    ROLE_CLEAN,
    ROLE_DIRTY,
    cx,
    x,
)


class LoweringError(Exception):
    pass


class AncillaBudgetExceeded(LoweringError):
    pass


@dataclass(frozen=True)
class LoweringPolicy:
    """Construction choices for ``lower``.

    ``marker_impls`` maps a marker kind to the catalog entry used for it;
    kinds not listed use their defining circuits.
    """

    marker_impls: dict = field(default_factory=dict)

    def gates_for_marker(self, g: Gate) -> list[Gate]:
        name = self.marker_impls.get(g.kind)
        if name is None:
            return cat.marker_definition(g)
        entry = cat.get_entry(name)
        impl = entry.circuit
        if impl.width != len(g.controls) + 1:
            raise LoweringError(
                f"arity mismatch: {name} cannot lower {g.kind}")
        mapping = {i: q for i, q in enumerate(g.controls + (g.target,))}
        gates = [gg.remap(mapping) for gg in impl.gates]
        if g.dagger:
            gates = [gg.inverse() for gg in reversed(gates)]
        return gates


DEFAULT_POLICY = LoweringPolicy()


def lower(circuit: Circuit, policy: LoweringPolicy | None = None) -> Circuit:
    """Expand every marker and tof gate; unitary semantics preserved per
    the chosen constructions' verified contracts."""
    policy = policy or DEFAULT_POLICY
    out: list[Gate] = []
    for g in circuit.gates:
        _lower_gate(g, circuit, policy, out)
    return Circuit(circuit.width, out, circuit.roles)


def _lower_gate(g: Gate, circuit: Circuit, policy: LoweringPolicy, out: list[Gate]):
    if g.kind in MARKER_KINDS:
        for gg in policy.gates_for_marker(g):
            _lower_gate(gg, circuit, policy, out)
        return
    if g.neg:
        wraps = sorted(g.neg)
        for q in wraps:
            out.append(x(q))
        _lower_gate(Gate(g.kind, g.controls, g.target, frozenset(), g.param), circuit, policy, out)
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
        out.extend(cat._toffoli3_gates(g.controls[0], g.controls[1], g.target))
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
            f"ancilla budget exceeded: lowering a {n - 1}-control tof needs "
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
