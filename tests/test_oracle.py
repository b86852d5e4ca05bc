"""The textbook oracle: the simulator meets it on every gate kind, block,
marker and small construction, and it stays independent of the
simulator, so a wrong gate compilation fails against it."""

import ast
from pathlib import Path

import pytest

import oracle
from rphase import simulate
from rphase.catalog import tofn
from rphase.circuit import BLOCKS, KINDS, MARKER_BLOCKS, Circuit, Gate, h, marker
from rphase.simulate import compile_circuit, run_column_float

ORACLE = Path(oracle.__file__)


def _ring_is_oracle(c) -> bool:
    starts = range(1 << c.width)
    return oracle.agrees(c, starts, simulate._ring_columns(c, starts))


def _float_columns(c):
    ops = compile_circuit(c)
    return [run_column_float(ops, s) for s in range(1 << c.width)]


def test_the_oracle_reads_nothing_of_the_simulator():
    """No import of ``rphase.simulate`` or ``rphase.ring``, in any form,
    and no read of a gate table row's ``.omega``."""
    tree = ast.parse(ORACLE.read_text())
    banned = {"rphase.simulate", "rphase.ring"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {module} | {f"{module}.{a.name}" for a in node.names}
        else:
            names = set()
        assert not any(n == b or n.startswith(b + ".") for n in names for b in banned), \
            ast.dump(node)
        assert not (isinstance(node, ast.Attribute) and node.attr == "omega"), ast.dump(node)


def _kind_gates(kind):
    """A gate of ``kind`` each way round on two qubits: with its control,
    if it takes one, positive and negative; an ry of odd and even units."""
    if KINDS[kind].controls:
        return [Gate(kind, (a,), 1 - a, neg) for a in (0, 1)
                for neg in (frozenset(), frozenset({a}))]
    params = (3, -2) if kind == "ry" else (0,)
    return [Gate(kind, (), q, param=u) for q in (0, 1) for u in params]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_alone_is_the_oracle(kind):
    for g in _kind_gates(kind):
        c = Circuit(2, [g])
        assert _ring_is_oracle(c), g
        assert oracle.agrees(c, range(4), _float_columns(c)), g


def test_every_block_and_marker_is_the_oracle():
    for name, block in BLOCKS.items():
        assert _ring_is_oracle(block.circuit), name
    for kind, block in sorted(MARKER_BLOCKS.items()):
        for dagger in (False, True):
            for wires in (range(block.arity), range(block.arity)[::-1]):
                c = Circuit(block.arity, [marker(kind, wires[:-1], wires[-1], dagger)])
                assert _ring_is_oracle(c), (kind, dagger, wires)


@pytest.mark.parametrize("ancilla", ["clean", "dirty"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_tofn_constructions_are_the_oracle(n, ancilla):
    assert _ring_is_oracle(tofn(n, ancilla)[0])


def _t_as_w3(g, width):
    tb = 1 << (width - 1 - g.target)
    return (("cp", tb, tb, 0, 3),)


def _y_without_i(g, width):
    tb = 1 << (width - 1 - g.target)
    return (("cp", tb, tb, 0, 4), ("cp", 0, 0, tb, 0))


@pytest.mark.parametrize("kind, wrong", [("t", _t_as_w3), ("y", _y_without_i)])
def test_a_wrong_gate_compilation_fails_the_oracle(monkeypatch, kind, wrong):
    """A gate compiled wrongly (t as w^3, y without its i) runs the same on
    the ring and float kernels, column for column, so comparing the two
    cannot see it; the oracle comparison does, on H g H."""
    c = Circuit(1, [h(0), Gate(kind, (), 0), h(0)])
    assert _ring_is_oracle(c)
    real = simulate.compile_gate
    monkeypatch.setattr(simulate, "compile_gate",
                        lambda g, width: wrong(g, width) if g.kind == kind else real(g, width))
    ring = list(simulate._ring_columns(c, range(2)))
    floats = _float_columns(c)
    for (amps, k, support), (f_amps, _, f_support) in zip(ring, floats):
        assert support == f_support
        assert all(abs(oracle.value(amps.get(r, (0, 0, 0, 0)), k) - f_amps.get(r, 0)) < oracle.TOL
                   for r in amps.keys() | f_amps.keys())
    assert not oracle.agrees(c, range(2), ring)
    assert not oracle.agrees(c, range(2), floats)
