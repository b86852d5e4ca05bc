"""The block table: facts derived from it, pinned, and import order."""

import ast
import os
import subprocess
import sys
from dataclasses import replace
from itertools import combinations

import pytest

import oracle
import rphase
from rphase import catalog
from rphase.circuit import BLOCKS, MARKER_BLOCKS, Circuit, marker
from rphase.rewrite import REPLACEMENT_IMPLS, ConjugationMatch, _invariant, admissible
from rphase.verify import check_implements

# Recorded before the block facts moved into one table: per block, the
# rewrite's (arity, junk positions, flip-invariant positions, emitted kind).
IMPL_INFO = {
    "toffoli3": (3, (), (0, 1, 2), None),
    "srtof3_ccix": (3, (), (2,), "srtof3"),
    "rtof3_long": (3, (), (), "rtof3l"),
    "rts3": (3, (1, 2), (), "rtof3s"),
    "srts3": (3, (0, 2), (0, 1, 2), "srts3"),
    "rtof4_long": (4, (), (), "rtof4l"),
    "rt4s": (4, (1, 2, 3), (), "rt4s"),
}
COST_ORDER = ("rtof3_long", "srts3", "srtof3_ccix", "toffoli3", "rtof4_long")
# marker kind -> (control count, lowered (t, cnot, h, pz, other))
MARKERS = {
    "rt4s": (3, (4, 4, 2, 0, 0)),
    "rtof3l": (2, (4, 3, 2, 0, 0)),
    "rtof3s": (2, (2, 2, 1, 0, 0)),
    "rtof4l": (3, (8, 6, 4, 0, 0)),
    "srtof3": (2, (4, 4, 2, 0, 0)),
    "srts3": (2, (4, 4, 1, 0, 0)),
}
TOF3_COUNTS = (7, 6, 2, 0, 0)


@pytest.mark.parametrize("name", sorted(IMPL_INFO))
def test_impl_info_is_pinned(name):
    b = BLOCKS[name]
    got = (b.arity, tuple(sorted(b.junk)), tuple(sorted(_invariant(name))), b.kind)
    assert got == IMPL_INFO[name]


def test_cost_order_is_pinned():
    assert REPLACEMENT_IMPLS == COST_ORDER


# The first block of REPLACEMENT_IMPLS that ``admissible`` takes for a
# pair of each arity and class, by the pair's touched controls; a case not
# listed takes none. A block that fills a gap changes this table.
CHEAPEST = {
    (3, "prop1", ()): "rtof3_long",
    (3, "prop2", (0,)): "srts3",
    (3, "prop2", (1,)): "srts3",
    (3, "prop2", (0, 1)): "toffoli3",
    (3, "prop3", ()): "srtof3_ccix",
    (3, "prop3", (0,)): "toffoli3",
    (3, "prop3", (1,)): "toffoli3",
    (3, "prop3", (0, 1)): "toffoli3",
    (4, "prop1", ()): "rtof4_long",
}


def test_cheapest_admissible_block_is_pinned():
    """Every arity, class and set of touched controls a match can have:
    prop1 touches no control, prop2 at least one, prop3 any."""
    got = {}
    for arity in (3, 4):
        controls = tuple(range(arity - 1))
        for r in range(arity):
            for touched in combinations(controls, r):
                for cls in ("prop2" if r else "prop1", "prop3"):
                    m = ConjugationMatch(0, 1, cls, controls, arity - 1, frozenset(touched))
                    name = next((n for n in REPLACEMENT_IMPLS if admissible(n, m)), None)
                    if name is not None:
                        got[arity, cls, touched] = name
    assert got == CHEAPEST


def test_marker_facts_are_pinned():
    assert set(MARKER_BLOCKS) == set(MARKERS)
    for kind, (nc, counts) in MARKERS.items():
        assert MARKER_BLOCKS[kind].arity - 1 == nc
        assert MARKER_BLOCKS[kind].counts == counts
        g = marker(kind, tuple(range(nc)), nc)
        assert Circuit(nc + 1, [g]).count_resources().counts() == counts[:4]
        with pytest.raises(ValueError, match=f"takes {nc} controls"):
            marker(kind, tuple(range(nc + 1)), nc + 1)
    assert BLOCKS["toffoli3"].counts == TOF3_COUNTS


def test_catalog_has_one_entry_per_block():
    """The catalog reads each block from its row: the entry is the row,
    every junk-free block has a builder that returns the row's circuit,
    and no truncation has one."""
    for name, b in BLOCKS.items():
        assert catalog.get_entry(name) is b
        assert b.circuit == Circuit(b.arity, b.gates)
        if b.junk:
            assert not hasattr(catalog, name)
        else:
            assert getattr(catalog, name)() == b.circuit


def test_truncations_are_prefixes_of_their_base():
    for b in BLOCKS.values():
        base = BLOCKS[b.base]
        assert base.base == base.name and b.gates == base.gates[:len(b.gates)]
        tail = base.gates[len(b.gates):]
        assert b.junk == frozenset(q for g in tail for q in g.support)
        assert bool(b.junk) == (b.name != b.base)


# Every name ``import rphase`` exports, the submodules among them. A name
# is added to or removed from the public surface only together with this list.
PUBLIC_NAMES = [
    "Circuit", "ConjugationMatch", "Gate", "InputError",
    "NotAPhasePermutation", "PhasePermutation", "QasmError",
    "REPLACEMENT_IMPLS", "ROLE_CLEAN", "ROLE_DIRTY", "ROLE_PRIMARY",
    "ResourceReport", "RingElement", "TargetSpec", "VerificationReport", "admissible",
    "apply_replacement", "cancel_adjacent_inverses",
    "catalog", "check_implements", "circuit", "cnu_clean_chain",
    "cnu_parallel", "cnu_spec", "count_resources", "emit_qasm", "equivalent",
    "find_conjugations", "get_entry", "ladder_tofn", "ladder_tofn_spec",
    "lower", "lowering", "margolus_ry", "margolus_t_variant", "parse_qasm",
    "qasm", "rewrite", "ring", "rtof3_long",
    "rtof3_ry_negctrl", "rtof4_long", "simulate", "srtof3_ccix",
    "tof4_dirty", "tof4_dirty_spec", "tof5_dirty",
    "tof5_dirty_spec", "toffoli3", "tofn", "tofn_clean", "tofn_clean_spec",
    "tofn_dirty", "tofn_dirty_spec", "two_block_tofn", "two_block_tofn_spec",
    "unitary_columns", "verify",
]


def test_public_names_are_pinned():
    assert sorted(rphase.__all__) == PUBLIC_NAMES


MODULES = ["rphase"] + sorted(
    "rphase." + f[:-3]
    for f in os.listdir(os.path.dirname(rphase.__file__))
    if f.endswith(".py") and f != "__init__.py")


@pytest.mark.parametrize("name", sorted(n for n, b in BLOCKS.items() if not b.junk))
def test_every_junk_free_block_meets_the_class_its_row_states(name):
    b = BLOCKS[name]
    report = check_implements(b.circuit, b.spec)
    assert report.satisfies(b.spec.equivalence)
    assert report.exact == (b.spec.equivalence == "exact")


@pytest.mark.parametrize("name", sorted(n for n, b in BLOCKS.items() if not b.junk))
def test_every_junk_free_row_states_its_special_form_type(name):
    """The rewrite reads a block's flip-invariant positions from its row.
    Two independent readings find exactly those positions p: the ring
    check of a type-{p} special form, and the oracle's row phases D with
    D[i] == D[i ^ bit(p)] for every row i."""
    b = BLOCKS[name]
    by_check = {p for p in range(b.arity) if check_implements(
        b.circuit, replace(b.spec, xprime=frozenset({p}))).special_form_holds}
    m = oracle.unitary(b.circuit)
    d = [m[i][abs(m[i]) > 0.5][0] for i in range(len(m))]
    by_oracle = {p for p in range(b.arity) if all(
        abs(d[i] - d[i ^ 1 << (b.arity - 1 - p)]) < oracle.TOL for i in range(len(d)))}
    assert _invariant(name) == by_check == by_oracle


# Modules of the syntactic pipeline (synth, lower, rewrite, QASM), and the
# simulation modules none of them may import.
SYNTACTIC = ("catalog", "circuit", "lowering", "qasm", "rewrite")
SIMULATION = {"rphase.ring", "rphase.simulate", "rphase.verify"}


@pytest.mark.parametrize("module", SYNTACTIC)
def test_the_syntactic_modules_import_no_simulation(module):
    """Reading, writing, lowering and rewriting circuits runs no simulation:
    no import of ``simulate``, ``verify`` or ``ring`` in any form."""
    with open(os.path.join(os.path.dirname(rphase.__file__), module + ".py")) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            base = f"rphase.{module}".rstrip(".") if node.level else module
            names = {base} | {f"{base}.{alias.name}" for alias in node.names}
        else:
            continue
        assert not names & SIMULATION, (module, node.lineno, sorted(names))


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first(module):
    """No import cycle that only some import orders hit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)


def test_library_imports_only_the_standard_library():
    """rphase has no runtime dependency: every absolute import in its
    sources names a standard-library module."""
    src = os.path.dirname(rphase.__file__)
    for f in sorted(os.listdir(src)):
        if not f.endswith(".py"):
            continue
        with open(os.path.join(src, f)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (f, node.lineno, name)


def test_cli_import_leaves_the_process_pool_out():
    """Importing the CLI loads no process pool machinery."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, rphase.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
