"""The names perfbench/tracer.py wraps must exist where it looks for them.

The tracer binds its spans by attribute name in ``rphase.cli``,
``rphase.verify`` and ``rphase.catalog``; a rename or a dropped import
there would break the traced benchmark run without failing any other test.
"""

import importlib.util
import os
from collections import Counter

import rphase.catalog
import rphase.cli
import rphase.verify
from rphase.circuit import Circuit, cx, t, tof
from rphase.qasm import emit_qasm
from rphase.ring import RingElement

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")

BOUND = {
    rphase.cli: ("parse_qasm", "emit_qasm", "lower", "check_implements",
                 "find_conjugations", "admissible", "apply_replacement",
                 "cancel_adjacent_inverses"),
    rphase.verify: ("compile_circuit", "run_column_ring", "run_column_float"),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_name():
    tracer = _load_tracer()
    names = dict(BOUND)
    names[rphase.catalog] = tracer._CATALOG_BUILDERS
    for module, attrs in names.items():
        missing = [a for a in attrs if a not in vars(module)]
        assert not missing, (module.__name__, missing)

    before = {(m, a): vars(m)[a] for m, attrs in names.items() for a in attrs}
    t = tracer.Tracer()
    t.install(rphase.cli, rphase.verify, rphase.catalog, Circuit, RingElement)
    try:
        assert all(vars(m)[a] is not fn for (m, a), fn in before.items())
    finally:
        t.uninstall()
    assert all(vars(m)[a] is fn for (m, a), fn in before.items())


def test_rewrite_goes_through_the_cli_bound_rewrite_names(tmp_path, monkeypatch, capsys):
    """``rewrite`` calls these names in ``rphase.cli``: one search for pairs
    of equal tofs, at most one classification per pair whose gates are not
    yet replaced, one admissibility test per candidate and one replacement
    per rewritten pair. ``find_conjugations`` stays bound there for the tracer
    but is no longer called: its spans read 0 on the rewrite workload."""
    calls = Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("find_conjugations", "_equal_tof_pairs", "classify_pair", "admissible",
                 "apply_replacement"):
        monkeypatch.setattr(rphase.cli, name, counted(name, vars(rphase.cli)[name]))
    src = tmp_path / "two_pairs.qasm"
    src.write_text(emit_qasm(Circuit(7, [
        tof((0, 1), 2), tof((3, 4), 5), cx(2, 6), t(4), tof((3, 4), 5), tof((0, 1), 2)])))
    assert rphase.cli.main(["rewrite", str(src), "--rules", "prop1,prop2"]) == 0
    capsys.readouterr()
    assert calls["_equal_tof_pairs"] == 1 and calls["find_conjugations"] == 0
    assert calls["classify_pair"] == 2
    assert calls["apply_replacement"] == 2
    assert calls["admissible"] >= 2
