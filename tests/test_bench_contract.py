"""The names perfbench/tracer.py wraps must exist where it looks for them.

The tracer binds its spans by attribute name in ``rphase.cli``,
``rphase.verify`` and ``rphase.catalog``; a rename or a dropped import
there would break the traced benchmark run without failing any other test.
"""

import importlib.util
import os

import rphase.catalog
import rphase.cli
import rphase.verify
from rphase.circuit import Circuit
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
