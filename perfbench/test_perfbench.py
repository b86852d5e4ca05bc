"""Tests of the benchmark itself: deterministic generators, independent
known answers, and a planted wrong answer the check must flag.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import rphase.cli as cli  # noqa: E402
import run  # noqa: E402
from rphase.qasm import parse_qasm  # noqa: E402
from rphase.rewrite import find_conjugations  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from worker import Loop, check_chain_rewrite, cli_runner  # noqa: E402
from workloads import (WORKLOADS, Workload, float_column, phase_permutation,  # noqa: E402
                       pick_mutant, qasm_gates, tof_chain)

RUN = cli_runner(cli)


def _files(wl: Workload) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(wl.dir)):
        with open(os.path.join(wl.dir, name)) as fh:
            out[name] = fh.read()
    return out


def _build(tmp_path, sub: str, name: str, seed: int) -> Workload:
    d = tmp_path / sub
    d.mkdir()
    return Workload(name, seed, str(d), RUN)


@pytest.mark.parametrize("name", ["certify-small", "rewrite", "synth"])
def test_workload_inputs_are_deterministic(tmp_path, name):
    a, b, c = (_build(tmp_path, sub, name, seed) for sub, seed in (("a", 7), ("b", 7), ("c", 8)))
    ops = lambda wl: [[arg.replace(wl.dir, "") for arg in op.argv] + [op.expect_rc, op.work]
                      for op in wl.ops]
    assert (ops(a), _files(a)) == (ops(b), _files(b))
    assert (ops(a), _files(a)) != (ops(c), _files(c))


def test_chain_generator_is_deterministic_and_makes_both_match_classes():
    text = tof_chain(random.Random(3), 13, 6, 40)
    assert text == tof_chain(random.Random(3), 13, 6, 40)
    assert text != tof_chain(random.Random(4), 13, 6, 40)
    assert len(qasm_gates(text)) == 3 * 40
    classes = {m.classification for m in find_conjugations(parse_qasm(text))}
    assert {"prop1", "prop2"} <= classes


def test_mutant_picker_is_deterministic_and_has_a_witness(tmp_path):
    path = str(tmp_path / "tof6.qasm")
    assert RUN(["synth", "--gate", "tof", "--n", "6", "--ancilla", "dirty", "--out", path])[0] == 0
    with open(path) as fh:
        text = fh.read()
    mutant = pick_mutant(text, random.Random(5))
    assert mutant == pick_mutant(text, random.Random(5))
    bad = str(tmp_path / "bad.qasm")
    with open(bad, "w") as fh:
        fh.write(mutant)
    assert RUN(["verify", bad, "--target", "tof", "--n", "6"])[0] == 1


def test_independent_oracles_agree():
    text = tof_chain(random.Random(1), 5, 2, 4)
    gates = qasm_gates(text)
    perm, phase = phase_permutation(gates, 7)
    for s in (0, 5, 77, 127):
        amps = float_column(gates, 7, s)
        assert set(amps) == {perm[s]}
        assert abs(amps[perm[s]] - complex(0.70710678, 0.70710678) ** phase[s]) < 1e-6


def test_planted_wrong_answer_is_flagged(tmp_path):
    wl = Workload("certify-small", 1, str(tmp_path), RUN)
    mutant = next(op for op in wl.ops if op.label.endswith("-mutant"))
    good = next(op for op in wl.ops if op.label == "verify-toffoli3")
    loop = Loop([good, mutant], RUN)
    loop.one_pass()
    assert loop.failures == []
    mutant.expect_rc = 0  # a mutant labelled as good
    loop.one_pass()
    assert len(loop.failures) == 1 and mutant.label in loop.failures[0]


def test_chain_equivalence_check_passes_and_catches_a_broken_output(tmp_path):
    wl = Workload("rewrite", 2, str(tmp_path), RUN)
    assert check_chain_rewrite(wl, RUN) is None

    def broken(argv):
        rc, out, err = RUN(argv)
        dst = argv[argv.index("--out") + 1]
        with open(dst) as fh:
            lines = fh.read().splitlines()
        drop = max(i for i, ln in enumerate(lines) if ln.startswith("t q["))
        with open(dst, "w") as fh:
            fh.write("\n".join(lines[:drop] + lines[drop + 1:]) + "\n")
        return rc, out, err

    assert "differs" in check_chain_rewrite(wl, broken)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in LAYER_METRICS]
