"""The README's code and resource table agree with the package."""

import re
from pathlib import Path

import rphase.cli as cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_quick_start_runs_and_prints_what_its_comment_says(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    last = capsys.readouterr().out.splitlines()[-1]
    comment = blocks[0].rstrip().splitlines()[-1].split("#")[-1].strip()
    assert last == comment == "(15, 12, 6, 0)"


def test_resource_table_is_what_rphase_table_builds():
    rows = re.findall(r"^(TOF\d+)\s+clean (\d+)/(\d+)/(\d+)/(\d+)\s+"
                      r"dirty (\d+)/(\d+)/(\d+)/(\d+)$", README, re.M)
    stated = {}
    for name, *counts in rows:
        counts = [int(v) for v in counts]
        stated[name, "clean"] = tuple(counts[:4])
        stated[name, "dirty"] = tuple(counts[4:])
    built = {(gate, flavour): (t, cnot, h, anc)
             for gate, flavour, t, cnot, h, _, anc in cli._table_rows([4, 5, 6, 11])}
    assert len(rows) == 4 and stated == built
