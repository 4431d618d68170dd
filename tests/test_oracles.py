"""``tests/oracles.py`` is the independent reference, so it shares no code
with what it checks: it imports the standard library and numpy only."""

import ast
import sys
from pathlib import Path

import pytest

from oracles import reference_run
from streaming import blank_map


def test_oracles_import_only_the_standard_library_and_numpy():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "oracles.py imports relatively"
            imported.add(node.module.partition(".")[0])
    # so neither the package nor a helper built on it, such as streaming.py
    allowed = sys.stdlib_module_names | {"numpy"}
    assert imported <= allowed, f"oracles.py imports {sorted(imported - allowed)}"


def test_reference_refuses_a_schedule_with_the_coarse_stage_on():
    # neither package path runs the coarse stage under publishes
    profiles, regs = blank_map((4,))
    coarse = regs.write("coarse/enabled", 1)
    codes = [(1, 1)] * 8
    assert reference_run(codes, profiles, coarse)[0] == []  # one map runs: no trigger
    for first, later in ((coarse, regs), (regs, coarse)):
        with pytest.raises(ValueError, match="coarse"):
            reference_run(codes, profiles, first, [(4, later)])
