"""The library needs no NumPy.

NumPy is in the ``dev`` extra for the grid oracle of
``tests/test_delay_bound_oracle.py`` alone.  No module under
``src/repro`` imports it, and with every import of it made to fail the
whole package still imports and runs a churn, a Figure 10 point and a
ring simulation with greedy VBR sources.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def numpy_imports(path):
    """Line numbers of the ``numpy`` imports in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            yield node.lineno


def test_no_module_imports_numpy():
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted((SRC / "repro").rglob("*.py"))
             for line in numpy_imports(path)]
    assert found == []


WITHOUT_NUMPY = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError

import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)

from repro.core.traffic import VBRParameters
from repro.rtnet import (RingAnalysis, simulate_ring_workload,
                         symmetric_delay_curve)
from repro.workload import ChurnScenario, run_scenario

churn = run_scenario(ChurnScenario(
    topology="dual-ring", nodes=6, bound=48.0, rate=0.15, offered_load=4.0,
    events=300, seed=11, policy="k-alternate"))
assert churn.arrivals and 0 < churn.blocking < 1, churn

(point,) = symmetric_delay_curve([0.35], 4)
assert point.admissible, point

vbr = {(node, 0): (VBRParameters(pcr=0.5, scr=0.02, mbs=4), 0)
       for node in range(4)}
run = simulate_ring_workload(vbr, 4, 1, horizon=3000)
assert run.total_delivered == 4 * 50
assert run.compare(RingAnalysis(vbr, 4)).all_within_bounds
assert sys.modules["numpy"] is None
print("ok")
"""


def test_library_runs_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY], env=env,
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
