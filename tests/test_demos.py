"""The scripts under ``demos/`` run to completion on small inputs and describe themselves."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "gaussian_mi.py": ["--n", "400", "--runs", "1"],
    "dimension_sweep.py": ["--n", "400", "--dz", "1", "5"],
    "cit_benchmark.py": ["--datasets", "4", "--n", "300"],
}


def run_demo(name, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs_on_small_inputs(name):
    proc = run_demo(name, DEMOS[name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_help_shows_its_docstring(name):
    doc = ast.get_docstring(ast.parse((ROOT / "demos" / name).read_text(encoding="utf-8")))
    assert doc, f"{name} has no module docstring"
    proc = run_demo(name, ["--help"])
    assert proc.returncode == 0, proc.stderr
    assert " ".join(doc.split()[:4]) in " ".join(proc.stdout.split())
