"""Run every demo end to end, each in a fresh interpreter.  The slowest,
07 (Brauer trees, the source idempotent of GF(7)S_7), takes a few
seconds.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
QUICK_DEMOS = ["01_finite_fields.py", "02_permutation_groups.py",
               "03_module_decomposition.py", "04_blocks.py",
               "05_source_permutation_modules.py",
               "06_vertices_and_weights.py", "07_brauer_trees.py",
               "08_symmetric_characters.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip()
