"""Smoke tests: each script in scripts/ runs at a small size and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("sweep_table.py", ["--nodes", "64"]),
        ("propagator_demo.py", ["--nodes", "64"]),
        ("coarea_convergence.py", ["--doublings", "1"]),
        ("coarea_convergence.py", ["--doublings", "2", "--lam-max", "inf"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
