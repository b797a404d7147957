"""Importing the package loads no scipy: only the checks that use it do."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_scipy():
    code = (
        "import sys, weylred, weylred.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _suite_loads_scipy_linalg(suite):
    """The scipy.linalg modules loaded by running one CLI suite in a fresh interpreter."""
    code = (
        "import sys; from weylred.cli import run_suite; "
        "from weylred.config import SuiteConfig; "
        f"assert run_suite(SuiteConfig(), {suite!r}).verdict; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_evolve_suite_loads_no_scipy_linalg():
    assert _suite_loads_scipy_linalg("evolve") == "[]"


def test_sweep_suite_loads_no_scipy_linalg():
    # the sweep's spline is solved by numpy alone (no solve_banded)
    assert _suite_loads_scipy_linalg("sweep") == "[]"
