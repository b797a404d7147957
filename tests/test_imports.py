"""Neither importing the package nor running any CLI suite loads scipy."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fresh_interpreter(code):
    """The stdout of `code` run in a new interpreter on this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_no_scipy():
    code = (
        "import sys, weylred, weylred.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _fresh_interpreter(code) == "[]"


def _suite_loads_scipy_linalg(suite):
    """The scipy.linalg modules loaded by running one CLI suite in a fresh interpreter."""
    code = (
        "import sys; from weylred.cli import run_suite; "
        "from weylred.config import SuiteConfig; "
        f"assert run_suite(SuiteConfig(), {suite!r}).verdict; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    )
    return _fresh_interpreter(code)


def test_evolve_suite_loads_no_scipy_linalg():
    assert _suite_loads_scipy_linalg("evolve") == "[]"


def test_sweep_suite_loads_no_scipy_linalg():
    # the sweep's spline is solved by numpy alone (no solve_banded)
    assert _suite_loads_scipy_linalg("sweep") == "[]"


def test_all_suites_load_no_scipy(tmp_path):
    # every suite plus the JSON and CSV report: what `weylred all` runs
    code = (
        "import sys; from weylred.cli import run_suite; "
        "from weylred.config import SuiteConfig; from weylred.report import emit_report; "
        "report = run_suite(SuiteConfig(), 'all'); assert report.verdict; "
        f"emit_report(report, {str(tmp_path)!r}, ('json', 'csv')); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _fresh_interpreter(code) == "[]"
    assert (tmp_path / "all.json").exists()
