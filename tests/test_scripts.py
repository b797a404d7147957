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


def _load_mutants():
    import importlib.util

    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _load_mutants()


@pytest.mark.parametrize("name, file, old, new, tests", MUTANTS.MUTANTS, ids=[m[0] for m in MUTANTS.MUTANTS])
def test_mutant_old_line_occurs_once(name, file, old, new, tests):
    # a refactor that moves or rewrites a seeded line must update its mutant
    count = MUTANTS.occurrences(old)
    assert count == 1, f"{name}: its old line occurs {count} times in src/"
    assert old in (ROOT / "src" / "weylred" / file).read_text()
    assert new != old and all((ROOT / t.split("::")[0]).exists() for t in tests)


def test_mutant_names_are_unique():
    names = [m[0] for m in MUTANTS.MUTANTS]
    assert len(names) == len(set(names))
