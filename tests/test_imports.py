"""Neither importing the package nor running any CLI suite loads scipy, and
every public name of the package has a caller outside the tests."""

import ast
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


def _program_trees():
    """(path, tree) of every program file: src/ except __init__.py, bench/ and scripts/."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py"))
    return [(p, ast.parse(p.read_text())) for p in paths if p.name != "__init__.py"]


def _public_definitions(tree):
    """(qualified name, bare name, first line, last line) of the public top-level
    functions and classes of a module, and of the public methods of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def test_every_public_name_has_a_program_caller():
    trees = _program_trees()
    loads = {}  # bare name -> [(path, line)] of every Name or Attribute load
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, []).append((path, node.lineno))
    package = ROOT / "src" / "weylred"
    uncalled = []
    for path, tree in trees:
        if path.parent != package:
            continue
        for qualified, name, first, last in _public_definitions(tree):
            called = any(
                not (p == path and first <= line <= last) for p, line in loads.get(name, ())
            )
            if not called:
                uncalled.append(f"{path.stem}.{qualified}")
    assert not uncalled, f"public names with no caller in src/, bench/ or scripts/: {uncalled}"
