"""Seeded mutants of src/weylred and whether the tests kill them.

    python3 scripts/mutants.py > kill-table.txt

Each entry of MUTANTS is (name, file, old, new, tests): `old` is one line of
src/weylred/<file> (with the line before it where the line alone is not
unique), `new` its replacement, and `tests` the pytest selection that
should fail once the edit is in. For each entry the script copies the
checkout (src/, tests/, bench/, scripts/ and the root files) to a temporary
directory, applies the edit there, runs the selection against the copy and
records the outcome:

- killed: pytest exits 1, some selected test fails (a mutant that runs
  past the memory limit fails with MemoryError);
- timeout: the selection runs past TIMEOUT_S, as when a mutant breaks a
  loop's termination; the mutant is caught, but by a hang, not a failure;
- survived: pytest exits 0, every selected test passes;
- error: any other exit (collection error, no test selected).

The table goes to stdout. It is sorted by name and holds no timings, and
property tests run with a fixed seed, so two runs on one tree give the same
table. The checkout itself is never edited. Standard library only; it runs
pytest in a child interpreter, one mutant at a time.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylred"
TIMEOUT_S = 300
MEMORY_LIMIT_BYTES = 1 << 30  # address space of one pytest child
COPIED = ("src", "tests", "bench", "scripts", "pyproject.toml", "BENCHMARK.json")

MUTANTS = [
    # -- the exact product loop and the star-basis reduction
    # the two phase mutants keep the names they had when the first order and
    # the higher orders ran in separate loops
    (
        "first-order-phase-conjugated",
        "symbols.py",
        "                    re, im = -im, re",
        "                    re, im = im, -re",
        ["tests/test_moyal.py"],
    ),
    (
        "tensor-phase-conjugated",
        "symbols.py",
        "        weight = [-w if K & 2 else w for K, w in enumerate(weight)]",
        "        weight = [-w if (K + 1) & 2 else w for K, w in enumerate(weight)]",
        ["tests/test_moyal.py"],
    ),
    (
        "phase-sign-fold-dropped",
        "symbols.py",
        "        weight = [-w if K & 2 else w for K, w in enumerate(weight)]",
        "        weight = list(weight)",
        ["tests/test_moyal.py"],
    ),
    (
        "move-factorial-dropped",
        "symbols.py",
        "                s, den = s * sign, den * m",
        "                s, den = s * sign, den",
        ["tests/test_moyal.py::TestIntegerProductLoop::test_one_coordinate_products_match_the_fraction_formula"],
    ),
    (
        "reduced-gcd-skipped",
        "symbols.py",
        "        common = _common_factor(den, sums.values())",
        "        common = 1",
        ["tests/test_symbols.py", "tests/test_properties.py"],
    ),
    (
        "reduced-keeps-zero-entries",
        "symbols.py",
        "        elif all(map(any, sums.values())):",
        "        elif True:",
        ["tests/test_properties.py::test_arithmetic_results_are_canonical"],
    ),
    (
        "fused-step-hbar-shift-dropped",
        "symbols.py",
        "        lift = shift << _hbar_shift(self.dimension)  # hbar^shift moves the hbar field alone",
        "        lift = 0  # hbar^shift moves the hbar field alone",
        ["tests/test_moyal.py", "tests/test_oracles.py"],
    ),
    # -- the packed monomial layout
    (
        "move-step-degree-fields-dropped",
        "symbols.py",
        "        (FIELD_BITS * fv, FIELD_BITS * gv, _variable(n, fv), _variable(n, gv), sign)",
        "        (FIELD_BITS * fv, FIELD_BITS * gv, 1 << FIELD_BITS * fv, 1 << FIELD_BITS * gv, sign)",
        ["tests/test_moyal.py::TestMoyalStar::test_f12_star_f12"],
    ),
    (
        "move-skip-reads-swapped-fields",
        "symbols.py",
        "        if not (fo >> fs & _FIELD and go >> gs & _FIELD):",
        "        if not (fo >> gs & _FIELD and go >> fs & _FIELD):",
        ["tests/test_moyal.py::TestMoyalStar::test_x_star_xi"],
    ),
    (
        "product-overflow-unchecked",
        "symbols.py",
        "    if (fo + go) >> s & (_LIMIT | _LIMIT << FIELD_BITS):",
        "    if 0:",
        ["tests/test_symbols.py::TestPackedMonomials::test_product_past_the_field_raises_before_its_loop"],
    ),
    (
        "quotient-conjugate-dropped",
        "moyal.py",
        "    cr, ci = p_key[0], -p_key[1]  # conj(p_key)",
        "    cr, ci = p_key[0], p_key[1]",
        # the direct check first: through the reduction this mutant hangs, not fails
        ["tests/test_oracles.py::test_leading_term_quotient_matches_qqi_division", "tests/test_moyal.py"],
    ),
    (
        "quotient-gcd-dropped",
        "moyal.py",
        "    common = gcd(re, im, den)\n    return re // common, im // common, den // common",
        "    common = 1\n    return re // common, im // common, den // common",
        ["tests/test_moyal.py", "tests/test_properties.py"],
    ),
    # -- numeric guards and grids
    (
        "ambient-integral-defaults-coarse",
        "dint.py",
        "def ambient_integral(func: Callable, dimension: int, *, n_r: int = 96, n_ang: int = 64) -> float:",
        "def ambient_integral(func: Callable, dimension: int, *, n_r: int = 40, n_ang: int = 24) -> float:",
        ["tests/test_direct_integral.py"],
    ),
    (
        "coarea-quadrature-coarse",
        "dint.py",
        "def coarea_check(f: TestFunction, grid: LambdaGrid, *, n_r: int = 96, n_ang: int = 64) -> float:",
        "def coarea_check(f: TestFunction, grid: LambdaGrid, *, n_r: int = 40, n_ang: int = 24) -> float:",
        ["tests/test_direct_integral.py"],
    ),
    (
        "half-line-scale-30",
        "dint.py",
        "HALF_LINE_SCALE = 3.0",
        "HALF_LINE_SCALE = 30.0",
        ["tests/test_direct_integral.py"],
    ),
    (
        "cli-level-floor-12",
        "cli.py",
        "    n_lambda = max(cfg.n_lambda, 64)\n    grid = build_grid(",
        "    n_lambda = max(cfg.n_lambda, 12)\n    grid = build_grid(",
        ["tests/test_config_cli.py"],
    ),
    (
        "sphere-antipodal-mask-zero",
        "geometry.py",
        "        anti = np.linalg.norm(Z[:, None, :] + Z[None, :, :], axis=2) <= 1e-9 * r",
        "        anti = np.linalg.norm(Z[:, None, :] + Z[None, :, :], axis=2) <= 0",
        ["tests/test_fiber.py"],
    ),
    (
        "circle-mirrored-pair-orientation-flipped",
        "geometry.py",
        "            np.concatenate([np.zeros((n, 2)), chord, -chord]),",
        "            np.concatenate([np.zeros((n, 2)), chord, chord]),",
        ["tests/test_config_cli.py::TestCLI::test_kernel_exit_zero"],
    ),
    (
        "sphere-pair-orientation-flipped",
        "geometry.py",
        "        D = Z[rows] - Z[cols]",
        "        D = Z[cols] - Z[rows]",
        ["tests/test_fiber.py::TestKernelQuantize::test_matches_per_entry_midpoint_oracle"],
    ),
    (
        "sphere-radius-check-accepts-zero",
        "geometry.py",
        "        if not (isinstance(r, numbers.Real) and math.isfinite(r) and r > 0):",
        "        if not (isinstance(r, numbers.Real) and math.isfinite(r) and r >= 0):",
        ["tests/test_fiber.py::TestSphereFiber"],
    ),
    (
        "circulance-bound-1e-6",
        "cli.py",
        "    if off > 1e-12 * scale:",
        "    if off > 1e-6 * scale:",
        ["tests/test_fiber.py"],
    ),
    (
        "intertwining-tolerance-1e-3",
        "cli.py",
        '        _timed(report, name, {"n": n}, 1e-12, intertwining)',
        '        _timed(report, name, {"n": n}, 1e-3, intertwining)',
        ["tests/test_config_cli.py", "tests/test_acceptance.py"],
    ),
    (
        "stereographic-pole-guard-zero",
        "fiber.py",
        "        if abs(denom) <= 1e-12 * lam:",
        "        if abs(denom) <= 0:",
        ["tests/test_fiber.py"],
    ),
]


def occurrences(old: str) -> int:
    """How often `old` occurs in the package source, over all its modules."""
    return sum(p.read_text().count(old) for p in sorted(PACKAGE.glob("*.py")))


def _copy_checkout(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", ".bench_out")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        elif src.exists():
            shutil.copy2(src, dest / name)


def _limit_memory() -> None:
    # a mutant that breaks a loop's termination grows without bound; it then
    # fails its test with MemoryError instead of filling the host
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def run_mutant(name, file, old, new, tests) -> str:
    with tempfile.TemporaryDirectory(prefix="weylred-mutant-") as tmp:
        copy = Path(tmp)
        _copy_checkout(copy)
        target = copy / "src" / "weylred" / file
        text = target.read_text()
        if text.count(old) != 1:
            return "error"
        target.write_text(text.replace(old, new))
        # a fixed hypothesis seed, so a mutant that only property tests catch is caught every run
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        cmd += tests
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the copy's src/ only
        try:
            done = subprocess.run(
                cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
                preexec_fn=_limit_memory,
            )
        except subprocess.TimeoutExpired:
            return "timeout"
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main() -> int:
    rows = [
        (name, file, run_mutant(name, file, old, new, tests), " ".join(tests))
        for name, file, old, new, tests in sorted(MUTANTS)
    ]
    width = max(len(r[0]) for r in rows)
    print(f"{'mutant'.ljust(width)}  {'file':<12} {'outcome':<9} tests")
    for n, f, o, t in rows:
        print(f"{n.ljust(width)}  {f:<12} {o:<9} {t}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
