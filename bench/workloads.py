"""The four benchmark workloads: seeded inputs, one pass each, and its checks.

Every workload is a pair ``setup(seed) -> inputs`` and ``run(inputs) ->
Checks``. ``setup`` builds only the seeded inputs and the oracles; ``run``
is one pass of program work and its correctness checks. Problem sizes are
constants here and do not depend on the seed. Program functions are called
through their module (``dint.build_grid``), the place the traced run wraps.

Each check compares against an oracle computed without the code it checks,
at the tolerance the repository's acceptance tests use for the same check.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from weylred import cli, dint, fiber, geometry, moyal, report, sweep, symbols
from weylred.config import SuiteConfig
from weylred.rational import QQi
from weylred.symbols import PolySymbol, VectorField

MARGIN_FLOOR = -16.0
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"  # run outputs, inside the checkout

# -- problem sizes (seed-independent) -----------------------------------

ALGEBRA_POWERS = {2: (2, 3, 4, 8), 3: (2, 3, 4, 7)}  # n -> expanded powers m
ALGEBRA_COMMUTATOR_POWERS = (1, 2, 3, 4)
ALGEBRA_BRACKET_PAIRS = 12
ALGEBRA_FIELD_DEGREE = 3

SPHERE_GRID = {"lam_min": 5e-9, "lam_max": 18.0, "n_lambda": 48, "n_polar": 24, "n_azimuth": 48}
SPHERE_COAREA = {"n_r": 64, "n_ang": 32}
SPHERE_SMALL_GRID = {"lam_min": 0.3, "lam_max": 6.0, "n_lambda": 8, "n_polar": 20, "n_azimuth": 40}
SPHERE_HBAR = 0.5

CIRCLE_KERNEL_NODES = (192, 384, 768)
CIRCLE_KERNEL_HBAR = 0.3
CIRCLE_EVOLVE_NODES = 256
CIRCLE_EVOLVE_TIME = 1.0
CIRCLE_EVOLVE_HBARS = (1.0, 0.1)
CIRCLE_SWEEP_NODES = 384
CIRCLE_SWEEP_HBARS = (0.5, 0.25, 0.125, 0.0625)

# acceptance-test tolerances for the same checks
TOL_UNITARITY = 1e-6
TOL_COAREA = 1e-8
TOL_COMMUTATION = 1e-6
TOL_HERMITIAN = 1e-10
TOL_PROPAGATOR = 1e-6


# -- check bookkeeping --------------------------------------------------


@dataclass
class Check:
    name: str
    passed: bool
    residual: float | None = None
    tolerance: float | None = None
    error: str | None = None

    @property
    def margin_log10(self) -> float | None:
        """log10(residual / tolerance), floored; None for non-numeric checks."""
        if self.residual is None or self.tolerance is None:
            return None
        if not math.isfinite(self.residual):
            return -MARGIN_FLOOR
        if self.residual <= 0.0:
            return MARGIN_FLOOR
        return max(MARGIN_FLOOR, math.log10(self.residual / self.tolerance))


class Checks(list):
    """The checks of one pass. A check that raises counts as failed."""

    def within(self, name, tolerance, residual_fn):
        try:
            residual = float(residual_fn())
        except Exception as exc:  # the pass must record the failure and go on
            self.append(Check(name, False, tolerance=tolerance, error=_describe(exc)))
            return
        self.append(Check(name, residual < tolerance, residual, tolerance))

    def exact(self, name, predicate):
        try:
            ok = bool(predicate())
        except Exception as exc:  # the pass must record the failure and go on
            self.append(Check(name, False, error=_describe(exc)))
            return
        self.append(Check(name, ok))

    def value(self, name, fn):
        """Run fn as a check that passes when it returns; give its result."""
        try:
            out = fn()
        except Exception as exc:  # the pass must record the failure and go on
            self.append(Check(name, False, error=_describe(exc)))
            return None
        self.append(Check(name, True))
        return out


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def worst_margin_log10(checks) -> float:
    margins = [c.margin_log10 for c in checks if c.margin_log10 is not None]
    return max(margins, default=MARGIN_FLOOR)


# -- algebra ------------------------------------------------------------


def _bi_mul(p, q):
    """Product of polynomials in (f, hbar) held as {(a, b): Fraction}."""
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _bi_add(p, q, scale=1):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + scale * v
    return {k: v for k, v in out.items() if v}


def _series_mul(s, t, order):
    out = [{} for _ in range(order + 1)]
    for i, si in enumerate(s):
        for j, tj in enumerate(t[: order + 1 - i]):
            out[i + j] = _bi_add(out[i + j], _bi_mul(si, tj))
    return out


def angular_star_powers(mmax):
    """f^{*k} = P_k(f, hbar), k <= mmax, for any angular momentum f = f_ij.

    Independent of ``moyal``: the Weyl symbol of exp(s L) for a rotation
    generator L gives the generating function
        sum_k s^k/k! f^{*k} = sech^2(hbar s/2) exp((2 f/hbar) tanh(hbar s/2)),
    expanded here in exact power series.
    """
    sinh = [Fraction(1, math.factorial(j)) if j % 2 else Fraction(0) for j in range(mmax + 1)]
    cosh = [Fraction(0) if j % 2 else Fraction(1, math.factorial(j)) for j in range(mmax + 1)]
    tanh = []
    for j in range(mmax + 1):
        tanh.append(sinh[j] - sum(tanh[i] * cosh[j - i] for i in range(j)))
    # with w = hbar s / 2: the s^j coefficients of (2f/hbar) tanh(w) and sech^2(w)
    exponent = [{(1, j - 1): 2 * tanh[j] / 2**j} if tanh[j] else {} for j in range(mmax + 1)]
    sech2 = []
    for j in range(mmax + 1):
        c = (1 if j == 0 else 0) - sum(tanh[i] * tanh[j - i] for i in range(j + 1))
        sech2.append({(0, j): c / 2**j} if c else {})
    exp_series = [{(0, 0): Fraction(1)}] + [{} for _ in range(mmax)]
    term = [{(0, 0): Fraction(1)}] + [{} for _ in range(mmax)]
    for r in range(1, mmax + 1):
        term = _series_mul(term, exponent, mmax)
        term = [{k: v / r for k, v in c.items()} for c in term]
        exp_series = [_bi_add(a, b) for a, b in zip(exp_series, term)]
    g = _series_mul(sech2, exp_series, mmax)
    return [{k: v * math.factorial(j) for k, v in g[j].items()} for j in range(mmax + 1)]


def angular_expansion(m, powers):
    """c_j(hbar) with f^m = sum_j c_j f^{*j}, by triangular elimination."""
    rest = {(m, 0): Fraction(1)}
    coeffs = {}
    for j in range(m, -1, -1):
        cj = {(0, b): v for (a, b), v in rest.items() if a == j}
        if cj:
            coeffs[j] = {b: v for (_, b), v in cj.items()}
            rest = _bi_add(rest, _bi_mul(cj, powers[j]), scale=-1)
    if rest:
        raise ArithmeticError("star powers do not span f^m")
    return coeffs


# acceptance-test coefficients of f^m in the star basis, m <= 4: {j: {hbar power: c}}
KNOWN_EXPANSIONS = {
    2: {2: {0: Fraction(1)}, 0: {2: Fraction(1, 2)}},
    3: {3: {0: Fraction(1)}, 1: {2: Fraction(2)}},
    4: {4: {0: Fraction(1)}, 2: {2: Fraction(5)}, 0: {4: Fraction(3, 2)}},
}


def _to_symbol(poly, f_powers, n):
    out = PolySymbol.zero(n)
    for (a, b), c in poly.items():
        out = out + f_powers[a] * PolySymbol.hbar(n, b) * c
    return out


def _hbar_poly(coeff, n):
    return _to_symbol({(0, b): c for b, c in coeff.items()}, [PolySymbol.one(n)], n)


def _random_field(rng, n, degree):
    """One term of each degree 0..degree per component, nonzero integer coefficients."""
    comps = []
    for _ in range(n):
        terms = {}
        for d in range(degree + 1):
            xe = [0] * n
            for _ in range(d):
                xe[rng.randrange(n)] += 1
            terms[(0, tuple(xe), (0,) * n)] = QQi(Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
        comps.append(PolySymbol(n, terms))
    return VectorField(n, tuple(comps))


def setup_algebra(seed):
    mmax = max(max(ms) for ms in ALGEBRA_POWERS.values())
    star = angular_star_powers(mmax)
    for m, known in KNOWN_EXPANSIONS.items():
        if angular_expansion(m, star) != known:
            raise ArithmeticError(f"generating-function oracle disagrees with the m={m} table")
    cases = []
    for n, ms in ALGEBRA_POWERS.items():
        for i in range(n):
            for j in range(i + 1, n):
                f = symbols.angular_momentum(i, j, n)
                f_powers = [PolySymbol.one(n)]
                for _ in range(max(ms)):
                    f_powers.append(f_powers[-1] * f)
                for m in ms:
                    want = KNOWN_EXPANSIONS.get(m) or angular_expansion(m, star)
                    cases.append(
                        {
                            "name": f"star-expansion-n{n}-f{i + 1}{j + 1}-m{m}",
                            "f": f,
                            "m": m,
                            "coefficients": {k: _hbar_poly(c, n) for k, c in want.items()},
                            "star_powers": [_to_symbol(star[k], f_powers, n) for k in range(m + 1)],
                        }
                    )
    rng = random.Random(seed)
    fields = [
        (_random_field(rng, 3, ALGEBRA_FIELD_DEGREE), _random_field(rng, 3, ALGEBRA_FIELD_DEGREE))
        for _ in range(ALGEBRA_BRACKET_PAIRS)
    ]
    brackets = [(X, Y, symbols.momentum_symbol(X.lie_bracket(Y))) for X, Y in fields]
    return {"cases": cases, "brackets": brackets}


def run_algebra(inp):
    ck = Checks()
    for case in inp["cases"]:

        def expansion(case=case):
            exp = moyal.expand_power_in_star_basis(case["f"], case["m"])
            return dict(exp.coefficients) == case["coefficients"] and exp.star_powers == case["star_powers"]

        ck.exact(case["name"], expansion)
    for n in ALGEBRA_POWERS:
        for i in range(n):
            for j in range(i + 1, n):

                def laplacian(i=i, j=j, n=n):
                    f = symbols.angular_momentum(i, j, n)
                    lap = symbols.xi_norm_squared(n)
                    return all(moyal.star_commutator(lap, f**m).is_zero() for m in ALGEBRA_COMMUTATOR_POWERS)

                ck.exact(f"laplacian-commutation-n{n}-f{i + 1}{j + 1}", laplacian)
    for k, (X, Y, JB) in enumerate(inp["brackets"]):

        def bracket(X=X, Y=Y, JB=JB):
            JX, JY = symbols.momentum_symbol(X), symbols.momentum_symbol(Y)
            return JX.poisson(JY) == JB and moyal.star_commutator(JX, JY) == PolySymbol.hbar(3) * (
                QQi.i() * JB
            )

        ck.exact(f"momentum-bracket-{k}", bracket)
    return ck


# -- sphere-dint ----------------------------------------------------------


def setup_sphere(seed):
    rng = random.Random(seed)
    coeffs = [rng.randint(-4, 4) for _ in range(3)]
    if not any(coeffs):
        coeffs[0] = 1
    top = max(abs(c) for c in coeffs)
    rotations = [symbols.rotation_generator(i, j, 3) for i, j in ((0, 1), (0, 2), (1, 2))]
    field = VectorField(
        3,
        tuple(
            sum((R.components[a] * Fraction(c, top) for R, c in zip(rotations, coeffs)), PolySymbol.zero(3))
            for a in range(3)
        ),
    )
    return {"hamiltonian": geometry.radial_hamiltonian(3), "field": field}


def run_sphere(inp):
    ck = Checks()
    ham = inp["hamiltonian"]
    g = SPHERE_GRID
    grid = ck.value(
        "sphere-grid",
        lambda: dint.build_grid(
            ham, "sphere2", g["lam_min"], g["lam_max"], g["n_lambda"], n_polar=g["n_polar"], n_azimuth=g["n_azimuth"]
        ),
    )
    suite = dint.gaussian_poly_suite(3)
    for u in suite:
        norm2 = u.analytic_l2_norm**2
        ck.within(f"unitarity-Tx-{u.name}", TOL_UNITARITY, lambda u=u, n2=norm2: abs(dint.apply_Tx(u, grid).norm() ** 2 - n2))
        ck.within(f"unitarity-Txi-{u.name}", TOL_UNITARITY, lambda u=u, n2=norm2: abs(dint.apply_Txi(u, grid).norm() ** 2 - n2))
    ck.within("coarea-narrow-gaussian", TOL_COAREA, lambda: dint.coarea_check(suite[2], grid, **SPHERE_COAREA))
    s = SPHERE_SMALL_GRID
    small = ck.value(
        "sphere-small-grid",
        lambda: dint.build_grid(
            ham, "sphere2", s["lam_min"], s["lam_max"], s["n_lambda"], n_polar=s["n_polar"], n_azimuth=s["n_azimuth"]
        ),
    )
    ck.within(
        "strong-commutation-rotation-mix",
        TOL_COMMUTATION,
        lambda: dint.strong_commutation_check(inp["field"], suite[3], SPHERE_HBAR, small),
    )
    return ck


# -- circle-fiber ---------------------------------------------------------


def setup_circle(seed):
    rng = random.Random(seed)
    c0, c1, c2 = rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    a, b = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
    bump = sweep.bump_profile(4.0)

    def fhat(m, v):
        m = np.asarray(m)
        return (c0 + c1 * m[..., 0] + c2 * m[..., 1]) * bump(np.linalg.norm(v, axis=-1))

    return {
        "symbol": fiber.PWSymbol(fhat=fhat, support_radius=4.0),
        "state": lambda thetas: np.exp(a * np.sin(thetas) + b * np.cos(thetas)) + 0j,
        "sweep_pair": sweep.default_sweep_pair(),
        "field": symbols.rotation_generator(0, 1, 2),
    }


def run_circle(inp):
    ck = Checks()
    for nodes in CIRCLE_KERNEL_NODES:

        def hermitian(nodes=nodes):
            fb = fiber.SphereFiber.circle(1.0, nodes)
            K = fiber.kernel_quantize(inp["symbol"], CIRCLE_KERNEL_HBAR, fb).kernel_matrix()
            return np.max(np.abs(K - K.conj().T))

        ck.within(f"kernel-hermitian-{nodes}", TOL_HERMITIAN, hermitian)
    X = inp["field"]
    for hbar in CIRCLE_EVOLVE_HBARS:

        def propagator(hbar=hbar):
            fb = fiber.SphereFiber.circle(1.0, CIRCLE_EVOLVE_NODES)
            u = fiber.FiberFunction(fb, inp["state"](fb.thetas))
            G = fiber.fiber_JX_matrix(X, hbar, fb).matrix
            P = expm((1j * CIRCLE_EVOLVE_TIME / hbar) * G)
            direct = fiber.evolve_group(X, CIRCLE_EVOLVE_TIME, hbar, u)
            return np.max(np.abs(P @ u.values - direct.values))

        ck.within(f"propagator-vs-expm-hbar-{hbar}", TOL_PROPAGATOR, propagator)

    def sweep_rows():
        fb = fiber.SphereFiber.circle(1.0, CIRCLE_SWEEP_NODES)
        u = fiber.FiberFunction(fb, inp["state"](fb.thetas))
        f, g = inp["sweep_pair"]
        return sweep.semiclassical_sweep(f, g, list(CIRCLE_SWEEP_HBARS), fb, u)

    rows = ck.value("semiclassical-sweep", sweep_rows)
    for key in ("product", "jordan", "commutator"):
        ck.exact(
            f"sweep-{key}-decreasing",
            lambda key=key: all(a[key] > b[key] for a, b in zip(rows, rows[1:])),
        )
    return ck


# -- verify-all -----------------------------------------------------------


def setup_verify(seed):
    return {"config": SuiteConfig(seed=seed), "out_dir": OUT_DIR / "verify-all"}


def run_verify(inp):
    ck = Checks()
    rep = ck.value("run-suite", lambda: cli.run_suite(inp["config"], "all"))
    if rep is not None:
        for rec in rep.records:
            ck.append(Check(f"suite:{rec.name}", rec.passed, rec.residual, rec.tolerance, rec.params.get("error")))
    paths = ck.value("emit-report", lambda: report.emit_report(rep, inp["out_dir"]))

    def report_verdict():
        payload = json.loads(Path(paths[0]).read_text())
        return payload["verdict"] == "pass" and len(payload["records"]) == len(rep.records)

    ck.exact("report-verdict-pass", report_verdict)
    return ck


# -- registry ---------------------------------------------------------------

SIZES = {
    "algebra": {
        "powers": {str(n): list(ms) for n, ms in ALGEBRA_POWERS.items()},
        "commutator_powers": list(ALGEBRA_COMMUTATOR_POWERS),
        "bracket_pairs": ALGEBRA_BRACKET_PAIRS,
        "field_dimension": 3,
        "field_degree": ALGEBRA_FIELD_DEGREE,
    },
    "sphere-dint": {
        "grid": SPHERE_GRID,
        "coarea": SPHERE_COAREA,
        "commutation_grid": SPHERE_SMALL_GRID,
        "test_functions": 5,
    },
    "circle-fiber": {
        "kernel_nodes": list(CIRCLE_KERNEL_NODES),
        "evolve_nodes": CIRCLE_EVOLVE_NODES,
        "evolve_hbars": list(CIRCLE_EVOLVE_HBARS),
        "sweep_nodes": CIRCLE_SWEEP_NODES,
        "sweep_hbars": list(CIRCLE_SWEEP_HBARS),
    },
    "verify-all": {"suite": "all", "config": "SuiteConfig() with the run's seed"},
}

WORKLOADS = {
    "algebra": (setup_algebra, run_algebra),
    "sphere-dint": (setup_sphere, run_sphere),
    "circle-fiber": (setup_circle, run_circle),
    "verify-all": (setup_verify, run_verify),
}
