"""End-to-end acceptance gate for the whole package.

Each test pins one headline guarantee at its stated tolerance; the module
suites cover the fine-grained behaviour, this file covers the contracts.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from weylred.config import SuiteConfig
from weylred.cli import run_suite
from weylred.dint import (
    ambient_integral,
    apply_Tx,
    apply_Txi,
    build_grid,
    coarea_check,
    gaussian_poly_suite,
    slice_integrals,
    strong_commutation_check,
)
from weylred.fiber import (
    FiberFunction,
    SphereFiber,
    evolve_group,
    fiber_JX_matrix,
    stereo_charts,
)
from weylred.geometry import (
    ScalarHamiltonian,
    TestFunction,
    implicit_curve_level_set,
    induced_divergence,
    radial_hamiltonian,
    sphere2_level_set,
)
from weylred.moyal import (
    expand_power_in_star_basis,
    star_commutator,
)
from weylred.rational import QQi
from weylred.sweep import default_sweep_pair, semiclassical_sweep
from weylred.symbols import (
    PolySymbol,
    VectorField,
    angular_momentum,
    momentum_symbol,
    rotation_generator,
    xi_norm_squared,
)

from conftest import random_symbol, random_vector_field
from oracles import intrinsic_divergence_fd, quadratic_exactness_check

SEED = 20240817


def x(a, n=2):
    return PolySymbol.x(a, n)


def sq(p):
    return np.sum(np.asarray(p) ** 2, axis=-1)


# -- 1: exact star-basis expansion identities ---------------------------


def test_star_expansion_identities_exact_and_fast():
    t0 = time.perf_counter()
    for n in (2, 3):
        hbar2 = PolySymbol.hbar(n, 2)
        hbar4 = PolySymbol.hbar(n, 4)
        for i in range(n):
            for j in range(i + 1, n):
                f = angular_momentum(i, j, n)
                for m, want in (
                    (2, {2: PolySymbol.one(n), 0: hbar2 * Fraction(1, 2)}),
                    (3, {3: PolySymbol.one(n), 1: hbar2 * 2}),
                    (
                        4,
                        {
                            4: PolySymbol.one(n),
                            2: hbar2 * 5,
                            0: hbar4 * Fraction(3, 2),
                        },
                    ),
                ):
                    exp = expand_power_in_star_basis(f, m)
                    assert dict(exp.coefficients) == want  # exact, no tolerance
                    assert exp.residual().is_zero()
    assert time.perf_counter() - t0 < 5.0


# -- 2: exact commutation with the quadratic Casimir --------------------


def test_casimir_commutes_with_generator_powers():
    for n in (2, 3):
        casimir = xi_norm_squared(n)
        for i in range(n):
            for j in range(i + 1, n):
                f = angular_momentum(i, j, n)
                for m in range(1, 5):
                    assert star_commutator(casimir, f**m).is_zero()


def test_quadratic_exactness_on_random_symbols():
    import random

    rng = random.Random(SEED)
    for _ in range(100):
        n = rng.choice((2, 3))
        h = random_symbol(rng, n, 2)
        g = random_symbol(rng, n, 6)
        assert quadratic_exactness_check(h, g).is_zero()


# -- 3: momentum-map bracket table --------------------------------------


def test_momentum_bracket_table_on_random_fields():
    import random

    rng = random.Random(SEED)
    for _ in range(50):
        n = rng.choice((2, 3))
        X = random_vector_field(rng, n, 3)
        Y = random_vector_field(rng, n, 3)
        JX, JY = momentum_symbol(X), momentum_symbol(Y)
        JB = momentum_symbol(X.lie_bracket(Y))
        assert JX.poisson(JY) == JB
        assert star_commutator(JX, JY) == PolySymbol.hbar(n) * (QQi.i() * JB)


# -- 4: coarea identity and refinement ----------------------------------


def test_coarea_identity_on_radial_levels():
    target = math.pi ** 1.5 / 2
    half_r2 = radial_hamiltonian(2)
    f = gaussian_poly_suite(2)[2]  # exp(-|x|^2)
    grid = build_grid(half_r2, "circle", 5e-9, 18.0, 200, 256)

    ambient = ambient_integral(
        lambda p: np.asarray(f.value(p)) * np.sqrt(sq(p)), 2
    )
    fiberwise = float(
        np.sum(grid.lambda_weights * np.asarray(slice_integrals(f, grid)))
    )
    assert abs(ambient - target) < 1e-8
    assert abs(fiberwise - target) < 1e-8
    assert coarea_check(f, grid) < 1e-8


def test_coarea_residual_decreases_under_refinement():
    half_r2 = radial_hamiltonian(2)
    f = gaussian_poly_suite(2)[2]
    resids = [
        coarea_check(f, build_grid(half_r2, "circle", 5e-9, 18.0, nl, nf))
        for nl, nf in ((3, 8), (6, 16), (12, 32), (24, 64))
    ]
    assert all(a > b for a, b in zip(resids, resids[1:]))


# -- 5: unitarity of the position-side decomposition --------------------


@pytest.mark.parametrize("n,kind", [(2, "circle"), (3, "sphere2")])
def test_Tx_unitary_on_gaussian_suite(n, kind):
    grid = build_grid(
        radial_hamiltonian(n), kind, 5e-9, 18.0, 200, 256, n_polar=24, n_azimuth=48
    )
    for u in gaussian_poly_suite(n):
        s = apply_Tx(u, grid)
        assert abs(s.norm() ** 2 - u.analytic_l2_norm**2) < 1e-6, u.name


def test_Tx_multiplication_intertwining_at_nodes():
    half_r2 = radial_hamiltonian(2)
    grid = build_grid(half_r2, "circle", 0.5, 2.0, 8, 32)
    u = gaussian_poly_suite(2)[0]
    phiu = TestFunction(
        value=lambda p: 0.5 * sq(p) * np.exp(-0.5 * sq(p)), gradient=None
    )
    lhs, base = apply_Tx(phiu, grid), apply_Tx(u, grid)
    for lam, a, b in zip(grid.lambda_nodes, lhs.parts, base.parts):
        assert np.max(np.abs(a - lam * b)) < 1e-12


# -- 6: strong commutation of the decomposition with flows --------------


def test_strong_commutation_circle_rotation():
    grid = build_grid(radial_hamiltonian(2), "circle", 0.3, 6.0, 16, 256)
    Y = rotation_generator(0, 1, 2)
    suite = gaussian_poly_suite(2)
    for u in (suite[0], suite[3]):
        assert strong_commutation_check(Y, u, 0.5, grid) < 1e-6


def test_strong_commutation_sphere_rotation():
    grid = build_grid(
        radial_hamiltonian(3), "sphere2", 0.3, 6.0, 8, n_polar=20, n_azimuth=40
    )
    Y = rotation_generator(0, 1, 3)
    u = gaussian_poly_suite(3)[3]
    assert strong_commutation_check(Y, u, 0.5, grid) < 1e-6


def test_strong_commutation_elliptic_levels():
    phi = ScalarHamiltonian((x(0) * x(0) + 2 * (x(1) * x(1))) * Fraction(1, 2))
    grid = build_grid(phi, "implicit-curve", 0.3, 5.0, 8, 256)
    Y = VectorField(2, (-2 * x(1), x(0)))
    u = gaussian_poly_suite(2)[3]
    assert strong_commutation_check(Y, u, 0.5, grid) < 1e-5


# -- 7: induced divergence against the chart oracle ---------------------


def test_induced_divergence_matches_fd_oracle_on_100_nodes():
    checked = 0
    ellipse = ScalarHamiltonian((x(0) * x(0) + 2 * (x(1) * x(1))) * Fraction(1, 2))
    Y = VectorField(2, (-2 * x(1), x(0)))
    model = implicit_curve_level_set(ellipse, 1.3, n_nodes=64)
    for z in model.nodes:
        closed = induced_divergence(Y, ellipse, z)
        fd = intrinsic_divergence_fd(Y, model, z)
        assert fd == pytest.approx(closed, rel=1e-5, abs=1e-7)
        checked += 1

    half_r3 = radial_hamiltonian(3)
    rot = rotation_generator(0, 1, 3)
    Ys = VectorField(3, tuple(PolySymbol.x(0, 3) * c for c in rot.components))
    model3 = sphere2_level_set(half_r3, 2.0, n_polar=8, n_azimuth=16)
    for z in model3.nodes:
        closed = induced_divergence(Ys, half_r3, z)
        fd = intrinsic_divergence_fd(Ys, model3, z)
        assert fd == pytest.approx(closed, rel=1e-5, abs=1e-7)
        checked += 1
    assert checked >= 100


def test_radial_levels_preserve_ambient_divergence_exactly():
    # tangent fields on spheres: the induced divergence is the ambient one
    half_r2 = radial_hamiltonian(2)
    Y = rotation_generator(0, 1, 2)  # div Y = 0
    for z in ([0.8, 1.1], [2.0, 0.0], [-0.3, 0.4]):
        assert induced_divergence(Y, half_r2, z) == pytest.approx(0.0, abs=1e-14)


# -- 8: the chart density exponent, decided and recorded ----------------


def test_chart_density_reproduces_circumference():
    from scipy.integrate import quad

    for r in (1.0, 1.9):
        _, _, density = stereo_charts(np.array([r, 0.0]), r)
        total, _ = quad(lambda t: density([t]), -np.inf, np.inf)
        assert total == pytest.approx(2 * math.pi * r, abs=1e-8)


def test_density_decision_is_recorded_in_reports():
    report = run_suite(SuiteConfig(), "kernel")
    rec = {r.name: r for r in report.records}["metric-density-exponent"]
    assert rec.passed
    assert rec.params["decided"] == "(2*lam/(lam+|z|^2))^(n-1)"
    assert "rejected_variant" in rec.params


# -- 9: the evolution group against the matrix exponential --------------


def test_evolve_group_matches_expm_on_circle():
    fiber = SphereFiber.circle(1.0, 256)
    X = rotation_generator(0, 1, 2)
    u = FiberFunction(fiber, np.exp(np.sin(fiber.thetas)) + 0j)
    for hbar in (1.0, 0.1):
        G = fiber_JX_matrix(X, hbar, fiber).matrix
        for t in (0.7, math.pi, 2 * math.pi):
            P = expm((1j * t / hbar) * G)
            direct = evolve_group(X, t, hbar, u)
            assert np.max(np.abs(P @ u.values - direct.values)) < 1e-6


def test_evolve_group_full_period_return():
    fiber = SphereFiber.circle(1.0, 256)
    X = rotation_generator(0, 1, 2)
    u = FiberFunction(fiber, np.exp(np.sin(fiber.thetas)) + 0j)
    out = evolve_group(X, 2 * math.pi, 1.0, u)
    assert np.max(np.abs(out.values - u.values)) < 1e-8


# -- 10: semiclassical residual sweep -----------------------------------


def test_semiclassical_residuals_strictly_decrease():
    t0 = time.perf_counter()
    f, g = default_sweep_pair()
    fiber = SphereFiber.circle(1.0, 384)
    rows = semiclassical_sweep(f, g, [0.5, 0.25, 0.125, 0.0625], fiber)
    for key in ("product", "jordan", "commutator"):
        seq = [r[key] for r in rows]
        assert all(a > b for a, b in zip(seq, seq[1:])), key
    assert time.perf_counter() - t0 < 60.0


# -- 11: the momentum-side decomposition --------------------------------


def test_Txi_unitary_on_gaussian_suite():
    grid = build_grid(radial_hamiltonian(2), "circle", 5e-9, 18.0, 200, 256)
    for u in gaussian_poly_suite(2):
        s = apply_Txi(u, grid)
        assert abs(s.norm() ** 2 - u.analytic_l2_norm**2) < 1e-6, u.name


def test_Txi_intertwines_half_laplacian_at_nodes():
    half_r2 = radial_hamiltonian(2)
    grid = build_grid(half_r2, "circle", 0.5, 2.0, 8, 32)
    u = gaussian_poly_suite(2)[0]
    # -(1/2) Laplacian of u transforms into multiplication by |xi|^2/2
    lap = TestFunction(
        value=u.value,
        gradient=None,
        fourier=lambda p: 0.5 * sq(p) * np.exp(-0.5 * sq(p)),
    )
    lhs, base = apply_Txi(lap, grid), apply_Txi(u, grid)
    for lam, a, b in zip(grid.lambda_nodes, lhs.parts, base.parts):
        assert np.max(np.abs(a - lam * b)) < 1e-12
