import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylred.dint import (
    DirectIntegralSection,
    EmptyRange,
    LambdaGrid,
    SingularLevel,
    UnsupportedRange,
    ambient_integral,
    apply_Tx,
    apply_Txi,
    assemble_Opd,
    build_grid,
    coarea_check,
    gaussian_poly_suite,
    slice_integrals,
    strong_commutation_check,
)
from weylred import dint, geometry, symbols
from weylred.fiber import FiberFunction, StereographicPole, fiber_JX_apply
from weylred.geometry import (
    NotTangent,
    ScalarHamiltonian,
    SingularPoint,
    SphereFiber,
    TestFunction,
    radial_hamiltonian,
)
from weylred.symbols import PolySymbol, VectorField, rotation_generator

from oracles import check_gradient, multiplication_op


def x(a, n=2):
    return PolySymbol.x(a, n)


def sq(p):
    return np.sum(np.asarray(p) ** 2, axis=-1)


@pytest.fixture(scope="module")
def half_r2():
    return radial_hamiltonian(2)


@pytest.fixture(scope="module")
def big_grid(half_r2):
    # 200 x 256 radial grid reaching down to a tiny regular level so that
    # almost no Gaussian mass is lost near the origin
    return build_grid(half_r2, "circle", 5e-9, 18.0, 200, 256)


@pytest.fixture(scope="module")
def suite2():
    return gaussian_poly_suite(2)


class TestBuildGrid:
    def test_circle_grid_shape(self, half_r2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 64, 64)
        assert grid.n_lambda == 64
        assert all(isinstance(f, SphereFiber) and f.n_nodes == 64 for f in grid.fibers)
        radii = np.array([f.radius for f in grid.fibers])
        assert np.allclose(radii, np.sqrt(2 * grid.lambda_nodes), rtol=1e-14, atol=0)
        assert np.all(grid.lambda_nodes > 0.5 - 1e-12)
        assert np.all(grid.lambda_nodes < 2.0 + 1e-12)

    def test_singular_level(self, half_r2):
        with pytest.raises(SingularLevel):
            build_grid(half_r2, "circle", -0.5, 1.0, 8, 16)

    def test_empty_range(self, half_r2):
        with pytest.raises(EmptyRange):
            build_grid(half_r2, "circle", 2.0, 1.0)

    def test_line_fibers(self):
        phi = ScalarHamiltonian(x(0))
        grid = build_grid(phi, "line", -1.0, 1.0, 8, 64, box=5.0)
        assert grid.n_lambda == 8
        for f in grid.fibers:
            assert f.fiber_kind == "line"

    def test_unknown_kind(self, half_r2):
        with pytest.raises(ValueError):
            build_grid(half_r2, "torus", 0.5, 1.0)

    def test_sphere_grid_evaluates_per_fiber_not_per_node(self, monkeypatch):
        # scalar symbol evaluations and compiled-kernel runs may grow with
        # the lambda nodes, never with n_polar x n_azimuth
        calls = {"evaluate": 0, "kernel": 0}

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(PolySymbol, "evaluate", counting(PolySymbol.evaluate, "evaluate"))
        for module in (symbols, geometry):
            monkeypatch.setattr(
                module, "evaluate_compiled", counting(module.evaluate_compiled, "kernel")
            )
        h3 = radial_hamiltonian(3)
        counts = []
        for n_polar in (6, 12):
            calls.update(evaluate=0, kernel=0)
            build_grid(h3, "sphere2", 0.5, 4.0, 6, n_polar=n_polar, n_azimuth=2 * n_polar)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["kernel"] > 0


class TestRadialLevels:
    """Radial kinds scale one unit SphereFiber grid and check every node's level."""

    @staticmethod
    def _ellipsoid():
        x0, x1, x2 = (PolySymbol.x(a, 3) for a in range(3))
        return ScalarHamiltonian(x0 * x0 + 2 * (x1 * x1) + x2 * x2)

    def test_nonradial_sphere2_grid_names_the_off_level_node(self):
        # phi = lam on the first axis only: the sphere through that point
        # misses the level everywhere else
        with pytest.raises(ValueError, match=r"node \d+ \(.*\) off the level set: phi="):
            build_grid(self._ellipsoid(), "sphere2", 0.5, 2.0, 4, n_polar=6, n_azimuth=12)

    def test_fibers_share_one_unit_grid_per_size(self):
        geometry._build_unit_grid.cache_clear()
        h3 = radial_hamiltonian(3)
        grid = build_grid(h3, "sphere2", 0.5, 4.0, 6, n_polar=7, n_azimuth=14)
        build_grid(h3, "sphere2", 0.3, 2.0, 5, n_polar=7, n_azimuth=14)
        fibers = grid.fibers
        assert geometry._build_unit_grid.cache_info().misses == 1
        assert all(f.shape == (7, 14) and f.mu is fibers[0].mu for f in fibers)
        radii = np.array([f.radius for f in fibers])
        assert np.allclose(radii, np.sqrt(2 * grid.lambda_nodes), rtol=1e-14, atol=0)

    def test_sphere2_grid_fibers(self):
        grid = build_grid(radial_hamiltonian(3), "sphere2", 0.5, 2.0, 5, n_polar=6, n_azimuth=12)
        assert np.all((grid.lambda_nodes > 0.5) & (grid.lambda_nodes < 2.0))
        assert np.all(np.diff(grid.lambda_nodes) > 0)
        for lam, f, rho in zip(grid.lambda_nodes, grid.fibers, grid.rho):
            r = math.sqrt(2 * lam)
            assert isinstance(f, SphereFiber) and f.n_nodes == 72
            assert f.weights.sum() == pytest.approx(4 * math.pi * r * r, rel=1e-12)
            assert np.allclose(rho, 1 / r, rtol=1e-14, atol=0)

    @pytest.mark.parametrize(
        "kind, n, sizes",
        [("circle", 2, {"fiber_nodes": 16}), ("sphere2", 3, {"n_polar": 6, "n_azimuth": 12})],
    )
    def test_grid_solves_only_its_end_radii(self, monkeypatch, kind, n, sizes):
        # every fiber is built at its Gauss radius; Newton runs for r_lo and r_hi
        levels = []
        solve = geometry._radial_newton

        def counted(*args):
            levels.append(args[2])
            return solve(*args)

        monkeypatch.setattr(geometry, "_radial_newton", counted)
        monkeypatch.setattr(dint, "_radial_newton", counted)
        build_grid(radial_hamiltonian(n), kind, 0.5, 4.0, 6, **sizes)
        assert levels == [0.5, 4.0]

    @staticmethod
    def _double_well():
        # phi = (|x|^2/2 - 1)^2: every level in (0, 1) is two circles
        r2 = x(0) * x(0) + x(1) * x(1)
        well = r2 * Fraction(1, 2) - PolySymbol.one(2)
        return ScalarHamiltonian(well * well)

    @pytest.mark.parametrize("lam_lo, lam_hi", [(0.1, 3.0), (0.5, 0.9), (0.3, 3.0), (0.05, 0.5)])
    def test_nonmonotone_radial_phi_is_rejected(self, lam_lo, lam_hi):
        with pytest.raises(ValueError):
            build_grid(self._double_well(), "circle", lam_lo, lam_hi, 8, 16)

    def test_nonmonotone_ray_is_named(self):
        # a grid of the inner circles alone would pass every node's level check
        with pytest.raises(SingularLevel, match=r"phi\(r e_1\) is not certified monotone"):
            build_grid(self._double_well(), "circle", 0.5, 0.9, 8, 16)

    def test_grid_rejects_unknown_keywords(self, half_r2):
        with pytest.raises(TypeError, match="bxo"):
            build_grid(half_r2, "circle", 0.5, 2.0, 5, 16, n_polar=7, bxo=3)

def _scaled_square_norm(a: Fraction, n: int) -> ScalarHamiltonian:
    """phi = a |x|^2 on R^n, so phi(0) = 0."""
    square_norm = sum((PolySymbol.x(i, n) ** 2 for i in range(n)), PolySymbol.zero(n))
    return ScalarHamiltonian(square_norm * a)


class TestHalfLineGrid:
    """Radial grids over the whole spectrum (phi(0), inf) by the map r = L (1 + t)/(1 - t)."""

    @settings(max_examples=12, deadline=None)
    @given(
        a=st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=64),
        n=st.sampled_from([2, 3]),
    )
    def test_suite_norms_on_the_half_line(self, a, n):
        kind = "circle" if n == 2 else "sphere2"
        grid = build_grid(_scaled_square_norm(a, n), kind, 0.0, math.inf, 64, 256)
        for array in (grid.lambda_nodes, grid.lambda_weights, grid.weights, grid.rho):
            assert np.all(np.isfinite(array)) and np.all(array > 0)
        assert np.all(np.isfinite(grid.nodes))
        for u in gaussian_poly_suite(n):
            for apply in (apply_Tx, apply_Txi):
                assert abs(apply(u, grid).norm() ** 2 - u.analytic_l2_norm**2) < 1e-10

    def test_radii_follow_the_map(self, half_r2):
        t, _ = np.polynomial.legendre.leggauss(16)
        grid = build_grid(half_r2, "circle", 0.0, math.inf, 16, 8)
        radii = np.linalg.norm(grid.nodes[:, 0], axis=1)
        assert np.allclose(radii, dint.HALF_LINE_SCALE * (1 + t) / (1 - t), rtol=1e-14, atol=0)
        assert np.allclose(grid.lambda_nodes, radii**2 / 2, rtol=1e-14, atol=0)

    def test_lam_min_above_phi0_starts_at_its_radius(self, half_r2):
        grid = build_grid(half_r2, "circle", 0.5, math.inf, 32, 64)
        assert np.all(grid.lambda_nodes > 0.5) and np.all(np.diff(grid.lambda_nodes) > 0)
        u = gaussian_poly_suite(2)[0]  # exp(-r^2/2): the disc r < 1 carries pi (1 - e^-1) of |u|^2
        expected = u.analytic_l2_norm**2 - math.pi * (1 - math.exp(-1))
        assert apply_Tx(u, grid).norm() ** 2 == pytest.approx(expected, abs=1e-12)

    def test_lam_min_at_phi0_solves_no_low_radius(self, monkeypatch):
        # phi = |x|^2/2 + 1: phi(0) = 1 gives r_lo = 0, and Newton runs for r_hi only
        shifted = ScalarHamiltonian(radial_hamiltonian(2).phi + PolySymbol.one(2))
        levels = []
        solve = geometry._radial_newton

        def counted(*args):
            levels.append(args[2])
            return solve(*args)

        monkeypatch.setattr(dint, "_radial_newton", counted)
        grid = build_grid(shifted, "circle", 1.0, 3.0, 8, 16)
        assert levels == [3.0]
        assert np.all(grid.lambda_nodes > 1.0)
        build_grid(shifted, "circle", 1.0, math.inf, 8, 16)
        assert levels == [3.0]

    @pytest.mark.parametrize("lam_max", [2.0, math.inf])
    def test_lam_min_below_phi0_is_named(self, half_r2, lam_max):
        with pytest.raises(SingularLevel, match=r"no levels below phi\(0\)"):
            build_grid(half_r2, "circle", -1e-3, lam_max, 8, 16)
        shifted = ScalarHamiltonian(radial_hamiltonian(3).phi + PolySymbol.one(3))
        with pytest.raises(SingularLevel, match=r"no levels below phi\(0\) = 1.0"):
            build_grid(shifted, "sphere2", 0.5, lam_max, 4, n_polar=6, n_azimuth=12)

    def test_decreasing_ray_has_no_levels_up_to_inf(self):
        # phi = -|x|^2: its levels lie below phi(0) = 0, where a finite range still builds
        falling = _scaled_square_norm(Fraction(-1), 2)
        with pytest.raises(SingularLevel, match=r"no levels above phi\(0\)"):
            build_grid(falling, "circle", -4.0, math.inf, 8, 16)
        grid = build_grid(falling, "circle", -4.0, -1.0, 8, 16)
        assert np.all(grid.lambda_weights > 0) and np.all(grid.lambda_nodes < -1.0)

    @pytest.mark.parametrize(
        "kind, phi, lam_min, lam_max",
        [
            ("line", ScalarHamiltonian(x(0)), -1.0, math.inf),
            ("line", ScalarHamiltonian(x(0)), -math.inf, 1.0),
            ("implicit-curve", ScalarHamiltonian(x(0) * x(0) + 2 * x(1) * x(1)), 0.5, math.inf),
            ("circle", radial_hamiltonian(2), -math.inf, 1.0),
        ],
    )
    def test_infinite_end_without_a_map_is_named(self, kind, phi, lam_min, lam_max):
        with pytest.raises(UnsupportedRange, match="only the radial kinds map an infinite end"):
            build_grid(phi, kind, lam_min, lam_max, 4, 16)

    @pytest.mark.parametrize(
        "kind, n, lam_min, lam_max, sizes",
        [
            ("circle", 2, 5e-9, 18.0, {"fiber_nodes": 64}),
            ("circle", 2, 0.5, 2.0, {"fiber_nodes": 32}),
            ("sphere2", 3, 0.3, 6.0, {"n_polar": 6, "n_azimuth": 12}),
        ],
    )
    def test_finite_range_is_the_gauss_rule_in_r(self, kind, n, lam_min, lam_max, sizes):
        # the affine Gauss rule between the two Newton radii, bit for bit
        ham = radial_hamiltonian(n)
        grid = build_grid(ham, kind, lam_min, lam_max, 24, **sizes)
        t, wt = np.polynomial.legendre.leggauss(24)
        e1 = np.eye(n)[0]
        r_lo = geometry._radial_newton(ham, e1, lam_min, max(math.sqrt(abs(lam_min)), 1e-3))
        r_hi = geometry._radial_newton(ham, e1, lam_max, max(math.sqrt(abs(lam_max)), 1e-3))
        r = 0.5 * (r_hi - r_lo) * t + 0.5 * (r_hi + r_lo)
        lam = ham.value(r[:, None] * e1)
        unit = (
            SphereFiber.circle(1.0, sizes["fiber_nodes"])
            if n == 2
            else SphereFiber.sphere(1.0, sizes["n_polar"], sizes["n_azimuth"])
        )
        nodes = r[:, None, None] * unit.nodes
        assert np.array_equal(grid.lambda_nodes, lam)
        jac = ham.grad(r[:, None] * e1) @ e1
        assert np.array_equal(grid.lambda_weights, 0.5 * (r_hi - r_lo) * wt * jac)
        assert np.array_equal(grid.nodes, nodes)
        assert np.array_equal(grid.weights, r[:, None] ** (n - 1) * unit.weights)
        assert np.array_equal(grid.rho, geometry.rho([ham], nodes))


class TestStackedGrid:
    """A lambda-grid is one (L, N, n) node stack; fibers are built when read."""

    @staticmethod
    def _counting(calls, fn=None):
        def wrapper(p):
            calls.append(len(p))
            return np.exp(-sq(p)) if fn is None else fn(p)

        return wrapper

    def test_one_integrand_call_per_grid(self, half_r2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 6, 16)
        stack = 6 * 16
        for run in (
            lambda u: apply_Tx(u, grid),
            lambda u: apply_Txi(u, grid),
            lambda u: slice_integrals(u, grid),
        ):
            calls = []
            u = TestFunction(
                value=self._counting(calls), gradient=None, fourier=self._counting(calls)
            )
            run(u)
            assert calls == [stack]
        calls = []
        coarea_check(TestFunction(value=self._counting(calls), gradient=None), grid, n_r=8, n_ang=8)
        # one call for the ambient side, one for every fiber at once
        assert sorted(calls) == sorted([8 * 8, stack])

    @pytest.mark.parametrize(
        "kind, n, sizes, size",
        [
            ("circle", 2, {"fiber_nodes": 16}, 16),
            ("sphere2", 3, {"n_polar": 6, "n_azimuth": 12}, 72),
        ],
        ids=["circle", "sphere2"],
    )
    def test_radial_grid_checks_its_nodes_once_and_builds_fibers_on_read(
        self, monkeypatch, kind, n, sizes, size
    ):
        phi = radial_hamiltonian(n)
        rows, built = [], []
        value = ScalarHamiltonian.value
        post_init = SphereFiber.__post_init__

        def counted_value(self, x):
            rows.append(len(np.atleast_2d(x)))
            return value(self, x)

        def counted_post_init(self):
            built.append(self.radius)
            post_init(self)

        monkeypatch.setattr(ScalarHamiltonian, "value", counted_value)
        monkeypatch.setattr(SphereFiber, "__post_init__", counted_post_init)
        grid = build_grid(phi, kind, 0.5, 4.0, 6, **sizes)
        assert rows.count(6 * size) == 1  # the level check, on every node at once
        assert max(rows) == 6 * size and size not in rows  # and never per level
        assert built == []
        radii = [f.radius for f in grid.fibers]
        assert built == radii and len(radii) == 6
        assert grid.fibers is grid.fibers

    def test_ragged_fibers_are_named(self, half_r2):
        fibers = [geometry.circle_level_set(half_r2, lam, n) for lam, n in ((0.5, 16), (1.0, 32))]
        with pytest.raises(ValueError, match="level 1 has 32 fiber nodes and level 0 has 16"):
            LambdaGrid.from_fibers([half_r2], np.array([0.5, 1.0]), np.ones(2), fibers)

    def test_grid_arrays_must_share_one_stack_shape(self, half_r2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 4, 16)
        for bad in ({"rho": grid.rho[:, :15]}, {"nodes": grid.nodes[:3]}):
            with pytest.raises(ValueError, match="a lambda-grid of 4 levels needs"):
                replace(grid, **bad)

    def test_section_must_match_the_stack(self, half_r2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 4, 16)
        with pytest.raises(ValueError, match=r"parts of shape \(4, 15\) do not match"):
            DirectIntegralSection(grid, np.zeros((4, 15)))

    LEVELS = np.array([0.5, 1.0, 2.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_stack_radius_must_be_positive_and_finite(self, half_r2, bad):
        radii = np.sqrt(2 * self.LEVELS)
        radii[2] = bad
        with pytest.raises(ValueError, match=r"radius .* at level 2 \(lambda = 2.0\) is not a positive"):
            geometry.radial_fiber_stack(half_r2, self.LEVELS, radii, (16,))

    def test_stack_radius_off_its_level_names_level_and_node(self, half_r2):
        radii = np.sqrt(2 * self.LEVELS)
        radii[1] *= 1.01
        with pytest.raises(ValueError, match=r"node 0 \(.*, level 1\) off the level set: phi=.* vs 1.0"):
            geometry.radial_fiber_stack(half_r2, self.LEVELS, radii, (16,))
        # a non-radial phi is on its level on the first axis only
        x0, x1, x2 = (PolySymbol.x(a, 3) for a in range(3))
        ellipsoid = ScalarHamiltonian((x0 * x0 + 2 * (x1 * x1) + x2 * x2) * Fraction(1, 2))
        with pytest.raises(ValueError, match=r"node 1 \(.*, level 0\) off the level set"):
            build_grid(ellipsoid, "sphere2", 0.5, 2.0, 4, n_polar=6, n_azimuth=12)

    def test_stack_root_below_threshold_names_the_level(self, half_r2):
        levels = np.array([0.5, 5e-21, 2.0])
        radii = np.array([1.0, 1e-10, 2.0])
        with pytest.raises(
            geometry.SingularPoint,
            match=r"radial derivative 1.000e-10 below threshold at level 1 \(lambda = 5e-21",
        ):
            geometry.radial_fiber_stack(half_r2, levels, radii, (16,))

    def test_singular_node_of_a_stack_names_level_and_node(self, half_r2):
        stack = np.ones((3, 4, 2))
        stack[1, 3] = 0.0
        with pytest.raises(geometry.SingularPoint, match=r"at node 3 \(\[0. 0.\]\) of level 1"):
            geometry.rho([half_r2], stack)


class TestApplyTx:
    def test_unitarity_suite(self, big_grid, suite2):
        for u in suite2:
            s = apply_Tx(u, big_grid)
            assert abs(s.norm() ** 2 - u.analytic_l2_norm**2) < 1e-6

    def test_inner_products(self, big_grid, suite2):
        # <T u, T v> = <u, v>; the suite contains orthogonal pairs
        s0 = apply_Tx(suite2[0], big_grid)
        s1 = apply_Tx(suite2[1], big_grid)
        assert abs(s0.inner(s1)) < 1e-6  # odd x even
        # non-orthogonal pair: <gaussian, narrow-gaussian> = (2 pi/3)
        s2 = apply_Tx(suite2[2], big_grid)
        exact = (2 * math.pi / 3) ** (2 / 2)
        assert s0.inner(s2).real == pytest.approx(exact, abs=1e-6)

    def test_multiplication_intertwining(self, half_r2, suite2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 16, 64)
        u = suite2[0]
        phiu = TestFunction(
            value=lambda p: 0.5 * sq(p) * np.exp(-0.5 * sq(p)),
            gradient=u.gradient,
        )
        lhs = apply_Tx(phiu, grid)
        base = apply_Tx(u, grid)
        for lam, a, b in zip(grid.lambda_nodes, lhs.parts, base.parts):
            assert np.max(np.abs(a - lam * b)) < 1e-12

    def test_zero_function(self, half_r2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 4, 16)
        z = TestFunction(value=lambda p: np.zeros(len(np.atleast_2d(p))), gradient=lambda p: np.zeros(2))
        s = apply_Tx(z, grid)
        assert s.norm() == 0.0

    def test_scalar_only_callable_rejected(self, half_r2):
        # callables get the whole (L N, n) node stack once; a scalar-only one
        # is reported by the shape it returned, not looped over point by point
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 4, 16)
        shapes = []

        def scalar_only(p):
            shapes.append(np.shape(p))
            return math.exp(-0.5 * float(np.sum(np.square(p))))

        u = TestFunction(value=scalar_only, gradient=None)
        with pytest.raises(ValueError, match=r"returned shape \(\) for an array of 64 points"):
            apply_Tx(u, grid)
        assert shapes == [(64, 2)]


class TestCoarea:
    def test_slice_integrals_match_analytic_values(self, half_r2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 11, 64)
        u = TestFunction(value=lambda p: np.exp(-sq(p)), gradient=None)
        # the fiber side of the coarea identity: F(lam) = 2 pi sqrt(2 lam) e^{-2 lam}
        F = slice_integrals(u, grid)
        want = 2 * math.pi * np.sqrt(2 * grid.lambda_nodes) * np.exp(
            -2 * grid.lambda_nodes
        )
        assert np.max(np.abs(F - want)) < 1e-12

    def test_gaussian_value(self, big_grid, suite2):
        # [PAPER-ADJACENT DERIVED] both sides equal pi^{3/2}/2
        f = suite2[2]
        assert coarea_check(f, big_grid) < 1e-8
        lhs = ambient_integral(
            lambda pts: np.exp(-sq(pts)) * np.sqrt(sq(pts)), 2
        )
        assert lhs == pytest.approx(math.pi**1.5 / 2, abs=1e-12)

    def test_zero_function(self, half_r2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 8, 32)
        z = TestFunction(value=lambda p: np.zeros(len(np.atleast_2d(p))), gradient=None)
        assert coarea_check(z, grid) == 0.0

    def test_smoothed_annulus(self, half_r2):
        grid = build_grid(half_r2, "circle", 5e-9, 18.0, 100, 64)

        def annulus(pts):
            r2 = sq(pts)
            return np.exp(-4 * (r2 - 2.0) ** 2)

        f = TestFunction(value=annulus, gradient=None)
        assert coarea_check(f, grid) < 1e-6

    def test_refinement_monotone(self, half_r2, suite2):
        f = suite2[2]
        resids = []
        for nl, nf in ((3, 8), (6, 16), (12, 32), (24, 64)):
            grid = build_grid(half_r2, "circle", 5e-9, 18.0, nl, nf)
            resids.append(coarea_check(f, grid))
        assert all(a > b for a, b in zip(resids, resids[1:])), resids


class TestAmbientIntegralDefaults:
    """Integrands whose exact integral 0 only the default 96 x 64 rule gives."""

    def test_angular_default_resolves_every_mode_below_64(self):
        # the uniform rule of m angles integrates cos(k theta) to 2 pi, not 0,
        # whenever m divides k: with k = 1..63, every m < 64 does for k = m
        def modes(pts):
            theta = np.arctan2(pts[:, 1], pts[:, 0])
            return np.exp(-sq(pts)) * np.cos(np.outer(theta, np.arange(1, 64))).sum(axis=1)

        assert abs(ambient_integral(modes, 2)) < 1e-12
        assert abs(ambient_integral(modes, 2, n_ang=63)) > 1.0

    def test_radial_default_is_exact_to_degree_191(self):
        # Gauss-Legendre of n_r nodes on [0, 8] is exact for polynomials in r
        # of degree <= 2 n_r - 1; int P_190(r/4 - 1) r dr over [0, 8] is 0,
        # and the integrand has degree 191, so no n_r below 96 gives that 0
        def legendre_190(pts):
            return np.polynomial.legendre.legval(np.sqrt(sq(pts)) / 4 - 1, np.eye(191)[190])

        assert abs(ambient_integral(legendre_190, 2)) < 1e-10
        assert abs(ambient_integral(legendre_190, 2, n_r=95)) > 1.0
        assert abs(ambient_integral(legendre_190, 2, n_r=40)) > 1e-2


class TestApplyTxi:
    def test_gaussian_self_dual(self, half_r2, suite2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 8, 32)
        s_x = apply_Tx(suite2[0], grid)
        s_xi = apply_Txi(suite2[0], grid)
        for a, b in zip(s_x.parts, s_xi.parts):
            assert np.max(np.abs(a - b)) == 0.0

    def test_laplacian_intertwining(self, half_r2, suite2):
        # T_xi(-Delta u / 2)(lambda) = lambda T_xi u(lambda), exactly at
        # nodes for analytic-transform inputs
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 8, 32)
        u = suite2[0]
        minus_half_lap = TestFunction(
            value=u.value,
            gradient=None,
            fourier=lambda p: 0.5 * sq(p) * np.exp(-0.5 * sq(p)),
        )
        lhs = apply_Txi(minus_half_lap, grid)
        base = apply_Txi(u, grid)
        for lam, a, b in zip(grid.lambda_nodes, lhs.parts, base.parts):
            assert np.max(np.abs(a - lam * b)) < 1e-12

    def test_unitarity(self, big_grid, suite2):
        for u in suite2:
            s = apply_Txi(u, big_grid)
            assert abs(s.norm() ** 2 - u.analytic_l2_norm**2) < 1e-6

    def test_missing_fourier(self, half_r2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 4, 16)
        u = TestFunction(value=lambda p: np.exp(-sq(p)), gradient=None)
        with pytest.raises(ValueError):
            apply_Txi(u, grid)


class TestAssembleOpd:
    def test_multiplication_rule(self, half_r2, suite2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 8, 32)
        rule = lambda lam, fiber, hbar: multiplication_op(lambda z: z[:, 0], fiber)
        op = assemble_Opd(rule, grid, 1.0)
        s = apply_Tx(suite2[0], grid)
        out = op.apply(s)
        direct = apply_Tx(
            TestFunction(
                value=lambda p: np.asarray(p)[..., 0] * np.exp(-0.5 * sq(p)),
                gradient=None,
            ),
            grid,
        )
        for a, b in zip(out.parts, direct.parts):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_commutes_with_diagonal(self, half_r2, suite2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 8, 32)
        rule = lambda lam, fiber, hbar: multiplication_op(lambda z: z[:, 0] * z[:, 1], fiber)
        op = assemble_Opd(rule, grid, 1.0)
        s = apply_Tx(suite2[0], grid)
        b = np.sin(grid.lambda_nodes)

        def diag(sec):
            return DirectIntegralSection(
                grid, [bi * p for bi, p in zip(b, sec.parts)]
            )

        left = diag(op.apply(s))
        right = op.apply(diag(s))
        for a, c in zip(left.parts, right.parts):
            # equality up to reordering of the scalar multiplications
            assert np.max(np.abs(a - c)) < 1e-15

    def test_zero_rule(self, half_r2, suite2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 4, 16)
        rule = lambda lam, fiber, hbar: (lambda u: type(u)(u.fiber, 0 * u.values))
        op = assemble_Opd(rule, grid, 1.0)
        assert op.apply(apply_Tx(suite2[0], grid)).norm() == 0.0

    def test_rule_failure_names_lambda(self, half_r2):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 4, 16)

        def bad(lam, fiber, hbar):
            raise NotTangent("boom")

        with pytest.raises(NotTangent, match=r"lambda=.*: boom") as info:
            assemble_Opd(bad, grid, 1.0)
        assert f"lambda={grid.lambda_nodes[0]}" in str(info.value)

    @pytest.mark.parametrize("error", [SingularPoint, StereographicPole, SingularLevel])
    def test_named_errors_keep_their_type(self, half_r2, error):
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 4, 16)

        def bad(lam, fiber, hbar):
            if lam > grid.lambda_nodes[1]:
                raise error("boom")
            return lambda u: u

        with pytest.raises(error, match="boom") as info:
            assemble_Opd(bad, grid, 1.0)
        assert f"lambda={grid.lambda_nodes[2]}" in str(info.value)
        assert isinstance(info.value.__cause__, error)

    @pytest.mark.parametrize("error", [TypeError, KeyError, ValueError, ZeroDivisionError])
    def test_other_errors_pass_through_unchanged(self, half_r2, error):
        # a bug in the rule is not a failed level: it arrives as raised
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 4, 16)
        raised = error("boom")

        def bad(lam, fiber, hbar):
            raise raised

        with pytest.raises(error) as info:
            assemble_Opd(bad, grid, 1.0)
        assert info.value is raised and info.value.args == ("boom",)

    @pytest.mark.parametrize("error", [NotTangent, SingularPoint, ValueError, ZeroDivisionError])
    def test_apply_failure_names_lambda(self, half_r2, suite2, error):
        # the operators build, and level 2's raises while applied: a named
        # error keeps its type and gains that lambda, any other passes through
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 4, 16)
        raised = error("boom")

        def rule(lam, fiber, hbar):
            def op(u):
                if lam > grid.lambda_nodes[1]:
                    raise raised
                return u

            return op

        op = assemble_Opd(rule, grid, 1.0)
        with pytest.raises(error) as info:
            op.apply(apply_Tx(suite2[0], grid))
        if error.__module__.startswith("weylred."):
            assert str(info.value) == f"fiber operator failed at lambda={grid.lambda_nodes[2]}: boom"
            assert info.value.__cause__ is raised
        else:
            assert info.value is raised


class TestStrongCommutation:
    def test_circle_rotation(self, half_r2, suite2):
        grid = build_grid(half_r2, "circle", 0.3, 6.0, 16, 256)
        Y = rotation_generator(0, 1, 2)
        for u in (suite2[0], suite2[3]):
            assert strong_commutation_check(Y, u, 0.5, grid) < 1e-6

    def test_sphere_rotation(self):
        h3 = radial_hamiltonian(3)
        grid = build_grid(h3, "sphere2", 0.3, 6.0, 8, n_polar=20, n_azimuth=40)
        Y = rotation_generator(0, 1, 3)
        u = gaussian_poly_suite(3)[3]
        assert strong_commutation_check(Y, u, 0.5, grid) < 1e-6

    @pytest.mark.parametrize("n_polar", [10, 20, 40])
    def test_sphere_odd_azimuthal_modes(self, n_polar):
        # x1-gaussian has azimuthal modes +-1, which behave like
        # sqrt(1 - mu^2) near the poles; a tilted rotation must still
        # commute to the acceptance tolerance at every grid size
        h3 = radial_hamiltonian(3)
        grid = build_grid(
            h3, "sphere2", 0.3, 6.0, 8, n_polar=n_polar, n_azimuth=2 * n_polar
        )
        Y = rotation_generator(0, 2, 3)
        u = gaussian_poly_suite(3)[1]
        assert strong_commutation_check(Y, u, 0.5, grid) < 1e-6

    def test_ellipse_continuation_fibers(self, suite2):
        phi = ScalarHamiltonian((x(0) * x(0) + 2 * (x(1) * x(1))) * Fraction(1, 2))
        grid = build_grid(phi, "implicit-curve", 0.3, 5.0, 8, 256)
        Y = VectorField(2, (-2 * x(1), x(0)))
        assert strong_commutation_check(Y, suite2[3], 0.5, grid) < 1e-5

    def test_radial_field_rejected(self, half_r2, suite2):
        # raised while the decomposable operator applies J_Y on level 0: the
        # fiber's own error, re-raised as its type with that level's lambda
        grid = build_grid(half_r2, "circle", 0.5, 2.0, 4, 32)
        Y = VectorField(2, (x(0), x(1)))
        with pytest.raises(
            NotTangent, match=r"^fiber operator failed at lambda=\S+: field is not tangent to the fiber \(residual"
        ) as info:
            strong_commutation_check(Y, suite2[0], 1.0, grid)
        assert f"lambda={grid.lambda_nodes[0]}:" in str(info.value)

    def test_runs_through_the_decomposable_operator(self, monkeypatch, half_r2, suite2):
        # one assemble_Opd and one apply per check, and its residual is the
        # level-by-level loop of fiber_JX_apply, to the last bit
        grid = build_grid(half_r2, "circle", 0.3, 6.0, 8, 64)
        Y, u, hbar = rotation_generator(0, 1, 2), suite2[3], 0.5
        calls = []
        assemble, apply = dint.assemble_Opd, dint.DecomposableOperator.apply
        monkeypatch.setattr(
            dint, "assemble_Opd", lambda *a: calls.append("assemble") or assemble(*a)
        )
        monkeypatch.setattr(
            dint.DecomposableOperator, "apply", lambda *a: calls.append("apply") or apply(*a)
        )
        got = strong_commutation_check(Y, u, hbar, grid)
        assert calls == ["assemble", "apply"]
        tu = apply_Tx(u, grid)
        lhs = np.sqrt(grid.rho) * grid.on_nodes(
            lambda pts: geometry.ambient_JY_apply(Y, u, hbar, pts)
        )
        rhs = np.stack(
            [fiber_JX_apply(Y, hbar, FiberFunction(f, p)).values
             for f, p in zip(grid.fibers, tu.parts)]
        )
        want = np.max(np.sqrt(np.sum(grid.weights * np.abs(lhs - rhs) ** 2, axis=1)))
        assert got == want


class TestSuiteFactory:
    @pytest.mark.parametrize("n", [2, 3])
    def test_gradients(self, n):
        rng = np.random.default_rng(17)
        probes = rng.uniform(-1.5, 1.5, size=(4, n))
        for u in gaussian_poly_suite(n):
            assert check_gradient(u, probes) < 1e-6, u.name

    @pytest.mark.parametrize("n", [2, 3])
    def test_array_gradients_match_rows(self, n):
        rng = np.random.default_rng(23)
        pts = rng.uniform(-2.0, 2.0, size=(16, n))
        for u in gaussian_poly_suite(n):
            rows = np.stack([u.gradient(p) for p in pts])
            assert u.gradient(pts).shape == (16, n), u.name
            assert np.allclose(u.gradient(pts), rows, rtol=1e-14, atol=0), u.name
            assert u.value(pts).shape == (16,), u.name

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            gaussian_poly_suite(4)
