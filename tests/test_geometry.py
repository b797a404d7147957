import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ellipe

from weylred.fiber import FiberFunction, fiber_JX_apply
from weylred.geometry import (
    MalformedFiber,
    NotTangent,
    OffLevel,
    ParametrizationUnavailable,
    ScalarHamiltonian,
    SingularPoint,
    SphereFiber,
    ambient_JY_apply,
    circle_level_set,
    gauss_legendre,
    gram_matrix,
    half_line_rule,
    implicit_curve_level_set,
    induced_divergence,
    intrinsic_divergence_fd,
    jacobian_wedge_norm,
    line_level_set,
    radial_hamiltonian,
    rho,
    sphere2_level_set,
    tangency_residual,
    TestFunction,
)
from weylred.symbols import (
    PolySymbol,
    VectorField,
    rotation_generator,
)


def x(a, n=2):
    return PolySymbol.x(a, n)


@pytest.fixture(scope="module")
def half_r2():
    return radial_hamiltonian(2)


@pytest.fixture(scope="module")
def half_r3():
    return radial_hamiltonian(3)


@pytest.fixture(scope="module")
def ellipse():
    # phi = (x1^2 + 2 x2^2)/2
    phi = (x(0) * x(0) + 2 * (x(1) * x(1))) * Fraction(1, 2)
    return ScalarHamiltonian(phi)


class TestScalarHamiltonian:
    def test_gradient_and_hessian(self, ellipse):
        assert np.allclose(ellipse.grad([3.0, -1.0]), [3.0, -2.0])
        assert np.allclose(ellipse.hess([0.4, 0.9]), [[1.0, 0.0], [0.0, 2.0]])

    def test_xi_dependence_rejected(self):
        with pytest.raises(ValueError):
            ScalarHamiltonian(PolySymbol.xi(0, 2))

    def test_hbar_dependence_rejected(self):
        with pytest.raises(ValueError):
            ScalarHamiltonian(PolySymbol.hbar(2))


class TestWedgeNormAndDensity:
    def test_radial_345(self, half_r2):
        # [DERIVED] |grad(|x|^2/2)| at (3,4) is 5
        assert jacobian_wedge_norm(half_r2, [3.0, 4.0]) == pytest.approx(5.0)
        assert rho(half_r2, [3.0, 4.0]) == pytest.approx(0.2)

    def test_k2_gram(self, half_r3):
        # [DERIVED] det Gram((1,2,3),(0,0,1)) = 14 - 9 = 5
        linear = ScalarHamiltonian(PolySymbol.x(2, 3))
        w = jacobian_wedge_norm([half_r3, linear], [1.0, 2.0, 3.0])
        assert w == pytest.approx(math.sqrt(5.0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_hamiltonian_is_the_gram_determinant(self, n):
        # k = 1 takes |grad phi| directly; the Gram determinant is its oracle
        xs = [PolySymbol.x(a, n) for a in range(n)]
        phi = ScalarHamiltonian(
            xs[0] * xs[0] + 3 * (xs[1] * xs[1]) - xs[0] * xs[-1] + xs[1] * Fraction(1, 2)
        )
        pts = np.random.default_rng(n).normal(size=(200, n))
        w = jacobian_wedge_norm(phi, pts)
        oracle = np.sqrt(np.linalg.det(gram_matrix([phi], pts)))
        assert np.max(np.abs(w - oracle) / oracle) <= 1e-15
        assert jacobian_wedge_norm(phi, pts[0]) == w[0]

    def test_singular_origin(self, half_r2):
        with pytest.raises(SingularPoint):
            rho(half_r2, [0.0, 0.0])

    def test_parallel_gradients_singular(self, half_r2):
        with pytest.raises(SingularPoint):
            rho([half_r2, half_r2], [1.0, 1.0])


class TestTangency:
    def test_rotation_tangent(self, half_r2):
        Y = rotation_generator(0, 1, 2)
        assert tangency_residual(Y, half_r2, [1.3, -0.4]) < 1e-14

    def test_radial_not_tangent(self, half_r2):
        Y = VectorField(2, (x(0), x(1)))
        assert tangency_residual(Y, half_r2, [1.0, 2.0]) == pytest.approx(5.0)


class TestAmbientJY:
    def test_linear_test_function(self):
        Y = rotation_generator(0, 1, 2)  # (-x2, x1), divergence 0
        u = TestFunction(value=lambda p: p[0], gradient=lambda p: np.array([1.0, 0.0]))
        hbar = 0.5
        val = ambient_JY_apply(Y, u, hbar, [1.0, 2.0])
        assert val == pytest.approx(-1j * hbar * (-2.0))

    def test_divergence_term(self):
        # Y = (x1, 0): div = 1, so on u=1 the operator gives -i hbar / 2
        Y = VectorField(2, (x(0), PolySymbol.zero(2)))
        u = TestFunction(value=lambda p: 1.0, gradient=lambda p: np.zeros(2))
        assert ambient_JY_apply(Y, u, 1.0, [0.7, 0.1]) == pytest.approx(-0.5j)

    def test_gradient_checker(self):
        u = TestFunction(
            value=lambda p: math.exp(-0.5 * float(p @ p)),
            gradient=lambda p: -p * math.exp(-0.5 * float(p @ p)),
        )
        probes = np.array([[0.3, -1.1], [1.0, 0.5]])
        assert u.check_gradient(probes) < 1e-7


class TestInducedDivergence:
    def test_rotation_on_circles(self, half_r2):
        Y = rotation_generator(0, 1, 2)
        assert induced_divergence(Y, half_r2, [0.8, 1.1]) == pytest.approx(0.0, abs=1e-14)

    def test_radial_field_rejected(self, half_r2):
        Y = VectorField(2, (x(0), x(1)))
        with pytest.raises(NotTangent):
            induced_divergence(Y, half_r2, [1.0, 0.0])

    def test_ellipse_closed_form(self, ellipse):
        # [DERIVED] Y = (-2 x2, x1) has div Y = 0; Hessian correction gives
        # 2 z1 z2 / (z1^2 + 4 z2^2)
        Y = VectorField(2, (-2 * x(1), x(0)))
        z = np.array([1.2, 0.7])
        expected = 2 * z[0] * z[1] / (z[0] ** 2 + 4 * z[1] ** 2)
        assert induced_divergence(Y, ellipse, z) == pytest.approx(expected, rel=1e-12)

    def test_ellipse_vs_fd_oracle(self, ellipse):
        Y = VectorField(2, (-2 * x(1), x(0)))
        lam = ellipse.value([1.2, 0.7])
        model = implicit_curve_level_set(ellipse, lam, n_nodes=128)
        for idx in (0, 17, 50, 99):
            z = model.nodes[idx]
            closed = induced_divergence(Y, ellipse, z)
            fd = intrinsic_divergence_fd(Y, model, z)
            assert fd == pytest.approx(closed, rel=1e-5, abs=1e-7)

    def test_sphere_nontrivial_field_vs_fd(self, half_r3):
        # Y = x1 * (rotation about e3) is tangent to every sphere
        rot = rotation_generator(0, 1, 3)
        Y = VectorField(3, tuple(PolySymbol.x(0, 3) * c for c in rot.components))
        model = sphere2_level_set(half_r3, 2.0, n_polar=12, n_azimuth=24)
        for idx in (3, 71, 140, 250):
            z = model.nodes[idx]
            closed = induced_divergence(Y, half_r3, z)
            fd = intrinsic_divergence_fd(Y, model, z)
            assert fd == pytest.approx(closed, rel=1e-5, abs=1e-7)

    def test_circle_nontrivial_field_vs_fd(self, half_r2):
        # Y = x1 * rotation is tangent to every circle, with div Y = -x2
        rot = rotation_generator(0, 1, 2)
        Y = VectorField(2, tuple(x(0) * c for c in rot.components))
        model = circle_level_set(half_r2, 2.0, n_nodes=64)
        for idx in (0, 5, 21, 40):
            z = model.nodes[idx]
            closed = induced_divergence(Y, half_r2, z)
            fd = intrinsic_divergence_fd(Y, model, z)
            assert fd == pytest.approx(closed, rel=1e-5, abs=1e-7)
        with pytest.raises(ParametrizationUnavailable, match="not a fiber node"):
            intrinsic_divergence_fd(Y, model, 1.01 * model.nodes[3])

    def test_k2_joint_level(self, half_r3):
        # circles of fixed height on the sphere; axial rotation is
        # divergence-free for the induced measure
        height = ScalarHamiltonian(PolySymbol.x(2, 3))
        Y = rotation_generator(0, 1, 3)
        z = np.array([0.6, 0.8, 0.5])
        val = induced_divergence(Y, [half_r3, height], z)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_k2_gram_correction_matches_k1(self, ellipse):
        # [DERIVED] the joint levels of phi = (x1^2 + 2 x2^2)/2 and x3 are
        # ellipses at fixed height; the Gram-determinant route for k = 2 must
        # give the k = 1 Hessian value of the plane ellipse, which is
        # 2 z1 z2 / (z1^2 + 4 z2^2) for Y = (-2 x2, x1, 0)
        cylinder = ScalarHamiltonian((x(0, 3) * x(0, 3) + 2 * (x(1, 3) * x(1, 3))) * Fraction(1, 2))
        height = ScalarHamiltonian(x(2, 3))
        Y = VectorField(3, (-2 * x(1, 3), x(0, 3), PolySymbol.zero(3)))
        Y2 = VectorField(2, (-2 * x(1), x(0)))
        rng = np.random.default_rng(31)
        pts = rng.uniform(-2.0, 2.0, size=(50, 3))
        for q in pts:
            p = q[:2]
            val = induced_divergence(Y, [cylinder, height], q)
            assert val == pytest.approx(induced_divergence(Y2, ellipse, p), rel=1e-12, abs=1e-15)
            assert val == pytest.approx(2 * p[0] * p[1] / (p[0] ** 2 + 4 * p[1] ** 2), rel=1e-12)
        batch = induced_divergence(Y, [cylinder, height], pts)
        assert np.max(np.abs(batch)) > 0.1


class TestLevelSetModels:
    def test_circle_volume_and_density(self, half_r2):
        model = circle_level_set(half_r2, 2.0, n_nodes=64)
        assert isinstance(model, SphereFiber) and model.ambient_dim == 2
        assert model.radius == pytest.approx(2.0)
        assert model.weights.sum() == pytest.approx(2 * math.pi * 2.0)
        assert np.allclose(rho([half_r2], model.nodes), 0.5)

    def test_sphere_volume(self, half_r3):
        model = sphere2_level_set(half_r3, 2.0)
        assert isinstance(model, SphereFiber) and model.ambient_dim == 3
        assert model.weights.sum() == pytest.approx(4 * math.pi * 4.0, rel=1e-12)

    def test_ellipse_circumference(self, ellipse):
        # [DERIVED] semi-axes sqrt(2 lam), sqrt(lam); C = 4 a E(1/2)
        lam = 1.0
        model = implicit_curve_level_set(ellipse, lam, n_nodes=256)
        a = math.sqrt(2 * lam)
        assert model.weights.sum() == pytest.approx(4 * a * ellipe(0.5), rel=1e-10)

    def test_implicit_nodes_on_level(self, ellipse):
        model = implicit_curve_level_set(ellipse, 0.7, n_nodes=64)
        for z in model.nodes[::7]:
            assert ellipse.value(z) == pytest.approx(0.7, abs=1e-12)

    def test_line_model(self):
        phi = ScalarHamiltonian(x(0) + 2 * x(1))
        model = line_level_set(phi, 3.0, box=5.0, n_nodes=128)
        assert model.weights.sum() == pytest.approx(10.0)
        assert np.allclose(rho([phi], model.nodes), 1 / math.sqrt(5.0))
        for z in model.nodes[::16]:
            assert phi.value(z) == pytest.approx(3.0, abs=1e-12)

    def test_off_level_node_rejected(self, ellipse):
        # the radial constructors scale a unit grid to the Newton radius on
        # the first axis; a non-radial phi leaves the other nodes off the level
        with pytest.raises(ValueError, match=r"node \d+ .* off the level set"):
            circle_level_set(ellipse, 2.0, n_nodes=16)
        ellipsoid = ScalarHamiltonian(
            PolySymbol.x(0, 3) ** 2 + 2 * PolySymbol.x(1, 3) ** 2 + PolySymbol.x(2, 3) ** 2
        )
        with pytest.raises(ValueError, match=r"node \d+ .* off the level set"):
            sphere2_level_set(ellipsoid, 2.0, n_polar=6, n_azimuth=12)

    def test_zero_level_singular_for_sphere_and_implicit_curve(self, half_r3, ellipse):
        with pytest.raises(SingularPoint, match="radial derivative"):
            sphere2_level_set(half_r3, 0.0, n_polar=6, n_azimuth=12)
        with pytest.raises(SingularPoint, match="radial derivative"):
            implicit_curve_level_set(ellipse, 0.0, n_nodes=16)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_given_radius_must_be_positive_and_finite(self, half_r2, half_r3, radius):
        with pytest.raises(ValueError, match="not a positive finite number"):
            circle_level_set(half_r2, 2.0, 16, radius=radius)
        with pytest.raises(ValueError, match="not a positive finite number"):
            sphere2_level_set(half_r3, 2.0, 6, 12, radius=radius)

    def test_given_radius_keeps_the_level_and_regularity_checks(self, half_r2, half_r3):
        assert circle_level_set(half_r2, 2.0, 16, radius=2.0).radius == 2.0
        with pytest.raises(ValueError, match=r"node \d+ .* off the level set"):
            circle_level_set(half_r2, 2.0, 16, radius=2.5)
        with pytest.raises(ValueError, match=r"node \d+ .* off the level set"):
            sphere2_level_set(half_r3, 2.0, 6, 12, radius=1.5)
        with pytest.raises(SingularPoint, match="radial derivative"):
            circle_level_set(half_r2, 5e-21, 16, radius=1e-10)

    def test_zero_level_circle_singular(self, half_r2):
        with pytest.raises(SingularPoint):
            circle_level_set(half_r2, 0.0)


class TestGuardThresholds:
    """Each guard fires at 10x its threshold and passes at 0.1x.

    The thresholds are written out (NODE_TOL = 1e-9 relative to 1 + |lam|,
    TANGENCY_TOL = 1e-8, REGULARITY_THRESHOLD = 1e-8) rather than read from
    the module, so raising a constant cannot scale the inputs along with it.
    """

    @pytest.mark.parametrize("r, fires", [(1e-7, False), (1e-9, True)])
    def test_regularity_threshold(self, r, fires):
        # |grad |x|^2/2| = r at r e_1: the wedge norm sits 10x above or 0.1x below 1e-8
        h = radial_hamiltonian(2)
        if fires:
            with pytest.raises(SingularPoint, match="wedge norm 1.000e-09 below threshold"):
                rho(h, [r, 0.0])
            with pytest.raises(SingularPoint, match="radial derivative 1.000e-09 below threshold"):
                circle_level_set(h, r * r / 2, 16, radius=r)
        else:
            assert rho(h, [r, 0.0]) == pytest.approx(1 / r, rel=1e-12)
            assert circle_level_set(h, r * r / 2, 16, radius=r).radius == r

    @pytest.mark.parametrize("factor, fires", [(10.0, True), (0.1, False)])
    def test_node_level_tolerance(self, half_r2, half_r3, factor, fires):
        # every node of the radius-2 fiber has phi = 2 up to rounding; the level
        # sits factor x 1e-9 x (1 + |lam|) below it
        lam = 2.0 - factor * 1e-9 * 3.0
        builds = (
            lambda: circle_level_set(half_r2, lam, 16, radius=2.0),
            lambda: sphere2_level_set(half_r3, lam, 6, 12, radius=2.0),
        )
        for build in builds:
            if fires:
                with pytest.raises(OffLevel, match=r"node \d+ .* off the level set"):
                    build()
            else:
                assert build().radius == 2.0

    @staticmethod
    def _leaky_rotation(eps: Fraction) -> VectorField:
        # the rotation plus eps times the Euler field: <Y, grad |x|^2/2> = eps |x|^2
        return VectorField(2, (-x(1) + x(0) * eps, x(0) + x(1) * eps))

    @pytest.mark.parametrize(
        "eps, fires", [(Fraction(1, 10**7), True), (Fraction(1, 10**9), False)]
    )
    def test_tangency_tolerance(self, half_r2, eps, fires):
        Y = self._leaky_rotation(eps)
        fiber = SphereFiber.circle(1.0, 16)
        u = FiberFunction(fiber, np.cos(fiber.thetas) + 0j)
        if fires:
            with pytest.raises(NotTangent, match="not tangent"):
                induced_divergence(Y, [half_r2], fiber.nodes)
            with pytest.raises(NotTangent, match="not tangent"):
                fiber_JX_apply(Y, 1.0, u)
        else:
            assert np.all(np.isfinite(induced_divergence(Y, [half_r2], fiber.nodes)))
            assert np.all(np.isfinite(fiber_JX_apply(Y, 1.0, u).values))

    # SphereFiber's own guards: on-sphere 1e-12 max(1, r), weight sum 1e-10 of
    # the volume, circle angles 1e-12 and circle nodes 1e-12 r from uniform
    FACTORS = pytest.mark.parametrize("factor, fires", [(10.0, True), (0.1, False)])

    @staticmethod
    def _check(build, fires, message):
        if fires:
            with pytest.raises(MalformedFiber, match=message):
                build()
        else:
            build()

    @FACTORS
    @pytest.mark.parametrize("r", [0.5, 3.0])
    def test_on_sphere_threshold(self, r, factor, fires):
        # one node of a 2-sphere moved out along its ray by factor x 1e-12 max(1, r)
        fiber = SphereFiber.sphere(r, 6, 12)
        nodes = fiber.nodes.copy()
        nodes[5] *= 1 + factor * 1e-12 * max(1.0, r) / r
        self._check(lambda: replace(fiber, nodes=nodes), fires, "off the sphere")

    @FACTORS
    @pytest.mark.parametrize("build", [lambda: SphereFiber.circle(2.0, 16), lambda: SphereFiber.sphere(2.0, 6, 12)])
    def test_weight_sum_threshold(self, build, factor, fires):
        fiber = build()
        weights = fiber.weights * (1 + factor * 1e-10)
        self._check(lambda: replace(fiber, weights=weights), fires, "do not reproduce the volume")

    @FACTORS
    def test_uniform_angle_threshold(self, factor, fires):
        fiber = SphereFiber.circle(2.0, 16)
        thetas = fiber.thetas.copy()
        thetas[3] += factor * 1e-12
        self._check(lambda: replace(fiber, thetas=thetas), fires, "circle nodes must be")

    @FACTORS
    def test_uniform_node_threshold(self, factor, fires):
        # a circle node moved along the circle's tangent by factor x 1e-12 r:
        # it stays on the sphere to ~1e-23, but leaves the uniform grid
        r = 2.0
        fiber = SphereFiber.circle(r, 16)
        nodes = fiber.nodes.copy()
        t = fiber.thetas[3]
        nodes[3] += factor * 1e-12 * r * np.array([-math.sin(t), math.cos(t)])
        self._check(lambda: replace(fiber, nodes=nodes), fires, "circle nodes must be")


class TestHalfLineRule:
    @pytest.mark.parametrize("scale", [1.0, 3.0])
    @pytest.mark.parametrize(
        "f, exact",
        [(lambda r: np.exp(-r), 1.0), (lambda r: 1.0 / (1.0 + r) ** 2, 1.0)],
        ids=["exp", "inverse-square"],
    )
    def test_integrates_decaying_functions(self, f, exact, scale):
        nodes, weights = half_line_rule(64, scale)
        assert abs(weights @ f(nodes) - exact) <= 1e-13

    def test_maps_the_gauss_rule(self):
        t, w = gauss_legendre(16)
        nodes, weights = half_line_rule(16, 2.0)
        assert np.array_equal(nodes, 2.0 * (1 + t) / (1 - t))
        assert np.array_equal(weights, 4.0 / (1 - t) ** 2 * w)
        assert np.all(nodes > 0) and np.all(weights > 0)

    def test_shared_arrays_are_read_only(self):
        nodes, weights = half_line_rule(16, 1.0)
        assert half_line_rule(16, 1.0)[0] is nodes
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.0
