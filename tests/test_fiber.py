import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from weylred.cli import NotCirculant, circulant_propagator, run_suite
from weylred.config import SuiteConfig
from weylred.fiber import (
    FiberFunction,
    FiberOperator,
    InvalidKernelInput,
    PWSymbol,
    PullBackUnavailable,
    SphereFiber,
    StereographicPole,
    _trig_interpolate,
    evolve_group,
    fiber_JX_apply,
    fiber_JX_matrix,
    kernel_quantize,
    stereo_charts,
)
from weylred import fiber as fiber_module
from weylred import geometry, symbols
from weylred.geometry import (
    InvalidSphereFiber,
    NotTangent,
    ScalarHamiltonian,
    half_line_rule,
    implicit_curve_level_set,
    line_level_set,
)
from weylred.sweep import default_sweep_pair
from weylred.symbols import PolySymbol, VectorField, rotation_generator

from oracles import (
    AntipodalPair,
    jx_from_gradients,
    midpoint_map,
    multiplication_op,
    pair_route,
    separable_fhat,
)


def bump(s, radius):
    t = np.asarray(s, dtype=float) / radius
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    out[inside] = np.exp(-1.0 / (1 - t[inside] ** 2))
    return out


def bump_symbol(r, support=4.0, kappa=None, odd=False):
    """(1 + m_0 / 2r) b(|v|), times (1 + 0.3 i v_0) if odd: an imaginary part odd in v."""

    def fhat(m, v):
        a = 1.0 + 0.5 * np.asarray(m)[..., 0] / r
        out = a * bump(np.linalg.norm(v, axis=-1), support)
        return out * (1 + 0.3j * np.asarray(v)[..., 0]) if odd else out

    return PWSymbol(fhat=fhat, support_radius=support, kappa=kappa)


def separable_symbol(r, support=4.0):
    """(1 + cos theta / 2) b(s) + i sin(2 theta) b(s) s / 4 with the tangent speed s, as terms."""

    def b0(wedge):
        return bump(wedge / r, support)

    def b1(wedge):
        return 0.25 * (wedge / r) * bump(wedge / r, support)

    terms = ((lambda t: 1.0 + 0.5 * np.cos(t), b0), (lambda t: 1j * np.sin(2 * t), b1))
    return PWSymbol(terms=terms, support_radius=support)


def even_cutoff(m, v):
    return np.exp(-np.sum(v * v, axis=-1)) * (1.0 + 0.1 * m[..., 0])


def midpoint_kernel_oracle(f, hbar, fiber, rows=None):
    """K(z, w) entry by entry from midpoint_map, then times the weights (only `rows`, if given)."""
    r, n, N = fiber.radius, fiber.ambient_dim, fiber.n_nodes
    rows = range(N) if rows is None else rows
    K = np.zeros((len(rows), N), dtype=complex)
    for i, z in enumerate(fiber.nodes[rows]):
        for j, w in enumerate(fiber.nodes):
            try:
                m, half = midpoint_map(z, w, r)
            except AntipodalPair:
                continue
            if 2 * np.linalg.norm(half) / abs(hbar) > f.support_radius:
                continue
            val = hbar ** (1 - n) * complex(f.fhat(m[None], (2 / hbar) * half[None])[0])
            if f.kappa is not None:
                val *= complex(f.kappa(m[None], half[None])[0])
            K[i, j] = val
    return K * fiber.weights[None, :]


def x(a, n=2):
    return PolySymbol.x(a, n)


def _radial_rotation():
    """|x|^2 (x0 d1 - x1 d0): the rotation field on the unit circle, but cubic."""
    r2 = x(0) * x(0) + x(1) * x(1)
    return VectorField(2, tuple(r2 * c for c in rotation_generator(0, 1, 2).components))


class TestSphereFiber:
    def test_circle_volume(self):
        f = SphereFiber.circle(1.5, 64)
        assert f.weights.sum() == pytest.approx(2 * math.pi * 1.5)

    def test_sphere_volume(self):
        f = SphereFiber.sphere(2.0)
        assert f.weights.sum() == pytest.approx(16 * math.pi, rel=1e-12)

    def test_holds_its_radius_and_grid_shape_only(self):
        assert [f.name for f in fields(SphereFiber)] == ["radius", "shape"]
        assert SphereFiber.circle(1.5, 16) == SphereFiber(1.5, (16,))
        assert SphereFiber.sphere(1.5, 6, 12) == SphereFiber(1.5, (6, 12))
        with pytest.raises(TypeError):
            SphereFiber(1.0, (16,), nodes=np.zeros((16, 2)))

    def test_circle_nodes_are_the_uniform_grid_in_order(self):
        # kernel_pairs reads the pair geometry off node offsets, so the
        # nodes are r (cos, sin)(2 pi k / N) in order k = 0..N-1
        r, n = 1.5, 16
        f = SphereFiber.circle(r, n)
        angles = 2 * math.pi * np.arange(n) / n
        assert np.array_equal(f.thetas, angles)
        assert np.max(np.abs(f.nodes - r * np.stack([np.cos(angles), np.sin(angles)], axis=1))) <= 1e-15
        assert np.array_equal(f.weights, np.full(n, r * (2 * math.pi / n)))

    @pytest.mark.parametrize("shape", [(16,), (6, 12)], ids=["circle", "sphere"])
    def test_nodes_and_weights_are_the_shared_unit_grid_scaled(self, shape):
        unit, big = SphereFiber(1.0, shape), SphereFiber(2.5, shape)
        assert np.array_equal(big.nodes, 2.5 * unit.nodes)
        assert np.array_equal(big.weights, 2.5 ** (len(shape)) * unit.weights)
        norms = np.linalg.norm(big.nodes, axis=1)
        assert np.max(np.abs(norms - 2.5)) <= 1e-14
        # one unit grid per shape, read-only, so no fiber can move its nodes
        axis = unit.thetas if len(shape) == 1 else unit.mu
        assert axis is (big.thetas if len(shape) == 1 else big.mu)
        for array in (big.nodes, big.weights, axis):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_grid_of_one_kind_has_no_axis_of_the_other(self):
        with pytest.raises(AttributeError, match="no circle angles"):
            SphereFiber.sphere(1.0, 6, 12).thetas
        with pytest.raises(AttributeError, match="no polar rings"):
            SphereFiber.circle(1.0, 16).mu

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, 1j])
    @pytest.mark.parametrize("build", [SphereFiber.circle, SphereFiber.sphere], ids=["circle", "sphere"])
    def test_radius_must_be_positive_and_finite(self, build, radius):
        with pytest.raises(InvalidSphereFiber, match="fiber radius .* is not a positive finite number"):
            build(radius, 8)

    @pytest.mark.parametrize(
        "shape",
        [(0,), (-4,), (), (6, 12, 3), (8.0,), (True,), (6, 0), [16], 16],
        ids=["zero", "negative", "empty", "three-axes", "float", "bool", "zero-azimuth", "list", "int"],
    )
    def test_shape_must_be_one_or_two_positive_ints(self, shape):
        # (8.0,) and (True,) equal the shapes of cached grids; the check runs before the cache
        SphereFiber.circle(1.0, 8), SphereFiber.circle(1.0, 1)
        with pytest.raises(InvalidSphereFiber, match="fiber grid shape"):
            SphereFiber(1.0, shape)

    def test_bad_sizes_of_the_constructors_are_named(self):
        # a zero-node circle used to divide by zero while building its weights
        with pytest.raises(InvalidSphereFiber, match=r"fiber grid shape \(0,\)"):
            SphereFiber.circle(1.0, 0)
        with pytest.raises(InvalidSphereFiber, match=r"fiber grid shape \(0, 8\)"):
            SphereFiber.sphere(1.0, 0, 8)
        assert issubclass(InvalidSphereFiber, ValueError)


class TestMidpointMap:
    def test_diagonal(self):
        z = np.array([0.0, 0.0, 2.0])
        m, v = midpoint_map(z, z, 2.0)
        assert np.allclose(m, z)
        assert np.allclose(v, 0.0)

    def test_quarter_turn(self):
        m, v = midpoint_map([1.0, 0.0], [0.0, 1.0], 1.0)
        assert np.allclose(m, np.array([1.0, 1.0]) / math.sqrt(2))
        assert np.allclose(v, (math.pi / 4) * np.array([1.0, -1.0]) / math.sqrt(2))

    def test_antipodal(self):
        with pytest.raises(AntipodalPair):
            midpoint_map([1.0, 0.0], [-1.0, 0.0], 1.0)

    def test_symmetry_and_orthogonality(self):
        rng = np.random.default_rng(5)
        r = 1.3
        for _ in range(25):
            z = rng.normal(size=3)
            w = rng.normal(size=3)
            z *= r / np.linalg.norm(z)
            w *= r / np.linalg.norm(w)
            m, v = midpoint_map(z, w, r)
            m2, v2 = midpoint_map(w, z, r)
            assert np.allclose(m, m2)
            assert np.allclose(v, -v2)
            assert abs(np.dot(m, v)) < 1e-12
            theta = math.acos(np.clip(np.dot(z, w) / r**2, -1, 1))
            assert np.linalg.norm(v) == pytest.approx(r * theta / 2)
            assert np.linalg.norm(v) < r * math.pi / 2


class TestStereoCharts:
    @pytest.mark.parametrize("n", [2, 3])
    def test_antipode_to_origin(self, n):
        w = np.zeros(n)
        w[0] = 1.7
        psi, _, _ = stereo_charts(w, 1.7)
        assert np.allclose(psi(-w), 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_inverse_pair(self, n):
        rng = np.random.default_rng(7)
        r = 1.4
        w = rng.normal(size=n)
        w *= r / np.linalg.norm(w)
        psi, upsilon, _ = stereo_charts(w, r)
        for _ in range(20):
            z = rng.normal(size=n)
            z *= r / np.linalg.norm(z)
            if np.dot(z, w) > 0.95 * r * r:
                continue
            assert np.allclose(upsilon(psi(z)), z, atol=1e-12)

    def test_pole_singular(self):
        w = np.array([0.0, 1.0])
        psi, _, _ = stereo_charts(w, 1.0)
        with pytest.raises(StereographicPole):
            psi(w)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pole_guard_threshold(self, n):
        # the guard is |lam - <z, w>| <= 1e-12 lam: z = (1 - s) w puts
        # lam - <z, w> at s lam, 0.1x the threshold raises and 10x maps
        r = 1.3
        w = np.zeros(n)
        w[-1] = r
        psi, _, _ = stereo_charts(w, r)
        with pytest.raises(StereographicPole):
            psi((1 - 1e-13) * w)
        assert np.all(np.isfinite(psi((1 - 1e-11) * w)))

    def test_circumference_oracle(self):
        # [DERIVED] integral of 2 lam/(lam + t^2) over R is 2 pi r; this is
        # the check that pins the density exponent to n-1
        for r in (1.0, 1.9):
            _, _, density = stereo_charts(np.array([r, 0.0]), r)
            total, _ = quad(lambda t: density([t]), -np.inf, np.inf)
            assert total == pytest.approx(2 * math.pi * r, abs=1e-8)

    @staticmethod
    def _line_integral(f):
        # the CLI's rule: d(t) + d(-t) over (0, inf) on the order-64 half-line rule
        nodes, weights = half_line_rule(64, 1.0)
        return sum(w * (f([t]) + f([-t])) for t, w in zip(nodes, weights))

    @pytest.mark.parametrize("r", [1.0, 1.9])
    def test_half_line_rule_reproduces_circumference(self, r):
        _, _, density = stereo_charts(np.array([r, 0.0]), r)
        total = self._line_integral(density)
        assert abs(total - 2 * math.pi * r) <= 1e-13
        # scipy's adaptive quad as an independent oracle
        oracle, _ = quad(lambda t: density([t]), -np.inf, np.inf)
        assert abs(total - oracle) <= 1e-13

    @pytest.mark.parametrize("r", [1.0, 1.9])
    def test_half_line_rule_rejects_the_squared_denominator(self, r):
        lam = r * r

        def rejected(c):
            q = float(np.dot(c, c))
            return 2 * lam / (lam + q) ** 2

        assert abs(self._line_integral(rejected) - 2 * math.pi * r) > 1e-2

    def test_cli_density_record_is_at_rounding_level(self):
        report = run_suite(SuiteConfig(), "kernel")
        rec = {r.name: r for r in report.records}["metric-density-exponent"]
        assert rec.passed and rec.tolerance == 1e-8
        assert rec.residual <= 1e-13

    def test_sphere_area_oracle(self):
        # [DERIVED] (2 lam/(lam+|c|^2))^2 integrates to 4 pi r^2
        r = 1.3
        _, _, density = stereo_charts(np.array([0.0, 0.0, r]), r)
        total, _ = quad(
            lambda s: 2 * math.pi * s * density([s, 0.0]), 0, np.inf
        )
        assert total == pytest.approx(4 * math.pi * r * r, rel=1e-8)


class TestKernelQuantize:
    def test_hermitian_for_real_even_symbol(self):
        fiber = SphereFiber.circle(1.0, 96)
        K = kernel_quantize(bump_symbol(1.0), 0.3, fiber)
        km = K.kernel_matrix()
        assert np.max(np.abs(km - km.conj().T)) < 1e-10
        rng = np.random.default_rng(3)
        u = FiberFunction(fiber, rng.normal(size=96) + 1j * rng.normal(size=96))
        v = FiberFunction(fiber, rng.normal(size=96) + 1j * rng.normal(size=96))
        lhs = K.apply(u).inner(v)
        rhs = u.inner(K.apply(v))
        assert abs(lhs - rhs) < 1e-10 * u.norm() * v.norm()

    def test_antipodal_entries_zero(self):
        fiber = SphereFiber.circle(1.0, 64)
        K = kernel_quantize(bump_symbol(1.0, support=100.0), 1.0, fiber)
        km = K.kernel_matrix()
        for i in range(64):
            assert km[i, (i + 32) % 64] == 0.0

    def test_kappa_independence_small_hbar(self):
        fiber = SphereFiber.circle(1.0, 64)

        def kappa(m, v):
            # 1 on ||v|| <= 1, supported in ||v|| < 2, even
            nv = np.linalg.norm(v, axis=-1)
            out = np.ones_like(nv)
            mid = (nv > 1.0) & (nv < 2.0)
            out[mid] = np.exp(1.0 - 1.0 / (1 - ((nv[mid] - 1.0)) ** 2))
            out[nv >= 2.0] = 0.0
            return out

        hbar = 0.05
        bare = kernel_quantize(bump_symbol(1.0), hbar, fiber)
        cut = kernel_quantize(bump_symbol(1.0, kappa=kappa), hbar, fiber)
        assert np.max(np.abs(bare.matrix - cut.matrix)) < 1e-14

    def test_hbar_zero_rejected(self):
        with pytest.raises(ValueError):
            kernel_quantize(bump_symbol(1.0), 0.0, SphereFiber.circle(1.0, 8))

    def test_level_set_fiber_rejected_by_name(self):
        ellipse = geometry.ScalarHamiltonian(x(0) * x(0) + 2 * (x(1) * x(1)))
        fiber = geometry.implicit_curve_level_set(ellipse, 0.5, 32)
        with pytest.raises(TypeError, match="needs a SphereFiber, got a LevelSetModel"):
            kernel_quantize(bump_symbol(1.0), 0.3, fiber)

    @pytest.mark.parametrize("kappa", [None, even_cutoff], ids=["bare", "kappa"])
    @pytest.mark.parametrize(
        "fiber, odd",
        [
            (SphereFiber.circle(1.0, 32), False),
            (SphereFiber.sphere(1.3, n_polar=6, n_azimuth=12), False),
            (SphereFiber.circle(1.0, 32), True),
            (SphereFiber.sphere(1.3, n_polar=6, n_azimuth=12), True),
        ],
        ids=["circle-32", "sphere-6x12", "circle-32-odd-in-v", "sphere-6x12-odd-in-v"],
    )
    def test_matches_per_entry_midpoint_oracle(self, fiber, odd, kappa):
        # a symbol whose imaginary part is odd in v pins the orientation of
        # the chord direction z_row - z_col, which an even symbol cannot see
        f = bump_symbol(fiber.radius, support=4.0, kappa=kappa, odd=odd)
        for hbar in (0.7, -1.1):
            got = kernel_quantize(f, hbar, fiber).matrix
            want = midpoint_kernel_oracle(f, hbar, fiber)
            assert np.count_nonzero(got) == np.count_nonzero(want)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_nodes", [31, 48])
    @pytest.mark.parametrize("hbar", [0.45, -0.8, 2.5], ids=["band", "negative", "all-offsets"])
    def test_offset_kernel_matches_per_entry_oracle(self, n_nodes, hbar):
        fiber = SphereFiber.circle(1.2, n_nodes)
        f = bump_symbol(fiber.radius, support=4.0, kappa=even_cutoff)
        got = kernel_quantize(f, hbar, fiber).matrix
        want = midpoint_kernel_oracle(f, hbar, fiber)
        assert np.count_nonzero(got) == np.count_nonzero(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if hbar == 2.5:  # the support reaches past pi r: every offset is in band
            assert np.count_nonzero(got) == n_nodes * n_nodes - (n_nodes % 2 == 0) * n_nodes
            if n_nodes % 2 == 0:
                half = n_nodes // 2
                assert all(got[i, (i + half) % n_nodes] == 0.0 for i in range(n_nodes))

    @pytest.mark.parametrize("n_nodes", [192, 384, 768])
    def test_circle_kernel_exactly_hermitian(self, n_nodes):
        fiber = SphereFiber.circle(1.0, n_nodes)
        K = kernel_quantize(bump_symbol(1.0), 0.3, fiber).kernel_matrix()
        assert np.array_equal(K, K.conj().T)

    def test_circle_kernel_builds_no_pair_angles(self):
        fiber = SphereFiber.circle(1.0, 64)
        kernel_quantize(bump_symbol(1.0), 0.3, fiber)
        assert "pair_angles" not in vars(fiber)

    def test_symbol_sees_only_in_support_pairs(self):
        n_nodes, hbar, support = 64, 0.3, 4.0
        fiber = SphereFiber.circle(1.0, n_nodes)
        gap = np.abs(np.arange(n_nodes)[:, None] - np.arange(n_nodes)[None, :])
        theta = 2 * math.pi * np.minimum(gap, n_nodes - gap) / n_nodes
        expected = int(np.count_nonzero(theta / hbar <= support))  # no antipode in reach
        shapes = []
        base = bump_symbol(1.0, support)

        def fhat(m, v):
            shapes.append(("fhat", m.shape, v.shape))
            return base.fhat(m, v)

        def kappa(m, v):
            shapes.append(("kappa", m.shape, v.shape))
            return np.ones(len(m))

        kernel_quantize(PWSymbol(fhat=fhat, support_radius=support, kappa=kappa), hbar, fiber)
        assert 0 < expected < n_nodes * n_nodes
        assert shapes == [
            ("fhat", (expected, 2), (expected, 2)),
            ("kappa", (expected, 2), (expected, 2)),
        ]

    @pytest.mark.parametrize("n_nodes", [31, 48])
    @pytest.mark.parametrize("hbar", [0.45, -0.8, 2.5], ids=["band", "negative", "all-offsets"])
    def test_separable_terms_match_per_entry_oracle(self, n_nodes, hbar):
        # on a circle, terms take the offset route; the oracle evaluates the
        # same symbol as fhat, entry by entry
        fiber = SphereFiber.circle(1.2, n_nodes)
        sym = separable_symbol(fiber.radius)
        got = kernel_quantize(sym, hbar, fiber).matrix
        want = midpoint_kernel_oracle(pair_route(sym), hbar, fiber)
        assert np.count_nonzero(got) == np.count_nonzero(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_nodes", [31, 48, 384])
    @pytest.mark.parametrize("hbar", [0.45, -0.8, 2.5], ids=["band", "negative", "all-offsets"])
    def test_offset_apply_matches_per_entry_oracle(self, n_nodes, hbar):
        # the offset route applies the kernel to a block without building it;
        # on 384 nodes the per-entry oracle is built for every 16th row
        fiber = SphereFiber.circle(1.2, n_nodes)
        sym = separable_symbol(fiber.radius)
        op = kernel_quantize(sym, hbar, fiber)
        assert op.dense is None and "matrix" not in vars(op)
        rows = np.arange(0, n_nodes, 1 if n_nodes < 100 else 16)
        want_kernel = midpoint_kernel_oracle(pair_route(sym), hbar, fiber, rows)
        rng = np.random.default_rng(n_nodes)
        block = rng.normal(size=(n_nodes, 2)) + 1j * rng.normal(size=(n_nodes, 2))
        got = op.apply_block(block)
        assert got.shape == (n_nodes, 2) and "matrix" not in vars(op)
        want = want_kernel @ block
        assert np.max(np.abs(got[rows] - want)) <= 1e-13 * np.max(np.abs(want))
        u = FiberFunction(fiber, block[:, 1])
        assert np.array_equal(op.apply(u).values, op.apply_block(block[:, 1:])[:, 0])

    def test_offset_matrix_is_the_apply_on_the_identity(self):
        fiber = SphereFiber.circle(1.0, 40)
        op = kernel_quantize(separable_symbol(1.0), 0.6, fiber)
        eye = np.eye(40, dtype=complex)
        assert np.array_equal(op.matrix, op.apply_block(eye))
        assert op.matrix is op.matrix  # built once per operator
        dense = multiplication_op(lambda z: z[:, 0], fiber)
        assert dense.block is None and dense.matrix is dense.dense

    def test_operator_holds_one_representation(self):
        fiber = SphereFiber.circle(1.0, 8)
        with pytest.raises(ValueError, match="exactly one"):
            FiberOperator(fiber)
        with pytest.raises(ValueError, match="exactly one"):
            FiberOperator(fiber, np.eye(8), block=lambda values: values)

    def test_symbol_holds_fhat_or_terms(self):
        terms = separable_symbol(1.0).terms
        fhat = separable_fhat(terms)
        with pytest.raises(ValueError, match="exactly one of fhat and separable terms"):
            PWSymbol(support_radius=4.0)
        with pytest.raises(ValueError, match="exactly one of fhat and separable terms"):
            PWSymbol(fhat=fhat, support_radius=4.0, terms=terms)
        # a cutoff belongs to the fhat form, which the offset route never calls
        with pytest.raises(ValueError, match="separable terms take no kappa"):
            PWSymbol(terms=terms, support_radius=4.0, kappa=even_cutoff)
        fiber = SphereFiber.circle(1.0, 24)
        assert kernel_quantize(PWSymbol(terms=terms, support_radius=4.0), 0.5, fiber).dense is None
        cut = kernel_quantize(PWSymbol(fhat=fhat, support_radius=4.0, kappa=even_cutoff), 0.5, fiber)
        assert cut.block is None

    @pytest.mark.parametrize("radius", [-1.0, float("nan")])
    def test_negative_or_nan_support_radius_is_named(self, radius):
        # either would leave only the diagonal in reach and quantize without a word
        fhat = separable_fhat(separable_symbol(1.0).terms)
        with pytest.raises(InvalidKernelInput, match="support_radius must be >= 0"):
            PWSymbol(fhat=fhat, support_radius=radius)
        assert kernel_quantize(PWSymbol(fhat=fhat, support_radius=0.0), 0.5, SphereFiber.circle(1.0, 16)).matrix.any()

    @pytest.mark.parametrize("hbar", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_non_finite_or_zero_hbar_is_named(self, hbar):
        # a NaN hbar gave a kernel of NaNs
        sym = PWSymbol(fhat=separable_fhat(separable_symbol(1.0).terms), support_radius=4.0)
        with pytest.raises(InvalidKernelInput, match="hbar must be finite and nonzero"):
            kernel_quantize(sym, hbar, SphereFiber.circle(1.0, 16))

    def test_separable_terms_on_a_sphere_raise(self):
        # the terms read the planar angle arctan2(m_1, m_0) and m ^ v; on a
        # 2-sphere they would silently drop the third coordinate
        fiber = SphereFiber.sphere(1.0, 6, 12)
        for sym in (default_sweep_pair()[0].to_pw(), separable_symbol(1.0)):
            with pytest.raises(ValueError, match="need a circle fiber, not ambient dimension 3"):
                kernel_quantize(sym, 0.5, fiber)
        # as fhat the same symbol is quantized on the pair route
        plain = pair_route(separable_symbol(1.0))
        assert kernel_quantize(plain, 0.5, fiber).matrix.shape == (72, 72)

    def test_scaled_fiber_does_not_reuse_unit_pair_angles(self):
        # the unit grid is shared per shape, but pair angles belong to a fiber
        f = bump_symbol(1.0, support=3.0)
        unit = SphereFiber.sphere(1.0, n_polar=6, n_azimuth=12)
        kernel_quantize(f, 0.5, unit)  # fills the unit fiber's pair cache
        scaled = SphereFiber.sphere(2.5, n_polar=6, n_azimuth=12)
        assert "pair_angles" not in vars(scaled)
        got = kernel_quantize(f, 0.5, scaled).matrix
        want = midpoint_kernel_oracle(f, 0.5, scaled)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
        assert not np.array_equal(got, kernel_quantize(f, 0.5, unit).matrix)
        # another grid with the same node count must not see the unit grid's pairs
        other = SphereFiber.sphere(1.0, n_polar=12, n_azimuth=6)
        got = kernel_quantize(f, 0.5, other).matrix
        want = midpoint_kernel_oracle(f, 0.5, other)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


class TestMultiplication:
    def test_identity(self):
        fiber = SphereFiber.circle(1.0, 32)
        op = multiplication_op(lambda z: np.ones(len(z)), fiber)
        u = FiberFunction(fiber, np.sin(fiber.thetas))
        assert np.allclose(op.apply(u).values, u.values)

    def test_multiplications_commute(self):
        fiber = SphereFiber.circle(1.0, 32)
        A = multiplication_op(lambda z: z[:, 0], fiber)
        B = multiplication_op(lambda z: np.exp(z[:, 1]), fiber)
        assert np.allclose(A.matrix @ B.matrix, B.matrix @ A.matrix)

    def test_leibniz_commutator_row(self):
        # [JX, a] u = -i hbar (X a) u, discrete to spectral accuracy
        fiber = SphereFiber.circle(1.0, 128)
        X = rotation_generator(0, 1, 2)
        hbar = 0.7
        A = multiplication_op(lambda z: z[:, 0] ** 2, fiber)
        u = FiberFunction(fiber, np.exp(np.sin(fiber.thetas)))
        lhs = (
            fiber_JX_apply(X, hbar, A.apply(u)).values
            - A.apply(fiber_JX_apply(X, hbar, u)).values
        )
        Z = fiber.nodes
        xa = -2 * Z[:, 0] * Z[:, 1]  # X applied to z1^2
        assert np.max(np.abs(lhs + 1j * hbar * xa * u.values)) < 1e-8


class TestFiberJX:
    def test_circle_eigenfunctions(self):
        fiber = SphereFiber.circle(1.0, 64)
        X = rotation_generator(0, 1, 2)
        for hbar in (1.0, 0.25):
            for m in (-3, 0, 1, 5):
                u = FiberFunction(fiber, np.exp(1j * m * fiber.thetas))
                out = fiber_JX_apply(X, hbar, u)
                assert np.max(np.abs(out.values - hbar * m * u.values)) < 1e-10

    def test_zero_field(self):
        fiber = SphereFiber.circle(1.0, 32)
        u = FiberFunction(fiber, np.cos(fiber.thetas))
        out = fiber_JX_apply(VectorField.zero(2), 1.0, u)
        assert np.allclose(out.values, 0.0)

    def test_symmetric_on_circle(self):
        fiber = SphereFiber.circle(1.0, 64)
        X = rotation_generator(0, 1, 2)
        rng = np.random.default_rng(9)
        u = FiberFunction(fiber, rng.normal(size=64) + 1j * rng.normal(size=64))
        val = fiber_JX_apply(X, 0.4, u).inner(u)
        assert abs(val.imag) < 1e-10 * u.norm() ** 2

    def test_radial_field_rejected(self):
        fiber = SphereFiber.circle(1.0, 16)
        Y = VectorField(2, (x(0), x(1)))
        u = FiberFunction(fiber, np.ones(16))
        with pytest.raises(NotTangent):
            fiber_JX_apply(Y, 1.0, u)

    def test_sphere_rotation_eigenfunction(self):
        # u = (z1 + i z2)^2 satisfies X u = 2i u for the e3 rotation field
        fiber = SphereFiber.sphere(1.2, n_polar=16, n_azimuth=32)
        X = rotation_generator(0, 1, 3)
        Z = fiber.nodes
        vals = (Z[:, 0] + 1j * Z[:, 1]) ** 2
        out = fiber_JX_apply(X, 0.5, FiberFunction(fiber, vals))
        assert np.max(np.abs(out.values - 2 * 0.5 * vals)) < 1e-9

    def test_sphere_gradient_route_matches_grid_route(self):
        fiber = SphereFiber.sphere(1.0, n_polar=14, n_azimuth=28)
        X = rotation_generator(1, 2, 3)  # rotation about e1: polar motion
        Z = fiber.nodes
        vals = (Z[:, 0] + 1j * Z[:, 1]) ** 2
        grads = np.stack(
            [2 * (Z[:, 0] + 1j * Z[:, 1]), 2j * (Z[:, 0] + 1j * Z[:, 1]), np.zeros(len(Z))],
            axis=1,
        )
        grid = fiber_JX_apply(X, 1.0, FiberFunction(fiber, vals))
        exact = jx_from_gradients(X, 1.0, fiber, vals, grads)
        assert np.max(np.abs(grid.values - exact)) < 1e-8

    def test_sphere_divergent_field_analytic(self):
        # Y = z1 * (rotation about e3): Y u = 2i z1 u on u = (z1+i z2)^2,
        # div Y = -z2
        fiber = SphereFiber.sphere(1.0, n_polar=16, n_azimuth=32)
        rot = rotation_generator(0, 1, 3)
        Y = VectorField(3, tuple(PolySymbol.x(0, 3) * c for c in rot.components))
        Z = fiber.nodes
        vals = (Z[:, 0] + 1j * Z[:, 1]) ** 2
        hbar = 0.3
        out = fiber_JX_apply(Y, hbar, FiberFunction(fiber, vals))
        expected = -1j * hbar * (2j * Z[:, 0] * vals + 0.5 * (-Z[:, 1]) * vals)
        assert np.max(np.abs(out.values - expected)) < 1e-8


class TestJXMatrix:
    """The matrix is one derivative call on the identity block."""

    @staticmethod
    def _column_build(X, hbar, fiber):
        eye = np.eye(len(fiber.nodes))
        return np.stack(
            [fiber_JX_apply(X, hbar, FiberFunction(fiber, e)).values for e in eye], axis=1
        )

    def test_circle_matches_column_build_bitwise(self):
        fiber = SphereFiber.circle(1.0, 256)
        X = rotation_generator(0, 1, 2)
        G = fiber_JX_matrix(X, 0.3, fiber).matrix
        assert np.array_equal(G, self._column_build(X, 0.3, fiber))

    def test_ellipse_matches_column_build(self):
        model, X = TestImplicitCurveJX._ellipse_model(64)
        G = fiber_JX_matrix(X, 0.5, model).matrix
        assert np.max(np.abs(G - self._column_build(X, 0.5, model))) <= 1e-12

    def test_sphere_matches_column_build(self):
        fiber = SphereFiber.sphere(1.2, n_polar=8, n_azimuth=16)
        rot = rotation_generator(1, 2, 3)
        X = VectorField(3, tuple(PolySymbol.x(0, 3) * c for c in rot.components))
        G = fiber_JX_matrix(X, 0.5, fiber).matrix
        assert np.max(np.abs(G - self._column_build(X, 0.5, fiber))) <= 1e-12

    def test_matrix_checks_tangency(self):
        with pytest.raises(NotTangent):
            fiber_JX_matrix(VectorField(2, (x(0), x(1))), 1.0, SphereFiber.circle(1.0, 16))


class TestLineJX:
    """Gauss-Legendre line fibers are differentiated by a polynomial, not an FFT."""

    @pytest.mark.parametrize("n_nodes", [64, 256])
    def test_grid_route_matches_gradient_route(self, n_nodes):
        phi = ScalarHamiltonian(x(0) + 2 * x(1))
        model = line_level_set(phi, 0.7, box=5.0, n_nodes=n_nodes)
        direction = np.array([-2.0, 1.0]) / math.sqrt(5)  # unit tangent of the line
        X = VectorField(2, (PolySymbol.constant(-2, 2), PolySymbol.constant(1, 2)))
        s = model.params  # arc length from the foot point along the line
        vals = np.exp(-(s**2))
        grads = (-2 * s * vals)[:, None] * direction[None, :]
        grid = fiber_JX_apply(X, 1.0, FiberFunction(model, vals)).values
        exact = jx_from_gradients(X, 1.0, model, vals, grads)
        assert np.max(np.abs(grid - exact)) < 1e-9


class TestImplicitCurveJX:
    """JX on an implicit curve reads node velocities stored at construction."""

    @staticmethod
    def _ellipse_model(n_nodes):
        x0, x1 = PolySymbol.x(0, 2), PolySymbol.x(1, 2)
        phi = ScalarHamiltonian((x0 * x0 + 2 * (x1 * x1)) * Fraction(1, 2))
        X = VectorField(2, (-2 * x1, x0))
        return implicit_curve_level_set(phi, 1.3, n_nodes=n_nodes), X

    def test_apply_solves_no_newton(self, monkeypatch):
        model, X = self._ellipse_model(256)
        calls = []
        solve = geometry._radial_newton

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(geometry, "_radial_newton", counted)
        u = FiberFunction(model, np.exp(1j * np.arange(256) * 2 * np.pi / 256))
        fiber_JX_apply(X, 0.5, u)
        assert calls == []

    def test_matrix_matches_per_node_chart_velocities(self):
        # the polar-angle chart of x0^2 + 2 x1^2 = 2 lam in closed form:
        # z(t) = r(t) (cos t, sin t), r^2 = 2 lam / (1 + sin^2 t)
        model, X = self._ellipse_model(64)
        t, lam = model.params, model.level[0]
        cos, sin = np.cos(t), np.sin(t)
        r = np.sqrt(2 * lam / (1 + sin**2))
        dr = -r * sin * cos / (1 + sin**2)
        per_node = np.stack([dr * cos - r * sin, dr * sin + r * cos], axis=1)
        assert np.max(np.abs(model.node_velocities - per_node)) < 1e-12
        old = replace(model, node_velocities=per_node)
        G = fiber_JX_matrix(X, 0.5, model).matrix
        G_old = fiber_JX_matrix(X, 0.5, old).matrix
        assert np.max(np.abs(G - G_old)) < 1e-12


class TestCircleModelsAgree:
    """A circle of |x|^2/2 as a SphereFiber and as an implicit curve gives one JX."""

    @pytest.mark.parametrize("lam", [0.3, 2.0])
    @pytest.mark.parametrize("n_nodes", [32, 128])
    @pytest.mark.parametrize("c", [0, 1])
    def test_jx_matrices_agree(self, lam, n_nodes, c):
        # X = (1 + c x0) * rotation: the rotation, and a field with div X != 0
        phi = geometry.radial_hamiltonian(2)
        X = VectorField(2, tuple((1 + c * x(0)) * r for r in rotation_generator(0, 1, 2).components))
        circle = geometry.circle_level_set(phi, lam, n_nodes)
        curve = implicit_curve_level_set(phi, lam, n_nodes)
        assert isinstance(circle, SphereFiber) and isinstance(curve, geometry.LevelSetModel)
        A = fiber_JX_matrix(X, 0.5, circle).matrix
        B = fiber_JX_matrix(X, 0.5, curve).matrix
        assert np.max(np.abs(A - B)) <= 1e-12 * np.max(np.abs(A))


class TestEvolveGroup:
    @pytest.mark.parametrize("n_nodes", [64, 256, 384])
    def test_trig_interpolate_matches_per_angle_sum(self, n_nodes):
        rng = np.random.default_rng(n_nodes)
        values = rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes)
        angles = rng.uniform(-math.pi, math.pi, size=n_nodes)
        coeffs = np.fft.fft(values) / n_nodes
        k = np.fft.fftfreq(n_nodes, d=1.0 / n_nodes)
        loop = np.array([np.sum(coeffs * np.exp(1j * k * a)) for a in angles])
        assert np.array_equal(_trig_interpolate(values, angles), loop)

    @pytest.mark.parametrize("n_nodes", [63, 64])
    @pytest.mark.parametrize("t", [0.3, 1.0, 2 * math.pi, -1.0])
    def test_exact_circle_orbit_is_a_fourier_shift(self, monkeypatch, n_nodes, t):
        # a rotation at speed 3/2 turns the circle by alpha = 3 t / 2; values
        # without `func` are pulled back by a Fourier shift, not by the dense
        # interpolant sum
        fiber = SphereFiber.circle(1.3, n_nodes)
        R = rotation_generator(0, 1, 2)
        X = VectorField(2, tuple(c * Fraction(3, 2) for c in R.components))
        th = fiber.thetas
        u = FiberFunction(fiber, np.exp(np.sin(th) + 0.5j * np.cos(3 * th)) + 0.2 * np.sin(5 * th))
        want = _trig_interpolate(u.values, th + 1.5 * t)

        def no_dense_sum(values, angles):
            raise AssertionError("exact circle orbit took the dense interpolant")

        monkeypatch.setattr(fiber_module, "_trig_interpolate", no_dense_sum)
        got = evolve_group(X, t, 0.7, u).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_sampled_values_on_a_sphere_cannot_be_pulled_back(self):
        # a 2-sphere has no trigonometric interpolant: without `func` the
        # flowed nodes have no values, and the error says so by name
        fiber = SphereFiber.sphere(1.0, 6, 12)
        u = FiberFunction(fiber, np.ones(fiber.n_nodes, dtype=complex))
        with pytest.raises(PullBackUnavailable, match="ambient callable"):
            evolve_group(rotation_generator(0, 1, 3), 0.3, 0.5, u)
        with_func = FiberFunction(fiber, u.values, func=lambda z: np.ones(len(z)))
        assert np.allclose(evolve_group(rotation_generator(0, 1, 3), 0.3, 0.5, with_func).values, 1.0)

    def test_rk4_circle_orbit_keeps_the_interpolant(self, monkeypatch):
        fiber = SphereFiber.circle(1.0, 32)
        u = FiberFunction(fiber, np.exp(np.cos(fiber.thetas)) + 0j)
        angles = []
        raw = fiber_module._trig_interpolate

        def recorded(values, at):
            angles.append(at)
            return raw(values, at)

        monkeypatch.setattr(fiber_module, "_trig_interpolate", recorded)
        evolve_group(_radial_rotation(), 0.7, 1.0, u, steps=8)
        assert len(angles) == 1 and angles[0].shape == (32,)

    def test_full_period_rotation(self):
        fiber = SphereFiber.circle(1.0, 64)
        X = rotation_generator(0, 1, 2)
        u = FiberFunction(fiber, np.exp(np.cos(fiber.thetas)))
        out = evolve_group(X, 2 * math.pi, 1.0, u)
        assert np.max(np.abs(out.values - u.values)) < 1e-8

    def test_rotation_density_is_one(self):
        fiber = SphereFiber.circle(1.0, 64)
        X = rotation_generator(0, 1, 2)
        t = 0.8
        u = FiberFunction(fiber, np.exp(1j * fiber.thetas))
        out = evolve_group(X, t, 1.0, u)
        expected = np.exp(1j * (fiber.thetas + t))
        assert np.max(np.abs(out.values - expected)) < 1e-9

    @pytest.mark.parametrize("hbar", [1.0, 0.1])
    def test_matches_matrix_exponential(self, hbar):
        fiber = SphereFiber.circle(1.0, 64)
        X = rotation_generator(0, 1, 2)
        G = fiber_JX_matrix(X, hbar, fiber).matrix
        t = 0.7
        P = expm((1j * t / hbar) * G)
        u = FiberFunction(fiber, np.exp(np.sin(fiber.thetas)) + 0j)
        direct = evolve_group(X, t, hbar, u)
        assert np.max(np.abs(P @ u.values - direct.values)) < 1e-6

    @pytest.mark.parametrize("hbar", [1.0, 0.3, 0.1])
    @pytest.mark.parametrize("t", [0.7, 2.0, 2 * math.pi])
    def test_fft_oracle_matches_matrix_exponential(self, t, hbar):
        fiber = SphereFiber.circle(1.0, 32)
        G = fiber_JX_matrix(rotation_generator(0, 1, 2), hbar, fiber).matrix
        u = np.exp(np.sin(fiber.thetas)) + 1j * np.cos(2 * fiber.thetas)
        want = expm((1j * t / hbar) * G) @ u
        assert np.max(np.abs(circulant_propagator(G, t, hbar, u) - want)) <= 1e-12

    @pytest.mark.parametrize("factor, fires", [(1e-11, True), (1e-13, False)])
    def test_fft_oracle_circulance_bound(self, factor, fires):
        # one entry moved off circulant by factor x max|G|, either side of the
        # 1e-12 bound; the bound is written out so raising it cannot scale the input
        fiber = SphereFiber.circle(1.0, 32)
        G = fiber_JX_matrix(rotation_generator(0, 1, 2), 1.0, fiber).matrix
        G[3, 17] += factor * np.max(np.abs(G))
        u = np.exp(np.sin(fiber.thetas)) + 0j
        if fires:
            with pytest.raises(NotCirculant, match="from circulant"):
                circulant_propagator(G, 0.7, 1.0, u)
        else:
            out = circulant_propagator(G, 0.7, 1.0, u)
            assert np.max(np.abs(out - expm((0.7j) * G) @ u)) <= 1e-12

    def test_fft_oracle_refuses_a_non_circulant_generator(self):
        fiber = SphereFiber.circle(1.0, 32)
        G = fiber_JX_matrix(rotation_generator(0, 1, 2), 1.0, fiber).matrix
        G[3, 17] += 1e-9 * np.max(np.abs(G))
        with pytest.raises(NotCirculant, match="from circulant"):
            circulant_propagator(G, 0.7, 1.0, np.ones(32, dtype=complex))

    @staticmethod
    def _count_kernel_runs(monkeypatch):
        calls = []
        raw = symbols.evaluate_compiled

        def counted(*args):
            calls.append(len(args[2]))
            return raw(*args)

        monkeypatch.setattr(symbols, "evaluate_compiled", counted)
        return calls

    def test_linear_field_runs_no_compiled_kernel(self, monkeypatch):
        fiber = SphereFiber.circle(1.0, 64)
        u = FiberFunction(fiber, np.exp(np.cos(fiber.thetas)) + 0j)
        calls = self._count_kernel_runs(monkeypatch)
        evolve_group(rotation_generator(0, 1, 2), 0.7, 1.0, u)
        assert calls == []
        evolve_group(_radial_rotation(), 0.7, 1.0, u, steps=8)
        assert len(calls) > 0

    @pytest.mark.parametrize("t", [-2.1, 2 * math.pi])
    def test_rk4_matches_exact_orbit(self, t):
        # on the unit circle Y = |x|^2 R x is the rotation R x, but Y is not
        # linear, so it takes the RK4 route
        fiber = SphereFiber.circle(1.0, 96)
        Y = _radial_rotation()
        assert Y.linear_part() is None
        u = FiberFunction(fiber, np.exp(np.sin(fiber.thetas) + 0.3j * np.cos(2 * fiber.thetas)))
        exact = evolve_group(rotation_generator(0, 1, 2), t, 1.0, u)
        rk4 = evolve_group(Y, t, 1.0, u, steps=4096)
        assert np.max(np.abs(rk4.values - exact.values)) <= 1e-10

    def test_exact_orbit_on_two_sphere(self):
        fiber = SphereFiber.sphere(1.3, n_polar=8, n_azimuth=16)

        def func(z):
            return np.exp(0.4 * z[:, 0] - 0.3j * z[:, 2]) * (1 + 0.2 * z[:, 1])

        t = 0.9
        u = FiberFunction(fiber, func(fiber.nodes), func=func)
        out = evolve_group(rotation_generator(0, 2, 3), t, 0.5, u)
        # x0' = -x2, x2' = x0
        z = fiber.nodes
        turned = np.stack(
            [
                z[:, 0] * math.cos(t) - z[:, 2] * math.sin(t),
                z[:, 1],
                z[:, 0] * math.sin(t) + z[:, 2] * math.cos(t),
            ],
            axis=1,
        )
        assert np.max(np.abs(out.values - func(turned))) <= 1e-13

    def test_linear_field_off_the_sphere_rejected(self):
        fiber = SphereFiber.circle(1.0, 32)
        X = VectorField(2, (x(0), x(1)))  # radial
        u = FiberFunction(fiber, np.ones(32))
        with pytest.raises(NotTangent):
            evolve_group(X, 0.5, 1.0, u)

    def test_norm_preserved_divergent_field(self):
        fiber = SphereFiber.circle(1.0, 128)
        X = VectorField(2, (-(x(0) * x(1)), x(0) * x(0)))  # x1 * rotation
        u = FiberFunction(fiber, np.exp(np.cos(fiber.thetas)) + 0j)
        out = evolve_group(X, 0.5, 1.0, u)
        assert out.norm() == pytest.approx(u.norm(), rel=1e-8)

    def test_generator_consistency(self):
        fiber = SphereFiber.circle(1.0, 64)
        X = VectorField(2, (-(x(0) * x(1)), x(0) * x(0)))
        hbar = 0.5
        u = FiberFunction(fiber, np.exp(np.cos(fiber.thetas)) + 0j)
        gen = (1j / hbar) * fiber_JX_apply(X, hbar, u).values
        errs = []
        for delta in (1e-2, 5e-3, 2.5e-3):
            out = evolve_group(X, delta, hbar, u, steps=64)
            errs.append(np.max(np.abs((out.values - u.values) / delta - gen)))
        # first-order convergence of the difference quotient
        assert errs[2] < 0.3 * errs[0]
        assert errs[2] < 1e-2
