import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import weylred.sweep as sweep_module
from weylred.fiber import FiberFunction, FiberOperator, SphereFiber, kernel_quantize
from weylred.sweep import (
    NoAngularDerivative,
    NotUniformCircle,
    Profile,
    SeparableCircleSymbol,
    bump_profile,
    default_sweep_pair,
    semiclassical_sweep,
)

from oracles import separable_fhat


def analytic_bump(s, support=4.0):
    t = s / support
    if abs(t) >= 1:
        return 0.0
    return math.exp(-1.0 / (1 - t * t))


def symbol_value(sym: SeparableCircleSymbol, theta: float, p: float) -> complex:
    """Reconstruct f(theta, p) = sum a(theta) int b(s) e^{-ips} ds."""
    total = 0.0 + 0j
    for a, _, prof in sym.terms:
        s = prof.grid()
        beta = np.sum(prof.values * np.exp(-1j * p * s)) * prof.ds
        total += complex(np.asarray(a(theta))) * beta
    return total


class TestProfile:
    def test_sampling_matches_analytic(self):
        b = bump_profile(4.0)
        for s in (0.0, 1.3, -2.7, 3.99, 5.0):
            assert complex(b(s)) == pytest.approx(analytic_bump(s), abs=1e-9)

    def test_convolution_against_quadrature(self):
        b = bump_profile(4.0)
        conv = b.convolve(b)
        for s in (0.0, 0.8, -2.5):
            oracle, _ = quad(
                lambda t: analytic_bump(t) * analytic_bump(s - t), -4.0, 4.0
            )
            assert complex(conv(s)).real == pytest.approx(oracle, abs=1e-8)
        assert conv.s0 == pytest.approx(-8.0)

    def test_times_minus_is(self):
        b = bump_profile(2.0)
        d = b.times_minus_is()
        assert complex(d(0.7)) == pytest.approx(-0.7j * analytic_bump(0.7, 2.0), abs=1e-9)

    def test_mismatched_step_rejected(self):
        with pytest.raises(ValueError):
            bump_profile(2.0, ds=0.01).convolve(bump_profile(2.0, ds=0.02))


def scipy_profile(prof: Profile, s):
    """The interpolant the profile had before: scipy not-a-knot splines, 0 outside."""
    grid = prof.grid()
    re = CubicSpline(grid, prof.values.real, extrapolate=False)
    im = CubicSpline(grid, prof.values.imag, extrapolate=False)
    return np.nan_to_num(re(s)) + 1j * np.nan_to_num(im(s))


def _sweep_profiles():
    f, g = default_sweep_pair()
    return [p for sym in (f, f.product(g), f.poisson(g)) for _, _, p in sym.terms]


def _random_profiles(sizes=(2, 3, 4, 5, 6, 17, 300), seed=7):
    # dyadic s0 and ds make the grid exact, so both splines interpolate the
    # same knots; the profiles of `Profile.sample` are built that way too
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        ds = 2.0 ** -int(rng.integers(0, 8))
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        out.append(Profile(ds * int(rng.integers(-n, 3)), ds, values))
    return out


class TestProfileSpline:
    @pytest.mark.parametrize(
        "prof, rel",
        [(p, 1e-15) for p in _sweep_profiles()]
        + [(p, 1e-14) for p in _random_profiles()]
        # support <= ds: the 3-sample profile, a parabola
        + [(Profile.sample(lambda s: np.cos(s) + 1j * s, 0.005), 1e-15)]
        # 7 and 8 samples end in a padded reduction level, 1025 and 2049
        # reduce through odd lengths only
        + [(p, 1e-14) for p in _random_profiles((7, 8, 1025, 2049), seed=8)],
    )
    def test_matches_scipy_cubic_spline(self, prof, rel):
        rng = np.random.default_rng(len(prof.values))
        width = prof.s_max - prof.s0
        s = np.concatenate(
            [
                rng.uniform(prof.s0 - 0.5 * width, prof.s_max + 0.5 * width, 2000),
                prof.grid(),
                [prof.s0, prof.s_max, np.nextafter(prof.s0, -np.inf),
                 np.nextafter(prof.s_max, np.inf), np.inf, -np.inf, np.nan],
            ]
        )
        got = prof(s)
        assert got.shape == s.shape
        scale = np.max(np.abs(prof.values))
        assert np.max(np.abs(got - scipy_profile(prof, s))) <= rel * scale
        outside = ~((s >= prof.s0) & (s <= prof.s_max))
        assert np.all(got[outside] == 0)
        for point in (prof.s0, 0.5 * (prof.s0 + prof.s_max), prof.s_max, prof.s_max + 1.0):
            for arg in (point, np.float64(point), np.array(point)):
                value = prof(arg)
                assert np.shape(value) == ()
                assert abs(complex(value) - complex(scipy_profile(prof, point))) <= rel * scale

    def test_endpoints_reproduce_the_samples(self):
        prof = _sweep_profiles()[2]
        assert complex(prof(prof.s0)) == prof.values[0]
        np.testing.assert_allclose(prof(prof.grid()), prof.values, rtol=0, atol=1e-16)

    def test_keeps_the_shape_of_its_argument(self):
        b = bump_profile(2.0)
        s = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert b(s).shape == (2, 3, 4)
        np.testing.assert_array_equal(b(s).ravel(), b(s.ravel()))


class TestSeparableSymbol:
    def test_fhat_separates(self):
        f, _ = default_sweep_pair()
        pw = f.to_pw()
        theta = 0.9
        m = np.array([math.cos(theta), math.sin(theta)])
        tau = np.array([-math.sin(theta), math.cos(theta)])
        for s in (0.0, 1.1, -2.2):
            got = separable_fhat(pw.terms)(m, s * tau)
            want = (1.0 + 0.5 * math.cos(theta)) * analytic_bump(s)
            assert complex(got) == pytest.approx(want, abs=1e-9)

    def test_product_is_pointwise_product(self):
        f, g = default_sweep_pair()
        fg = f.product(g)
        for theta, p in ((0.3, 0.5), (2.0, -1.2), (4.4, 0.0)):
            assert symbol_value(fg, theta, p) == pytest.approx(
                symbol_value(f, theta, p) * symbol_value(g, theta, p), rel=1e-6
            )

    def test_poisson_matches_finite_differences(self):
        f, g = default_sweep_pair()
        pb = f.poisson(g)
        r = f.radius
        h = 1e-4
        for theta, p in ((0.7, 0.4), (2.9, -0.8)):
            dfq = (symbol_value(f, theta + h, p) - symbol_value(f, theta - h, p)) / (2 * h * r)
            dgq = (symbol_value(g, theta + h, p) - symbol_value(g, theta - h, p)) / (2 * h * r)
            dfp = (symbol_value(f, theta, p + h) - symbol_value(f, theta, p - h)) / (2 * h)
            dgp = (symbol_value(g, theta, p + h) - symbol_value(g, theta, p - h)) / (2 * h)
            expected = dfq * dgp - dfp * dgq
            assert symbol_value(pb, theta, p) == pytest.approx(expected, rel=1e-5, abs=1e-8)

    def test_bracket_output_carries_no_derivative(self):
        f, g = default_sweep_pair()
        pb = f.poisson(g)
        assert all(ap is None for _, ap, _ in pb.terms)
        assert all(ap is None for _, ap, _ in f.product(pb).terms)
        with pytest.raises(NoAngularDerivative):
            f.poisson(pb)
        with pytest.raises(NoAngularDerivative):
            f.product(pb).poisson(g)


def _without_prime(sym: SeparableCircleSymbol) -> SeparableCircleSymbol:
    return SeparableCircleSymbol(sym.radius, tuple((a, None, p) for a, _, p in sym.terms))


class TestSweep:
    def test_deviations_strictly_decrease(self):
        f, g = default_sweep_pair()
        fiber = SphereFiber.circle(1.0, 384)
        rows = semiclassical_sweep(f, g, [0.5, 0.25, 0.125, 0.0625], fiber)
        for key in ("product", "jordan", "commutator"):
            seq = [row[key] for row in rows]
            assert all(a > b for a, b in zip(seq, seq[1:])), (key, seq)

    def test_default_pair_rows_unchanged(self, monkeypatch):
        # the kernels never read a term's angular derivative, so whether the
        # terms carry one must not move a bit of the kernels or of the rows
        f, g = default_sweep_pair()
        fiber = SphereFiber.circle(1.0, 128)
        for sym in (f, g, f.product(g)):
            for hbar in (0.5, -0.25):
                with_prime = kernel_quantize(sym.to_pw(), hbar, fiber).matrix
                without = kernel_quantize(_without_prime(sym).to_pw(), hbar, fiber).matrix
                assert np.array_equal(with_prime, without)
        rows = semiclassical_sweep(f, g, [0.5, 0.25], fiber)
        product = SeparableCircleSymbol.product
        monkeypatch.setattr(
            SeparableCircleSymbol, "product", lambda a, b: _without_prime(product(a, b))
        )
        assert semiclassical_sweep(f, g, [0.5, 0.25], fiber) == rows
        # the rows recorded before the offset route and the numpy spline,
        # which move their last bits
        recorded = [
            {"hbar": 0.5, "product": 1.9536914961787282, "jordan": 0.8316495111045529,
             "commutator": 1.1779867025256396},
            {"hbar": 0.25, "product": 1.0298341489204235, "jordan": 0.3541307856830593,
             "commutator": 0.3319471477750953},
        ]
        for row, want in zip(rows, recorded, strict=True):
            assert row["hbar"] == want["hbar"]
            for key in ("product", "jordan", "commutator"):
                assert row[key] == pytest.approx(want[key], rel=1e-13, abs=0.0)

    def test_builds_no_dense_kernel(self, monkeypatch):
        # the sweep applies its kernels by node offset: reading a dense
        # matrix raises, and no allocation comes near one N x N complex array
        def no_dense(op):
            raise AssertionError("the sweep built a dense kernel")

        monkeypatch.setattr(FiberOperator, "matrix", property(no_dense))
        f, g = default_sweep_pair()
        n_nodes = 768
        fiber = SphereFiber.circle(1.0, n_nodes)
        tracemalloc.start()
        try:
            rows = semiclassical_sweep(f, g, [0.5, 0.25], fiber)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [row["hbar"] for row in rows] == [0.5, 0.25]
        assert peak < n_nodes * n_nodes * 16 / 4

    def test_zero_symbol(self):
        fiber = SphereFiber.circle(1.0, 64)
        zero = SeparableCircleSymbol.single(
            1.0, lambda t: np.zeros_like(t), lambda t: np.zeros_like(t), bump_profile(2.0)
        )
        f, _ = default_sweep_pair()
        rows = semiclassical_sweep(zero, f, [0.5, 0.25], fiber)
        for row in rows:
            assert row["product"] == pytest.approx(0.0, abs=1e-14)
            assert row["commutator"] == pytest.approx(0.0, abs=1e-12)

    def test_negative_hbar_rejected(self):
        f, g = default_sweep_pair()
        with pytest.raises(ValueError):
            semiclassical_sweep(f, g, [0.5, -0.1], SphereFiber.circle(1.0, 16))

    @pytest.mark.parametrize("with_vector", [False, True])
    def test_sphere_fiber_rejected_before_any_kernel(self, monkeypatch, with_vector):
        def no_kernel(*args):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(sweep_module, "kernel_quantize", no_kernel)
        f, g = default_sweep_pair()
        fiber = SphereFiber.sphere(1.0, 6, 12)
        u = FiberFunction(fiber, np.ones(fiber.n_nodes)) if with_vector else None
        with pytest.raises(NotUniformCircle, match="SphereFiber of 72 nodes in R\\^3"):
            semiclassical_sweep(f, g, [0.5], fiber, u=u)

    def test_custom_vector(self):
        f, g = default_sweep_pair()
        fiber = SphereFiber.circle(1.0, 64)
        u = FiberFunction(fiber, np.sin(fiber.thetas) + 0j)
        rows = semiclassical_sweep(f, g, [0.5], fiber, u=u)
        assert rows[0]["product"] > 0
