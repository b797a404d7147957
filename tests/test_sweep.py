import math

import numpy as np
import pytest
from scipy.integrate import quad

from weylred.fiber import FiberFunction, SphereFiber
from weylred.sweep import (
    NoAngularDerivative,
    Profile,
    SeparableCircleSymbol,
    bump_profile,
    default_sweep_pair,
    semiclassical_sweep,
)


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


class TestSeparableSymbol:
    def test_fhat_separates(self):
        f, _ = default_sweep_pair()
        pw = f.to_pw()
        theta = 0.9
        m = np.array([math.cos(theta), math.sin(theta)])
        tau = np.array([-math.sin(theta), math.cos(theta)])
        for s in (0.0, 1.1, -2.2):
            got = pw.fhat(m, s * tau)
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


class TestSweep:
    def test_deviations_strictly_decrease(self):
        f, g = default_sweep_pair()
        fiber = SphereFiber.circle(1.0, 384)
        rows = semiclassical_sweep(f, g, [0.5, 0.25, 0.125, 0.0625], fiber)
        for key in ("product", "jordan", "commutator"):
            seq = [row[key] for row in rows]
            assert all(a > b for a, b in zip(seq, seq[1:])), (key, seq)

    def test_default_pair_rows_unchanged(self):
        # the kernels never read a term's angular derivative, so how bracket
        # outputs carry one must not move a bit of these rows
        f, g = default_sweep_pair()
        rows = semiclassical_sweep(f, g, [0.5, 0.25], SphereFiber.circle(1.0, 128))
        assert rows == [
            {"hbar": 0.5, "product": 1.9536914961787282, "jordan": 0.8316495111045529,
             "commutator": 1.1779867025256396},
            {"hbar": 0.25, "product": 1.0298341489204235, "jordan": 0.3541307856830593,
             "commutator": 0.3319471477750953},
        ]

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

    def test_custom_vector(self):
        f, g = default_sweep_pair()
        fiber = SphereFiber.circle(1.0, 64)
        u = FiberFunction(fiber, np.sin(fiber.thetas) + 0j)
        rows = semiclassical_sweep(f, g, [0.5], fiber, u=u)
        assert rows[0]["product"] > 0
