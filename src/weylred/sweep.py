"""Semiclassical deviation sweeps on circle fibers.

Symbols here are finite sums of separable terms a(theta) (x) beta(p), held
through the sampled vertical Fourier profile b of beta. Products become
profile convolutions, momentum derivatives become multiplication by -i s,
and the whole algebra closes over the operations needed for the sweep:
f*g, the Jordan product and the Poisson bracket in arc-length coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.interpolate import CubicSpline

from .fiber import FiberFunction, PWSymbol, SphereFiber, kernel_quantize

PROFILE_DS = 1.0 / 128.0


@dataclass(frozen=True)
class Profile:
    """Uniformly sampled compactly supported profile b(s).

    s-grid: s0 + ds * arange(len(values)); zero outside the sampled window.
    """

    s0: float
    ds: float
    values: np.ndarray

    @classmethod
    def sample(cls, func: Callable[[np.ndarray], np.ndarray], support: float,
               ds: float = PROFILE_DS) -> "Profile":
        n = 2 * int(math.ceil(support / ds)) + 1
        s = -support + ds * np.arange(n)
        return cls(-support, ds, np.asarray(func(s), dtype=complex))

    @property
    def s_max(self) -> float:
        return self.s0 + self.ds * (len(self.values) - 1)

    def grid(self) -> np.ndarray:
        return self.s0 + self.ds * np.arange(len(self.values))

    @cached_property
    def _splines(self) -> Tuple[CubicSpline, CubicSpline]:
        """Real and imaginary interpolants, built once per profile."""
        grid = self.grid()
        return (
            CubicSpline(grid, self.values.real, extrapolate=False),
            CubicSpline(grid, self.values.imag, extrapolate=False),
        )

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        spline_re, spline_im = self._splines
        return np.nan_to_num(spline_re(s)) + 1j * np.nan_to_num(spline_im(s))

    def convolve(self, other: "Profile") -> "Profile":
        if abs(self.ds - other.ds) > 1e-15:
            raise ValueError("profiles must share the sampling step")
        vals = np.convolve(self.values, other.values) * self.ds
        return Profile(self.s0 + other.s0, self.ds, vals)

    def times_minus_is(self) -> "Profile":
        return Profile(self.s0, self.ds, -1j * self.grid() * self.values)


def bump_profile(support: float, ds: float = PROFILE_DS) -> Profile:
    def f(s):
        t = np.asarray(s, dtype=float) / support
        out = np.zeros_like(t)
        inside = np.abs(t) < 1
        out[inside] = np.exp(-1.0 / (1 - t[inside] ** 2))
        return out

    return Profile.sample(f, support, ds)


class NoAngularDerivative(ValueError):
    """A Poisson bracket needs a'(theta) of a term that carries none."""


@dataclass(frozen=True)
class SeparableCircleSymbol:
    """Sum of terms a_j(theta) (x) b_j on the circle fiber of radius r.

    Each term is (a_j, a_j', b_j). Bracket outputs carry a_j' = None, and so
    does every product term with such a factor: they can be quantized and
    multiplied, but not bracketed again.
    """

    radius: float
    terms: Tuple[Tuple[Callable, Optional[Callable], Profile], ...]

    @classmethod
    def single(cls, radius, a, aprime, profile) -> "SeparableCircleSymbol":
        return cls(radius, ((a, aprime, profile),))

    def support_radius(self) -> float:
        return max(max(abs(p.s0), abs(p.s_max)) for _, _, p in self.terms)

    def to_pw(self) -> PWSymbol:
        r = self.radius
        terms = self.terms

        def fhat(m, v):
            m = np.asarray(m, dtype=float)
            v = np.asarray(v, dtype=float)
            theta = np.arctan2(m[..., 1], m[..., 0])
            # signed tangent component of v at the base point
            s = (-m[..., 1] * v[..., 0] + m[..., 0] * v[..., 1]) / r
            out = np.zeros(np.shape(theta), dtype=complex)
            for a, _, prof in terms:
                out = out + np.asarray(a(theta), dtype=complex) * prof(s)
            return out

        return PWSymbol(fhat=fhat, support_radius=self.support_radius())

    def product(self, other: "SeparableCircleSymbol") -> "SeparableCircleSymbol":
        terms = []
        for a, ap, p in self.terms:
            for c, cp, q in other.terms:
                terms.append(
                    (
                        _mul_ang(a, c),
                        _mul_ang_prime(a, ap, c, cp),
                        p.convolve(q),
                    )
                )
        return SeparableCircleSymbol(self.radius, tuple(terms))

    def poisson(self, other: "SeparableCircleSymbol") -> "SeparableCircleSymbol":
        """{f,g} = d_q f d_p g - d_p f d_q g with q the arc length r*theta."""
        r = self.radius
        terms = []
        for a, ap, p in self.terms:
            for c, cp, q in other.terms:
                if ap is None or cp is None:
                    raise NoAngularDerivative(
                        "cannot bracket a term without an angular derivative "
                        "(a bracket output, or a product with one)"
                    )
                # (a'/r) c  (x)  p * (-is q)
                terms.append(
                    (_mul_ang(_scale_ang(ap, 1 / r), c), None, p.convolve(q.times_minus_is()))
                )
                # -(a c'/r)  (x)  (-is p) * q
                terms.append(
                    (_mul_ang(_scale_ang(a, -1 / r), cp), None, p.times_minus_is().convolve(q))
                )
        return SeparableCircleSymbol(self.radius, tuple(terms))


def _mul_ang(a, c):
    return lambda t: np.asarray(a(t)) * np.asarray(c(t))


def _mul_ang_prime(a, ap, c, cp):
    if ap is None or cp is None:
        return None
    return lambda t: np.asarray(ap(t)) * np.asarray(c(t)) + np.asarray(
        a(t)
    ) * np.asarray(cp(t))


def _scale_ang(a, factor):
    return lambda t: factor * np.asarray(a(t))


def default_sweep_pair(radius: float = 1.0, support: float = 4.0):
    """The fixed (f, g) used by the sweep acceptance check."""
    b = bump_profile(support)
    f = SeparableCircleSymbol.single(
        radius, lambda t: 1.0 + 0.5 * np.cos(t), lambda t: -0.5 * np.sin(t), b
    )
    g = SeparableCircleSymbol.single(
        radius, lambda t: 1.0 + 0.5 * np.sin(2 * t), lambda t: np.cos(2 * t), b
    )
    return f, g


def semiclassical_sweep(
    f: SeparableCircleSymbol,
    g: SeparableCircleSymbol,
    hbars: Sequence[float],
    fiber: SphereFiber,
    u: FiberFunction | None = None,
) -> List[dict]:
    """Vector-wise deviations of the quantized product, Jordan product and
    scaled commutator from the quantization of the classical counterparts,
    for each hbar in the (decreasing) list.
    """
    if any(h <= 0 for h in hbars):
        raise ValueError("hbar values must be positive")
    if u is None:
        u = FiberFunction(fiber, np.exp(np.cos(fiber.thetas)) + 0j)
    fg = f.product(g)
    pb = f.poisson(g)
    pw_f, pw_g, pw_fg, pw_pb = f.to_pw(), g.to_pw(), fg.to_pw(), pb.to_pw()
    rows = []
    for hbar in hbars:
        Kf = kernel_quantize(pw_f, hbar, fiber).matrix
        Kg = kernel_quantize(pw_g, hbar, fiber).matrix
        Kfg = kernel_quantize(pw_fg, hbar, fiber).matrix
        Kpb = kernel_quantize(pw_pb, hbar, fiber).matrix
        w = fiber.weights

        def wnorm(vals):
            return math.sqrt(float(np.sum(w * np.abs(vals) ** 2)))

        uv = u.values
        prod_dev = wnorm((Kf @ (Kg @ uv)) - Kfg @ uv)
        jordan_dev = wnorm(
            0.5 * (Kf @ (Kg @ uv) + Kg @ (Kf @ uv)) - Kfg @ uv
        )
        comm_dev = wnorm(
            (Kf @ (Kg @ uv) - Kg @ (Kf @ uv)) / (1j * hbar) - Kpb @ uv
        )
        rows.append(
            {
                "hbar": hbar,
                "product": prod_dev,
                "jordan": jordan_dev,
                "commutator": comm_dev,
            }
        )
    return rows
