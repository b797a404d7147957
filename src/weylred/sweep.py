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

from .fiber import FiberFunction, PWSymbol, SphereFiber, kernel_quantize

PROFILE_DS = 1.0 / 128.0


@dataclass(frozen=True)
class Profile:
    """Uniformly sampled compactly supported profile b(s).

    s-grid: s0 + ds * arange(len(values)). Calling it evaluates the
    not-a-knot cubic spline through the samples (a line through 2 samples,
    a parabola through 3), and 0 outside [s0, s_max]. The spline
    coefficients are built once per profile.
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
    def _cubic(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-interval coefficients (c3, c2, c1, c0) in powers of u = (s - s_i) / ds."""
        y = np.asarray(self.values, dtype=complex)
        delta = np.diff(y)
        slopes = _not_a_knot_slopes(delta)  # ds * b'(s_i)
        c3 = slopes[:-1] + slopes[1:] - 2 * delta
        return c3, delta - slopes[:-1] - c3, slopes[:-1], y[:-1]

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        flat = s.reshape(-1)
        inside = (flat >= self.s0) & (flat <= self.s_max)
        u = (np.where(inside, flat, self.s0) - self.s0) / self.ds
        i = np.minimum(u.astype(np.intp), len(self.values) - 2)
        u -= i
        c3, c2, c1, c0 = self._cubic
        out = c3[i] * u
        out += c2[i]
        out *= u
        out += c1[i]
        out *= u
        out += c0[i]
        out[~inside] = 0.0
        return out.reshape(s.shape)

    def convolve(self, other: "Profile") -> "Profile":
        if abs(self.ds - other.ds) > 1e-15:
            raise ValueError("profiles must share the sampling step")
        vals = np.convolve(self.values, other.values) * self.ds
        return Profile(self.s0 + other.s0, self.ds, vals)

    def times_minus_is(self) -> "Profile":
        return Profile(self.s0, self.ds, -1j * self.grid() * self.values)


def _not_a_knot_slopes(delta: np.ndarray) -> np.ndarray:
    """Scaled knot slopes g_i = ds b'(s_i) of the not-a-knot spline with sample differences delta.

    On a uniform grid the interior equations are g_{i-1} + 4 g_i + g_{i+1} =
    3 (delta_{i-1} + delta_i), and the not-a-knot ends give
    g_0 + 2 g_1 = (5 delta_0 + delta_1) / 2 and its mirror image. Each end
    row is subtracted from its neighbour, which leaves the strictly
    diagonally dominant rows (2, 1), (1, 4, 1) ... (1, 4, 1), (1, 2) in
    g_1 .. g_{n-1}, solved by cyclic reduction; g_0 and g_n follow from the
    end rows.
    """
    if len(delta) == 1:
        return np.array([delta[0], delta[0]])
    if len(delta) == 2:
        mid = (delta[0] + delta[1]) / 2
        return np.array([2 * delta[0] - mid, mid, 2 * delta[1] - mid])
    first = (5 * delta[0] + delta[1]) / 2
    last = (delta[-2] + 5 * delta[-1]) / 2
    rhs = 3 * (delta[:-1] + delta[1:])
    rhs[0] -= first
    rhs[-1] -= last
    diag = np.full(len(rhs), 4.0)
    diag[0] = diag[-1] = 2.0
    lower = np.ones(len(rhs))
    lower[0] = 0.0
    inner = _cyclic_reduction(lower, diag, lower[::-1], rhs)
    return np.concatenate([[first - 2 * inner[0]], inner, [last - 2 * inner[-1]]])


def _cyclic_reduction(lower, diag, upper, rhs):
    """Solve lower_i x_{i-1} + diag_i x_i + upper_i x_{i+1} = rhs_i, with lower_0 = upper_{-1} = 0.

    Each level eliminates the even-indexed unknowns from the odd-indexed
    rows, which halves the system; the even unknowns then follow from their
    own rows. An even length first gets a decoupled row x = 0. Exact
    elimination, stable for diagonally dominant rows.
    """
    if len(diag) == 1:
        return rhs / diag
    if len(diag) % 2 == 0:
        rows = zip((lower, diag, upper, rhs), (0.0, 1.0, 0.0, 0.0))
        return _cyclic_reduction(*(np.append(v, pad) for v, pad in rows))[:-1]
    alpha = -lower[1::2] / diag[:-1:2]
    gamma = -upper[1::2] / diag[2::2]
    odd = _cyclic_reduction(
        alpha * lower[:-1:2],
        diag[1::2] + alpha * upper[:-1:2] + gamma * lower[2::2],
        gamma * upper[2::2],
        rhs[1::2] + alpha * rhs[:-1:2] + gamma * rhs[2::2],
    )
    x = np.empty(len(diag), dtype=rhs.dtype)
    x[1::2] = odd
    x[::2] = rhs[::2]
    x[2::2] -= lower[2::2] * odd
    x[:-1:2] -= upper[:-1:2] * odd
    x[::2] /= diag[::2]
    return x


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


class NotUniformCircle(ValueError):
    """Separable circle symbols need a `SphereFiber` circle."""


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
        """The fiber symbol sum_j a_j(theta) b_j(s), s the tangent part of v scaled by |m| / r,
        as separable terms for the offset route of `kernel_quantize`."""
        r = self.radius
        terms = tuple((a, lambda wedge, prof=prof: prof(wedge / r)) for a, _, prof in self.terms)
        return PWSymbol(terms=terms, support_radius=self.support_radius())

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
    for each hbar in the (decreasing) list. The fiber must be a
    `SphereFiber` circle; any other fiber raises `NotUniformCircle` before a
    kernel is built. The kernels take the matrix-free offset route of
    `kernel_quantize` and are only applied, each to at most a two-column
    block; no N x N array is built.
    """
    if not isinstance(fiber, SphereFiber) or fiber.ambient_dim != 2:
        raise NotUniformCircle(
            "the sweep needs a SphereFiber circle, got a "
            f"{type(fiber).__name__} of {len(fiber.nodes)} nodes in R^{np.shape(fiber.nodes)[1]}"
        )
    if any(h <= 0 for h in hbars):
        raise ValueError("hbar values must be positive")
    if u is None:
        u = FiberFunction(fiber, np.exp(np.cos(fiber.thetas)) + 0j)
    fg = f.product(g)
    pb = f.poisson(g)
    pw_f, pw_g, pw_fg, pw_pb = f.to_pw(), g.to_pw(), fg.to_pw(), pb.to_pw()
    w = fiber.weights

    def wnorm(vals):
        return math.sqrt(float(np.sum(w * np.abs(vals) ** 2)))

    uv = u.values[:, None]
    rows = []
    for hbar in hbars:
        Kf, Kg, Kfg, Kpb = (kernel_quantize(pw, hbar, fiber) for pw in (pw_f, pw_g, pw_fg, pw_pb))
        # one apply of Kg on the block [u, Kf u] gives Kg u and Kg Kf u
        g_u, g_f_u = Kg.apply_block(np.hstack([uv, Kf.apply_block(uv)])).T
        f_g_u = Kf.apply_block(g_u[:, None])[:, 0]
        fg_u = Kfg.apply_block(uv)[:, 0]
        prod_dev = wnorm(f_g_u - fg_u)
        jordan_dev = wnorm(0.5 * (f_g_u + g_f_u) - fg_u)
        comm_dev = wnorm((f_g_u - g_f_u) / (1j * hbar) - Kpb.apply_block(uv)[:, 0])
        rows.append(
            {
                "hbar": hbar,
                "product": prod_dev,
                "jordan": jordan_dev,
                "commutator": comm_dev,
            }
        )
    return rows
