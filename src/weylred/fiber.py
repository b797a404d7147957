"""Quantization on sphere fibers S^{n-1}_r for n = 2, 3.

Stereographic charts with their metric density, the explicit midpoint
kernel built from the vertical Fourier transform of a symbol, the fiber
operator -i hbar (X + div X / 2), and the associated one-parameter flow
propagator. The sphere grids (`SphereFiber`) are defined in `geometry`,
next to the other level-set models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import (
    LevelSetModel,
    NotTangent,
    TANGENCY_TOL,
    SphereFiber,
    call_on_nodes,
    induced_divergence,
    tangency_residual,
)
from .symbols import VectorField


class StereographicPole(ValueError):
    """A point within 1e-12 r^2 of the pole, where the stereographic chart is singular."""


class PullBackUnavailable(ValueError):
    """Sampled values that cannot be moved along the flow without an ambient callable."""


@dataclass
class FiberFunction:
    """Node values of a function on a fiber.

    The fiber is one of the two fiber models: a `SphereFiber` (circles and
    2-spheres, the level sets of a radial phi) or a `LevelSetModel`
    (implicit curves and lines).

    `func` (ambient callable, called once on an (N, n) point array and
    giving (N,)) is an optional analytic enrichment: `evolve_group` prefers
    it to interpolation, and without it can pull the values back along the
    flow only on circles (trigonometric interpolation).
    """

    fiber: object
    values: np.ndarray
    func: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if len(self.values) != len(self.fiber.nodes):
            raise ValueError("value count does not match the fiber grid")

    def norm(self) -> float:
        return math.sqrt(float(np.sum(self.fiber.weights * np.abs(self.values) ** 2)))

    def inner(self, other: "FiberFunction") -> complex:
        return complex(np.sum(self.fiber.weights * np.conj(self.values) * other.values))


@dataclass(frozen=True, kw_only=True)
class PWSymbol:
    """A fiber symbol given through its vertical Fourier transform.

    It holds exactly one of two forms, as `FiberOperator` holds one of
    `dense` and `block`, and `kernel_quantize` picks its route from which:

    - `fhat(m, v)`: base points m on the sphere, vertical vectors v in the
      tangent plane at m; it must vanish for ||v|| > support_radius. The
      optional kappa is an even cutoff on the tangent bundle
      (kappa(m, v) = kappa(m, -v)). Both are called once, on (K, n) batches
      that hold only the K in-support, non-antipodal node pairs, and both
      return shape (K,).
    - separable circle `terms` ((a_1, b_1), ...): the symbol
      sum_j a_j(theta) b_j(m ^ v), with theta = arctan2(m_1, m_0) in
      (-pi, pi] and m ^ v = m_0 v_1 - m_1 v_0; each factor takes and gives
      arrays. They take no kappa, and quantize only on circles: each a_j is
      evaluated once on the 2N midpoint angles and each b_j once per signed
      node offset, and the kernel is applied by offset without building it.
    """

    fhat: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    support_radius: float
    kappa: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    terms: Optional[Tuple[Tuple[Callable, Callable], ...]] = None

    def __post_init__(self):
        if (self.fhat is None) == (self.terms is None):
            raise ValueError("a PWSymbol holds exactly one of fhat and separable terms")
        if self.terms is not None and self.kappa is not None:
            raise ValueError("separable terms take no kappa cutoff; give the symbol as fhat")


@dataclass(frozen=True)
class FiberOperator:
    """Linear operator on fiber node values: (Au)_i = sum_j matrix[i,j] u_j.

    It holds either its `dense` matrix or a matrix-free `block`, a map of
    (N, m) value blocks to (N, m) blocks (the offset route of
    `kernel_quantize`). `apply_block` uses whichever it holds; `matrix` is
    the dense matrix, built for a matrix-free operator only when read, as
    `block` applied to the identity. For kernel constructions matrix =
    K * diag(weights); the quadrature-stripped kernel is recovered by
    `kernel_matrix`.
    """

    fiber: object
    dense: Optional[np.ndarray] = None
    block: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if (self.dense is None) == (self.block is None):
            raise ValueError("a FiberOperator holds exactly one of a dense matrix and a block map")

    @cached_property
    def matrix(self) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        return self.block(np.eye(len(self.fiber.nodes), dtype=complex))

    def apply_block(self, values: np.ndarray) -> np.ndarray:
        """The operator on each column of an (N, m) block."""
        return self.dense @ values if self.block is None else self.block(values)

    def apply(self, u: FiberFunction) -> FiberFunction:
        return FiberFunction(self.fiber, self.apply_block(u.values[:, None])[:, 0])

    def kernel_matrix(self) -> np.ndarray:
        return self.matrix / self.fiber.weights[None, :]


def stereo_charts(w, r: float):
    """Stereographic chart centred opposite the pole w on the r-sphere.

    Returns (psi, upsilon, density) with psi(z)_j = lam <z, w_j>/(lam - <z,w>)
    for lam = r^2 and a tangent frame (w_j) at w; upsilon is the closed-form
    inverse and density the chart volume factor (2 lam/(lam+|c|^2))^{n-1}.
    psi is singular exactly at the pole z = w and raises StereographicPole
    where |lam - <z, w>| <= 1e-12 lam; the antipode maps to 0.
    """
    w = np.asarray(w, dtype=float)
    n = len(w)
    lam = r * r
    # orthonormal tangent frame at w
    if n == 2:
        frame = np.array([[-w[1], w[0]]]) / r
    elif n == 3:
        a = np.zeros(3)
        a[int(np.argmin(np.abs(w)))] = 1.0
        e1 = np.cross(w / r, a)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(w / r, e1)
        frame = np.array([e1, e2])
    else:
        raise ValueError("charts implemented for ambient dimension 2 and 3")

    def psi(z):
        z = np.asarray(z, dtype=float)
        denom = lam - float(np.dot(z, w))
        if abs(denom) <= 1e-12 * lam:
            raise StereographicPole("stereographic chart is singular at the pole")
        return lam * (frame @ z) / denom

    def upsilon(c):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        q = float(c @ c)
        return ((q - lam) / (q + lam)) * w + (2 * lam / (q + lam)) * (c @ frame)

    def density(c):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        q = float(c @ c)
        return (2 * lam / (lam + q)) ** (n - 1)

    return psi, upsilon, density


def kernel_quantize(f: PWSymbol, hbar: float, fiber: SphereFiber) -> FiberOperator:
    """Midpoint-kernel operator K(z,w) = hbar^{1-n} fhat(m(z,w), v(z,w)).

    The vertical argument is the full geodesic velocity (r theta/hbar) in
    the chord direction, so that on small scales the construction matches
    the flat Weyl kernel hbar^{-d} fhat((x+y)/2, (x-y)/hbar). Antipodal
    entries vanish; the optional cutoff kappa is evaluated at the geometric
    half-velocity (r theta / 2 in the chord direction). The symbol is
    evaluated only on pairs with r theta/|hbar| <= support_radius; every
    other entry is 0.

    A symbol given by `fhat` calls it on the pair geometry of
    `SphereFiber.kernel_pairs` (circles build it from node offsets,
    2-spheres from their cached pair angles) and gives a dense operator.
    Separable `terms` are planar: on a fiber with ambient_dim != 2 they
    raise ValueError. On a circle they give a matrix-free operator that
    applies the kernel by node offset (`_separable_circle_block`), in
    O(terms D N) per column for a half-band of D nodes; its `matrix` is
    built only when read. Both routes give the same entries.
    """
    if not isinstance(fiber, SphereFiber):
        raise TypeError(f"kernel_quantize needs a SphereFiber, got a {type(fiber).__name__}")
    if hbar == 0:
        raise ValueError("hbar must be nonzero")
    reach = abs(hbar) * f.support_radius
    if f.terms is not None:
        if fiber.ambient_dim != 2:
            raise ValueError(
                f"separable terms read the planar angle arctan2(m_1, m_0) and m ^ v; "
                f"they need a circle fiber, not ambient dimension {fiber.ambient_dim}"
            )
        return FiberOperator(fiber, block=_separable_circle_block(f.terms, hbar, fiber, reach))
    rows, cols, arc, M, U = fiber.kernel_pairs(reach)
    values = hbar ** (1 - fiber.ambient_dim) * np.asarray(
        f.fhat(M, (arc / hbar)[:, None] * U), dtype=complex
    )
    if f.kappa is not None:
        values = values * f.kappa(M, (arc / 2)[:, None] * U)
    K = np.zeros((fiber.n_nodes, fiber.n_nodes), dtype=complex)
    K[rows, cols] = values * fiber.weights[cols]
    return FiberOperator(fiber, K)


def _separable_circle_block(terms, hbar: float, fiber: SphereFiber, reach: float) -> Callable:
    """U -> K diag(weights) U for sum_j a_j(theta) b_j(m ^ v) on a circle, by node offset.

    Row i pairs with column i + e (mod N) at the midpoint angle
    pi (2 i + e) / N, one of 2N angles (taken in arctan2's range), with
    m ^ v = -r arc_e / hbar for arc_e = 2 pi r e / N. So each a_j is
    evaluated once on the 2N angles and each b_j once on the 2 D + 1 signed
    offsets |e| <= D, and (K diag(w) u)_i = sum_e a_j(pi (2 i + e) / N)
    b_j(-r arc_e / hbar) w_{i+e} u_{i+e} / hbar is one einsum per term and
    column, over strided views of the midpoint values and of the weighted
    vector extended by D nodes on each side. No N x N array is built.
    """
    n, r = fiber.n_nodes, fiber.radius
    depth = len(fiber.reach_offsets(reach))
    width = 2 * depth + 1
    back = np.arange(depth, -depth - 1, -1)  # -e for e = -D..D
    wedge = r * (r * (2 * math.pi * back / n)) / hbar
    slots = np.arange(2 * n)
    angles = math.pi * np.where(slots > n, slots - 2 * n, slots) / n
    # window i of the midpoint values starts at slot 2 i - D
    ring = np.arange(-depth, 2 * n - 1 + depth) % (2 * n)
    factors = [
        (
            sliding_window_view(np.asarray(a(angles), dtype=complex)[ring], width)[::2],
            np.asarray(b(wedge), dtype=complex),
        )
        for a, b in terms
    ]
    around = np.arange(-depth, n + depth) % n
    scale = fiber.weights / hbar

    def block(values: np.ndarray) -> np.ndarray:
        extended = (scale[:, None] * values)[around]
        out = np.zeros(values.shape, dtype=complex)
        for col in range(values.shape[1]):
            window = sliding_window_view(extended[:, col], width)
            for a_mid, b_off in factors:
                out[:, col] += np.einsum("ie,e,ie->i", a_mid, b_off, window)
        return out

    return block


# -- tangential differentiation ---------------------------------------


def _spectral_derivative_periodic(values: np.ndarray) -> np.ndarray:
    """d/dt on a uniform periodic grid over [0, 2 pi), for each column of (N, m)."""
    n = len(values)
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.fft.ifft(1j * k[:, None] * np.fft.fft(values, axis=0), axis=0)


def _poly_diff_matrix(x: np.ndarray) -> np.ndarray:
    """Differentiation matrix at arbitrary distinct nodes (barycentric)."""
    n = len(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _directional_derivative(X: VectorField, fiber, values: np.ndarray) -> np.ndarray:
    """(X u)(z) at the fiber nodes for each column u of an (N, m) block, X tangent.

    2-spheres take the tensor-grid route; circles and `LevelSetModel` curves
    z(t) take X u = <X, z'(t)> / |z'(t)|^2 * du/dt, a circle with
    z'(theta) = (-y, x).
    """
    if isinstance(fiber, SphereFiber) and fiber.ambient_dim == 3:
        return _sphere_tensor_derivative(X, fiber, values)
    Z = np.asarray(fiber.nodes, dtype=float)
    if isinstance(fiber, SphereFiber):
        vel = np.stack([-Z[:, 1], Z[:, 0]], axis=1)
    else:
        vel = fiber.node_velocities
    coef = np.einsum("ia,ia->i", X.evaluate_many(Z), vel) / np.einsum("ia,ia->i", vel, vel)
    if isinstance(fiber, LevelSetModel) and fiber.fiber_kind == "line":
        # Gauss-Legendre parameters: polynomial derivative on nodes scaled
        # into [-1, 1], where the barycentric weights stay finite
        scale = np.max(np.abs(fiber.params))
        du = (_poly_diff_matrix(fiber.params / scale) @ values) / scale
    else:
        du = _spectral_derivative_periodic(values)  # uniform periodic grid
    return coef[:, None] * du


def _sphere_tensor_derivative(X: VectorField, fiber: SphereFiber, values) -> np.ndarray:
    """<X, grad u> on the Gauss-Legendre x azimuth tensor grid, per column of (N, m).

    The mu-derivative is taken per azimuthal Fourier mode. A smooth function
    has odd modes of the form s * (smooth in mu) with s = sqrt(1 - mu^2),
    which a polynomial in mu fits only to first order; for those modes the
    polynomial derivative is applied to the smooth factor and s' = -mu/s is
    added by the product rule.
    """
    r = fiber.radius
    npol, nb = fiber.shape
    mu = fiber.mu
    U = np.asarray(values, dtype=complex).reshape(npol, nb, -1)
    k = np.fft.fftfreq(nb, d=1.0 / nb)
    Uk = np.fft.fft(U, axis=1)
    dU_beta = np.fft.ifft(1j * k[:, None] * Uk, axis=1)
    Dmu = _poly_diff_matrix(mu)

    def d_mu(A):
        return (Dmu @ A.reshape(npol, -1)).reshape(A.shape)

    s = np.sqrt(1 - mu**2)[:, None, None]
    odd = (k % 2).astype(bool)
    dUk_mu = d_mu(Uk)
    dUk_mu[:, odd] = s * d_mu(Uk[:, odd] / s) - (mu[:, None, None] / s**2) * Uk[:, odd]
    dU_mu = np.fft.ifft(dUk_mu, axis=1)
    Z = fiber.nodes.reshape(npol, nb, 3)
    s2 = 1 - mu**2  # sin^2(polar)
    # z(mu, beta) = r (s cos b, s sin b, mu); metric g_mm = r^2/s^2, g_bb = r^2 s^2
    cosb = Z[..., 0] / (r * np.sqrt(s2)[:, None])
    sinb = Z[..., 1] / (r * np.sqrt(s2)[:, None])
    dz_dmu = np.stack(
        [
            -r * mu[:, None] / np.sqrt(s2)[:, None] * cosb,
            -r * mu[:, None] / np.sqrt(s2)[:, None] * sinb,
            r * np.ones_like(cosb),
        ],
        axis=-1,
    )
    dz_db = np.stack(
        [
            -r * np.sqrt(s2)[:, None] * sinb,
            r * np.sqrt(s2)[:, None] * cosb,
            np.zeros_like(cosb),
        ],
        axis=-1,
    )
    # <X, grad u> = <X, dz_dmu> du/dmu / g_mm + <X, dz_db> du/db / g_bb
    Xv = X.evaluate_many(fiber.nodes).reshape(npol, nb, 3)
    x_mu = np.einsum("pba,pba->pb", Xv, dz_dmu) / (r * r / s2[:, None])
    x_beta = np.einsum("pba,pba->pb", Xv, dz_db) / (r * r * s2[:, None])
    return (x_mu[..., None] * dU_mu + x_beta[..., None] * dU_beta).reshape(npol * nb, -1)


def _fiber_divergence_values(X: VectorField, fiber, points: np.ndarray) -> np.ndarray:
    """div of the induced field at the given points on the fiber."""
    if isinstance(fiber, SphereFiber):
        # radial case: the Hessian correction vanishes for tangent fields,
        # so the induced divergence equals the ambient one
        return np.real(X.divergence().evaluate_many(points))
    return induced_divergence(X, fiber.hamiltonians, points)


def _check_tangent(X: VectorField, fiber, field_values: Optional[np.ndarray] = None) -> None:
    """Raise NotTangent unless X is tangent at the nodes; field_values are X there, if known."""
    Z = np.asarray(fiber.nodes, dtype=float)
    if isinstance(fiber, SphereFiber):
        if field_values is None:
            field_values = X.evaluate_many(Z)
        resid = np.max(np.abs(np.einsum("ia,ia->i", field_values, Z))) / fiber.radius
    else:
        resid = np.max(tangency_residual(X, fiber.hamiltonians, Z))
    if resid > TANGENCY_TOL:
        raise NotTangent(f"field is not tangent to the fiber (residual {resid:.3e})")


def _jx_block(X: VectorField, hbar: float, fiber, values: np.ndarray, deriv: np.ndarray):
    """-i hbar (X u + (div X^lambda) u / 2) for the columns u of an (N, m) block."""
    div = _fiber_divergence_values(X, fiber, np.asarray(fiber.nodes, dtype=float))
    return -1j * hbar * (deriv + 0.5 * div[:, None] * values)


def fiber_JX_apply(X: VectorField, hbar: float, u: FiberFunction) -> FiberFunction:
    """-i hbar (X u + (div X^lambda) u / 2) on the fiber."""
    _check_tangent(X, u.fiber)
    values = u.values[:, None]
    deriv = _directional_derivative(X, u.fiber, values)
    return FiberFunction(u.fiber, _jx_block(X, hbar, u.fiber, values, deriv)[:, 0])


def fiber_JX_matrix(X: VectorField, hbar: float, fiber) -> FiberOperator:
    """Dense matrix of fiber_JX_apply: one derivative call on the identity block."""
    _check_tangent(X, fiber)
    eye = np.eye(len(fiber.nodes), dtype=complex)
    deriv = _directional_derivative(X, fiber, eye)
    return FiberOperator(fiber, _jx_block(X, hbar, fiber, eye, deriv))


# -- flow propagator ---------------------------------------------------


def evolve_group(
    X: VectorField,
    t: float,
    hbar: float,
    u: FiberFunction,
    steps: int = 1024,
) -> FiberFunction:
    """Unitary flow propagator exp((i t/hbar) JX) in closed form.

    Solves d/dt v = (X + div X^lambda / 2) v along characteristics:
    v(t, z) = exp(int_0^t div X^lambda(Phi_s z) ds / 2) * u(Phi_t z); the
    exponent accumulates the Radon-Nikodym density of the flow pullback.
    hbar cancels in the closed form.

    A linear field X(x) = A x on a SphereFiber follows its exact orbit
    Phi_t = e^{tA}, and its divergence integral is t tr A. On a circle that
    orbit is a rotation by one angle alpha, read off e^{tA}, and values
    without `func` are pulled back by the Fourier shift
    ifft(e^{i k alpha} fft(u)). Nonlinear fields and level-set fibers
    integrate the flow and the divergence accumulator jointly with `steps`
    fixed RK4 steps.
    """
    fiber = u.fiber
    Z0 = np.asarray(fiber.nodes, dtype=float)
    A = X.linear_part() if isinstance(fiber, SphereFiber) else None
    if A is not None:
        _check_tangent(X, fiber, Z0 @ A.T)
        # tangency to the sphere makes A skew (its symmetric part, at most the
        # tangency tolerance, is dropped): e^{tA} = V e^{-i t lam} V^H from the
        # Hermitian eigendecomposition i A = V lam V^H
        lam, V = np.linalg.eigh(0.5j * (A - A.T))
        E = ((V * np.exp(-1j * t * lam)) @ V.conj().T).real
        alpha = math.atan2(E[1, 0], E[0, 0]) if fiber.ambient_dim == 2 else None
        return _pull_back(u, Z0 @ E.T, np.full(len(Z0), t * np.trace(A)), alpha)
    _check_tangent(X, fiber)

    def rhs(pts):
        return X.evaluate_many(pts), _fiber_divergence_values(X, fiber, pts)

    pts = Z0.copy()
    acc = np.zeros(len(pts))
    h = t / steps
    for _ in range(steps):
        k1v, k1a = rhs(pts)
        k2v, k2a = rhs(pts + 0.5 * h * k1v)
        k3v, k3a = rhs(pts + 0.5 * h * k2v)
        k4v, k4a = rhs(pts + h * k3v)
        pts = pts + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
        acc = acc + (h / 6) * (k1a + 2 * k2a + 2 * k3a + k4a)
    return _pull_back(u, pts, acc)


def _pull_back(
    u: FiberFunction, pts: np.ndarray, acc: np.ndarray, alpha: Optional[float] = None
) -> FiberFunction:
    """sqrt(exp(acc)) * u(pts): u at the flowed nodes pts, times the flow density.

    alpha, when given, is the angle by which the flow rotates a circle
    (pts are the nodes shifted by it): without `func` the values are
    then pulled back by the Fourier shift ifft(e^{i k alpha} fft(u)).
    Sampled values on any fiber but a `SphereFiber` circle raise
    PullBackUnavailable.
    """
    if not np.all(np.isfinite(pts)):
        raise FloatingPointError("flow integration broke down")
    fiber = u.fiber
    if u.func is not None:
        pulled = call_on_nodes(u.func, pts).astype(complex)
    elif alpha is not None:
        k = np.fft.fftfreq(len(u.values), d=1.0 / len(u.values))
        pulled = np.fft.ifft(np.exp(1j * alpha * k) * np.fft.fft(u.values))
    elif isinstance(fiber, SphereFiber) and fiber.ambient_dim == 2:
        pulled = _trig_interpolate(u.values, np.arctan2(pts[:, 1], pts[:, 0]))
    else:
        raise PullBackUnavailable("need an ambient callable to evaluate along the flow")
    return FiberFunction(fiber, np.sqrt(np.exp(acc)) * pulled)


def _trig_interpolate(values: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of uniform-grid data."""
    n = len(values)
    coeffs = np.fft.fft(values) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.sum(coeffs * np.exp(1j * np.outer(angles, k)), axis=1)
