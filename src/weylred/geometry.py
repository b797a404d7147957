"""Level-set geometry of J = (phi_1, ..., phi_k).

Densities from the Gram determinant of the gradients, projections onto the
tangent spaces, induced divergence on fibers, the ambient J_Y operator, and
quadrature models of single level sets: `SphereFiber` for circles and
2-spheres, `LevelSetModel` for implicit planar curves and affine lines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .symbols import PolySymbol, VectorField, compile_symbols, evaluate_compiled

REGULARITY_THRESHOLD = 1e-8
TANGENCY_TOL = 1e-8
NODE_TOL = 1e-9


class SingularPoint(ValueError):
    """The wedge norm of DJ vanishes (point in the singular set)."""


class NotTangent(ValueError):
    """The vector field fails to be tangent to the level sets."""


class ParametrizationUnavailable(ValueError):
    pass


class OffLevel(ValueError):
    """A fiber node where some phi_j is off its level by more than NODE_TOL (1 + |lam|)."""


class MalformedFiber(ValueError):
    """A SphereFiber grid that is not a quadrature of its sphere.

    A node is off the sphere by more than 1e-12 max(1, r), the weights miss
    the volume by more than 1e-10 of it, or a circle's angles (nodes) are
    more than 1e-12 (1e-12 r) from the uniform grid.
    """


@dataclass(frozen=True)
class ScalarHamiltonian:
    """A position-only Hamiltonian phi with cached exact derivatives.

    `value`, `grad` and `hess` take one point of shape (n,) or node arrays
    of shape (N, n). All three run real compiled kernels built once per
    Hamiltonian.
    """

    phi: PolySymbol
    gradient: VectorField = field(init=False)
    _kernels: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.phi.is_xi_free() or not self.phi.is_hbar_free():
            raise ValueError("a ScalarHamiltonian must be xi- and hbar-free")
        n = self.phi.dimension
        grads = tuple(self.phi.partial("x", a) for a in range(n))
        object.__setattr__(self, "gradient", VectorField(n, grads))
        hess = tuple(g.partial("x", b) for g in grads for b in range(n))
        kernels = {}
        for name, fs in (("value", (self.phi,)), ("grad", grads), ("hess", hess)):
            exponents, coefficients = compile_symbols(fs)
            kernels[name] = (exponents, coefficients.real.copy())
        object.__setattr__(self, "_kernels", kernels)

    @property
    def dimension(self) -> int:
        return self.phi.dimension

    def _run(self, kernel: str, x, shape: Tuple[int, ...]):
        x = np.asarray(x, dtype=float)
        out = evaluate_compiled(*self._kernels[kernel], np.atleast_2d(x))
        out = out.reshape((len(out),) + shape)
        return out if x.ndim == 2 else out[0]

    def value(self, x):
        """phi: a float for one point, shape (N,) for (N, n) nodes."""
        return self._run("value", x, ())

    def grad(self, x) -> np.ndarray:
        """Gradient: shape (n,) for one point, (N, n) for (N, n) nodes."""
        return self._run("grad", x, (self.dimension,))

    def hess(self, x) -> np.ndarray:
        """Hessian: shape (n, n) for one point, (N, n, n) for (N, n) nodes."""
        n = self.dimension
        return self._run("hess", x, (n, n))


def radial_hamiltonian(n: int) -> ScalarHamiltonian:
    """phi = |x|^2/2."""
    phi = PolySymbol.zero(n)
    for a in range(n):
        phi = phi + PolySymbol.x(a, n) * PolySymbol.x(a, n)
    return ScalarHamiltonian(phi * Fraction(1, 2))


@dataclass
class TestFunction:
    """A smooth ambient function with analytic derivative data.

    The callables take node arrays of shape (N, n) and return shape (N,)
    (`gradient`: (N, n)); `call_on_nodes` enforces this. They are also
    given single points of shape (n,) by `check_gradient` and by the
    one-point form of `ambient_JY_apply`.

    `fourier` (when present) is the unitary, hbar-free Fourier transform
    (2 pi)^{-n/2} int u(x) e^{-i<x,xi>} dx, used by the momentum-side
    decomposition.
    """

    __test__ = False  # not a pytest class despite the name

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    analytic_l2_norm: Optional[float] = None
    fourier: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def check_gradient(self, probes: np.ndarray) -> float:
        """Max relative deviation of the analytic gradient vs central FD (step 1e-6)."""
        h = 1e-6
        worst = 0.0
        for p in np.atleast_2d(probes):
            g = np.asarray(self.gradient(p))
            fd = np.zeros_like(g, dtype=complex)
            for a in range(len(p)):
                e = np.zeros(len(p))
                e[a] = h
                fd[a] = (self.value(p + e) - self.value(p - e)) / (2 * h)
            scale = 1.0 + np.linalg.norm(g)
            worst = max(worst, float(np.linalg.norm(g - fd) / scale))
        return worst


def call_on_nodes(func: Callable, pts: np.ndarray, trailing: Tuple[int, ...] = ()) -> np.ndarray:
    """func called once on an (N, n) node array; it must give shape (N,) + trailing."""
    out = np.asarray(func(pts))
    want = (len(pts),) + trailing
    if out.shape != want:
        raise ValueError(
            f"callable {getattr(func, '__name__', func)!r} returned shape {out.shape} "
            f"for an array of {len(pts)} points; expected {want}"
        )
    return out


# -- pointwise geometry ------------------------------------------------
#
# Every function below takes one point of shape (n,) and gives a scalar, or
# takes a node array of shape (N, n) and gives shape (N,).


def gram_matrix(hams: Sequence[ScalarHamiltonian], x) -> np.ndarray:
    """Gram matrix of the gradients: (k, k) at one point, (N, k, k) on nodes."""
    grads = np.stack([h.grad(x) for h in _as_ham_list(hams)], axis=-2)
    return grads @ np.swapaxes(grads, -1, -2)


def jacobian_wedge_norm(hams: Sequence[ScalarHamiltonian], x):
    """||wedge^k DJ(x)|| = sqrt(det Gram(grad phi_1, ..., grad phi_k)); |grad phi| for k = 1."""
    hams = _as_ham_list(hams)
    if len(hams) == 1:
        g = hams[0].grad(x)
        w = np.sqrt(np.sum(g * g, axis=-1))
    else:
        w = np.sqrt(np.maximum(np.linalg.det(gram_matrix(hams, x)), 0.0))
    return w if np.ndim(w) else float(w)


def _require_regular(w, x) -> None:
    """Raise SingularPoint naming the first point whose wedge norm is not above
    REGULARITY_THRESHOLD (on an (L, N) stack, by level and node)."""
    bad = np.flatnonzero(~(np.atleast_1d(w) > REGULARITY_THRESHOLD))
    if not bad.size:
        return
    if np.ndim(w) == 0:
        raise SingularPoint(f"wedge norm {w:.3e} below threshold at {x}")
    if np.ndim(w) == 2:
        i, j = np.unravel_index(bad[0], np.shape(w))
        raise SingularPoint(
            f"wedge norm {w[i, j]:.3e} below threshold at node {j} ({x[i, j]}) of level {i}"
        )
    i = int(bad[0])
    raise SingularPoint(f"wedge norm {w[i]:.3e} below threshold at node {i} ({x[i]})")


def rho(hams, x):
    """Density rho(x) = ||wedge^k DJ(x)||^{-1} on the regular set.

    Also takes an (L, N, n) stack of fiber nodes, in one call, and gives (L, N).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 3:
        w = jacobian_wedge_norm(hams, x.reshape(-1, x.shape[-1])).reshape(x.shape[:2])
    else:
        w = jacobian_wedge_norm(hams, x)
    _require_regular(w, x)
    return 1.0 / w


def tangency_residual(Y: VectorField, hams, x):
    """max_j |<Y(x), grad phi_j(x)>|; zero certifies tangency at x."""
    y = Y.evaluate(x)
    dots = [np.abs(np.sum(y * h.grad(x), axis=-1)) for h in _as_ham_list(hams)]
    out = np.max(dots, axis=0)
    return out if np.ndim(out) else float(out)


def ambient_JY_apply(Y: VectorField, u: TestFunction, hbar: float, x):
    """(-i hbar (Y + div Y / 2) u)(x), with div Y evaluated exactly.

    On an (N, n) node array the callables of u are called once on the array.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    y = Y.evaluate(pts)
    div = Y.divergence().evaluate_many(pts).real
    if x.ndim == 1:
        grad = np.asarray(u.gradient(x))[None, :]
        val = u.value(x)
    else:
        grad = call_on_nodes(u.gradient, pts, (Y.dimension,))
        val = call_on_nodes(u.value, pts)
    out = -1j * hbar * (np.sum(y * grad, axis=-1) + 0.5 * div * val)
    return out if x.ndim == 2 else complex(out[0])


def _as_ham_list(hams) -> List[ScalarHamiltonian]:
    if isinstance(hams, ScalarHamiltonian):
        return [hams]
    return list(hams)


def _gram_det_symbol(hams: List[ScalarHamiltonian]) -> PolySymbol:
    """det of the polynomial Gram matrix of the gradients."""
    n = hams[0].dimension
    k = len(hams)
    G = [
        [
            sum(
                (
                    hams[j].gradient.components[a] * hams[m].gradient.components[a]
                    for a in range(n)
                ),
                PolySymbol.zero(n),
            )
            for m in range(k)
        ]
        for j in range(k)
    ]
    det = PolySymbol.zero(n)
    for perm in itertools.permutations(range(k)):
        # parity via inversion count
        inversions = sum(
            1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
        )
        sign = -1 if inversions % 2 else 1
        term = PolySymbol.one(n)
        for j in range(k):
            term = term * G[j][perm[j]]
        det = det + sign * term
    return det


def induced_divergence(Y: VectorField, hams, z):
    """div of the induced field Y^lambda on the level set through z.

    k=1 closed form: div Y + <Hess[phi] Y, grad phi> / ||grad phi||^2.
    General k: div Y - Y(log rho) with rho = det(Gram)^{-1/2}, evaluated
    through the exact polynomial Gram determinant. The two coincide for k=1.
    The symbols involved are built once per call, not once per node.
    """
    hams = _as_ham_list(hams)
    z = np.asarray(z, dtype=float)
    pts = np.atleast_2d(z)
    _require_regular(jacobian_wedge_norm(hams, z), z)
    resid = tangency_residual(Y, hams, pts)
    if np.any(resid > TANGENCY_TOL):
        i = int(np.argmax(resid > TANGENCY_TOL))
        where = f"node {i} ({pts[i]})" if z.ndim == 2 else f"{z}"
        raise NotTangent(f"field is not tangent at {where} (residual {resid[i]:.3e})")
    div_y = Y.divergence().evaluate_many(pts).real
    y = Y.evaluate(pts)
    if len(hams) == 1:
        h = hams[0]
        g = h.grad(pts)
        Hy = np.einsum("iab,ib->ia", h.hess(pts), y)
        out = div_y + np.sum(Hy * g, axis=-1) / np.sum(g * g, axis=-1)
    else:
        det_sym = _gram_det_symbol(hams)
        det_val = det_sym.evaluate_many(pts).real
        y_det = Y.apply_to(det_sym).evaluate_many(pts).real
        # Y(log rho) = -Y(det)/2det; div Y^lambda = div Y - Y(log rho)
        out = div_y + 0.5 * y_det / det_val
    return out if z.ndim == 2 else float(out[0])


# -- level set models --------------------------------------------------


@dataclass(frozen=True)
class SphereFiber:
    """Quadrature model of the sphere of radius r in R^n (n = 2 or 3).

    The one model of the level sets of a radial phi (`circle_level_set`,
    `sphere2_level_set`). Circle grids are uniform in angle (trapezoid rule,
    spectral for smooth periodic data); 2-sphere grids are Gauss-Legendre in
    cos(polar) times a uniform azimuth grid, stored polar-major.
    """

    ambient_dim: int
    radius: float
    nodes: np.ndarray
    weights: np.ndarray
    thetas: Optional[np.ndarray] = None  # circle angle per node (n=2)
    mu: Optional[np.ndarray] = None  # cos(polar) Gauss nodes (n=3)
    n_azimuth: Optional[int] = None

    def __post_init__(self):
        r = self.radius
        norms = np.sqrt(np.einsum("ia,ia->i", self.nodes, self.nodes))
        if np.max(np.abs(norms - r)) > 1e-12 * max(1.0, r):
            raise MalformedFiber("fiber nodes are off the sphere")
        target = 2 * math.pi * r if self.ambient_dim == 2 else 4 * math.pi * r * r
        if abs(self.weights.sum() - target) > 1e-10 * target:
            raise MalformedFiber("quadrature weights do not reproduce the volume")
        if self.thetas is not None:
            # the offset pair geometry of `kernel_pairs` relies on this grid
            n = self.n_nodes
            uniform = 2 * math.pi * np.arange(n) / n
            if (
                self.ambient_dim != 2
                or np.shape(self.thetas) != (n,)
                or np.max(np.abs(self.thetas - uniform)) > 1e-12
                or np.max(np.abs(self.nodes - r * _unit_circle(uniform))) > 1e-12 * r
            ):
                raise MalformedFiber("circle nodes must be r (cos, sin)(2 pi k / N) in order k = 0..N-1")

    @classmethod
    def circle(cls, radius: float, n_nodes: int = 256) -> "SphereFiber":
        thetas = 2 * math.pi * np.arange(n_nodes) / n_nodes
        nodes = radius * _unit_circle(thetas)
        weights = np.full(n_nodes, 2 * math.pi * radius / n_nodes)
        return cls(2, radius, nodes, weights, thetas=thetas)

    @classmethod
    def sphere(cls, radius: float, n_polar: int = 24, n_azimuth: int = 48) -> "SphereFiber":
        mu, wmu = gauss_legendre(n_polar)
        betas = 2 * math.pi * np.arange(n_azimuth) / n_azimuth
        M, B = np.meshgrid(mu, betas, indexing="ij")  # polar-major
        S = np.sqrt(1 - M**2)
        nodes = np.stack([S * np.cos(B), S * np.sin(B), M], axis=-1).reshape(-1, 3)
        weights = np.repeat(wmu * 2 * math.pi / n_azimuth, n_azimuth)
        unit = cls(3, 1.0, nodes, weights, mu=mu, n_azimuth=n_azimuth)
        return unit if radius == 1.0 else unit.scaled(radius)

    def scaled(self, radius: float) -> "SphereFiber":
        """The same grid on the sphere of the given radius (from a unit-radius grid)."""
        if self.radius != 1.0:
            raise ValueError("only a unit-radius grid can be scaled")
        factor = radius ** (self.ambient_dim - 1)
        return replace(
            self, radius=radius, nodes=radius * self.nodes, weights=factor * self.weights
        )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def pair_angles(self) -> Tuple[np.ndarray, np.ndarray]:
        """Angle between every node pair (N, N) and the antipodal mask |z + w| <= 1e-9 r.

        Built on first use and kept in the instance dict, outside the fields:
        `scaled` and `dataclasses.replace` make a new instance without it.
        """
        Z = self.nodes
        r = self.radius
        theta = np.arccos(np.clip((Z @ Z.T) / (r * r), -1.0, 1.0))
        anti = np.linalg.norm(Z[:, None, :] + Z[None, :, :], axis=2) <= 1e-9 * r
        return theta, anti

    def kernel_pairs(self, reach: float):
        """Midpoint geometry of the non-antipodal node pairs within geodesic distance reach.

        Returns (rows, cols, arc, M, U): the pair indices, the geodesic
        distance r theta, the geodesic midpoint and the unit chord direction
        (z_row - z_col)/|z_row - z_col| (0 on the diagonal), one entry per pair.

        On a uniform circle the geometry of a pair depends only on its node
        offset d = row - col: theta = 2 pi |d| / N, and the midpoint sits at
        the angle phi = theta_col + pi d / N with chord direction
        (-sin phi, cos phi). Offsets 1 <= d < N/2 are built directly, the
        mirrored pair (col, row) reuses the midpoint with the negated
        direction, and antipodes (d = N/2) never enter. Other grids use
        `pair_angles`.
        """
        if self.thetas is None:
            return self._kernel_pairs_from_angles(reach)
        r, n = self.radius, self.n_nodes
        offsets = self.reach_offsets(reach)
        arcs = r * (2 * math.pi * offsets / n)
        cols = np.broadcast_to(np.arange(n), (len(offsets), n)).ravel()
        rows = (cols + np.repeat(offsets, n)) % n
        phi = self.thetas[cols] + np.repeat(math.pi * offsets / n, n)
        cos, sin = np.cos(phi), np.sin(phi)
        mid = r * np.stack([cos, sin], axis=1)
        chord = np.stack([-sin, cos], axis=1)
        arc = np.repeat(arcs, n)
        diag = np.arange(n)
        return (
            np.concatenate([diag, rows, cols]),
            np.concatenate([diag, cols, rows]),
            np.concatenate([np.zeros(n), arc, arc]),
            np.concatenate([self.nodes, mid, mid]),
            np.concatenate([np.zeros((n, 2)), chord, -chord]),
        )

    def reach_offsets(self, reach: float) -> np.ndarray:
        """Node offsets 1 <= d < N/2 of a uniform circle whose arc r 2 pi d / N is within reach.

        The in-reach offsets are 1..D for some D >= 0; the antipodal offset
        N/2 never enters.
        """
        n = self.n_nodes
        offsets = np.arange(1, (n + 1) // 2)
        return offsets[self.radius * (2 * math.pi * offsets / n) <= reach]

    def _kernel_pairs_from_angles(self, reach: float):
        Z, r = self.nodes, self.radius
        theta, anti = self.pair_angles
        keep = ~anti & (r * theta <= reach)
        rows, cols = np.nonzero(keep)
        S = Z[rows] + Z[cols]
        M = r * S / np.linalg.norm(S, axis=1)[:, None]
        D = Z[rows] - Z[cols]
        nd = np.linalg.norm(D, axis=1)
        U = D / np.where(nd < 1e-15, 1.0, nd)[:, None]
        return rows, cols, r * theta[keep], M, U


def _unit_circle(angles: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


@lru_cache(maxsize=32)
def gauss_legendre(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order.

    Shared between callers, so both arrays are read-only.
    """
    t, w = np.polynomial.legendre.leggauss(order)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


@lru_cache(maxsize=32)
def half_line_rule(order: int, scale: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals over (0, inf), built once per (order, scale).

    Maps the Gauss-Legendre nodes t by r = scale (1 + t) / (1 - t), with
    weights 2 scale / (1 - t)^2 w (Boyd, Chebyshev and Fourier Spectral
    Methods, 2nd ed., ch. 17). An integrand that decays like r^-2 or faster
    becomes smooth in t, so the rule converges spectrally. Shared between
    callers, so both arrays are read-only.
    """
    t, w = gauss_legendre(order)
    r = scale * (1 + t) / (1 - t)
    dr = 2 * scale / (1 - t) ** 2 * w
    r.flags.writeable = False
    dr.flags.writeable = False
    return r, dr


@lru_cache(maxsize=32)
def unit_sphere_grid(dimension: int, *sizes: int) -> SphereFiber:
    """The unit-radius circle (sizes: n_nodes) or 2-sphere (n_polar, n_azimuth) grid.

    Built once per size and shared, so its arrays are read-only; callers
    scale it (`SphereFiber.scaled` copies the nodes and weights and shares
    `thetas` and `mu`).
    """
    unit = SphereFiber.circle(1.0, *sizes) if dimension == 2 else SphereFiber.sphere(1.0, *sizes)
    for array in (unit.nodes, unit.weights, unit.thetas, unit.mu):
        if array is not None:
            array.flags.writeable = False
    return unit


def _require_on_level(hams, level, nodes: np.ndarray) -> None:
    """Raise OffLevel naming the first node where some phi_j is off its level.

    nodes is one fiber (N, n) or a stack of fibers (L, N, n); level holds one
    entry per phi_j, a number or per-node levels that broadcast against
    nodes.shape[:-1]. Each phi_j is evaluated once, on all nodes; a stack of
    more than one level names the level and the node.
    """
    shape = nodes.shape[:-1]
    for h, lam in zip(hams, level):
        values = h.value(nodes.reshape(-1, nodes.shape[-1])).reshape(shape)
        lam = np.broadcast_to(lam, shape)
        off = np.argwhere(~(np.abs(values - lam) <= NODE_TOL * (1 + np.abs(lam))))
        if len(off):
            idx = tuple(off[0])
            stacked = len(idx) == 2 and shape[0] > 1
            where = f"node {idx[-1]} ({nodes[idx]}" + (f", level {idx[0]})" if stacked else ")")
            raise OffLevel(f"{where} off the level set: phi={values[idx]} vs {lam[idx]}")


@dataclass
class LevelSetModel:
    """A fiber of the level-set foliation that is not a sphere: an implicit curve or a line.

    nodes carry weights discretizing the Riemannian measure eta_lambda. The
    fiber is a curve z(t): `params` holds t and `node_velocities` dz/dt at
    every node (for curve derivatives), and `point` and `velocity` give z(t)
    and dz/dt at any t (for the finite-difference divergence oracle).
    fiber_kind 'implicit-curve' has uniform periodic parameters in
    [0, 2 pi), 'line' Gauss-Legendre ones. The density rho is not stored:
    the lambda-grid builders compute it once per fiber.
    """

    hamiltonians: List[ScalarHamiltonian]
    level: np.ndarray
    fiber_kind: str
    nodes: np.ndarray
    weights: np.ndarray
    params: np.ndarray
    node_velocities: np.ndarray
    point: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]

    def __post_init__(self):
        self.level = np.atleast_1d(np.asarray(self.level, dtype=float))
        _require_on_level(self.hamiltonians, self.level, self.nodes)
        if not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be positive")


def _radial_newton(phi: ScalarHamiltonian, direction: np.ndarray, lam: float, r0: float) -> float:
    """Solve phi(r * direction) = lam for r > 0 by Newton iteration.

    The root must be regular (`_require_regular_root`), so a level on or
    next to the singular set fails by name.
    """
    r = r0
    for _ in range(60):
        z = r * direction
        f = phi.value(z) - lam
        df = float(np.dot(phi.grad(z), direction))
        if df == 0:
            raise SingularPoint("radial derivative vanished during continuation")
        step = f / df
        r -= step
        if abs(step) < 1e-14 * (1 + abs(r)):
            break
    else:
        raise SingularPoint("radial Newton did not converge")
    if r <= 0:
        raise SingularPoint("level curve is not star-shaped around the origin")
    _require_regular_root(df, lam, r)
    return r


def _require_regular_root(df, lam, r) -> None:
    """Raise SingularPoint unless the radial derivative df at the root r of phi = lam
    is above REGULARITY_THRESHOLD (|grad phi| there, for a radial phi).

    Takes numbers, or arrays with one entry per level; arrays name the first
    failing level by its index.
    """
    df, lam, r = np.broadcast_arrays(np.atleast_1d(df), np.atleast_1d(lam), np.atleast_1d(r))
    bad = np.flatnonzero(~(np.abs(df) > REGULARITY_THRESHOLD))
    if bad.size:
        i = bad[0]
        raise SingularPoint(
            f"radial derivative {df[i]:.3e} below threshold at {_level_name(lam, i)} "
            f"(r = {r[i]:.3e})"
        )


def _level_name(levels: np.ndarray, i: int) -> str:
    """Level i of a stack as errors name it; a stack of one level is named by its value."""
    return f"level {levels[i]}" if len(levels) == 1 else f"level {i} (lambda = {levels[i]})"


def radial_fiber_stack(
    phi: ScalarHamiltonian, levels, radii, unit: SphereFiber
) -> Tuple[np.ndarray, np.ndarray]:
    """The unit grid scaled to every radius r_i with phi(r_i e_1) = levels[i].

    Returns the nodes (L, N, n) and weights (L, N) of the L scaled grids.
    Every radius must be finite and positive, and a regular root (the
    radial derivative above REGULARITY_THRESHOLD; one gradient call on the L
    radii), and every node must lie on its level (one phi evaluation on the
    L N nodes): a non-radial phi, or a radius off its level, fails here by
    name, naming the level (and the node).
    """
    levels = np.asarray(levels, dtype=float)
    radii = np.asarray(radii, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(radii) & (radii > 0)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"fiber radius {radii[i]} at {_level_name(levels, i)} is not a positive finite number"
        )
    e1 = np.eye(unit.ambient_dim)[0]
    _require_regular_root(phi.grad(radii[:, None] * e1) @ e1, levels, radii)
    nodes = radii[:, None, None] * unit.nodes
    _require_on_level([phi], [levels[:, None]], nodes)
    return nodes, radii[:, None] ** (unit.ambient_dim - 1) * unit.weights


def _radial_level_set(
    phi: ScalarHamiltonian, lam: float, unit: SphereFiber, radius: Optional[float]
) -> SphereFiber:
    """The unit grid scaled to the regular radius where phi = lam on the first axis.

    A given radius is used as it is; without one, the radius is solved by
    Newton from sqrt(|lam|) + 0.5. Either way it passes the checks of
    `radial_fiber_stack`, as a stack of one level.
    """
    if radius is None:
        e1 = np.eye(unit.ambient_dim)[0]
        radius = _radial_newton(phi, e1, lam, max(math.sqrt(abs(lam)) + 0.5, 0.5))
    radial_fiber_stack(phi, [lam], [radius], unit)
    return unit.scaled(radius)


def circle_level_set(
    phi: ScalarHamiltonian, lam: float, n_nodes: int = 256, *, radius: Optional[float] = None
) -> SphereFiber:
    """Circle fiber of a radial phi on R^2, at `radius` when the caller knows it
    (phi(radius e_1) = lam), else at the radius solved by Newton."""
    if phi.dimension != 2:
        raise ValueError("circle fibers need ambient dimension 2")
    return _radial_level_set(phi, lam, unit_sphere_grid(2, n_nodes), radius)


def sphere2_level_set(
    phi: ScalarHamiltonian,
    lam: float,
    n_polar: int = 24,
    n_azimuth: int = 48,
    *,
    radius: Optional[float] = None,
) -> SphereFiber:
    """2-sphere fiber of a radial phi on R^3 (Gauss-Legendre x trapezoid), at
    `radius` when the caller knows it, else at the radius solved by Newton."""
    if phi.dimension != 3:
        raise ValueError("sphere2 fibers need ambient dimension 3")
    return _radial_level_set(phi, lam, unit_sphere_grid(3, n_polar, n_azimuth), radius)


def _star_curve_velocity(phi: ScalarHamiltonian, Z: np.ndarray) -> np.ndarray:
    """dz/dt at the (N, 2) points Z of a star-shaped level curve z(t) = r(t) (cos t, sin t)."""
    r = np.linalg.norm(Z, axis=1)
    d = Z / r[:, None]
    dp = np.stack([-d[:, 1], d[:, 0]], axis=1)
    g = phi.grad(Z)
    rprime = -r * np.sum(g * dp, axis=1) / np.sum(g * d, axis=1)
    return rprime[:, None] * d + r[:, None] * dp


def implicit_curve_level_set(
    phi: ScalarHamiltonian, lam: float, n_nodes: int = 256
) -> LevelSetModel:
    """Closed planar level curve, parametrized by polar-angle continuation.

    The predictor is the previous radius; the corrector is a radial Newton
    solve. Arc-length weights come from the analytic velocity |dz/dt| on a
    uniform parameter grid (trapezoid rule; spectral for smooth curves).
    """
    if phi.dimension != 2:
        raise ValueError("implicit-curve fibers need ambient dimension 2")

    def solve_r(t: float, r0: float) -> float:
        return _radial_newton(phi, np.array([math.cos(t), math.sin(t)]), lam, r0)

    def point(t: float) -> np.ndarray:
        d = np.array([math.cos(t), math.sin(t)])
        return solve_r(t % (2 * math.pi), 1.0 + math.sqrt(abs(lam))) * d

    def velocity(t: float) -> np.ndarray:
        return _star_curve_velocity(phi, point(t)[None, :])[0]

    thetas = 2 * math.pi * np.arange(n_nodes) / n_nodes
    radii = np.empty(n_nodes)
    r_pred = 1.0 + math.sqrt(abs(lam))
    for i, t in enumerate(thetas):
        radii[i] = solve_r(t, r_pred)
        r_pred = radii[i]
    nodes = radii[:, None] * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    node_velocities = _star_curve_velocity(phi, nodes)
    weights = np.linalg.norm(node_velocities, axis=1) * (2 * math.pi / n_nodes)
    return LevelSetModel(
        [phi], np.array([lam]), "implicit-curve", nodes, weights,
        thetas, node_velocities, point, velocity,
    )


def line_level_set(
    phi: ScalarHamiltonian, lam: float, box: float = 8.0, n_nodes: int = 256
) -> LevelSetModel:
    """Affine-line fiber of a linear phi on R^2, truncated to [-box, box]."""
    if phi.dimension != 2:
        raise ValueError("line fibers need ambient dimension 2")
    c = phi.grad(np.zeros(2))
    norm_c = float(np.linalg.norm(c))
    if norm_c <= REGULARITY_THRESHOLD:
        raise SingularPoint("linear hamiltonian has vanishing gradient")
    const = phi.value(np.zeros(2))
    x0 = (lam - const) * c / norm_c**2
    d = np.array([-c[1], c[0]]) / norm_c
    t, wt = gauss_legendre(n_nodes)
    t = t * box
    wt = wt * box
    nodes = x0[None, :] + t[:, None] * d[None, :]
    return LevelSetModel(
        [phi], np.array([lam]), "line", nodes, wt,
        t, np.tile(d, (n_nodes, 1)), lambda s: x0 + s * d, lambda s: d.copy(),
    )


# -- finite-difference divergence oracle -------------------------------


def _curve_divergence_fd(Y: VectorField, point, velocity, t: float, h: float = 1e-5) -> float:
    """(sigma v)'(t) / sigma(t) with sigma = |dz/dt|, v = <Y, dz/dt>/sigma^2 on the curve z(t)."""

    def sigma_v(s: float) -> Tuple[float, float]:
        vel = velocity(s)
        sig = float(np.linalg.norm(vel))
        v = float(np.dot(Y.evaluate(point(s)), vel)) / sig**2
        return sig, v

    sig_p, v_p = sigma_v(t + h)
    sig_m, v_m = sigma_v(t - h)
    sig0, _ = sigma_v(t)
    return (sig_p * v_p - sig_m * v_m) / (2 * h * sig0)


def _sphere_divergence_fd(Y: VectorField, r: float, z: np.ndarray, h: float = 1e-5) -> float:
    """FD divergence on the r-sphere in a rotated spherical chart at z."""
    axis_idx = int(np.argmin(np.abs(z)))
    e3 = np.zeros(3)
    e3[axis_idx] = 1.0
    e1 = np.cross(e3, z / r)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)

    def point(alpha: float, beta: float) -> np.ndarray:
        return r * (
            math.sin(alpha) * (math.cos(beta) * e1 + math.sin(beta) * e2)
            + math.cos(alpha) * e3
        )

    # chart coordinates of z
    alpha0 = math.acos(np.clip(np.dot(z, e3) / r, -1, 1))
    beta0 = math.atan2(np.dot(z, e2), np.dot(z, e1))

    def comps(alpha: float, beta: float) -> Tuple[float, float, float]:
        p = point(alpha, beta)
        da = r * (
            math.cos(alpha) * (math.cos(beta) * e1 + math.sin(beta) * e2)
            - math.sin(alpha) * e3
        )
        db = r * math.sin(alpha) * (-math.sin(beta) * e1 + math.cos(beta) * e2)
        y = Y.evaluate(p)
        va = float(np.dot(y, da)) / (r * r)
        vb = float(np.dot(y, db)) / (r * r * math.sin(alpha) ** 2)
        sqrt_g = r * r * math.sin(alpha)
        return va, vb, sqrt_g

    _, _, sg0 = comps(alpha0, beta0)
    va_p, _, sg_ap = comps(alpha0 + h, beta0)
    va_m, _, sg_am = comps(alpha0 - h, beta0)
    _, vb_p, _ = comps(alpha0, beta0 + h)
    _, vb_m, _ = comps(alpha0, beta0 - h)
    d_alpha = (sg_ap * va_p - sg_am * va_m) / (2 * h)
    sg_b = sg0  # sqrt(g) is beta-independent
    d_beta = sg_b * (vb_p - vb_m) / (2 * h)
    return (d_alpha + d_beta) / sg0


def intrinsic_divergence_fd(Y: VectorField, fiber, z) -> float:
    """Chart finite-difference divergence of the induced field at a fiber node.

    Independent oracle for `induced_divergence`; never uses the Hessian
    closed form. 2-spheres use a rotated spherical chart at z, circles their
    angle, and `LevelSetModel` curves their own parametrization.
    """
    z = np.asarray(z, dtype=float)
    if isinstance(fiber, SphereFiber) and fiber.ambient_dim == 3:
        return _sphere_divergence_fd(Y, fiber.radius, z)
    if isinstance(fiber, SphereFiber):
        r = fiber.radius
        params = fiber.thetas

        def point(t):
            return r * np.array([math.cos(t), math.sin(t)])

        def velocity(t):
            return r * np.array([-math.sin(t), math.cos(t)])

    else:
        point, velocity, params = fiber.point, fiber.velocity, fiber.params
    # locate the chart parameter of z
    idx = int(np.argmin(np.linalg.norm(fiber.nodes - z, axis=1)))
    if np.linalg.norm(fiber.nodes[idx] - z) > 1e-9:
        raise ParametrizationUnavailable("probe point is not a fiber node")
    return _curve_divergence_fd(Y, point, velocity, float(params[idx]))
