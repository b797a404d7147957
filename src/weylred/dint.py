"""Direct-integral decomposition over the level sets of a scalar map.

Builds lambda-grids of fibers, the slicing isometry T_x (and its momentum
twin T_xi), coarea and unitarity diagnostics, and decomposable operators,
through which the strong-commutation residual runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List

import numpy as np

from .fiber import FiberFunction, FiberOperator, fiber_JX_apply
from .geometry import (
    ScalarHamiltonian,
    SingularPoint,
    SphereFiber,
    TestFunction,
    ambient_JY_apply,
    call_on_nodes,
    circle_level_set,
    gauss_legendre,
    half_line_rule,
    implicit_curve_level_set,
    jacobian_wedge_norm,
    line_level_set,
    radial_fiber_stack,
    rho as rho_at,
    sphere2_level_set,
    _radial_newton,
)
from .symbols import VectorField

# L of the half-line map r = r_lo + L (1 + t) / (1 - t) of a radial grid with lam_max = inf
HALF_LINE_SCALE = 3.0


class SingularLevel(ValueError):
    """A lambda node touches the singular set of the level map."""


class EmptyRange(ValueError):
    pass


class UnsupportedRange(ValueError):
    """A lambda range with an end the grid cannot map: a lam_min that is not
    finite, or an infinite lam_max on a kind without a half-line map."""


@dataclass(eq=False)
class LambdaGrid:
    """Discretized direct integral: L lambda levels x N fiber nodes, stacked.

    lambda_weights discretize Lebesgue measure on the regular range (the
    spectral measure of the decomposition). One array per quantity holds
    every level: `nodes` (L, N, n) the fiber nodes, `weights` (L, N) their
    weights for the fiber measure and `rho` (L, N) the coarea density there;
    every level has the same node count N. `fibers` gives the fiber model of
    each level (SphereFiber or LevelSetModel), built by `fiber_at(i)` when it
    is first read; a grid of given fibers is made by `from_fibers`.
    """

    hamiltonians: List[ScalarHamiltonian]
    lambda_nodes: np.ndarray
    lambda_weights: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    rho: np.ndarray
    fiber_at: Callable[[int], object] = field(repr=False)

    def __post_init__(self):
        if np.any(self.lambda_weights <= 0):
            raise ValueError("lambda weights must be positive")
        L = len(self.lambda_nodes)
        shapes = (np.shape(self.nodes)[:2], np.shape(self.weights), np.shape(self.rho))
        if np.ndim(self.nodes) != 3 or len(set(shapes)) != 1 or shapes[0][0] != L:
            raise ValueError(
                f"a lambda-grid of {L} levels needs nodes (L, N, n) and weights and rho "
                f"(L, N); got {np.shape(self.nodes)}, {shapes[1]}, {shapes[2]}"
            )

    @classmethod
    def from_fibers(
        cls, hamiltonians, lambda_nodes, lambda_weights, fibers: List[object]
    ) -> "LambdaGrid":
        """Stack one given fiber per level; rho is computed once, on the stack.

        Every fiber must have level 0's node count: a ragged list raises a
        ValueError naming the first level that differs.
        """
        sizes = [len(f.nodes) for f in fibers]
        for i, size in enumerate(sizes):
            if size != sizes[0]:
                raise ValueError(
                    f"level {i} has {size} fiber nodes and level 0 has {sizes[0]}: "
                    f"a lambda-grid needs one node count on every level"
                )
        nodes = np.stack([np.asarray(f.nodes, dtype=float) for f in fibers])
        weights = np.stack([f.weights for f in fibers])
        return cls(
            hamiltonians, lambda_nodes, lambda_weights, nodes, weights,
            rho_at(hamiltonians, nodes), fibers.__getitem__,
        )

    @cached_property
    def fibers(self) -> List[object]:
        return [self.fiber_at(i) for i in range(self.n_lambda)]

    @property
    def dimension(self) -> int:
        return self.hamiltonians[0].dimension

    @property
    def n_lambda(self) -> int:
        return len(self.lambda_nodes)

    def on_nodes(self, func: Callable) -> np.ndarray:
        """func called once on the (L N, n) node stack, its values as (L, N)."""
        L, N, n = self.nodes.shape
        return call_on_nodes(func, self.nodes.reshape(L * N, n)).reshape(L, N)


def build_grid(
    hamiltonian: ScalarHamiltonian,
    fiber_kind: str,
    lam_min: float,
    lam_max: float,
    n_lambda: int = 64,
    fiber_nodes: int = 256,
    *,
    n_polar: int = 24,
    n_azimuth: int = 48,
    box: float = 8.0,
) -> LambdaGrid:
    """Gauss-Legendre lambda grid with stacked fiber nodes, weights and rho.

    The radial kinds (circle, sphere2) place the Gauss nodes in the fiber
    radius and carry the Jacobian lambda'(r) into the weights; this keeps
    the lambda integrals spectrally accurate down to very small regular
    levels (where integrands behave like fractional powers of lambda).
    Newton solves only the end radii, and lambda_i = phi(r_i e_1) at the
    Gauss radii r_i. A radial grid may cover the whole half-line above
    phi(0): lam_min = phi(0) gives r_lo = 0 exactly, with no Newton solve
    (the Gauss nodes are interior, so no fiber sits on the singular level),
    and lam_max = math.inf shifts the nodes of
    `half_line_rule(n_lambda, HALF_LINE_SCALE)` by r_lo: r = r_lo +
    HALF_LINE_SCALE (1 + t) / (1 - t), with weights
    2 HALF_LINE_SCALE / (1 - t)^2 (Boyd, Chebyshev and Fourier Spectral
    Methods, 2nd ed., ch. 17). A lam_min below phi(0), where there are no
    levels, raises SingularLevel. The unit grid is scaled to every r_i at
    once (`radial_fiber_stack`: the regular-root test on every radius and
    the level check on every node, in one call each), and rho is evaluated
    once on the stack; the SphereFiber of a level is built only when
    `fibers` is read. The other kinds place the Gauss nodes in lambda, need
    a finite range (UnsupportedRange otherwise) and build one fiber per
    level. A level that touches the singular set raises SingularLevel.
    """
    level_set = {
        "circle": lambda lam, r: circle_level_set(hamiltonian, lam, fiber_nodes, radius=r),
        "sphere2": lambda lam, r: sphere2_level_set(
            hamiltonian, lam, n_polar, n_azimuth, radius=r
        ),
        "implicit-curve": lambda lam, r: implicit_curve_level_set(hamiltonian, lam, fiber_nodes),
        "line": lambda lam, r: line_level_set(hamiltonian, lam, box, fiber_nodes),
    }.get(fiber_kind)
    if level_set is None:
        raise ValueError(f"unknown fiber kind {fiber_kind!r}")
    if lam_max <= lam_min:
        raise EmptyRange(f"empty lambda range [{lam_min}, {lam_max}]")
    radial = fiber_kind in ("circle", "sphere2")
    if not (math.isfinite(lam_min) and (radial or math.isfinite(lam_max))):
        raise UnsupportedRange(
            f"lambda range [{lam_min}, {lam_max}] of a {fiber_kind} grid: only the radial "
            f"kinds map an infinite end, lam_max = inf"
        )
    if radial:
        increasing = _require_monotone_ray(hamiltonian)
    t, wt = gauss_legendre(n_lambda)
    hams = [hamiltonian]
    try:
        if not radial:
            lam_nodes = 0.5 * (lam_max - lam_min) * t + 0.5 * (lam_max + lam_min)
            lam_weights = 0.5 * (lam_max - lam_min) * wt
            fibers = [level_set(float(lam), None) for lam in lam_nodes]
            return LambdaGrid.from_fibers(hams, lam_nodes, lam_weights, fibers)
        e1 = np.eye(hamiltonian.dimension)[0]
        phi0 = hamiltonian.value(0 * e1)
        if lam_min < phi0 if increasing else math.isinf(lam_max):
            raise SingularLevel(
                f"lambda range [{lam_min}, {lam_max}]: phi(r e_1) runs "
                f"{'up' if increasing else 'down'} from phi(0) on r > 0, so there are no "
                f"levels {'below' if increasing else 'above'} phi(0) = {phi0}"
            )
        if lam_min == phi0:
            r_lo = 0.0
        else:
            r_lo = _radial_newton(hamiltonian, e1, lam_min, max(math.sqrt(abs(lam_min)), 1e-3))
        if math.isinf(lam_max):
            r_half, dr = half_line_rule(n_lambda, HALF_LINE_SCALE)
            r_nodes = r_lo + r_half
        else:
            r_hi = _radial_newton(hamiltonian, e1, lam_max, max(math.sqrt(abs(lam_max)), 1e-3))
            r_nodes = 0.5 * (r_hi - r_lo) * t + 0.5 * (r_hi + r_lo)
            dr = 0.5 * (r_hi - r_lo) * wt
        jac = hamiltonian.grad(r_nodes[:, None] * e1) @ e1
        lam_nodes = hamiltonian.value(r_nodes[:, None] * e1)
        lam_weights = dr * jac
        shape = (fiber_nodes,) if fiber_kind == "circle" else (n_polar, n_azimuth)
        nodes, weights = radial_fiber_stack(hamiltonian, lam_nodes, r_nodes, shape)
        rho = rho_at(hams, nodes)
    except SingularPoint as exc:
        raise SingularLevel(str(exc)) from exc
    return LambdaGrid(
        hams, lam_nodes, lam_weights, nodes, weights, rho,
        lambda i: level_set(float(lam_nodes[i]), float(r_nodes[i])),
    )


def _require_monotone_ray(hamiltonian: ScalarHamiltonian) -> bool:
    """Raise SingularLevel unless f(r) = phi(r e_1) is certified monotone for r > 0;
    return whether it increases.

    A radial grid takes one sphere per level, the one through f's root on
    the ray; a level that crosses the ray twice would lose the other sphere.
    Descartes' rule of signs on the exact coefficients of f' certifies that
    f' has no positive root when they show no sign change. A sign change is
    rejected even where f' has no positive root after all.
    """
    slope = {}  # r-power -> coefficient of f'(r)
    for (_, xe, _), c in hamiltonian.phi.terms.items():
        if xe[0] and not any(xe[1:]) and c.re:
            slope[xe[0] - 1] = xe[0] * c.re
    signs = [slope[d] > 0 for d in sorted(slope)]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    if not signs or changes:
        poly = " + ".join(f"({slope[d]}) r^{d}" for d in sorted(slope)) or "0"
        raise SingularLevel(
            f"phi(r e_1) is not certified monotone on the ray r > 0: its derivative "
            f"{poly} has {changes} sign change(s), so a level may hold more than one sphere"
        )
    return signs[0]


@dataclass
class DirectIntegralSection:
    """A section of the discretized direct integral, stacked like its grid.

    parts (L, N): parts[i, j] is the value at node j of level i.
    """

    grid: LambdaGrid
    parts: np.ndarray

    def __post_init__(self):
        self.parts = np.asarray(self.parts)
        if self.parts.shape != self.grid.weights.shape:
            raise ValueError(
                f"parts of shape {self.parts.shape} do not match the grid's "
                f"(L, N) = {self.grid.weights.shape}"
            )

    def norm(self) -> float:
        return math.sqrt(self.inner(self).real)

    def inner(self, other: "DirectIntegralSection") -> complex:
        g = self.grid
        fiberwise = np.sum(g.weights * np.conj(self.parts) * other.parts, axis=1)
        return complex(np.sum(g.lambda_weights * fiberwise))


def apply_Tx(u: TestFunction, grid: LambdaGrid) -> DirectIntegralSection:
    """[T_x u](lambda)(z) = rho(z)^{1/2} u(z) on the fibers.

    u.value is called once, on the (L N, n) node stack.
    """
    return _density_weighted(u.value, grid)


def _density_weighted(func: Callable, grid: LambdaGrid) -> DirectIntegralSection:
    return DirectIntegralSection(grid, np.sqrt(grid.rho) * grid.on_nodes(func).astype(complex))


def ambient_integral(func: Callable, dimension: int, *, n_r: int = 96, n_ang: int = 64) -> float:
    """Polar/spherical quadrature of a rapidly decaying ambient field.

    Radial Gauss-Legendre on [0, 8] crossed with the unit sphere grid:
    uniform angles (n=2) or Gauss-Legendre in cos(polar) x uniform azimuth
    (n=3); smooth for integrands of the form (smooth) * |x| that defeat
    Cartesian grids.
    """
    if dimension == 2:
        unit = SphereFiber.circle(1.0, n_ang)
    elif dimension == 3:
        unit = SphereFiber.sphere(1.0, max(n_ang // 2, 8), n_ang)
    else:
        raise ValueError("ambient quadrature implemented for n = 2, 3")
    t, wt = gauss_legendre(n_r)
    r, wr = 4.0 * (t + 1), 4.0 * wt  # mapped to [0, 8]
    pts = (r[:, None, None] * unit.nodes[None, :, :]).reshape(-1, dimension)
    W = np.outer(wr * r ** (dimension - 1), unit.weights).ravel()
    vals = call_on_nodes(func, pts)
    return float(np.real(np.sum(W * vals)))


def coarea_check(f: TestFunction, grid: LambdaGrid, *, n_r: int = 96, n_ang: int = 64) -> float:
    """|integral of f * wedge-norm  -  sum over levels of the fiber integrals|."""
    hams = grid.hamiltonians

    def weighted(pts):
        return call_on_nodes(f.value, pts) * jacobian_wedge_norm(hams, pts)

    lhs = ambient_integral(weighted, grid.dimension, n_r=n_r, n_ang=n_ang)
    rhs = float(np.sum(grid.lambda_weights * slice_integrals(f, grid)))
    return abs(lhs - rhs)


def apply_Txi(u: TestFunction, grid: LambdaGrid) -> DirectIntegralSection:
    """T_xi = T_x composed with the unitary Fourier transform.

    Requires the analytic transform (2 pi)^{-n/2} int u e^{-i<x,xi>} dx on
    the test function; the grid fibers are then read as momentum-space
    level sets.
    """
    if u.fourier is None:
        raise ValueError("apply_Txi needs analytic Fourier data on the test function")
    return _density_weighted(u.fourier, grid)


@dataclass
class DecomposableOperator:
    """Fiberwise (lambda-diagonal) operator on sections: ops[i] acts on level i."""

    grid: LambdaGrid
    ops: List[Callable[[FiberFunction], FiberFunction]]

    def apply(self, s: DirectIntegralSection) -> DirectIntegralSection:
        """The image of a section; a named error of a fiber operator names its lambda."""
        levels = zip(self.grid.lambda_nodes, self.grid.fibers, self.ops, s.parts)
        parts = np.stack(
            [_at_level(lam, "fiber operator", op, FiberFunction(fiber, p)).values for lam, fiber, op, p in levels]
        )
        return DirectIntegralSection(self.grid, parts)


def _at_level(lam, stage: str, call: Callable, *args):
    """call(*args) for the level lam.

    A named error of this package (SingularPoint, NotTangent, StereographicPole, ...)
    is re-raised as its own type with lam in the message; any other exception,
    a bug in the caller's code, passes through unchanged.
    """
    try:
        return call(*args)
    except Exception as exc:
        if not type(exc).__module__.startswith(__package__ + "."):
            raise
        raise type(exc)(f"{stage} failed at lambda={lam}: {exc}") from exc


def assemble_Opd(
    rule: Callable[[float, object, float], object],
    grid: LambdaGrid,
    hbar: float,
) -> DecomposableOperator:
    """The decomposable operator (direct integral of Op_lam d lam) on sections of grid.

    It maps sections to sections, level by level; the strong-commutation check
    runs it with the fiber generators J_Y^lam. `rule(lam, fiber, hbar)` must
    return a FiberOperator or a callable on FiberFunctions for every grid level.
    A named error of this package raised by the rule, or later by the operator
    it built, is re-raised as its own type with the offending lambda in the
    message (`_at_level`).
    """
    ops = []
    for lam, fiber in zip(grid.lambda_nodes, grid.fibers):
        op = _at_level(lam, "symbol rule", rule, float(lam), fiber, hbar)
        ops.append(op.apply if isinstance(op, FiberOperator) else op)
    return DecomposableOperator(grid, ops)


def strong_commutation_check(
    Y: VectorField, u: TestFunction, hbar: float, grid: LambdaGrid
) -> float:
    """max over lambda of || T(Op(J_Y) u)(lam) - JY^lam (T u)(lam) ||.

    The left side restricts the ambient operator -i hbar (Y + div Y/2)
    analytically; the right side applies the decomposable operator of the
    fiber generators JY^lam, which differentiate the sampled section on the
    fiber grid, so the two routes are computationally independent.
    """
    tu = apply_Tx(u, grid)
    lhs = np.sqrt(grid.rho) * grid.on_nodes(lambda pts: ambient_JY_apply(Y, u, hbar, pts))
    jy = assemble_Opd(lambda lam, fiber, h: lambda f: fiber_JX_apply(Y, h, f), grid, hbar)
    rhs = jy.apply(tu).parts
    return float(np.max(np.sqrt(np.sum(grid.weights * np.abs(lhs - rhs) ** 2, axis=1))))


def slice_integrals(h: TestFunction, grid: LambdaGrid) -> np.ndarray:
    """F(lambda) = integral of h over the lambda fiber, for every level from one call of h."""
    return np.real(np.sum(grid.weights * grid.on_nodes(h.value), axis=1))


def gaussian_poly_suite(n: int) -> List[TestFunction]:
    """Five Gaussian x polynomial test functions with analytic L2 norms,
    gradients and unitary Fourier transforms.

    Every callable takes one point of shape (n,) or points of shape (N, n);
    gradients give shape (n,) or (N, n).
    """
    if n not in (2, 3):
        raise ValueError("suite available for n = 2, 3")

    def sq(p):
        p = np.asarray(p)
        return np.einsum("...a,...a->...", p, p)

    def gauss(p, a=0.5):
        return np.exp(-a * sq(p))[..., None]

    e0, e1 = np.eye(n)[0], np.eye(n)[1]
    pi_n = math.pi ** (n / 2)

    def coord(p, a):
        return np.asarray(p, dtype=float)[..., a : a + 1]

    suite = [
        TestFunction(
            value=lambda p: np.exp(-0.5 * sq(p)),
            gradient=lambda p: -np.asarray(p) * gauss(p),
            analytic_l2_norm=math.sqrt(pi_n),
            fourier=lambda p: np.exp(-0.5 * sq(p)),
            name="gaussian",
        ),
        TestFunction(
            value=lambda p: np.asarray(p)[..., 0] * np.exp(-0.5 * sq(p)),
            gradient=lambda p: (e0 - coord(p, 0) * np.asarray(p)) * gauss(p),
            analytic_l2_norm=math.sqrt(pi_n / 2),
            fourier=lambda p: -1j * np.asarray(p)[..., 0] * np.exp(-0.5 * sq(p)),
            name="x1-gaussian",
        ),
        TestFunction(
            value=lambda p: np.exp(-sq(p)),
            gradient=lambda p: -2 * np.asarray(p) * gauss(p, 1.0),
            analytic_l2_norm=math.sqrt((math.pi / 2) ** (n / 2)),
            fourier=lambda p: 2 ** (-n / 2) * np.exp(-0.25 * sq(p)),
            name="narrow-gaussian",
        ),
        TestFunction(
            value=lambda p: np.asarray(p)[..., 0]
            * np.asarray(p)[..., 1]
            * np.exp(-0.5 * sq(p)),
            gradient=lambda p: (
                e0 * coord(p, 1) + e1 * coord(p, 0) - coord(p, 0) * coord(p, 1) * np.asarray(p)
            )
            * gauss(p),
            analytic_l2_norm=math.sqrt(pi_n / 4),
            fourier=lambda p: -np.asarray(p)[..., 0]
            * np.asarray(p)[..., 1]
            * np.exp(-0.5 * sq(p)),
            name="x1x2-gaussian",
        ),
        TestFunction(
            value=lambda p: (1 - sq(p)) * np.exp(-0.5 * sq(p)),
            gradient=lambda p: -(3 - sq(p))[..., None] * np.asarray(p) * gauss(p),
            analytic_l2_norm=math.sqrt(math.pi if n == 2 else 1.75 * pi_n),
            fourier=lambda p: (1 - n + sq(p)) * np.exp(-0.5 * sq(p)),
            name="laguerre-gaussian",
        ),
    ]
    return suite
