"""Test-only companions of the program: maps and checks that no program path
calls, kept here so that they stay independent of `src/`."""

import math
from fractions import Fraction
from math import factorial

import numpy as np

from weylred.fiber import FiberOperator, PWSymbol
from weylred.geometry import SphereFiber, call_on_nodes, induced_divergence
from weylred.moyal import star_commutator
from weylred.rational import QQi
from weylred.symbols import PolySymbol, _check_same_dim, integer_product

# -- the exact layer


def bidifferential_power(f: PolySymbol, g: PolySymbol, k: int) -> PolySymbol:
    """P^k(f, g); P^0 = fg and P^1 is the Poisson bracket.

    P^k(f,g) = sum_{|alpha|+|beta|=k} k!/(alpha! beta!) (-1)^{|beta|}
               (d_xi^alpha d_x^beta f)(d_x^alpha d_xi^beta g),
    read off the order-k terms of the program's star product without their
    phase, times k! 2^k.
    """
    if k < 0:
        raise ValueError("bidifferential order must be non-negative")
    return integer_product(f, g, range(k, k + 1), factorial(k) * 2**k, phased=False)


def quadratic_exactness_check(h: PolySymbol, g: PolySymbol) -> PolySymbol:
    """Residual star_commutator(h,g) - i hbar {h,g}; zero for quadratic h.

    For h of combined degree <= 2, all third partials of h vanish, so the
    star commutator truncates at first order in the P-series.
    """
    _check_same_dim(h, g)
    if h.total_degree() > 2:
        raise ValueError("quadratic_exactness_check requires deg(h) <= 2")
    n = h.dimension
    bracket_term = PolySymbol.hbar(n) * (QQi.i() * h.poisson(g))
    return star_commutator(h, g) - bracket_term


def substitute_hbar_sign(f: PolySymbol) -> PolySymbol:
    """hbar -> -hbar."""
    return PolySymbol(
        f.dimension, {key: (-c if key[0] % 2 else c) for key, c in f.terms.items()}
    )


def symbol_to_literal(f: PolySymbol):
    """The config format's term records of f, the inverse of `symbol_from_literal`."""
    return [
        {"re": str(c.re), "im": str(c.im), "hbar": h, "x": list(xe), "xi": list(xie)}
        for (h, xe, xie), c in sorted(f.terms.items())
    ]


# -- fibers and test functions


class AntipodalPair(ValueError):
    """The midpoint map is undefined for antipodal points."""


def midpoint_map(z, w, r: float):
    """Geodesic midpoint of z, w on the r-sphere and half the chord velocity.

    Returns (r(z+w)/||z+w||, (r theta/2)(z-w)/||z-w||) where theta is the
    angle between z and w; (z, 0) on the diagonal.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    s = z + w
    ns = np.linalg.norm(s)
    if ns <= 1e-12 * r:
        raise AntipodalPair("midpoint map undefined for antipodal points")
    d = z - w
    nd = np.linalg.norm(d)
    if nd == 0.0:
        return z.copy(), np.zeros_like(z)
    theta = math.acos(np.clip(np.dot(z, w) / (r * r), -1.0, 1.0))
    return r * s / ns, (r * theta / 2) * d / nd


def multiplication_op(a, fiber) -> FiberOperator:
    """Multiplication by a(z) as a dense FiberOperator; a is called once on the (N, n) nodes."""
    vals = call_on_nodes(a, np.asarray(fiber.nodes, dtype=float)).astype(complex)
    return FiberOperator(fiber, np.diag(vals))


def separable_fhat(terms):
    """fhat(m, v) = sum_j a_j(theta) b_j(m ^ v) of separable circle terms, theta = arctan2(m_1, m_0).

    The pair-route form of the symbol that `kernel_quantize` applies by
    node offset; it reads only the first two coordinates of m and v.
    """

    def fhat(m, v):
        m = np.asarray(m, dtype=float)
        v = np.asarray(v, dtype=float)
        theta = np.arctan2(m[..., 1], m[..., 0])
        # m ^ v: r times the signed tangent component of v at the base point
        wedge = -m[..., 1] * v[..., 0] + m[..., 0] * v[..., 1]
        out = np.zeros(np.shape(theta), dtype=complex)
        for a, b in terms:
            out = out + np.asarray(a(theta), dtype=complex) * b(wedge)
        return out

    return fhat


def pair_route(sym: PWSymbol) -> PWSymbol:
    """The separable symbol `sym` as an fhat symbol, which `kernel_quantize` evaluates per node pair."""
    return PWSymbol(fhat=separable_fhat(sym.terms), support_radius=sym.support_radius)


def jx_from_gradients(X, hbar: float, fiber, values, gradients) -> np.ndarray:
    """-i hbar (X . grad u + (div X^lambda) u / 2) at the nodes, from the ambient gradients of u.

    The analytic counterpart of `fiber_JX_apply`'s grid derivative. On a
    SphereFiber div X^lambda is the ambient divergence of the tangent field;
    on a level-set model it is `induced_divergence`.
    """
    Z = np.asarray(fiber.nodes, dtype=float)
    if isinstance(fiber, SphereFiber):
        div = np.real(X.divergence().evaluate_many(Z))
    else:
        div = induced_divergence(X, fiber.hamiltonians, Z)
    deriv = np.einsum("ia,ia->i", X.evaluate_many(Z), np.asarray(gradients))
    return -1j * hbar * (deriv + 0.5 * div * np.asarray(values))


def check_gradient(u, probes: np.ndarray) -> float:
    """Max relative deviation of u's analytic gradient from central FD (step 1e-6), one point at a time."""
    h = 1e-6
    worst = 0.0
    for p in np.atleast_2d(probes):
        g = np.asarray(u.gradient(p))
        fd = np.zeros_like(g, dtype=complex)
        for a in range(len(p)):
            e = np.zeros(len(p))
            e[a] = h
            fd[a] = (u.value(p + e) - u.value(p - e)) / (2 * h)
        scale = 1.0 + np.linalg.norm(g)
        worst = max(worst, float(np.linalg.norm(g - fd) / scale))
    return worst


# -- finite-difference divergence on fibers


def _ellipse() -> PolySymbol:
    x0, x1 = PolySymbol.x(0, 2), PolySymbol.x(1, 2)
    return (x0 * x0 + 2 * (x1 * x1)) * Fraction(1, 2)


def _curve_divergence_fd(Y, point, velocity, s: float, h: float = 1e-5) -> float:
    """(sigma v)'(s) / sigma(s) with sigma = |dz/ds|, v = <Y, dz/ds>/sigma^2 on the curve z(s)."""

    def sigma_v(t: float):
        vel = velocity(t)
        sig = float(np.linalg.norm(vel))
        return sig, float(np.dot(Y.evaluate(point(t)), vel)) / sig**2

    sig_p, v_p = sigma_v(s + h)
    sig_m, v_m = sigma_v(s - h)
    sig0, _ = sigma_v(s)
    return (sig_p * v_p - sig_m * v_m) / (2 * h * sig0)


def _sphere_divergence_fd(Y, r: float, z: np.ndarray, h: float = 1e-5) -> float:
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

    def comps(alpha: float, beta: float):
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
    d_beta = sg0 * (vb_p - vb_m) / (2 * h)  # sqrt(g) is beta-independent
    return (d_alpha + d_beta) / sg0


def intrinsic_divergence_fd(Y, fiber, z) -> float:
    """Chart finite-difference divergence of the induced field at a point z of the fiber.

    Independent oracle for `induced_divergence`: it never uses the Hessian
    closed form, and it parametrizes every fiber in closed form rather than
    through the fiber model. 2-spheres use a rotated spherical chart at z,
    circles z(t) = r (cos t, sin t), and the level lam of the ellipse
    (x0^2 + 2 x1^2)/2, the one implicit curve it takes,
    z(s) = (sqrt(2 lam) cos s, sqrt(lam) sin s); the curve parameter of z
    comes from atan2. The divergence (sigma v)'/sigma does not depend on the
    parametrization. A point more than 1e-9 off the fiber raises ValueError.
    """
    z = np.asarray(z, dtype=float)
    if isinstance(fiber, SphereFiber):
        if fiber.ambient_dim == 3:
            if abs(np.linalg.norm(z) - fiber.radius) > 1e-9:
                raise ValueError("probe point is not on the fiber")
            return _sphere_divergence_fd(Y, fiber.radius, z)
        a = b = fiber.radius
    elif fiber.fiber_kind == "implicit-curve" and [h.phi for h in fiber.hamiltonians] == [_ellipse()]:
        lam = float(fiber.level[0])
        a, b = math.sqrt(2 * lam), math.sqrt(lam)
    else:
        raise ValueError("the oracle parametrizes circles, 2-spheres and the ellipse (x0^2 + 2 x1^2)/2")

    def point(s: float) -> np.ndarray:
        return np.array([a * math.cos(s), b * math.sin(s)])

    def velocity(s: float) -> np.ndarray:
        return np.array([-a * math.sin(s), b * math.cos(s)])

    s = math.atan2(z[1] / b, z[0] / a)
    if np.linalg.norm(point(s) - z) > 1e-9:
        raise ValueError("probe point is not on the fiber")
    return _curve_divergence_fd(Y, point, velocity, s)
