"""Property-based checks of the exact algebra and the numeric layer.

The algebra laws hold identically (no tolerances): the symbols carry
Gaussian-rational coefficients, so each law is checked by exact equality.
The compiled evaluator and the array geometry are checked against exact
or closed-form oracles; the fiber kernel and flow against the structure
they must keep (hermiticity, the group law).
"""

import pickle
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylred.dint import (
    ambient_integral,
    apply_Tx,
    apply_Txi,
    build_grid,
    coarea_check,
    gaussian_poly_suite,
    slice_integrals,
)
from weylred.fiber import (
    FiberFunction,
    PWSymbol,
    SphereFiber,
    evolve_group,
    fiber_JX_apply,
    kernel_quantize,
)
from weylred.geometry import (
    ScalarHamiltonian,
    SingularPoint,
    circle_level_set,
    induced_divergence,
    jacobian_wedge_norm,
    radial_hamiltonian,
    rho,
    sphere2_level_set,
)
from weylred.moyal import (
    SingularSystemError,
    expand_power_in_star_basis,
    moyal_star,
    star_commutator,
)
from weylred.rational import QQi
from weylred.sweep import SeparableCircleSymbol, bump_profile
from weylred.symbols import PolySymbol, VectorField, rotation_generator

from conftest import poisson_oracle, star_oracle


def _term_keys(n, max_degree, max_hbar=0):
    exps = st.lists(
        st.integers(min_value=0, max_value=max_degree), min_size=n, max_size=n
    ).filter(lambda e: sum(e) <= max_degree)
    return st.tuples(
        st.integers(min_value=0, max_value=max_hbar), exps.map(tuple), exps.map(tuple)
    )


def _coeffs():
    frac = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
    )
    return st.builds(QQi, frac, frac).filter(lambda c: c != QQi())


def symbols(n=2, max_degree=2, max_terms=3, max_hbar=0):
    return st.dictionaries(
        _term_keys(n, max_degree, max_hbar), _coeffs(), min_size=1, max_size=max_terms
    ).map(lambda terms: PolySymbol(n, terms))


def same_dimension(count, max_degree=2, max_hbar=1):
    """`count` symbols of one dimension n in {1, 2, 3}, hbar powers up to max_hbar."""
    return st.sampled_from([1, 2, 3]).flatmap(
        lambda n: st.tuples(*[symbols(n, max_degree, max_hbar=max_hbar)] * count)
    )


@settings(max_examples=40, deadline=None)
@given(symbols(), symbols())
def test_star_reduces_to_product_at_hbar_zero(f, g):
    assert moyal_star(f, g).hbar_component(0) == (f * g).hbar_component(0)


@settings(max_examples=25, deadline=None)
@given(same_dimension(3))
def test_star_is_associative(fgh):
    f, g, h = fgh
    assert moyal_star(moyal_star(f, g), h) == moyal_star(f, moyal_star(g, h))


@settings(max_examples=40, deadline=None)
@given(same_dimension(2, max_degree=3))
def test_commutator_antisymmetric(fg):
    f, g = fg
    commutator = star_commutator(f, g)
    assert commutator == moyal_star(f, g) - moyal_star(g, f)
    assert commutator == -star_commutator(g, f)


@settings(max_examples=40, deadline=None)
@given(same_dimension(2, max_degree=3, max_hbar=0))
def test_swapped_factors_flip_the_sign_of_hbar(fg):
    f, g = fg
    assert moyal_star(g, f) == moyal_star(f, g).substitute_hbar_sign()


@settings(max_examples=40, deadline=None)
@given(same_dimension(2, max_degree=3, max_hbar=0))
def test_star_commutator_has_only_odd_hbar_powers(fg):
    f, g = fg
    assert all(h % 2 == 1 for h, _, _ in star_commutator(f, g).terms)


@settings(max_examples=40, deadline=None)
@given(symbols(), symbols(), symbols())
def test_star_distributes_over_addition(f, g, h):
    assert moyal_star(f, g + h) == moyal_star(f, g) + moyal_star(f, h)


@settings(max_examples=40, deadline=None)
@given(symbols(), symbols())
def test_poisson_antisymmetric(f, g):
    assert f.poisson(g) == -(g.poisson(f))


@settings(max_examples=25, deadline=None)
@given(symbols(max_degree=2), symbols(max_degree=2), symbols(max_degree=2))
def test_poisson_jacobi(f, g, h):
    total = (
        f.poisson(g.poisson(h))
        + g.poisson(h.poisson(f))
        + h.poisson(f.poisson(g))
    )
    assert total.is_zero()


@settings(max_examples=40, deadline=None)
@given(symbols(), symbols(), symbols())
def test_poisson_leibniz(f, g, h):
    assert f.poisson(g * h) == f.poisson(g) * h + g * f.poisson(h)


def _star_factors():
    """Two symbols of one dimension n in {1, 2, 3}: degree <= 3, hbar powers <= 2,
    Gaussian-rational coefficients, and each drawn with one term or up to four."""
    def factor(n):
        return st.sampled_from([1, 4]).flatmap(lambda m: symbols(n, 3, max_terms=m, max_hbar=2))

    return st.sampled_from([1, 2, 3]).flatmap(lambda n: st.tuples(factor(n), factor(n)))


def _monomial(n, c, h, xe, xie):
    return PolySymbol(n, {(h, xe, xie): c})


@settings(max_examples=60, deadline=None)
@given(_star_factors())
@example((_monomial(1, QQi(1), 0, (2,), (3,)), _monomial(1, QQi(2, -1), 1, (3,), (2,))))
@example((_monomial(2, QQi(Fraction(1, 3)), 2, (1, 0), (0, 1)), _monomial(2, QQi(0, 1), 0, (0, 2), (1, 0))))
@example((_monomial(3, QQi(5), 0, (0, 0, 0), (0, 0, 0)), _monomial(3, QQi(1, 1), 1, (1, 2, 0), (0, 1, 3))))
def test_star_and_commutator_match_the_unpruned_sum(fg):
    # the oracle sums every order up to min(total degrees) from partials and
    # plain products; the loop bounds orders by the x/xi degrees and visits
    # only active coordinates
    f, g = fg
    fg_star, gf_star = star_oracle(f, g), star_oracle(g, f)
    assert moyal_star(f, g) == fg_star
    assert star_commutator(f, g) == fg_star - gf_star


@settings(max_examples=60, deadline=None)
@given(_star_factors())
def test_poisson_matches_the_partial_derivative_sum(fg):
    f, g = fg
    assert f.poisson(g) == poisson_oracle(f, g)


@settings(max_examples=60, deadline=None)
@given(_coeffs(), _coeffs(), _coeffs())
def test_gaussian_rational_field_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == QQi()
    assert a / a == QQi(Fraction(1))


def _is_hbar_only(c):
    return all(not any(xe) and not any(xie) for _, xe, xie in c.terms)


@settings(max_examples=40, deadline=None)
@given(
    symbols(max_degree=2, max_terms=4).filter(lambda f: f.total_degree() >= 1),
    st.integers(min_value=1, max_value=4),
)
def test_star_expansion_is_exact_or_named_singular(f, m):
    try:
        exp = expand_power_in_star_basis(f, m)
    except SingularSystemError:
        return
    assert exp.coefficients[-1] == (m, PolySymbol.one(2))
    assert [j for j, _ in exp.coefficients] == sorted({j for j, _ in exp.coefficients})
    assert all(not c.is_zero() and _is_hbar_only(c) for _, c in exp.coefficients)
    assert exp.residual().is_zero()


def _revalidated(r):
    return PolySymbol(r.dimension, dict(r.terms))


def _assert_stored_form(r):
    """One reduced denominator over nonzero Gaussian-integer numerators, as the constructor builds."""
    assert type(r.den) is int and r.den >= 1
    assert all(type(v) is int for pair in r.num.values() for v in pair)
    assert all(pair != (0, 0) for pair in r.num.values())
    assert gcd(r.den, *(v for pair in r.num.values() for v in pair)) == 1
    rebuilt = _revalidated(r)
    assert r == rebuilt and hash(r) == hash(rebuilt)
    clone = pickle.loads(pickle.dumps(r))
    assert clone == r and hash(clone) == hash(r)


@settings(max_examples=60, deadline=None)
@given(
    symbols(max_degree=3, max_terms=5, max_hbar=2),
    symbols(max_degree=3, max_terms=5, max_hbar=2),
    st.one_of(st.just(0), st.integers(min_value=-2, max_value=2), _coeffs()),
    st.sampled_from(["x", "xi"]),
    st.integers(min_value=0, max_value=1),
)
def test_arithmetic_results_are_canonical(f, g, c, kind, a):
    # internal results skip revalidation; the public constructor must agree
    for r in (f + g, f - g, -f, f * g, f * c, c * f, f * 0, f.partial(kind, a),
              f.hbar_component(1), f + (-f), f.poisson(g), f.substitute_hbar_sign(),
              moyal_star(f, g), star_commutator(f, g)):
        _assert_stored_form(r)
    assert (f * 0).terms == {} and (f + (-f)).terms == {}


# -- numeric layer ------------------------------------------------------

_small_ints = st.integers(min_value=-3, max_value=3)


@settings(max_examples=60, deadline=None)
@given(
    symbols(max_degree=4, max_terms=6, max_hbar=2),
    st.lists(st.tuples(*[_small_ints] * 4), min_size=1, max_size=8),
    _small_ints,
)
def test_evaluate_many_matches_exact_sum(f, rows, hbar):
    pts = np.array(rows, dtype=float)
    got = f.evaluate_many(pts[:, :2], pts[:, 2:], hbar)
    for row, value in zip(rows, got):
        exact_re = exact_im = Fraction(0)
        scale = Fraction(0)  # sum of the term magnitudes
        for (h, xe, xie), c in f.terms.items():
            mono = Fraction(hbar) ** h
            for v, e in zip(row, xe + xie):
                mono *= Fraction(v) ** e
            exact_re += c.re * mono
            exact_im += c.im * mono
            scale += (abs(c.re) + abs(c.im)) * abs(mono)
        exact = complex(float(exact_re), float(exact_im))
        assert abs(value - exact) <= 1e-12 * float(scale)


def _position_symbols(n, max_degree=4, max_terms=6):
    """xi- and hbar-free symbols: the phi of a ScalarHamiltonian."""
    exps = st.lists(
        st.integers(min_value=0, max_value=max_degree), min_size=n, max_size=n
    ).filter(lambda e: sum(e) <= max_degree)
    keys = exps.map(lambda e: (0, tuple(e), (0,) * n))
    return st.dictionaries(keys, _coeffs(), min_size=1, max_size=max_terms).map(
        lambda terms: PolySymbol(n, terms)
    )


def _regular_rows(n, min_norm):
    row = st.lists(
        st.floats(min_value=-5, max_value=5, allow_subnormal=False), min_size=n, max_size=n
    ).filter(lambda r: np.linalg.norm(r) >= min_norm)
    return st.lists(row, min_size=1, max_size=24)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda n: _regular_rows(n, 1e-2)))
def test_rho_is_inverse_radius_on_node_arrays(rows):
    x = np.array(rows)
    got = rho(radial_hamiltonian(x.shape[1]), x)
    assert got.shape == (len(x),)
    np.testing.assert_allclose(got, 1 / np.linalg.norm(x, axis=1), rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(lambda n: _regular_rows(n, 1e-1)),
    st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=4),
)
def test_singular_row_is_named(rows, bad):
    x = np.array(rows)
    bad = sorted({i % len(x) for i in bad})
    x[bad] = 0.0
    with pytest.raises(SingularPoint, match=rf"at node {bad[0]} \("):
        rho(radial_hamiltonian(x.shape[1]), x)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda n: st.tuples(_position_symbols(n), _regular_rows(n, 0.0))
    )
)
def test_hamiltonian_value_is_the_real_part_of_phi(phi_rows):
    phi, rows = phi_rows
    x = np.array(rows)
    ham = ScalarHamiltonian(phi)
    got = ham.value(x)
    assert got.dtype == np.float64 and got.shape == (len(x),)
    # per row, the sum of the term magnitudes
    scale = sum(
        np.abs(PolySymbol(phi.dimension, {key: c}).evaluate_many(x))
        for key, c in phi.terms.items()
    )
    assert np.all(np.abs(got - phi.evaluate_many(x).real) <= 1e-14 * scale)
    one = ham.value(x[0])
    assert isinstance(one, float)
    assert abs(one - got[0]) <= 1e-14 * scale[0]


# -- fiber kernel and flow ---------------------------------------------------

_unit = st.floats(min_value=-1, max_value=1, allow_subnormal=False)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["circle", "sphere"]),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.5, max_value=6.0),
    st.lists(_unit, min_size=5, max_size=5),
)
def test_kernel_is_hermitian_for_real_even_symbols(kind, radius, hbar, support, c):
    fiber = (
        SphereFiber.circle(radius, 40)
        if kind == "circle"
        else SphereFiber.sphere(radius, n_polar=5, n_azimuth=10)
    )

    def fhat(m, v):  # real, and even in v
        nv = np.linalg.norm(v, axis=-1)
        t = np.minimum(nv / support, 1.0)
        bump = np.where(t < 1, np.exp(-1 / (1 - t * t + (t >= 1))), 0.0)
        return (c[0] + c[1] * m[..., 0] + c[2] * m[..., 1]) * bump * np.cos(c[3] * nv + c[4])

    K = kernel_quantize(PWSymbol(fhat, support), hbar, fiber).kernel_matrix()
    assert np.max(np.abs(K - K.conj().T)) <= 1e-10 * max(1.0, np.max(np.abs(K)))


@st.composite
def _separable_terms(draw):
    """1-3 terms a(theta) (x) b: a trigonometric a, a scaled bump b or its -i s b."""
    support = draw(st.floats(min_value=0.25, max_value=8.0))
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        c0, c1, c2 = draw(st.lists(_unit, min_size=3, max_size=3))
        k = draw(st.integers(min_value=0, max_value=3))
        prof = bump_profile(support)
        if draw(st.booleans()):
            prof = prof.times_minus_is()
        a = lambda t, c0=c0, c1=c1, c2=c2, k=k: c0 + c1 * np.cos(k * t) + 1j * c2 * np.sin(k * t)
        terms.append((a, None, prof))
    return tuple(terms)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=48),
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.booleans(),
    _separable_terms(),
)
# odd and even N, with a reach past pi r: every offset is in band
@example(7, 1.0, 0.5, 2.0, True, ((np.cos, None, bump_profile(4.0)),))
@example(8, 1.5, 1.5, 1.9, False, ((np.sin, None, bump_profile(4.0).times_minus_is()),))
def test_offset_route_matches_the_pair_route(n_nodes, radius, symbol_radius, hbar, negative, terms):
    fiber = SphereFiber.circle(radius, n_nodes)
    h = -hbar if negative else hbar
    pw = SeparableCircleSymbol(symbol_radius, terms).to_pw()
    assert pw.terms is not None
    offsets = kernel_quantize(pw, h, fiber).matrix
    pairs = kernel_quantize(PWSymbol(pw.fhat, pw.support_radius), h, fiber).matrix
    # the routes round the tangent speed differently, which moves b by up to
    # eps |s b'(s)|; so entries are compared on the scale of their terms,
    # not on the largest entry (a kernel whose band ends on a steep flank of
    # b can be tiny)
    angles = np.linspace(-np.pi, np.pi, 257)
    scale = max(fiber.weights) / hbar * sum(
        np.max(np.abs(a(angles))) * np.max(np.abs(prof.values)) for a, _, prof in terms
    )
    assert np.max(np.abs(offsets - pairs)) <= 1e-14 * scale


_tilt = st.fractions(min_value=Fraction(-3, 10), max_value=Fraction(3, 10), max_denominator=20)


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([64, 128]),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]),
    st.lists(_tilt, min_size=2, max_size=2),
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=-1, max_value=1),
)
def test_flow_group_law_on_circles(n_nodes, radius, tilt, s, t):
    # X = (|x|^2 / r^2 + (a x0 + b x1) / r) * rotation: tangent, divergent, no
    # rest point; |x|^2 / r^2 is 1 on the fiber and keeps X nonlinear (RK4
    # route) even when a = b = 0
    fiber = SphereFiber.circle(float(radius), n_nodes)
    x0, x1 = PolySymbol.x(0, 2), PolySymbol.x(1, 2)
    scale = (x0 * x0 + x1 * x1) * (1 / radius**2) + x0 * (tilt[0] / radius) + x1 * (tilt[1] / radius)
    X = VectorField(2, tuple(scale * comp for comp in rotation_generator(0, 1, 2).components))
    assert X.linear_part() is None
    u = FiberFunction(fiber, np.exp(np.cos(fiber.thetas) + 0.5j * np.sin(fiber.thetas)))
    both = evolve_group(X, s, 0.7, evolve_group(X, t, 0.7, u, steps=256), steps=256)
    once = evolve_group(X, s + t, 0.7, u, steps=256)
    assert np.max(np.abs(both.values - once.values)) <= 1e-8 * np.max(np.abs(once.values))
    assert once.norm() == pytest.approx(u.norm(), rel=1e-8)


_positive = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(2), max_denominator=16)
_signed = st.fractions(min_value=Fraction(-1), max_value=Fraction(1), max_denominator=16)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3]),
    _positive,
    _positive,
    _signed,
    _signed,
    st.floats(min_value=0.2, max_value=3.0),
)
def test_sphere_fiber_divergence_is_the_induced_one(n, a, b, c, d, lam):
    # radial levels of phi = a|x|^2 + b|x|^4 are SphereFibers, whose JX uses
    # the ambient div X; for X = (1 + c|x|^2 + d x0) * rotation (tangent to
    # every sphere; d x0 makes div X nonzero) it must be the induced one
    r2 = sum((PolySymbol.x(k, n) * PolySymbol.x(k, n) for k in range(n)), PolySymbol.zero(n))
    phi = ScalarHamiltonian(r2 * a + r2 * r2 * b)
    fiber = (
        circle_level_set(phi, lam, 32)
        if n == 2
        else sphere2_level_set(phi, lam, n_polar=6, n_azimuth=12)
    )
    assert isinstance(fiber, SphereFiber)
    scale = PolySymbol.one(n) + r2 * c + PolySymbol.x(0, n) * d
    X = VectorField(n, tuple(scale * comp for comp in rotation_generator(0, 1, n).components))
    ones = np.ones(fiber.n_nodes)
    flat = FiberFunction(fiber, ones, gradients=np.zeros((fiber.n_nodes, n)))
    div = (2j * fiber_JX_apply(X, 1.0, flat).values).real  # JX 1 = -i div X / 2
    assert np.max(np.abs(div - induced_divergence(X, [phi], fiber.nodes))) <= 1e-10


def _radial_grid(n, a, b, lam_a, lam_b, n_lambda=5):
    """phi = a|x|^2 + b|x|^4 and its radial grid over the two levels' range."""
    lam_lo, lam_hi = sorted((lam_a, lam_b))
    if lam_hi - lam_lo < 1e-3:
        lam_hi = lam_lo + 1e-3
    r2 = sum((PolySymbol.x(k, n) * PolySymbol.x(k, n) for k in range(n)), PolySymbol.zero(n))
    phi = ScalarHamiltonian(r2 * a + r2 * r2 * b)
    kind = "circle" if n == 2 else "sphere2"
    return phi, build_grid(phi, kind, lam_lo, lam_hi, n_lambda, 16, n_polar=6, n_azimuth=12)


_levels = st.floats(min_value=0.05, max_value=6.0)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), _positive, _positive, _levels, _levels)
def test_radial_grid_fibers_match_the_newton_route(n, a, b, lam_a, lam_b):
    # build_grid stacks the unit grid scaled to every Gauss radius; on every
    # level the stack must equal the fiber built on demand and the fiber of
    # the constructor without a radius, which solves phi(r e_1) = lam by
    # Newton, as an oracle
    phi, grid = _radial_grid(n, a, b, lam_a, lam_b)
    size = 16 if n == 2 else 72
    assert grid.nodes.shape == (5, size, n)
    assert grid.weights.shape == grid.rho.shape == (5, size)
    for i, (lam, fiber) in enumerate(zip(grid.lambda_nodes, grid.fibers)):
        oracle = (
            circle_level_set(phi, float(lam), 16)
            if n == 2
            else sphere2_level_set(phi, float(lam), 6, 12)
        )
        assert abs(fiber.radius - oracle.radius) <= 1e-13 * oracle.radius
        for stacked, on_demand, want in (
            (grid.nodes[i], fiber.nodes, oracle.nodes),
            (grid.weights[i], fiber.weights, oracle.weights),
            (grid.rho[i], rho([phi], fiber.nodes), rho([phi], oracle.nodes)),
        ):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(stacked - on_demand)) <= 1e-13 * scale
            assert np.max(np.abs(stacked - want)) <= 1e-13 * scale


def _close(got, want, scale=None):
    """|got - want| <= 1e-13 of scale (default: max |want|); sums pass the sum of
    the absolute values of their terms, since orthogonal pairs and odd
    integrands cancel to ~1e-20."""
    scale = np.max(np.abs(want)) if scale is None else scale
    return np.max(np.abs(np.asarray(got) - want)) <= 1e-13 * scale


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([2, 3]),
    _positive,
    _positive,
    _levels,
    _levels,
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_stacked_operations_match_a_per_level_loop(n, a, b, lam_a, lam_b, iu, iv):
    # the layout before stacking, as a reference: one integrand call, one rho
    # and one fiber sum per level
    phi, grid = _radial_grid(n, a, b, lam_a, lam_b, n_lambda=6)
    suite = gaussian_poly_suite(n)
    u, v = suite[iu], suite[iv]
    tx, txi, tv, slices, slice_scales = [], [], [], [], []
    for fiber in grid.fibers:
        root = np.sqrt(rho([phi], fiber.nodes))
        tx.append(root * u.value(fiber.nodes))
        txi.append(root * u.fourier(fiber.nodes))
        tv.append(root * v.value(fiber.nodes))
        slices.append(np.sum(fiber.weights * u.value(fiber.nodes)))
        slice_scales.append(np.sum(fiber.weights * np.abs(u.value(fiber.nodes))))
    inner, inner_scale = 0j, 0.0
    for w, fiber, p, q in zip(grid.lambda_weights, grid.fibers, tx, tv):
        inner += w * np.sum(fiber.weights * np.conj(p) * q)
        inner_scale += w * np.sum(fiber.weights * np.abs(p * q))
    fiber_side = sum(w * f for w, f in zip(grid.lambda_weights, slices))
    fiber_scale = sum(w * f for w, f in zip(grid.lambda_weights, slice_scales))

    su = apply_Tx(u, grid)
    assert _close(su.parts, np.stack(tx))
    assert _close(apply_Txi(u, grid).parts, np.stack(txi))
    assert _close(su.inner(apply_Tx(v, grid)), inner, inner_scale)
    assert _close(slice_integrals(u, grid), np.array(slices), max(slice_scales))
    lhs = ambient_integral(
        lambda pts: u.value(pts) * jacobian_wedge_norm([phi], pts), n, n_r=32, n_ang=16
    )
    got = coarea_check(u, grid, n_r=32, n_ang=16)
    assert _close(got, abs(lhs - fiber_side), fiber_scale)
