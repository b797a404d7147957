"""Independent oracles for the exact Moyal layer.

No oracle here calls `weylred.moyal`:

- Star powers of an angular momentum f = f_ij come from the Weyl symbol of
  a rotation, whose generating function is
      sum_k s^k/k! f^{*k} = sech^2(hbar s/2) exp((2 f/hbar) tanh(hbar s/2)),
  expanded in exact Fraction power series. The star-basis coefficients of
  f^m follow by triangular elimination, since f^{*j} = f^j + lower powers.
- The star product itself is the exponential bidifferential formula
  f exp((i hbar/2)(<-d_xi . ->d_x - <-d_x . ->d_xi)) g of Groenewold (1946)
  and Moyal (1949), applied term by term with sympy, and the textbook
  composition sum P^k(f, g) over all multi-indices |alpha| + |beta| = k,
  built from `PolySymbol.partial` and products.

The references multiply with `_ref_product`, the plain product term by
term in `QQi` arithmetic, so they never run the integer product loop that
`PolySymbol.__mul__` and the star products share.
"""

import random
import time
from fractions import Fraction
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylred.moyal import (
    _quotient,
    expand_power_in_star_basis,
    moyal_star,
    star_commutator,
)
from weylred.rational import QQi
from weylred.symbols import PolySymbol, VectorField, angular_momentum, momentum_symbol

from conftest import random_symbol
from oracles import bidifferential_power

M_MAX = 8
N_MAX = 4
EXPANSION_SECONDS = 8.0  # all 80 expansions; the dense solve needed well over 20 s

def _ref_product(f, g):
    """The plain product term by term in QQi arithmetic: the loop the integer product replaced."""
    out = {}
    for (h1, xe1, xie1), c1 in f.terms.items():
        for (h2, xe2, xie2), c2 in g.terms.items():
            key = (
                h1 + h2,
                tuple(a + b for a, b in zip(xe1, xe2)),
                tuple(a + b for a, b in zip(xie1, xie2)),
            )
            prev = out.get(key)
            total = c1 * c2 if prev is None else prev + c1 * c2
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
    return PolySymbol(f.dimension, out)


def _ref_scaled(f, c, hbar_power=0):
    """c hbar^hbar_power f, through the reference product."""
    zero = (0,) * f.dimension
    return _ref_product(PolySymbol(f.dimension, {(hbar_power, zero, zero): c}), f)


# polynomials in (f, hbar): {(power of f, power of hbar): Fraction}


def _poly_mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _poly_axpy(p, q, scale):
    """p + scale * q."""
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def _tanh_coefficients(order):
    """Taylor coefficients t_k of tanh(w), k <= order, from tanh * cosh = sinh."""
    sinh = [Fraction(1, factorial(k)) if k % 2 else Fraction(0) for k in range(order + 1)]
    cosh = [Fraction(0) if k % 2 else Fraction(1, factorial(k)) for k in range(order + 1)]
    t = []
    for k in range(order + 1):
        t.append(sinh[k] - sum(t[i] * cosh[k - i] for i in range(k)))
    return t


def angular_star_powers(order):
    """[P_0, ..., P_order] with f^{*k} = P_k(f, hbar) for any angular momentum f."""
    t = _tanh_coefficients(order)
    # s-series of E = (2f/hbar) tanh(hbar s/2) and of sech^2(hbar s/2) = 1 - tanh^2
    E = [{(1, k - 1): t[k] / 2 ** (k - 1)} if t[k] else {} for k in range(order + 1)]
    sech2 = []
    for k in range(order + 1):
        c = (k == 0) - sum(t[i] * t[k - i] for i in range(k + 1))
        sech2.append({(0, k): c / 2**k} if c else {})
    # G = exp(E) from G' = E' G: k G_k = sum_{i=1}^k i E_i G_{k-i}
    G = [{(0, 0): Fraction(1)}]
    for k in range(1, order + 1):
        g = {}
        for i in range(1, k + 1):
            g = _poly_axpy(g, _poly_mul(E[i], G[k - i]), Fraction(i, k))
        G.append(g)
    powers = []
    for k in range(order + 1):
        series_k = {}
        for i in range(k + 1):
            series_k = _poly_axpy(series_k, _poly_mul(sech2[i], G[k - i]), 1)
        powers.append({key: c * factorial(k) for key, c in series_k.items()})
    return powers


def star_basis_coefficients(m, powers):
    """{j: {hbar power: c}} with f^m = sum_j c_j(hbar) f^{*j}."""
    rest = {(m, 0): Fraction(1)}
    coefficients = {}
    for j in range(m, -1, -1):
        cj = {(0, b): c for (a, b), c in rest.items() if a == j}
        if cj:
            coefficients[j] = {b: c for (_, b), c in cj.items()}
            rest = _poly_axpy(rest, _poly_mul(cj, powers[j]), -1)
    assert not rest
    return coefficients


def _in_f(poly, f_powers, n):
    out = PolySymbol.zero(n)
    for (a, b), c in poly.items():
        out = out + _ref_scaled(f_powers[a], QQi(c), b)
    return out


def test_oracle_reproduces_the_m4_table():
    # f^4 = f^{*4} + 5 hbar^2 f^{*2} + (3/2) hbar^4
    powers = angular_star_powers(4)
    assert star_basis_coefficients(4, powers) == {
        4: {0: 1},
        2: {2: 5},
        0: {4: Fraction(3, 2)},
    }


def test_angular_expansions_match_generating_function_up_to_m8_n4():
    powers = angular_star_powers(M_MAX)
    cases = []
    for n in range(2, N_MAX + 1):
        for i in range(n):
            for j in range(i + 1, n):
                f = angular_momentum(i, j, n)
                f_powers = [PolySymbol.one(n)]
                for _ in range(M_MAX):
                    f_powers.append(_ref_product(f_powers[-1], f))
                star = [_in_f(p, f_powers, n) for p in powers]
                for m in range(1, M_MAX + 1):
                    want = {
                        k: _in_f({(0, b): c for b, c in cj.items()}, f_powers, n)
                        for k, cj in star_basis_coefficients(m, powers).items()
                    }
                    cases.append((f, m, want, star[: m + 1]))
    assert len(cases) == 80
    elapsed = 0.0
    for f, m, want, star in cases:
        t0 = time.perf_counter()
        exp = expand_power_in_star_basis(f, m)
        elapsed += time.perf_counter() - t0
        assert exp.coefficients == sorted(want.items())
        assert exp.star_powers == star
    assert elapsed < EXPANSION_SECONDS


# -- Moyal product from the exponential bidifferential formula -------------


def _to_sympy(sympy, f, xs, xis, hbar):
    out = sympy.Integer(0)
    for (h, xe, xie), c in f.terms.items():
        term = (sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)) * hbar**h
        for v, e in zip(xs + xis, xe + xie):
            term *= v**e
        out += term
    return out


def _sympy_star(sympy, F, G, xs, xis, hbar, order):
    """F exp((i hbar/2) Lambda) G, Lambda = sum_a (<-d_xi_a ->d_x_a - <-d_x_a ->d_xi_a)."""
    pairs = [(sympy.Integer(1), F, G)]  # sum of c * (derivative of F) * (derivative of G)
    out = F * G
    for k in range(1, order + 1):
        nxt = []
        for c, A, B in pairs:
            for x, xi in zip(xs, xis):
                nxt.append((c, sympy.diff(A, xi), sympy.diff(B, x)))
                nxt.append((-c, sympy.diff(A, x), sympy.diff(B, xi)))
        pairs = [(c, A, B) for c, A, B in nxt if A != 0 and B != 0]
        scale = (sympy.I * hbar / 2) ** k / sympy.factorial(k)
        out += scale * sum((c * A * B for c, A, B in pairs), sympy.Integer(0))
    return sympy.expand(out)


def _exact_symbol(rng, n, degree, max_hbar=2):
    """Random symbol of total degree <= degree with hbar powers and Q(i) coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * (2 * n)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(2 * n)] += 1
        key = (rng.randint(0, max_hbar), tuple(exps[:n]), tuple(exps[n:]))
        terms[key] = QQi(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
    return PolySymbol(n, terms)


@pytest.mark.parametrize("seed", range(9))
def test_moyal_star_matches_sympy_exponential_formula(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    n = 1 + seed % 3
    xs = list(sympy.symbols(f"x0:{n}"))
    xis = list(sympy.symbols(f"xi0:{n}"))
    hbar = sympy.Symbol("hbar")
    for _ in range(3):
        if seed < 3:
            f = random_symbol(rng, n, rng.randint(1, 3))
            g = random_symbol(rng, n, rng.randint(1, 3)) + QQi(0, 1) * random_symbol(rng, n, 2)
        else:  # hbar-carrying factors with Q(i) coefficients
            f, g = _exact_symbol(rng, n, 3), _exact_symbol(rng, n, 3)
        F = _to_sympy(sympy, f, xs, xis, hbar)
        G = _to_sympy(sympy, g, xs, xis, hbar)
        want = _sympy_star(sympy, F, G, xs, xis, hbar, f.total_degree() + g.total_degree())
        assert sympy.expand(_to_sympy(sympy, moyal_star(f, g), xs, xis, hbar) - want) == 0


# -- the textbook composition sum --------------------------------------------


def _ref_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _ref_compositions(total - first, parts - 1):
            yield (first,) + rest


def _ref_derivative(f, xi_orders, x_orders):
    for kind, orders in (("xi", xi_orders), ("x", x_orders)):
        for a, e in enumerate(orders):
            for _ in range(e):
                f = f.partial(kind, a)
    return f


def _ref_bidifferential_power(f, g, k):
    """sum_{|alpha|+|beta|=k} k!/(alpha! beta!) (-1)^|beta| (d_xi^alpha d_x^beta f)(d_x^alpha d_xi^beta g)."""
    n = f.dimension
    out = PolySymbol.zero(n)
    for combined in _ref_compositions(k, 2 * n):
        alpha, beta = combined[:n], combined[n:]
        left = _ref_derivative(f, alpha, beta)
        right = _ref_derivative(g, beta, alpha)
        if left.is_zero() or right.is_zero():
            continue
        coeff = Fraction(factorial(k), prod(factorial(e) for e in combined))
        out = out + _ref_scaled(_ref_product(left, right), QQi(-coeff if sum(beta) % 2 else coeff))
    return out


def _ref_moyal_star(f, g):
    """sum_k (i/2)^k / k! hbar^k P^k(f, g)."""
    n = f.dimension
    out = PolySymbol.zero(n)
    for k in range(min(f.total_degree(), g.total_degree()) + 1):
        scale = Fraction(1, 2**k * factorial(k))
        phase = (QQi(1), QQi(0, 1), QQi(-1), QQi(0, -1))[k % 4]
        out = out + _ref_scaled(_ref_bidifferential_power(f, g, k), phase * scale, k)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_exact_layer_matches_composition_sum(seed):
    rng = random.Random(100 + seed)
    for _ in range(12):
        n = rng.randint(1, 3)
        f, g = _exact_symbol(rng, n, 3), _exact_symbol(rng, n, 3)
        star = _ref_moyal_star(f, g)
        assert moyal_star(f, g) == star
        assert star_commutator(f, g) == star - _ref_moyal_star(g, f)
        for k in range(7):
            assert bidifferential_power(f, g, k) == _ref_bidifferential_power(f, g, k)


# -- hostile denominators ------------------------------------------------------

_HOSTILE_DENOMINATORS = (1, 3, 11, 997, 2**31 - 1, 10**9 + 7, 10**9 + 9)


def _hostile_symbol_pairs():
    """Two hbar-carrying Q(i) symbols of one dimension n <= 3, degree <= 3,
    with large coprime coefficient denominators."""
    part = st.builds(
        Fraction,
        st.one_of(st.integers(-12, 12), st.integers(-(10**12), 10**12)),
        st.sampled_from(_HOSTILE_DENOMINATORS),
    )
    coefficient = st.builds(QQi, part, part).filter(lambda c: not c.is_zero())

    def pair(n):
        exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda e: sum(e) <= 3)
        keys = st.tuples(st.integers(0, 2), exps.map(tuple), exps.map(tuple))
        symbol = st.dictionaries(keys, coefficient, min_size=1, max_size=4).map(
            lambda terms: PolySymbol(n, terms)
        )
        return st.tuples(symbol, symbol)

    return st.integers(1, 3).flatmap(pair)


@settings(max_examples=60, deadline=None)
@given(_hostile_symbol_pairs(), st.sampled_from(["drawn", "sum and difference", "equal"]))
def test_products_match_references_on_hostile_denominators(fg, shape):
    f, g = fg
    if shape == "sum and difference":  # (f + g)(f - g): the cross terms of the plain product cancel
        f, g = f + g, f - g
    elif shape == "equal":  # f * f - f * f: every term of the commutator cancels
        g = f
    got = {
        "product": f * g,
        "star": moyal_star(f, g),
        "commutator": star_commutator(f, g),
        "P^2": bidifferential_power(f, g, 2),
    }
    want = {
        "product": _ref_product(f, g),
        "star": _ref_moyal_star(f, g),
        "commutator": _ref_moyal_star(f, g) - _ref_moyal_star(g, f),
        "P^2": _ref_bidifferential_power(f, g, 2),
    }
    assert got == want
    for symbol in got.values():
        for c in symbol.terms.values():
            assert not c.is_zero()
            assert type(c.re) is Fraction and type(c.im) is Fraction
    if shape == "equal":
        assert got["commutator"].is_zero()


# -- the fused steps of the star-basis reduction ----------------------------


def _ref_combination(f, g, c, hbar_power=0):
    """f - c hbar^hbar_power g, summed term by term in QQi arithmetic."""
    out = dict(f.terms)
    for key, coeff in _ref_scaled(g, c, hbar_power).terms.items():
        total = out.get(key, QQi()) - coeff
        if total.is_zero():
            out.pop(key, None)
        else:
            out[key] = total
    return PolySymbol(f.dimension, out)


def _gaussian_rationals():
    part = st.builds(Fraction, st.integers(-40, 40), st.sampled_from(_HOSTILE_DENOMINATORS[:4]))
    return st.builds(QQi, part, part).filter(lambda c: not c.is_zero())


def _as_numerators(c):
    """(re, im, den) of a nonzero QQi, den the lcm of its denominators."""
    den = c.re.denominator * c.im.denominator // gcd(c.re.denominator, c.im.denominator)
    return int(c.re * den), int(c.im * den), den


@settings(max_examples=60, deadline=None)
@given(_gaussian_rationals(), _gaussian_rationals())
def test_leading_term_quotient_matches_qqi_division(s, p):
    # the reduction's integer division s / p, in lowest terms; a wrong
    # quotient leaves the leading term in place and the reduction never ends
    sr, si, s_den = _as_numerators(s)
    pr, pi, p_den = _as_numerators(p)
    re, im, den = _quotient((sr, si), s_den, (pr, pi), p_den)
    assert QQi(Fraction(re, den), Fraction(im, den)) == s / p
    assert den > 0 and gcd(re, im, den) == 1


@settings(max_examples=60, deadline=None)
@given(
    _hostile_symbol_pairs(),
    _gaussian_rationals(),
    st.integers(0, 3),
    st.sampled_from(["drawn", "cancel"]),
)
def test_fused_step_matches_reference(fg, a, shift, shape):
    f, g = fg
    if shape == "cancel":  # f = a hbar^shift g exactly, so nothing is left
        f = _ref_scaled(g, a, shift)
    got = f._sub_scaled(g, *_as_numerators(a), shift)
    assert got == _ref_combination(f, g, a, shift)
    assert f - g == _ref_combination(f, g, QQi(1))
    assert f + g == _ref_combination(f, g, QQi(-1))
    if shape == "cancel":
        assert got.is_zero() and got.den == 1 and got.num == {}
    assert (f - f).is_zero() and (f - f).den == 1


def _vector_fields():
    """xi- and hbar-free components with hostile denominators, some of them zero."""
    part = st.builds(Fraction, st.integers(-12, 12), st.sampled_from(_HOSTILE_DENOMINATORS))

    def field(n):
        exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
        keys = st.tuples(st.just(0), exps, st.just((0,) * n))
        comp = st.dictionaries(keys, st.builds(QQi, part), max_size=4).map(lambda t: PolySymbol(n, t))
        return st.lists(comp, min_size=n, max_size=n).map(lambda cs: VectorField(n, tuple(cs)))

    return st.integers(1, 3).flatmap(field)


@settings(max_examples=60, deadline=None)
@given(_vector_fields())
def test_momentum_symbol_matches_reference(X):
    n = X.dimension
    want = PolySymbol.zero(n)
    for a, comp in enumerate(X.components):
        want = _ref_combination(want, _ref_product(comp, PolySymbol.xi(a, n)), QQi(-1))
    assert momentum_symbol(X) == want


@pytest.mark.parametrize("n", [1, 2])
def test_wide_exponent_fields_match_sympy(n):
    # exponents of 128 and more, and products past 255, once needed wider
    # packed fields; few derivative pairs survive, so the sympy reference
    # stays small
    sympy = pytest.importorskip("sympy")
    xs = list(sympy.symbols(f"x0:{n}"))
    xis = list(sympy.symbols(f"xi0:{n}"))
    hbar = sympy.Symbol("hbar")
    z = (0,) * (n - 1)
    wide = (200,) if n == 2 else ()
    f = PolySymbol(n, {(0, (130,) + z, (2,) + z): QQi(3), (1, (0,) * n, (1,) + wide): QQi(0, Fraction(1, 2))})
    g = PolySymbol(n, {(0, (140,) + z, (1,) + z): QQi(-2), (0, (1,) + z, (3,) + z): QQi(1)})
    if n == 2:
        g = g + PolySymbol(n, {(0, (1, 0), (0, 60)): QQi(Fraction(-5, 3))})
    order = f.total_degree() + g.total_degree()
    for F, G in ((f, g), (g, f)):
        F_, G_ = _to_sympy(sympy, F, xs, xis, hbar), _to_sympy(sympy, G, xs, xis, hbar)
        want = _sympy_star(sympy, F_, G_, xs, xis, hbar, order)
        assert sympy.expand(_to_sympy(sympy, moyal_star(F, G), xs, xis, hbar) - want) == 0
    assert max(max(xe + xie) for _, xe, xie in (f * g).terms) > 255
    assert f.poisson(g) == _ref_bidifferential_power(f, g, 1)


@pytest.mark.parametrize("e", [127, 128, 255, 256, 2**15 - 8])
def test_products_across_field_boundaries_match_references(e):
    # exponents around the old one-byte fields, and one whose products land just
    # under the packed field's limit of 2^15; g keeps a low degree, so the
    # composition-sum references stay small
    f = PolySymbol(
        2,
        {
            (0, (e, 1), (2, 0)): QQi(3),
            (1, (0, 2), (0, e)): QQi(0, Fraction(1, 2)),
            (0, (e - 1, 0), (1, 1)): QQi(Fraction(-5, 7)),
        },
    )
    g = PolySymbol(
        2,
        {(0, (1, 0), (1, 0)): QQi(2), (0, (3, 0), (0, 1)): QQi(1, -1), (2, (0, 1), (0, 2)): QQi(Fraction(1, 3))},
    )
    for F, G in ((f, g), (g, f)):
        assert F * G == _ref_product(F, G)
        star = _ref_moyal_star(F, G)
        assert moyal_star(F, G) == star
        assert star_commutator(F, G) == star - _ref_moyal_star(G, F)
        assert F.poisson(G) == _ref_bidifferential_power(F, G, 1)
    assert max(max(xe + xie) for _, xe, xie in moyal_star(f, g).terms) == e + 3
