import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, perm

import pytest

from weylred.rational import QQi
from weylred import moyal, symbols
from weylred.moyal import (
    ExpansionBoundError,
    SingularSystemError,
    expand_power_in_star_basis,
    moyal_star,
    star_commutator,
)
from weylred.symbols import (
    PolySymbol,
    angular_momentum,
    momentum_symbol,
    xi_norm_squared,
)

from conftest import poisson_oracle, random_symbol, random_vector_field
from oracles import bidifferential_power, quadratic_exactness_check, substitute_hbar_sign


def x(a, n=2):
    return PolySymbol.x(a, n)


def xi(a, n=2):
    return PolySymbol.xi(a, n)


def hb(n=2, p=1):
    return PolySymbol.hbar(n, p)


class TestBidifferentialPower:
    def test_p1_is_poisson(self, rng):
        # the oracle is the partial-derivative sum, not the product loop's first order
        f = random_symbol(rng, 2, 3)
        g = random_symbol(rng, 2, 3)
        assert bidifferential_power(f, g, 1) == poisson_oracle(f, g)
        assert f.poisson(g) == poisson_oracle(f, g)

    def test_p0_is_product(self, rng):
        f = random_symbol(rng, 2, 3)
        g = random_symbol(rng, 2, 3)
        assert bidifferential_power(f, g, 0) == f * g

    def test_p2_angular_momentum(self):
        f12 = angular_momentum(0, 1, 2)
        assert bidifferential_power(f12, f12, 2) == PolySymbol.constant(4, 2)

    def test_degree_bound(self):
        assert bidifferential_power(x(0), xi(0), 2).is_zero()
        assert bidifferential_power(x(0), xi(0), 5).is_zero()


class TestMoyalStar:
    def test_unit(self, rng):
        f = random_symbol(rng, 3, 4)
        assert moyal_star(f, PolySymbol.one(3)) == f
        assert moyal_star(PolySymbol.one(3), f) == f

    def test_x_star_xi(self):
        # one-step expansion: {x1, xi1} = -1 under the fixed convention,
        # so x1 * xi1 = x1 xi1 - (i/2) hbar (and xi1 * x1 carries the + sign)
        expected = x(0) * xi(0) + hb() * QQi(0, Fraction(-1, 2))
        assert moyal_star(x(0), xi(0)) == expected
        expected_rev = x(0) * xi(0) + hb() * QQi(0, Fraction(1, 2))
        assert moyal_star(xi(0), x(0)) == expected_rev

    def test_f12_star_f12(self):
        f12 = angular_momentum(0, 1, 2)
        assert moyal_star(f12, f12) == f12 * f12 - hb(2, 2) * Fraction(1, 2)

    def test_associativity_random(self):
        rng = random.Random(11)
        for n in (1, 2, 3):
            for _ in range(4):
                f = random_symbol(rng, n, 4)
                g = random_symbol(rng, n, 4)
                h = random_symbol(rng, n, 4)
                assert moyal_star(moyal_star(f, g), h) == moyal_star(
                    f, moyal_star(g, h)
                )

    def test_hbar_zero_and_first_order(self, rng):
        f = random_symbol(rng, 2, 4)
        g = random_symbol(rng, 2, 4)
        s = moyal_star(f, g)
        assert s.hbar_component(0) == f * g
        assert s.hbar_component(1) == QQi(0, Fraction(1, 2)) * f.poisson(g)

    def test_conjugation_symmetry(self, rng):
        f = random_symbol(rng, 2, 4)
        g = random_symbol(rng, 2, 4)
        assert substitute_hbar_sign(moyal_star(f, g)) == moyal_star(g, f)


class TestIntegerProductLoop:
    _QQI_ARITHMETIC = (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__"
    )

    def test_products_run_no_qqi_arithmetic(self, monkeypatch):
        f = angular_momentum(0, 1, 3) ** 3
        g = angular_momentum(0, 2, 3) ** 2
        calls = Counter()
        for name in self._QQI_ARITHMETIC:

            def counted(*args, _raw=QQi.__dict__[name], _name=name):
                calls[_name] += 1
                return _raw(*args)

            monkeypatch.setattr(QQi, name, counted)
        products = [
            f * g,
            moyal_star(f, g),
            star_commutator(f, g),
            f * Fraction(3, 7),
            f * QQi(1, -2),
            f.partial("x", 0),
        ]
        assert calls == Counter()
        assert all(not p.is_zero() for p in products)

    @pytest.mark.parametrize(
        "f",
        [
            angular_momentum(0, 1, 3),
            PolySymbol.x(0, 2) ** 2 * Fraction(1, 2) + PolySymbol.xi(0, 2) ** 2 * Fraction(1, 3),
        ],
        ids=["angular-momentum", "denominators-2-and-3"],
    )
    def test_product_loop_builds_no_fraction(self, monkeypatch, f):
        # the loop reads the stored numerators and ends with one gcd reduction;
        # each of the four operations below runs through it
        raw_new, raw_product = Fraction.__new__, moyal.integer_product
        loops, built, inside, running = Counter(), [], [False], [None]

        def counted_new(cls, *args, **kwargs):
            if inside[0]:
                built.append(args)
            return raw_new(cls, *args, **kwargs)

        def watched(*args, **kwargs):
            loops[running[0]] += 1
            inside[0] = True
            try:
                return raw_product(*args, **kwargs)
            finally:
                inside[0] = False

        def run(name, operation):
            running[0] = name
            return operation()

        n = f.dimension
        g = f * f + PolySymbol.x(n - 1, n) * Fraction(-5, 6)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        monkeypatch.setattr(symbols, "integer_product", watched)
        monkeypatch.setattr(moyal, "integer_product", watched)
        product = run("product", lambda: f * g + g)
        star = run("star", lambda: moyal_star(f, g))
        bracket = run("bracket", lambda: star_commutator(product, f))
        expansion = run("expansion", lambda: expand_power_in_star_basis(f, 4))
        monkeypatch.undo()
        assert all(loops[name] >= 1 for name in ("product", "star", "bracket", "expansion"))
        assert built == []
        assert product == f * g + g and star == moyal_star(f, g)
        assert bracket == moyal_star(product, f) - moyal_star(f, product)
        assert expansion.residual().is_zero()

    @pytest.mark.parametrize("n", [2, 3])
    def test_expansion_difference_and_momentum_build_no_fraction(self, monkeypatch, n):
        # the whole expansion (star powers, leading-term quotients, fused
        # steps, the c_j), a difference and J_X run on numerators alone
        rng = random.Random(n)
        f = angular_momentum(0, n - 1, n)
        g = random_symbol(rng, n, 3) * Fraction(2, 7) + PolySymbol.hbar(n) * QQi(Fraction(1, 3), 5)
        X = random_vector_field(rng, n, 2)
        X = type(X)(n, tuple(c * Fraction(1, a + 2) for a, c in enumerate(X.components)))
        built = []
        raw_new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            built.append(args)
            return raw_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        expansion = expand_power_in_star_basis(f, 4)
        difference = f - g
        J = momentum_symbol(X)
        monkeypatch.undo()
        assert built == []
        assert expansion.residual().is_zero()
        assert difference + g == f
        assert J == sum((c * PolySymbol.xi(a, n) for a, c in enumerate(X.components)), PolySymbol.zero(n))

    def test_momentum_brackets_stop_at_the_first_order(self, monkeypatch):
        # J_X, J_Y have xi-degree 1, so the x/xi bound keeps star_commutator at
        # K <= 2 and its odd part at K = 1, and the Poisson bracket is that
        # order without phase; the angular momentum's star square reaches K = 2
        rng = random.Random(15)
        X, Y = random_vector_field(rng, 3, 3), random_vector_field(rng, 3, 3)
        JX, JY = momentum_symbol(X), momentum_symbol(Y)
        JB = momentum_symbol(X.lie_bracket(Y))
        tops, raw_sums = [], symbols._order_sums

        def recorded(f, g, fo, go, weight, phased):
            tops.append(len(weight) - 1)
            return raw_sums(f, g, fo, go, weight, phased)

        monkeypatch.setattr(symbols, "_order_sums", recorded)
        assert star_commutator(JX, JY) == PolySymbol.hbar(3) * (QQi.i() * JB)
        assert JX.poisson(JY) == JB
        assert tops == [1, 1]
        f = angular_momentum(0, 1, 3)
        assert moyal_star(f, f) == f * f - PolySymbol.hbar(3, 2) * Fraction(1, 2)
        assert tops == [1, 1, 2]

    def test_one_coordinate_products_match_the_fraction_formula(self):
        # x^alpha xi^beta * x^gamma xi^delta = sum_k (i hbar)^k r_k x^(alpha+gamma-k) xi^(beta+delta-k)
        # with r_k = sum_{j+l=k} (-1)^l ff(beta,j) ff(alpha,l) ff(gamma,j) ff(delta,l) / (2^k j! l!),
        # ff the falling factorial, built here with Fractions and the public constructor
        phases = [QQi(1), QQi.i(), QQi(-1), -QQi.i()]
        for alpha, beta, gamma, delta in itertools.product(range(7), repeat=4):
            expected = {}
            for k in range(min(beta, gamma) + min(alpha, delta) + 1):
                r = sum(
                    Fraction(
                        (-1) ** (k - j) * perm(beta, j) * perm(alpha, k - j) * perm(gamma, j) * perm(delta, k - j),
                        2**k * factorial(j) * factorial(k - j),
                    )
                    for j in range(k + 1)
                )
                expected[(k, (alpha + gamma - k,), (beta + delta - k,))] = phases[k % 4] * r
            product = moyal_star(
                PolySymbol(1, {(0, (alpha,), (beta,)): 1}), PolySymbol(1, {(0, (gamma,), (delta,)): 1})
            )
            assert product == PolySymbol(1, expected)


class TestStarCommutator:
    def test_antisymmetry_self(self, rng):
        f = random_symbol(rng, 2, 4)
        assert star_commutator(f, f).is_zero()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_laplacian_commutes_with_angular_powers(self, m, n):
        fij = angular_momentum(0, 1, n)
        assert star_commutator(xi_norm_squared(n), fij**m).is_zero()

    def test_groenewold_obstruction(self):
        f = x(0) ** 3
        g = xi(0) ** 3
        resid = star_commutator(f, g) - hb() * (QQi.i() * f.poisson(g))
        assert not resid.is_zero()
        # pure hbar^3 correction
        assert {h for h, _, _ in resid.terms} == {3}

    def test_jx_jy_quantum_table_row(self):
        rng = random.Random(12)
        for _ in range(10):
            X = random_vector_field(rng, 3, 3)
            Y = random_vector_field(rng, 3, 3)
            lhs = star_commutator(momentum_symbol(X), momentum_symbol(Y))
            rhs = PolySymbol.hbar(3) * (
                QQi.i() * momentum_symbol(X.lie_bracket(Y))
            )
            assert lhs == rhs


class TestQuadraticExactness:
    def test_xi_squared_vs_random(self):
        rng = random.Random(13)
        for n in (2, 3):
            h = xi_norm_squared(n)
            for _ in range(5):
                g = random_symbol(rng, n, 6)
                assert quadratic_exactness_check(h, g).is_zero()

    def test_mixed_quadratic(self):
        h = x(0) * xi(0)
        g = x(0) ** 2 * xi(0) ** 2
        assert quadratic_exactness_check(h, g).is_zero()

    def test_cubic_guard(self):
        with pytest.raises(ValueError):
            quadratic_exactness_check(x(0) ** 3, x(0))


class TestStarExpansion:
    def test_m2(self):
        f12 = angular_momentum(0, 1, 2)
        exp = expand_power_in_star_basis(f12, 2)
        coeffs = dict(exp.coefficients)
        assert coeffs[2] == PolySymbol.one(2)
        assert coeffs[0] == hb(2, 2) * Fraction(1, 2)
        assert set(coeffs) == {0, 2}
        assert exp.residual().is_zero()

    def test_m3(self):
        f12 = angular_momentum(0, 1, 2)
        exp = expand_power_in_star_basis(f12, 3)
        coeffs = dict(exp.coefficients)
        assert coeffs[3] == PolySymbol.one(2)
        assert coeffs[1] == hb(2, 2) * 2
        assert set(coeffs) == {1, 3}

    def test_m4(self):
        f12 = angular_momentum(0, 1, 2)
        exp = expand_power_in_star_basis(f12, 4)
        coeffs = dict(exp.coefficients)
        assert coeffs[4] == PolySymbol.one(2)
        assert coeffs[2] == hb(2, 2) * 5
        assert coeffs[0] == hb(2, 4) * Fraction(3, 2)
        assert set(coeffs) == {0, 2, 4}

    @pytest.mark.parametrize(
        "a", [QQi(0, 1), QQi(2, -1), QQi(Fraction(1, 3), Fraction(-3, 4))], ids=["i", "2-i", "third-quarter"]
    )
    def test_gaussian_multiple_scales_the_coefficients(self, a):
        # (a f)^m = a^m f^m and (a f)^{*j} = a^j f^{*j}, so c_j(a f) = a^(m - j) c_j(f):
        # a leading-term quotient over complex coefficients needs the conjugate
        f, m = angular_momentum(0, 1, 2), 4
        base = dict(expand_power_in_star_basis(f, m).coefficients)
        scaled = expand_power_in_star_basis(f * a, m)
        want = {}
        for j, c in base.items():
            for _ in range(m - j):
                c = c * a
            want[j] = c
        assert dict(scaled.coefficients) == want
        assert scaled.residual().is_zero()

    def test_reconstruction_random(self):
        rng = random.Random(14)
        f = random_symbol(rng, 2, 2)
        exp = expand_power_in_star_basis(f, 3)
        assert exp.residual().is_zero()

    def test_constant_base_singular(self):
        # star powers of a constant are linearly dependent
        with pytest.raises(SingularSystemError):
            expand_power_in_star_basis(PolySymbol.constant(2, 2), 2)

    def test_zero_base_singular(self):
        with pytest.raises(SingularSystemError):
            expand_power_in_star_basis(PolySymbol.zero(2), 3)

    def test_hbar_base_rejected(self):
        with pytest.raises(ValueError):
            expand_power_in_star_basis(hb(), 2)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            expand_power_in_star_basis(x(0), 0)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_affine_base_is_its_own_star_power(self, m):
        # second derivatives of an affine f vanish, so f^{*j} = f^j
        f = x(0) - 3 * xi(1) + 2
        exp = expand_power_in_star_basis(f, m)
        assert exp.coefficients == [(m, PolySymbol.one(2))]
        assert exp.star_powers == [f**j for j in range(m + 1)]

    def test_generic_cubic_slice_not_polynomial_in_f(self):
        f = xi(0) ** 2 * xi(1) + x(0) - 2 * x(1)
        assert expand_power_in_star_basis(f, 2).coefficients == [(2, PolySymbol.one(2))]
        with pytest.raises(SingularSystemError, match="not a polynomial in f"):
            expand_power_in_star_basis(f, 3)

    def test_hbar_power_past_the_degree_bound_is_named(self, monkeypatch):
        # a corrupted product whose remainder is a polynomial in f at hbar^9,
        # past the bound m deg f / 2 = 4 for m = 4, deg f = 2
        def star(a, b):
            return a * b * (1 + hb(2, 9))

        monkeypatch.setattr(moyal, "moyal_star", star)
        with pytest.raises(ExpansionBoundError):
            expand_power_in_star_basis(angular_momentum(0, 1, 2), 4)
