import copy
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylred.moyal import moyal_star, star_commutator
from weylred.rational import QQi, parse_rational
from weylred.symbols import (
    DimensionMismatch,
    ExponentOverflow,
    PolySymbol,
    VectorField,
    angular_momentum,
    momentum_symbol,
    rotation_generator,
    symbol_from_literal,
    xi_norm_squared,
)

from conftest import random_symbol, random_vector_field
from oracles import symbol_to_literal


def x(a, n=2):
    return PolySymbol.x(a, n)


def xi(a, n=2):
    return PolySymbol.xi(a, n)


class TestRingOps:
    def test_difference_of_squares(self):
        f = (x(0) + xi(0)) * (x(0) - xi(0))
        assert f == x(0) * x(0) - xi(0) * xi(0)

    def test_multiplicative_identity(self, rng):
        f = random_symbol(rng, 3, 4)
        assert f * PolySymbol.one(3) == f

    def test_f12_squared_hand_expansion(self):
        f12 = angular_momentum(0, 1, 2)
        expected = (
            x(0) * x(0) * xi(1) * xi(1)
            - 2 * (x(0) * x(1) * xi(0) * xi(1))
            + x(1) * x(1) * xi(0) * xi(0)
        )
        assert f12 * f12 == expected

    def test_commutative(self, rng):
        f = random_symbol(rng, 2, 3)
        g = random_symbol(rng, 2, 3)
        assert f * g == g * f

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PolySymbol.x(0, 2) * PolySymbol.x(0, 3)

    def test_canonical_zero_coefficients_dropped(self):
        f = x(0) - x(0)
        assert f.is_zero()
        assert f.terms == {}


class TestConstructor:
    @pytest.mark.parametrize(
        "key",
        [
            (0, (1.7, 0), (0, 0)),
            (0, (1.0, 0), (0, 0)),
            (0, (0, 0), (0, Fraction(1, 2))),
            (0.5, (0, 0), (0, 0)),
            (0, (True, False), (0, 0)),
            (0, (0, 0), (np.True_, 0)),
            (True, (0, 0), (0, 0)),
        ],
    )
    def test_non_integer_exponents_rejected(self, key):
        with pytest.raises(ValueError, match="exponents must be integers"):
            PolySymbol(2, {key: 1})

    def test_numpy_integer_exponents_accepted(self):
        key = (np.int64(1), (np.int32(1), np.int64(0)), (np.uint8(0), 2))
        f = PolySymbol(2, {key: 3})
        assert f == 3 * PolySymbol.hbar(2) * x(0) * xi(1) * xi(1)
        assert all(type(e) is int for h, xe, xie in f.terms for e in (h, *xe, *xie))


LIMIT = 2**15  # every packed exponent and x/xi degree stays below it


def _wide_keys(n):
    """Tuple keys whose exponents span the packed fields: each x/xi degree below LIMIT, hbar unbounded."""
    spread = st.lists(st.integers(0, LIMIT // n - 1), min_size=n, max_size=n)
    one = st.tuples(st.integers(0, n - 1), st.integers(0, LIMIT - 1))
    exps = st.one_of(spread, one.map(lambda p: [p[1] if j == p[0] else 0 for j in range(n)]))
    return st.tuples(st.integers(0, 10**6), exps.map(tuple), exps.map(tuple))


_wide_symbols = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(
            _wide_keys(n), st.builds(QQi, st.fractions(max_denominator=9)).filter(lambda c: c != QQi()), max_size=5
        ),
    )
)


class TestPackedMonomials:
    @settings(max_examples=80, deadline=None)
    @given(_wide_symbols)
    def test_terms_round_trip(self, n_terms):
        n, terms = n_terms
        f = PolySymbol(n, terms)
        assert f.terms == terms
        assert PolySymbol(n, f.terms) == f
        if terms:
            # the largest packed key leads in the order (hbar, x degree, xi degree, xi_{n-1} .. xi_0, x_{n-1} .. x_0)
            packed = {next(iter(PolySymbol(n, {key: 1}).num)): key for key in terms}
            order = lambda k: (k[0], sum(k[1]), sum(k[2]), k[2][::-1], k[1][::-1])
            assert packed[max(f.num)] == max(terms, key=order)

    @pytest.mark.parametrize(
        "key",
        [
            (0, (LIMIT, 0), (0, 0)),
            (0, (0, 0), (0, LIMIT)),
            (0, (LIMIT // 2, LIMIT // 2), (0, 0)),  # every exponent fits, the x degree does not
            (0, (0, 0), (LIMIT - 1, 1)),
        ],
    )
    def test_exponent_or_degree_past_the_field_raises(self, key):
        with pytest.raises(ExponentOverflow, match="must stay below 32768"):
            PolySymbol(2, {key: 1})
        with pytest.raises(ExponentOverflow):  # a zero coefficient too
            PolySymbol(2, {key: 0})
        assert issubclass(ExponentOverflow, ValueError)

    @pytest.mark.parametrize("kind", ["x", "xi"])
    def test_product_past_the_field_raises_before_its_loop(self, kind):
        unit, other = (PolySymbol.x, PolySymbol.xi) if kind == "x" else (PolySymbol.xi, PolySymbol.x)
        f = unit(0, 2) ** (LIMIT // 2) + unit(1, 2)
        g = unit(1, 2) ** (LIMIT // 2 - 1) * (1 + other(1, 2))
        assert (f * g).total_degree() == LIMIT  # a kind's degree reaches LIMIT - 1, just under the field
        h = unit(1, 2) ** (LIMIT // 2)
        for product in (lambda: f * h, lambda: h * f, lambda: moyal_star(f, h), lambda: star_commutator(h, f)):
            with pytest.raises(ExponentOverflow, match="must stay below 32768"):
                product()
        assert PolySymbol.hbar(2, 10**9) * PolySymbol.hbar(2, 10**9) == PolySymbol.hbar(2, 2 * 10**9)


class TestBasisConstructors:
    """`zero`, `one`, `constant`, `x`, `xi` and `hbar` skip the validating loop."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_match_the_public_constructor(self, n):
        z = (0,) * n
        unit = tuple(int(j == n - 1) for j in range(n))
        assert PolySymbol.zero(n) == PolySymbol(n)
        assert PolySymbol.one(n) == PolySymbol(n, {(0, z, z): 1})
        assert PolySymbol.x(n - 1, n) == PolySymbol(n, {(0, unit, z): 1})
        assert PolySymbol.xi(n - 1, n) == PolySymbol(n, {(0, z, unit): 1})
        assert PolySymbol.hbar(n, 3) == PolySymbol(n, {(3, z, z): 1})
        for c in (2, -7, Fraction(-4, 6), QQi("1/2", "-2/3"), QQi(0, "5/3")):
            f = PolySymbol.constant(c, n)
            assert f == PolySymbol(n, {(0, z, z): c}) and hash(f) == hash(PolySymbol(n, {(0, z, z): c}))
            assert f.terms == {(0, z, z): QQi.coerce(c)}

    def test_constant_stores_one_reduced_denominator(self):
        f = PolySymbol.constant(QQi("1/2", "-2/3"), 2)
        assert (f.den, list(f.num.values())) == (6, [(3, -4)])
        assert f.terms == {(0, (0, 0), (0, 0)): QQi("1/2", "-2/3")}

    @pytest.mark.parametrize("zero", [0, Fraction(0), QQi()])
    def test_constant_zero_is_the_zero_symbol(self, zero):
        f = PolySymbol.constant(zero, 2)
        assert f.is_zero() and f == PolySymbol.zero(2) and (f.den, f.num) == (1, {})

    def test_negative_hbar_power_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PolySymbol.hbar(2, -1)

    @pytest.mark.parametrize("power", [True, 2.0, np.True_, Fraction(1)])
    def test_non_integer_hbar_power_rejected(self, power):
        with pytest.raises(ValueError, match="exponents must be integers"):
            PolySymbol.hbar(2, power)

    @pytest.mark.parametrize("make", [PolySymbol.x, PolySymbol.xi])
    @pytest.mark.parametrize("a", [2, -1])
    def test_basis_index_out_of_range(self, make, a):
        with pytest.raises(IndexError):
            make(a, 2)

    @pytest.mark.parametrize("c", [1.5, 1j, None])
    def test_constant_of_a_non_exact_value_rejected(self, c):
        with pytest.raises(TypeError):
            PolySymbol.constant(c, 2)

    @pytest.mark.parametrize(
        "make", [PolySymbol.zero, PolySymbol.one, PolySymbol.hbar, lambda n: PolySymbol.constant(2, n)]
    )
    def test_non_positive_dimension_rejected(self, make):
        with pytest.raises(ValueError, match="dimension"):
            make(0)


class TestPartial:
    def test_power_rule(self):
        f = x(0) * x(0) * xi(1)
        assert f.partial("x", 0) == 2 * (x(0) * xi(1))

    def test_absent_variable(self):
        f = PolySymbol.x(0, 3) * PolySymbol.xi(1, 3)
        assert f.partial("xi", 2).is_zero()

    def test_angular_momentum_partial(self):
        f12 = angular_momentum(0, 1, 2)
        assert f12.partial("xi", 1) == x(0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            x(0).partial("x", 5)


class TestPoisson:
    def test_position_only_commute(self, rng):
        a = random_symbol(rng, 2, 3, xi_free=True)
        b = random_symbol(rng, 2, 3, xi_free=True)
        assert a.poisson(b).is_zero()

    def test_table_row_momentum_fields(self):
        # X = (-x2, x1, 0), Y = (0, -x3, x2) in 1-based labels
        n = 3
        X = rotation_generator(0, 1, n)
        Y = rotation_generator(1, 2, n)
        jx = momentum_symbol(X)
        jy = momentum_symbol(Y)
        assert jx.poisson(jy) == momentum_symbol(X.lie_bracket(Y))

    def test_so3_structure(self):
        # {f_12, f_23} = f_13 under the fixed sign convention
        f12 = angular_momentum(0, 1, 3)
        f23 = angular_momentum(1, 2, 3)
        f13 = angular_momentum(0, 2, 3)
        assert f12.poisson(f23) == f13

    def test_bilinear_antisymmetric(self, rng):
        f = random_symbol(rng, 2, 4)
        g = random_symbol(rng, 2, 4)
        h = random_symbol(rng, 2, 4)
        assert f.poisson(g) == -(g.poisson(f))
        assert (f + g).poisson(h) == f.poisson(h) + g.poisson(h)

    def test_jacobi_exact(self):
        rng = random.Random(7)
        for _ in range(10):
            f = random_symbol(rng, 2, 4)
            g = random_symbol(rng, 2, 4)
            h = random_symbol(rng, 2, 4)
            total = (
                f.poisson(g.poisson(h))
                + g.poisson(h.poisson(f))
                + h.poisson(f.poisson(g))
            )
            assert total.is_zero()

    def test_leibniz_exact(self):
        rng = random.Random(8)
        for _ in range(10):
            f = random_symbol(rng, 3, 3)
            g = random_symbol(rng, 3, 3)
            h = random_symbol(rng, 3, 3)
            assert f.poisson(g * h) == f.poisson(g) * h + g * f.poisson(h)

    def test_jx_derives_position_symbols(self):
        rng = random.Random(9)
        for _ in range(10):
            X = random_vector_field(rng, 2, 3)
            a = random_symbol(rng, 2, 4, xi_free=True)
            assert momentum_symbol(X).poisson(a) == X.apply_to(a)

    def test_jx_jy_bracket_random_fields(self):
        rng = random.Random(10)
        for _ in range(10):
            X = random_vector_field(rng, 3, 2)
            Y = random_vector_field(rng, 3, 2)
            lhs = momentum_symbol(X).poisson(momentum_symbol(Y))
            assert lhs == momentum_symbol(X.lie_bracket(Y))


class TestMomentumSymbol:
    def test_rotation_field(self):
        X = rotation_generator(0, 1, 2)
        assert momentum_symbol(X) == angular_momentum(0, 1, 2)

    def test_zero_field(self):
        assert momentum_symbol(VectorField.zero(2)).is_zero()

    def test_constant_field(self):
        X = VectorField(2, (PolySymbol.one(2), PolySymbol.zero(2)))
        assert momentum_symbol(X) == xi(0)

    def test_xi_degree_one(self, rng):
        X = random_vector_field(rng, 2, 3)
        j = momentum_symbol(X)
        # every term of X . xi has xi-degree exactly one
        if not j.is_zero():
            assert {sum(xie) for _, _, xie in j.terms} == {1}


class TestAngularMomentum:
    def test_f12(self):
        assert angular_momentum(0, 1, 2) == x(0) * xi(1) - x(1) * xi(0)

    def test_antisymmetry(self):
        assert angular_momentum(1, 0, 2) == -angular_momentum(0, 1, 2)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            angular_momentum(1, 1, 3)

    def test_commutes_with_xi_norm(self):
        n = 3
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert xi_norm_squared(n).poisson(angular_momentum(i, j, n)).is_zero()


class TestEvaluate:
    def test_f12_point(self):
        f12 = angular_momentum(0, 1, 2)
        assert f12.evaluate([1, 0], [0, 1], 0.3) == pytest.approx(1.0)

    def test_origin_no_constant(self, rng):
        f = random_symbol(rng, 2, 3)
        f = f - PolySymbol.constant(f.terms.get((0, (0, 0), (0, 0)), 0), 2)
        assert f.evaluate([0, 0], [0, 0]) == pytest.approx(0.0)

    def test_hbar_grading(self):
        f = PolySymbol.hbar(2, 2)
        assert f.evaluate([0, 0], [0, 0], hbar=0.5) == pytest.approx(0.25)

    def test_matches_exact_at_rational_points(self, rng):
        f = random_symbol(rng, 2, 4)
        val = f.evaluate([2, -1], [3, 5], 1.0)
        exact = sum(
            complex(c)
            * (2 ** xe[0]) * ((-1) ** xe[1]) * (3 ** xie[0]) * (5 ** xie[1])
            for (h, xe, xie), c in f.terms.items()
        )
        assert val == pytest.approx(exact)


class TestCopying:
    @pytest.mark.parametrize(
        "clone", [lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy]
    )
    def test_round_trip(self, rng, clone):
        for f in (PolySymbol.x(0, 2), random_symbol(rng, 3, 4) * QQi("1/2", "-3")):
            f.compile()
            g = clone(f)
            assert g == f and hash(g) == hash(f)
            assert g._compiled is None  # the kernel is rebuilt, not carried
            assert g.evaluate([0.3] * f.dimension, [-1.1] * f.dimension, 0.7) == (
                f.evaluate([0.3] * f.dimension, [-1.1] * f.dimension, 0.7)
            )


class TestVectorField:
    def test_divergence(self):
        X = VectorField(2, (x(0) * x(1), x(1) * x(1)))
        assert X.divergence() == x(1) + 2 * x(1)

    def test_xi_free_enforced(self):
        with pytest.raises(ValueError):
            VectorField(2, (xi(0), PolySymbol.zero(2)))

    def test_lie_bracket_antisymmetric(self, rng):
        X = random_vector_field(rng, 2, 3)
        Y = random_vector_field(rng, 2, 3)
        Z = X.lie_bracket(Y)
        W = Y.lie_bracket(X)
        for c1, c2 in zip(Z.components, W.components):
            assert c1 == -c2

    def test_linear_part_of_rotations(self):
        assert np.array_equal(rotation_generator(0, 1, 2).linear_part(), [[0, -1], [1, 0]])
        A = rotation_generator(0, 2, 3).linear_part()
        assert np.array_equal(A, [[0, 0, -1], [0, 0, 0], [1, 0, 0]])

    def test_linear_part_of_a_linear_non_rotation(self):
        X = VectorField(2, (Fraction(3, 2) * x(0) - x(1), 4 * x(1)))
        assert np.array_equal(X.linear_part(), [[1.5, -1.0], [0.0, 4.0]])

    @pytest.mark.parametrize(
        "extra",
        [PolySymbol.one(2), x(0) * x(1), x(1) * x(1) * x(1)],
        ids=["constant", "quadratic", "cubic"],
    )
    def test_linear_part_none_with_a_non_linear_term(self, extra):
        assert VectorField(2, (x(1) + extra, -x(0))).linear_part() is None
        assert VectorField(2, (x(1), extra)).linear_part() is None

    def test_linear_part_of_zero_field(self):
        assert np.array_equal(VectorField.zero(3).linear_part(), np.zeros((3, 3)))


class TestLiteralFormat:
    def test_round_trip(self, rng):
        f = random_symbol(rng, 2, 4)
        assert symbol_from_literal(symbol_to_literal(f), 2) == f

    def test_malformed_rational_rejected(self):
        with pytest.raises(ValueError):
            symbol_from_literal([{"re": "1/0", "x": [0, 0], "xi": [0, 0]}], 2)
        with pytest.raises(ValueError):
            symbol_from_literal([{"re": "abc", "x": [0, 0], "xi": [0, 0]}], 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            symbol_from_literal([{"re": "1", "x": [-1, 0], "xi": [0, 0]}], 2)

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"re": "1", "hbar": True, "x": [0, 0], "xi": [0, 0]}, "hbar"),
            ({"re": "1", "hbar": False, "x": [0, 0], "xi": [0, 0]}, "hbar"),
            ({"re": "1", "x": [True, False], "xi": [0, 0]}, "x"),
            ({"re": "1", "x": [0, 0], "xi": [0, True]}, "xi"),
        ],
    )
    def test_boolean_exponents_rejected(self, record, field):
        with pytest.raises(ValueError, match=rf"^{field} "):
            symbol_from_literal([record], 2)

    def test_parse_rational(self):
        assert parse_rational("3/4") == 0.75
        with pytest.raises(ValueError):
            parse_rational("1.5.2")


def test_gaussian_rational_field_ops():
    a = QQi("1/2", "1/3")
    b = QQi("2", "-1")
    assert (a * b) / b == a
    assert a + (-a) == QQi()
    assert complex(QQi.i()) == 1j
