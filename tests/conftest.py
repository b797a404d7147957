import random
from fractions import Fraction
from math import factorial, prod

import pytest

from weylred.rational import QQi
from weylred.symbols import PolySymbol, VectorField


def random_symbol(rng: random.Random, n: int, degree: int, xi_free=False) -> PolySymbol:
    """Small random polynomial with integer coefficients in [-3, 3]."""
    terms = {}
    for _ in range(rng.randint(2, 6)):
        d = rng.randint(0, degree)
        xe = [0] * n
        xie = [0] * n
        for _ in range(d):
            a = rng.randrange(n)
            if xi_free or rng.random() < 0.5:
                xe[a] += 1
            else:
                xie[a] += 1
        c = rng.randint(-3, 3)
        if c == 0:
            c = 1
        key = (0, tuple(xe), tuple(xie))
        terms[key] = terms.get(key, QQi()) + QQi(Fraction(c))
    return PolySymbol(n, terms)


def random_vector_field(rng: random.Random, n: int, degree: int) -> VectorField:
    return VectorField(
        n, tuple(random_symbol(rng, n, degree, xi_free=True) for _ in range(n))
    )


def poisson_oracle(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """{f, g} = sum_a d_xi_a f d_x_a g - d_x_a f d_xi_a g, from `partial` and plain products."""
    out = PolySymbol.zero(f.dimension)
    for a in range(f.dimension):
        out = out + f.partial("xi", a) * g.partial("x", a)
        out = out - f.partial("x", a) * g.partial("xi", a)
    return out


def _multi_indices(n: int, total: int):
    """Every alpha in N^n with |alpha| = total."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multi_indices(n - 1, total - first):
            yield (first,) + rest


def _derivative(f: PolySymbol, kind: str, alpha) -> PolySymbol:
    for a, k in enumerate(alpha):
        for _ in range(k):
            f = f.partial(kind, a)
    return f


def star_oracle(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """f * g = sum_K (i hbar / 2)^K / K! P^K(f, g), every order K up to
    min(total degrees), from `partial` and plain products, with
    P^K(f, g) = sum_{|alpha| + |beta| = K} K! / (alpha! beta!) (-1)^|beta|
    (d_xi^alpha d_x^beta f)(d_x^alpha d_xi^beta g)."""
    n = f.dimension
    out = PolySymbol.zero(n)
    for K in range(min(f.total_degree(), g.total_degree()) + 1):
        P = PolySymbol.zero(n)
        for A in range(K + 1):
            for alpha in _multi_indices(n, A):
                for beta in _multi_indices(n, K - A):
                    weight = factorial(K) // prod(factorial(k) for k in alpha + beta)
                    left = _derivative(_derivative(f, "xi", alpha), "x", beta)
                    right = _derivative(_derivative(g, "x", alpha), "xi", beta)
                    P = P + left * right * ((-1) ** (K - A) * weight)
        phase = [QQi(1), QQi(0, 1), QQi(-1), QQi(0, -1)][K % 4]
        out = out + PolySymbol.hbar(n, K) * P * (phase * QQi(Fraction(1, 2**K * factorial(K))))
    return out


@pytest.fixture
def rng():
    return random.Random(20240817)
