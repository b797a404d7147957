"""Test-only companions of the exact layer: maps and checks that no program
path calls, kept here so that they stay independent of `src/`."""

from math import factorial

from weylred.moyal import star_commutator
from weylred.rational import QQi
from weylred.symbols import PolySymbol, _check_same_dim, integer_product


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
