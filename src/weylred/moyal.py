"""Exact Moyal star product and Weyl-ordering power expansions.

Everything here is finite and exact: star products of polynomials truncate
once the bidifferential order exceeds the degree of either factor, and the
star-basis expansion is a top-down reduction, one hbar-slice at a time, by
exact division by leading terms over Q(i). No floating point enters this
module.

The Moyal operator splits across coordinate pairs: with
Pi_a = d_xi_a (x) d_x_a - d_x_a (x) d_xi_a,
exp((i hbar/2) sum_a Pi_a) = prod_a exp((i hbar/2) Pi_a), so the star
product of two monomials is the tensor product of n one-coordinate
products, each a short cached table of integers 2^k k! r. The products
themselves run in `symbols.integer_product`, the loop the plain product
uses too: the symbols' stored Gaussian-integer numerators, the kept orders
weighted over the 2^K K! of the largest, and one gcd reduction of the
result, with no Fraction built per product. Since P^k(g, f) = (-1)^k P^k(f, g), f * g - g * f is twice the odd
orders of f * g: the star commutator is one pass over the term pairs, not
two star products and a subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, gcd, perm
from typing import List, Tuple

from .rational import QQi
from .symbols import PolySymbol, TermKey, _check_same_dim, integer_product


class SingularSystemError(ValueError):
    """f^m is not a Q(i)[hbar]-combination of independent star powers of f."""


class ExpansionBoundError(RuntimeError):
    """The star-basis reduction reached an hbar power past its degree bound."""


@lru_cache(maxsize=4096)
def _coordinate_product(alpha: int, beta: int, gamma: int, delta: int) -> tuple:
    """x^alpha xi^beta * x^gamma xi^delta in one coordinate pair.

    Gives ((k, x exponent, xi exponent, R, k!), ...) over the orders k with
    R != 0, the order-k term being
    i^k hbar^k R / (2^k k!) x^(alpha+gamma-k) xi^(beta+delta-k), with the integer
    R = sum_{j+l=k} binom(k, j) (-1)^l ff(beta,j) ff(alpha,l) ff(gamma,j) ff(delta,l)
    and ff(a, j) = a (a-1) ... (a-j+1) the falling factorial.
    """
    out = []
    for k in range(min(beta, gamma) + min(alpha, delta) + 1):
        R = 0
        for j in range(max(0, k - min(alpha, delta)), min(beta, gamma, k) + 1):
            l = k - j
            term = comb(k, j) * perm(beta, j) * perm(alpha, l) * perm(gamma, j) * perm(delta, l)
            R += -term if l % 2 else term
        if R:
            out.append((k, alpha + gamma - k, beta + delta - k, R, factorial(k)))
    return tuple(out)


def _monomial_product(xe1: tuple, xie1: tuple, xe2: tuple, xie2: tuple) -> list:
    """x^xe1 xi^xie1 * x^xe2 xi^xie2 as [(K, x exponents, xi exponents, W), ...].

    The tensor product of the one-coordinate tables, K the summed order: the
    order-K term is i^K hbar^K W / (2^K K!) times its monomial, where
    W = prod_a R_a K! / prod_a k_a! is an integer.
    """
    entries = [(0, (), (), 1, 1)]  # (K, xe, xie, prod R_a, prod k_a!)
    for a, b, c, d in zip(xe1, xie1, xe2, xie2):
        table = _coordinate_product(a, b, c, d)
        entries = [
            (K + k, xe + (p,), xie + (q,), W * R, facts * k_fact)
            for K, xe, xie, W, facts in entries
            for k, p, q, R, k_fact in table
        ]
    return [(K, xe, xie, W * factorial(K) // facts) for K, xe, xie, W, facts in entries]


def _star(f: PolySymbol, g: PolySymbol, keep=None, phased: bool = True, scale: int = 1) -> PolySymbol:
    """The orders K of f * g that `keep(K)` selects, times `scale`.

    Without `phased` the terms are the raw (1/2)^K / K! P^K parts, with no
    hbar^K or i^K. The kept orders share the denominator L = 2^K K! of the
    largest one, so every weight of `integer_product` is an integer.
    """
    _check_same_dim(f, g)
    top = min(f.total_degree(), g.total_degree())  # no pair of terms reaches past it
    kept = [K for K in range(top + 1) if keep is None or keep(K)]
    if not kept:
        return PolySymbol.zero(f.dimension)
    L = 2 ** kept[-1] * factorial(kept[-1])
    common = gcd(scale, L)
    lift = [
        scale // common * (L // (2**K * factorial(K))) if K in kept else 0
        for K in range(top + 1)
    ]
    return integer_product(f, g, _monomial_product, lift, L // common, phased)


def bidifferential_power(f: PolySymbol, g: PolySymbol, k: int) -> PolySymbol:
    """P^k(f, g); P^0 = fg and P^1 is the Poisson bracket.

    P^k(f,g) = sum_{|alpha|+|beta|=k} k!/(alpha! beta!) (-1)^{|beta|}
               (d_xi^alpha d_x^beta f)(d_x^alpha d_xi^beta g),
    read off the order-k terms of the star product without their phase,
    times k! 2^k.
    """
    if k < 0:
        raise ValueError("bidifferential order must be non-negative")
    return _star(f, g, keep=lambda K: K == k, phased=False, scale=factorial(k) * 2**k)


def moyal_star(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """f * g = sum_k (1/k!) (i/2)^k hbar^k P^k(f, g), a finite exact sum."""
    return _star(f, g)


def star_commutator(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """f * g - g * f; leading term is i hbar {f, g}.

    P^k(g, f) = (-1)^k P^k(f, g), so this is twice the odd orders of f * g.
    """
    return _star(f, g, keep=lambda K: K & 1, scale=2)


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


@dataclass(frozen=True)
class StarExpansion:
    """f^m written in the star-power basis: f^m = sum_j c_j(hbar) f^{*j}.

    Each coefficient is a PolySymbol in hbar only; the top one is 1.
    """

    base_symbol: PolySymbol
    degree: int
    coefficients: List[Tuple[int, PolySymbol]]
    star_powers: List[PolySymbol]

    def reconstruct(self) -> PolySymbol:
        out = PolySymbol.zero(self.base_symbol.dimension)
        for j, c in self.coefficients:
            out = out + c * self.star_powers[j]
        return out

    def residual(self) -> PolySymbol:
        return self.reconstruct() - self.base_symbol**self.degree


def _leading_key(f: PolySymbol) -> TermKey:
    """Leading monomial in the graded lex order: total degree, then x, then xi."""
    return max(f.num, key=lambda key: (sum(key[1]) + sum(key[2]), key[1], key[2]))


def _as_polynomial_in(
    s: PolySymbol, plain_powers: List[PolySymbol], leading: List[TermKey]
) -> List[Tuple[int, QQi]]:
    """Coefficients a_j with s = sum_j a_j f^j, by division by leading terms.

    In a graded monomial order the leading monomial of f^j is LM(f)^j, so
    each step removes the leading term of s with one multiple of a power of
    f. Raises SingularSystemError when s is not a polynomial in f.
    """
    out = []
    while not s.is_zero():
        key = _leading_key(s)
        j = next((j for j, lead in enumerate(leading) if lead == key), None)
        if j is None:
            raise SingularSystemError(
                "a slice of f^m - f^{*m} is not a polynomial in f"
            )
        a = s.coefficient(key) / plain_powers[j].coefficient(key)
        out.append((j, a))
        s = s - plain_powers[j] * a
    return out


def expand_power_in_star_basis(f: PolySymbol, m: int) -> StarExpansion:
    """Express the pointwise power f^m in the basis {hbar^d f^{*j}}.

    Requires f free of hbar. The hbar^0 part of f^{*j} is f^j, so the
    remainder f^m - f^{*m} is reduced top-down: its lowest hbar-slice d is
    written as sum_j a_j f^j by leading-term division, and hbar^d a_j f^{*j}
    moves from the remainder into c_j until nothing is left. Every term of
    f^{*j} has degree + 2 * (hbar power) <= j deg f, so d never exceeds
    m deg f / 2.
    """
    if m < 1:
        raise ValueError("power must be a positive integer")
    if not f.is_hbar_free():
        raise ValueError("base symbol must be hbar-free")
    n = f.dimension
    degree = f.total_degree()
    if degree == 0:
        raise SingularSystemError("star powers of a constant are linearly dependent")
    star_powers = [PolySymbol.one(n)]
    plain_powers = [PolySymbol.one(n)]
    for _ in range(m):
        star_powers.append(moyal_star(star_powers[-1], f))
        plain_powers.append(plain_powers[-1] * f)
    leading = [_leading_key(p) for p in plain_powers]
    d_max = m * degree // 2

    zero = (0,) * n
    coeff_terms: dict[int, dict[TermKey, QQi]] = {m: {(0, zero, zero): QQi.coerce(1)}}
    rest = plain_powers[m] - star_powers[m]
    for d in range(d_max + 1):
        if rest.is_zero():
            break
        for j, a in _as_polynomial_in(rest.hbar_component(d), plain_powers, leading):
            coeff_terms.setdefault(j, {})[(d, zero, zero)] = a
            rest = rest - PolySymbol.hbar(n, d) * (star_powers[j] * a)
    if not rest.is_zero():
        raise ExpansionBoundError(
            f"f^m - f^(*m) keeps hbar powers past the bound m deg f / 2 = {d_max}"
        )
    coefficients = [
        (j, PolySymbol(n, terms)) for j, terms in sorted(coeff_terms.items())
    ]
    return StarExpansion(
        base_symbol=f, degree=m, coefficients=coefficients, star_powers=star_powers
    )
