"""Exact Moyal star product and Weyl-ordering power expansions.

Everything here is finite and exact: a star product of polynomials has no
order K past min(xi-degree f, x-degree g) + min(x-degree f, xi-degree g),
since its order-K part applies d_xi^alpha d_x^beta to f and
d_x^alpha d_xi^beta to g with |alpha| + |beta| = K. The star-basis expansion is a
top-down reduction, one hbar-slice at a time, by exact division by leading
terms over Q(i). No floating point enters this module.

The Moyal operator splits across coordinate pairs: with
Pi_a = d_xi_a (x) d_x_a - d_x_a (x) d_xi_a,
exp((i hbar/2) sum_a Pi_a) = prod_a exp((i hbar/2) Pi_a), so the star
product of two monomials is the tensor product of n one-coordinate
products, each a short cached table of integers 2^k k! r
(`symbols._coordinate_product`, imported here). The products run in
`symbols.integer_product`, the loop the plain product and the Poisson
bracket use too. It tensors only a pair's active coordinates, where a
derivative of one factor meets the other's variable; an idle pair is one
add of packed exponents. It weights the kept orders over the 2^K K! of
the largest and ends with one gcd reduction, with no Fraction built.
Since P^k(g, f) = (-1)^k P^k(f, g), f * g - g * f is twice the odd orders
of f * g: the star commutator is one pass over the term pairs, not two star
products and a subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd
from typing import List, Tuple

from .rational import QQi
# the one-coordinate tables keep their name here too:
# moyal._coordinate_product.cache_clear() empties them
from .symbols import PolySymbol, TermKey, _check_same_dim, _coordinate_product, integer_product


class SingularSystemError(ValueError):
    """f^m is not a Q(i)[hbar]-combination of independent star powers of f."""


class ExpansionBoundError(RuntimeError):
    """The star-basis reduction reached an hbar power past its degree bound."""


def _degrees(f: PolySymbol) -> Tuple[int, int]:
    """The degrees of f in x and in xi (0 for the zero symbol)."""
    return (
        max((sum(xe) for _, xe, _ in f.num), default=0),
        max((sum(xie) for _, _, xie in f.num), default=0),
    )


def _star(f: PolySymbol, g: PolySymbol, keep=None, phased: bool = True, scale: int = 1) -> PolySymbol:
    """The orders K of f * g that `keep(K)` selects, times `scale`.

    Without `phased` the terms are the raw (1/2)^K / K! P^K parts, with no
    hbar^K or i^K. The kept orders share the denominator L = 2^K K! of the
    largest one, so every weight of `integer_product` is an integer.
    """
    _check_same_dim(f, g)
    xf, xif = _degrees(f)
    xg, xig = _degrees(g)
    top = min(xif, xg) + min(xf, xig)  # the x/xi bound: no pair of terms reaches past it
    kept = [K for K in range(top + 1) if keep is None or keep(K)]
    if not kept:
        return PolySymbol.zero(f.dimension)
    L = 2 ** kept[-1] * factorial(kept[-1])
    common = gcd(scale, L)
    lift = [
        scale // common * (L // (2**K * factorial(K))) if K in kept else 0
        for K in range(kept[-1] + 1)
    ]
    return integer_product(f, g, lift, L // common, phased)


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
