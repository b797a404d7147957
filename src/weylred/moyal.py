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
products, each a short cached table. Since P^k(g, f) = (-1)^k P^k(f, g),
f * g - g * f is twice the odd orders of f * g: the star commutator is one
pass over the term pairs, not two star products and a subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm
from typing import List, Tuple

from .rational import QQi
from .symbols import PolySymbol, TermKey, _check_same_dim


class SingularSystemError(ValueError):
    """f^m is not a Q(i)[hbar]-combination of independent star powers of f."""


class ExpansionBoundError(RuntimeError):
    """The star-basis reduction reached an hbar power past its degree bound."""


@lru_cache(maxsize=4096)
def _coordinate_product(alpha: int, beta: int, gamma: int, delta: int) -> tuple:
    """x^alpha xi^beta * x^gamma xi^delta in one coordinate pair.

    Gives ((k, x exponent, xi exponent, r), ...) over the orders k with
    r != 0, the order-k term being i^k hbar^k r x^(alpha+gamma-k) xi^(beta+delta-k):
    r = sum_{j+l=k} (-1)^l ff(beta,j) ff(alpha,l) ff(gamma,j) ff(delta,l) / (2^k j! l!),
    with ff(a, j) = a (a-1) ... (a-j+1) the falling factorial.
    """
    out = []
    for k in range(min(beta, gamma) + min(alpha, delta) + 1):
        r = Fraction(0)
        for j in range(max(0, k - min(alpha, delta)), min(beta, gamma, k) + 1):
            l = k - j
            term = Fraction(
                perm(beta, j) * perm(alpha, l) * perm(gamma, j) * perm(delta, l),
                2**k * factorial(j) * factorial(l),
            )
            r += -term if l % 2 else term
        if r:
            out.append((k, alpha + gamma - k, beta + delta - k, r))
    return tuple(out)


def _star_sum(f: PolySymbol, g: PolySymbol, keep=None, phased: bool = True) -> dict:
    """Terms of f * g as {(hbar power, x exponents, xi exponents): [re, im]}.

    Each pair of monomials multiplies as the tensor product of the
    one-coordinate tables; K is the summed order. `keep(K)` selects orders.
    With `phased`, the order-K term gains hbar^K and the phase i^K, applied
    as a swap and sign of (re, im); without it the terms are the raw
    (1/2)^K / K! P^K parts. Coefficients stay raw Fractions here.
    """
    _check_same_dim(f, g)
    acc: dict = {}
    for (h1, xe1, xie1), c1 in f.terms.items():
        for (h2, xe2, xie2), c2 in g.terms.items():
            re = c1.re * c2.re - c1.im * c2.im
            im = c1.re * c2.im + c1.im * c2.re
            rotated = ((re, im), (-im, re), (-re, -im), (im, -re)) if phased else ((re, im),) * 4
            combos = [
                (k, (p,), (q,), s)
                for k, p, q, s in _coordinate_product(xe1[0], xie1[0], xe2[0], xie2[0])
            ]
            for a in range(1, f.dimension):
                table = _coordinate_product(xe1[a], xie1[a], xe2[a], xie2[a])
                combos = [
                    (K + k, xe + (p,), xie + (q,), r * s if k else r)  # order 0 has r = 1
                    for K, xe, xie, r in combos
                    for k, p, q, s in table
                ]
            for K, xe, xie, r in combos:
                if keep is not None and not keep(K):
                    continue
                cre, cim = rotated[K & 3]
                if K:
                    cre, cim = cre * r, cim * r
                key = (h1 + h2 + K if phased else h1 + h2, xe, xie)
                slot = acc.get(key)
                if slot is None:
                    acc[key] = [cre, cim]
                else:
                    slot[0] += cre
                    slot[1] += cim
    return acc


def _to_symbol(n: int, acc: dict, scale: int = 1) -> PolySymbol:
    """One QQi per nonzero term of a `_star_sum` result, times `scale`."""
    return PolySymbol._canonical(
        n, {key: QQi(re * scale, im * scale) for key, (re, im) in acc.items() if re or im}
    )


def bidifferential_power(f: PolySymbol, g: PolySymbol, k: int) -> PolySymbol:
    """P^k(f, g); P^0 = fg and P^1 is the Poisson bracket.

    P^k(f,g) = sum_{|alpha|+|beta|=k} k!/(alpha! beta!) (-1)^{|beta|}
               (d_xi^alpha d_x^beta f)(d_x^alpha d_xi^beta g),
    read off the order-k terms of the star product without their phase,
    times k! 2^k.
    """
    if k < 0:
        raise ValueError("bidifferential order must be non-negative")
    acc = _star_sum(f, g, keep=lambda K: K == k, phased=False)
    return _to_symbol(f.dimension, acc, factorial(k) * 2**k)


def moyal_star(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """f * g = sum_k (1/k!) (i/2)^k hbar^k P^k(f, g), a finite exact sum."""
    return _to_symbol(f.dimension, _star_sum(f, g))


def star_commutator(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """f * g - g * f; leading term is i hbar {f, g}.

    P^k(g, f) = (-1)^k P^k(f, g), so this is twice the odd orders of f * g.
    """
    return _to_symbol(f.dimension, _star_sum(f, g, keep=lambda K: K & 1), 2)


def star_power(f: PolySymbol, m: int) -> PolySymbol:
    if m < 0:
        raise ValueError("negative star powers are not defined here")
    out = PolySymbol.one(f.dimension)
    for _ in range(m):
        out = moyal_star(out, f)
    return out


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
    return max(f.terms, key=lambda key: (sum(key[1]) + sum(key[2]), key[1], key[2]))


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
        a = s.terms[key] / plain_powers[j].terms[key]
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
