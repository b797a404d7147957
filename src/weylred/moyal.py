"""Exact Moyal star product and Weyl-ordering power expansions.

Everything here is finite and exact: star products of polynomials truncate
once the bidifferential order exceeds the degree of either factor, and the
star-basis expansion is a top-down reduction, one hbar-slice at a time, by
exact division by leading terms over Q(i). No floating point enters this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .rational import QQi
from .symbols import PolySymbol, TermKey, _check_same_dim


class SingularSystemError(ValueError):
    """f^m is not a Q(i)[hbar]-combination of independent star powers of f."""


class ExpansionBoundError(RuntimeError):
    """The star-basis reduction reached an hbar power past its degree bound."""


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multi_factorial(alpha: Tuple[int, ...]) -> int:
    out = 1
    for a in alpha:
        f = 1
        for j in range(2, a + 1):
            f *= j
        out *= f
    return out


class _DerivCache:
    """Memoizes iterated partials of one symbol, keyed by (alpha, beta)."""

    def __init__(self, f: PolySymbol, first: str, second: str):
        # first/second name the variable kind for alpha/beta respectively
        self.first = first
        self.second = second
        self.cache = {((0,) * f.dimension, (0,) * f.dimension): f}
        self.n = f.dimension

    def get(self, alpha: Tuple[int, ...], beta: Tuple[int, ...]) -> PolySymbol:
        key = (alpha, beta)
        if key in self.cache:
            return self.cache[key]
        # peel one derivative off and recurse
        for a in range(self.n):
            if alpha[a] > 0:
                down = tuple(v - 1 if j == a else v for j, v in enumerate(alpha))
                base = self.get(down, beta)
                out = base.partial(self.first, a)
                break
        else:
            for a in range(self.n):
                if beta[a] > 0:
                    down = tuple(v - 1 if j == a else v for j, v in enumerate(beta))
                    base = self.get(alpha, down)
                    out = base.partial(self.second, a)
                    break
            else:  # pragma: no cover - zero order handled above
                raise AssertionError
        self.cache[key] = out
        return out


def bidifferential_power(f: PolySymbol, g: PolySymbol, k: int) -> PolySymbol:
    """P^k(f, g); P^0 = fg and P^1 is the Poisson bracket.

    P^k(f,g) = sum_{|alpha|+|beta|=k} k!/(alpha! beta!) (-1)^{|beta|}
               (d_xi^alpha d_x^beta f)(d_x^alpha d_xi^beta g).
    """
    _check_same_dim(f, g)
    if k < 0:
        raise ValueError("bidifferential order must be non-negative")
    n = f.dimension
    if k == 0:
        return f * g
    if k > min(f.total_degree(), g.total_degree()):
        return PolySymbol.zero(n)
    df = _DerivCache(f, "xi", "x")
    dg = _DerivCache(g, "x", "xi")
    k_fact = 1
    for j in range(2, k + 1):
        k_fact *= j
    out = PolySymbol.zero(n)
    for combined in _compositions(k, 2 * n):
        alpha = combined[:n]
        beta = combined[n:]
        left = df.get(alpha, beta)
        if left.is_zero():
            continue
        right = dg.get(alpha, beta)
        if right.is_zero():
            continue
        coeff = Fraction(k_fact, _multi_factorial(alpha) * _multi_factorial(beta))
        if sum(beta) % 2:
            coeff = -coeff
        out = out + coeff * (left * right)
    return out


def moyal_star(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """f * g = sum_k (1/k!) (i/2)^k hbar^k P^k(f, g), a finite exact sum."""
    _check_same_dim(f, g)
    n = f.dimension
    kmax = min(f.total_degree(), g.total_degree())
    out = PolySymbol.zero(n)
    half_i = QQi(Fraction(0), Fraction(1, 2))
    coeff = QQi.coerce(1)  # (i/2)^k / k!
    for k in range(kmax + 1):
        if k > 0:
            coeff = coeff * half_i / k
        pk = bidifferential_power(f, g, k)
        if pk.is_zero():
            continue
        out = out + PolySymbol.hbar(n, k) * (coeff * pk)
    return out


def star_commutator(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """f * g - g * f; leading term is i hbar {f, g}."""
    return moyal_star(f, g) - moyal_star(g, f)


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
