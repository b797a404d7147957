"""Exact Moyal star product and Weyl-ordering power expansions.

Everything here is finite and exact, and no floating point, QQi or Fraction
enters: every step runs on the stored Gaussian-integer numerators.

The Moyal operator is a sum of 2n commuting moves: with
P = sum_a d_xi_a (x) d_x_a - d_x_a (x) d_xi_a, the order-k part
(i hbar/2)^k P^k / k! expands by the multinomial theorem into products of
derivatives of the two factors, one count per move. The products run in
`symbols.integer_product`, the loop the plain product and the Poisson
bracket use too, given the range of orders to keep; it builds the
derivative terms move by move, and alone cuts the range at the x/xi
degree bound. Since P^k(g, f) = (-1)^k P^k(f, g),
f * g - g * f is twice the odd orders of f * g: the star commutator is one
pass over the term pairs, not two star products and a subtraction.

The star-basis expansion is a top-down reduction, one hbar-slice at a
time, by exact division by leading terms over Q(i): the leading key is the
largest packed monomial, a leading-term quotient is
s_key conj(p_key) p.den / (|p_key|^2 s.den) with one gcd (`_quotient`),
and each subtraction s - a hbar^d p is one `PolySymbol._sub_scaled` pass.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Tuple

from .symbols import PolySymbol, _hbar_shift, integer_product

# no order of a product of polynomials passes its x/xi bound, and
# `integer_product` cuts every range of orders there
_EVERY_ORDER = range(sys.maxsize)


class SingularSystemError(ValueError):
    """f^m is not a Q(i)[hbar]-combination of independent star powers of f."""


class ExpansionBoundError(RuntimeError):
    """The star-basis reduction reached an hbar power past its degree bound."""


def moyal_star(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """f * g = sum_k (1/k!) (i/2)^k hbar^k P^k(f, g), a finite exact sum."""
    return integer_product(f, g, _EVERY_ORDER)


def star_commutator(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """f * g - g * f; leading term is i hbar {f, g}.

    P^k(g, f) = (-1)^k P^k(f, g), so this is twice the odd orders of f * g.
    """
    return integer_product(f, g, range(1, _EVERY_ORDER.stop, 2), 2)


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


def _as_polynomial_in(
    s: PolySymbol, plain_powers: List[PolySymbol], leading: Dict[int, int]
) -> List[Tuple[int, Tuple[int, int, int]]]:
    """Coefficients a_j = (re + i im) / den with s = sum_j a_j f^j, by division by leading terms.

    The packed keys of hbar-free symbols compare in a monomial order (x
    degree, xi degree, exponents), so the leading monomial is the largest
    key, and that of f^j is LM(f)^j: each step removes the leading term of s
    with one multiple of a power of f; `leading` maps LM(f)^j to j. Raises
    SingularSystemError when s is not a polynomial in f.
    """
    out = []
    while not s.is_zero():
        key = max(s.num)
        j = leading.get(key)
        if j is None:
            raise SingularSystemError(
                "a slice of f^m - f^{*m} is not a polynomial in f"
            )
        p = plain_powers[j]
        a = _quotient(s.num[key], s.den, p.num[key], p.den)
        out.append((j, a))
        s = s._sub_scaled(p, *a)
    return out


def _quotient(s_key, s_den: int, p_key, p_den: int) -> Tuple[int, int, int]:
    """(re, im, den) in lowest terms of (s_key / s_den) / (p_key / p_den), for
    Gaussian-integer numerators: s_key conj(p_key) p_den / (|p_key|^2 s_den)."""
    sr, si = s_key
    cr, ci = p_key[0], -p_key[1]  # conj(p_key)
    re = (sr * cr - si * ci) * p_den
    im = (sr * ci + si * cr) * p_den
    den = (cr * cr + ci * ci) * s_den
    common = gcd(re, im, den)
    return re // common, im // common, den // common


def expand_power_in_star_basis(f: PolySymbol, m: int) -> StarExpansion:
    """Express the pointwise power f^m in the basis {hbar^d f^{*j}}.

    Requires f free of hbar. The hbar^0 part of f^{*j} is f^j, so the plain
    powers are read off the star powers, and the remainder f^m - f^{*m} is
    reduced top-down: its lowest hbar-slice d is written as sum_j a_j f^j by
    leading-term division, and hbar^d a_j f^{*j} moves from the remainder
    into c_j until nothing is left. Every term of
    f^{*j} has degree + 2 * (hbar power) <= j deg f, so d never exceeds
    m deg f / 2. Each step, the quotient a_j and the subtraction
    s - a hbar^d p, is one pass over Gaussian-integer numerators
    (`_quotient`, `PolySymbol._sub_scaled`), and the c_j are assembled from
    those numerators: no QQi or Fraction is built.
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
    for _ in range(m):
        star_powers.append(moyal_star(star_powers[-1], f))
    plain_powers = [p.hbar_component(0) for p in star_powers]
    leading = {max(p.num): j for j, p in enumerate(plain_powers)}
    d_max = m * degree // 2

    hbar_shift = _hbar_shift(n)
    coeff_parts: dict[int, list] = {m: [(1, {0: (1, 0)})]}
    rest = plain_powers[m] - star_powers[m]
    for d in range(d_max + 1):
        if rest.is_zero():
            break
        for j, (re, im, den) in _as_polynomial_in(rest.hbar_component(d), plain_powers, leading):
            coeff_parts.setdefault(j, []).append((den, {d << hbar_shift: (re, im)}))
            rest = rest._sub_scaled(star_powers[j], re, im, den, d)
    if not rest.is_zero():
        raise ExpansionBoundError(
            f"f^m - f^(*m) keeps hbar powers past the bound m deg f / 2 = {d_max}"
        )
    coefficients = [
        (j, PolySymbol._disjoint_sum(n, parts)) for j, parts in sorted(coeff_parts.items())
    ]
    return StarExpansion(
        base_symbol=f, degree=m, coefficients=coefficients, star_powers=star_powers
    )
