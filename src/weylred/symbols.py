"""Exact phase-space polynomials in (x, xi) with a formal hbar grading.

Coefficients live in Q(i) so that star products of real symbols stay exact.
A symbol stores them as Gaussian-integer numerators over one reduced
denominator: `den >= 1` and `num = {monomial: (re, im)}`, with no (0, 0)
entry and gcd(den, every numerator) = 1. That form is canonical, so equality
and hashing compare (dimension, den, num), and every ring operation runs on
Python ints.

A monomial hbar^h x^xe xi^xie is one packed int: fields of FIELD_BITS bits
hold x_0..x_{n-1}, then xi_0..xi_{n-1} from the low end, then the xi degree
sum(xie) and the x degree sum(xe), with h on top. Every field stays below
2^(FIELD_BITS - 1), so the product of two monomials is the sum of their
ints and no field carries; a symbol or product that would pass that raises
ExponentOverflow. Comparing two ints compares (h, x degree, xi degree,
exponents), a monomial order. The public surface speaks tuple keys
(hbar_power, x_exponents, xi_exponents): the constructor packs them, and
the `{key: QQi}` view `terms`, built on first read, and `compile` unpack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import index, or_
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .rational import QQi, parse_rational

TermKey = Tuple[int, Tuple[int, ...], Tuple[int, ...]]

FIELD_BITS = 16  # the width of one packed exponent or degree field
_FIELD = (1 << FIELD_BITS) - 1
_LIMIT = 1 << (FIELD_BITS - 1)  # every field stays below it: its top bit is spare


class DimensionMismatch(ValueError):
    pass


class ExponentOverflow(ValueError):
    """An exponent or an x/xi degree would reach 2^(FIELD_BITS - 1), past its packed field."""


def _hbar_shift(n: int) -> int:
    """The lowest bit of the hbar power in a packed monomial of dimension n."""
    return FIELD_BITS * (2 * n + 2)


def _check_fits(dx: int, dxi: int) -> None:
    """ExponentOverflow unless an x degree dx and a xi degree dxi, and so every exponent, fit a field."""
    if max(dx, dxi) >= _LIMIT:
        raise ExponentOverflow(f"x degree {dx} and xi degree {dxi}: exponents and degrees must stay below {_LIMIT}")


def _pack(h: int, xe: Sequence[int], xie: Sequence[int]) -> int:
    """The packed monomial hbar^h x^xe xi^xie, for non-negative exponents."""
    dx, dxi = sum(xe), sum(xie)
    _check_fits(dx, dxi)
    key = h
    for v in (dx, dxi, *reversed(xie), *reversed(xe)):
        key = key << FIELD_BITS | v
    return key


def _variable(n: int, i: int) -> int:
    """The packed monomial x_i for i < n and xi_(i-n) past it: one in its field and its degree field."""
    return 1 << FIELD_BITS * i | 1 << FIELD_BITS * (2 * n + (i < n))


def _unpack(n: int, key: int) -> TermKey:
    """The tuple key (hbar power, x exponents, xi exponents) of a packed monomial."""
    e = [key >> (FIELD_BITS * i) & _FIELD for i in range(2 * n)]
    return key >> _hbar_shift(n), tuple(e[:n]), tuple(e[n:])


def _check_product_fits(f: "PolySymbol", g: "PolySymbol") -> None:
    """ExponentOverflow if a product of a term of f and a term of g would pass a
    field: the largest x and xi degrees of each, two field reads a term."""
    s = FIELD_BITS * 2 * f.dimension
    xf, xif, xg, xig = (
        max((key >> shift & _FIELD for key in h.num), default=0) for h in (f, g) for shift in (s + FIELD_BITS, s)
    )
    _check_fits(xf + xg, xif + xig)


def _check_same_dim(f: "PolySymbol", g: "PolySymbol"):
    if f.dimension != g.dimension:
        raise DimensionMismatch(
            f"dimension mismatch: {f.dimension} vs {g.dimension}"
        )


def _check_dimension(n: int) -> None:
    if n < 1:
        raise ValueError("dimension must be a positive integer")


def _exponent(e) -> int:
    """An exponent or hbar power as a Python int; bools and non-integers are refused."""
    if not isinstance(e, (bool, np.bool_)):
        try:
            return index(e)
        except TypeError:
            pass
    raise ValueError(f"exponents must be integers, got {e!r}")


def _common_factor(den: int, sums) -> int:
    """gcd of den and every numerator pair in sums, stopping at 1."""
    common = den
    for re, im in sums:
        if common == 1:
            break
        common = gcd(common, re, im)
    return common


def _integer_form(coefficients: Mapping[int, QQi]) -> Tuple[int, dict]:
    """(den, num) of nonzero coefficients: den is the lcm of their reduced
    denominators, so it shares no factor with all of the numerators."""
    den = 1
    for c in coefficients.values():
        den = lcm(den, c.re.denominator, c.im.denominator)
    return den, {
        key: (c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
        for key, c in coefficients.items()
    }


class PolySymbol:
    """Polynomial in x_0..x_{n-1}, xi_0..xi_{n-1} and hbar over Q(i).

    Immutable; all arithmetic returns new instances in canonical form.
    """

    __slots__ = ("dimension", "den", "num", "_terms", "_compiled")

    def __init__(self, dimension: int, terms: Mapping[TermKey, QQi] | None = None):
        _check_dimension(dimension)
        clean: dict[int, QQi] = {}
        for (h, xe, xie), c in (terms or {}).items():
            h = _exponent(h)
            xe = tuple(_exponent(e) for e in xe)
            xie = tuple(_exponent(e) for e in xie)
            if h < 0 or any(e < 0 for e in xe) or any(e < 0 for e in xie):
                raise ValueError("exponents must be non-negative")
            if len(xe) != dimension or len(xie) != dimension:
                raise DimensionMismatch("exponent vector length != dimension")
            key = _pack(h, xe, xie)
            c = QQi.coerce(c)
            if c.is_zero():
                continue
            prev = clean.get(key)
            total = c if prev is None else prev + c
            if total.is_zero():
                clean.pop(key, None)
            else:
                clean[key] = total
        self._init(dimension, *_integer_form(clean))

    def _init(self, dimension: int, den: int, num: dict) -> None:
        _set_dimension(self, dimension)
        _set_den(self, den)
        _set_num(self, num)
        _set_terms(self, None)
        _set_compiled(self, None)

    @classmethod
    def _canonical(cls, dimension: int, den: int, num: dict) -> "PolySymbol":
        """Wrap numerators that are canonical by construction, unchecked."""
        out = object.__new__(cls)
        out._init(dimension, den, num)
        return out

    @classmethod
    def _reduced(cls, dimension: int, den: int, sums: Mapping) -> "PolySymbol":
        """Numerator sums over den made canonical: zero entries dropped, one gcd divided out.

        `sums` maps keys to (re, im) tuples, and the caller gives it away: it
        becomes `num` as it is when it is canonical already.
        """
        common = _common_factor(den, sums.values())
        if common != 1:
            num = {key: (re // common, im // common) for key, (re, im) in sums.items() if re or im}
        elif all(map(any, sums.values())):
            num = sums
        else:
            num = {key: c for key, c in sums.items() if any(c)}
        return cls._canonical(dimension, den // common if num else 1, num)

    @classmethod
    def _disjoint_sum(cls, dimension: int, parts: list) -> "PolySymbol":
        """The sum of canonical parts (den, num) whose keys never collide, over their lcm.

        Already canonical: a prime p with p^e exactly dividing the lcm does so
        in some part's den, whose numerators keep a term prime to p after
        scaling by lcm / den.
        """
        common = lcm(*(den for den, _ in parts))
        num = {}
        for den, terms in parts:
            s = common // den
            num.update(terms if s == 1 else {key: (re * s, im * s) for key, (re, im) in terms.items()})
        return cls._canonical(dimension, common, num)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("PolySymbol is immutable")

    def __reduce__(self):
        # rebuild through the public constructor; the compiled kernel is not carried
        return (PolySymbol, (self.dimension, self.terms))

    @property
    def terms(self) -> dict:
        """The coefficients as a read-only {key: QQi} view, built on first read."""
        if self._terms is None:
            n, den = self.dimension, self.den
            view = {
                _unpack(n, key): QQi._from_fractions(Fraction(re, den), Fraction(im, den))
                for key, (re, im) in self.num.items()
            }
            _set_terms(self, view)
        return self._terms

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "PolySymbol":
        _check_dimension(n)
        return cls._canonical(n, 1, {})

    @classmethod
    def constant(cls, c, n: int) -> "PolySymbol":
        _check_dimension(n)
        c = QQi.coerce(c)
        return cls._canonical(n, *_integer_form({0: c} if c else {}))

    @classmethod
    def one(cls, n: int) -> "PolySymbol":
        return cls.hbar(n, 0)

    @classmethod
    def x(cls, a: int, n: int) -> "PolySymbol":
        if not 0 <= a < n:
            raise IndexError(f"x index {a} out of range for dimension {n}")
        return cls._canonical(n, 1, {_variable(n, a): (1, 0)})

    @classmethod
    def xi(cls, a: int, n: int) -> "PolySymbol":
        if not 0 <= a < n:
            raise IndexError(f"xi index {a} out of range for dimension {n}")
        return cls._canonical(n, 1, {_variable(n, n + a): (1, 0)})

    @classmethod
    def hbar(cls, n: int, power: int = 1) -> "PolySymbol":
        _check_dimension(n)
        power = _exponent(power)
        if power < 0:
            raise ValueError("exponents must be non-negative")
        return cls._canonical(n, 1, {power << _hbar_shift(n): (1, 0)})

    # -- ring operations ------------------------------------------------
    def _sub_scaled(
        self, other: "PolySymbol", re: int = 1, im: int = 0, den: int = 1, shift: int = 0
    ) -> "PolySymbol":
        """self - ((re + i im) / den) hbar^shift other, in one pass over the numerators.

        `-` is the default a = 1 and `+` is a = -1; the star-basis reduction
        takes its leading-term quotients and hbar shifts here.
        """
        _check_same_dim(self, other)
        D = lcm(self.den, den * other.den)
        s, t = D // self.den, D // (den * other.den)
        sums = dict(self.num) if s == 1 else {k: (a * s, b * s) for k, (a, b) in self.num.items()}
        c, d = re * t, im * t
        lift = shift << _hbar_shift(self.dimension)  # hbar^shift moves the hbar field alone
        for key, (a, b) in other.num.items():
            if lift:
                key += lift
            pr, pi = a * c - b * d, a * d + b * c
            prev = sums.get(key)
            sums[key] = (-pr, -pi) if prev is None else (prev[0] - pr, prev[1] - pi)
        return PolySymbol._reduced(self.dimension, D, sums)

    def __add__(self, other) -> "PolySymbol":
        return self._sub_scaled(self._coerce(other), -1)

    __radd__ = __add__

    def __neg__(self) -> "PolySymbol":
        return PolySymbol._canonical(
            self.dimension, self.den, {k: (-re, -im) for k, (re, im) in self.num.items()}
        )

    def __sub__(self, other) -> "PolySymbol":
        return self._sub_scaled(self._coerce(other))

    def __rsub__(self, other) -> "PolySymbol":
        return self._coerce(other)._sub_scaled(self)

    def __mul__(self, other) -> "PolySymbol":
        return integer_product(self, self._coerce(other))

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "PolySymbol":
        if m < 0:
            raise ValueError("negative powers are not polynomial")
        out = PolySymbol.one(self.dimension)
        for _ in range(m):
            out = out * self
        return out

    def _coerce(self, other) -> "PolySymbol":
        if isinstance(other, PolySymbol):
            return other
        if isinstance(other, (int, Fraction, QQi)):
            return PolySymbol.constant(other, self.dimension)
        raise TypeError(f"cannot combine PolySymbol with {type(other)}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySymbol):
            return NotImplemented
        return self.dimension == other.dimension and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.dimension, self.den, frozenset(self.num.items())))

    def is_zero(self) -> bool:
        return not self.num

    # -- calculus -------------------------------------------------------
    def partial(self, kind: str, a: int) -> "PolySymbol":
        """Formal partial derivative; kind is 'x' or 'xi'."""
        if kind not in ("x", "xi"):
            raise ValueError("kind must be 'x' or 'xi'")
        if not 0 <= a < self.dimension:
            raise IndexError(f"variable index {a} out of range")
        i = a if kind == "x" else self.dimension + a
        field, step = FIELD_BITS * i, _variable(self.dimension, i)
        out: dict = {}
        for key, (re, im) in self.num.items():
            e = key >> field & _FIELD
            if e:
                out[key - step] = (re * e, im * e)
        return PolySymbol._reduced(self.dimension, self.den, out)

    def poisson(self, other: "PolySymbol") -> "PolySymbol":
        """{f,g} = sum_a (d_xi_a f d_x_a g - d_x_a f d_xi_a g).

        The first order of the product loop without phase, P^1(f, g): each
        coordinate's derivative terms of f and g are paired, and no other
        pair of terms is visited. The sign is fixed so that
        {J_X, J_Y} = J_[X,Y] with the standard Lie bracket of vector fields.
        """
        return integer_product(self, self._coerce(other), range(1, 2), 2, phased=False)

    # -- queries --------------------------------------------------------
    def total_degree(self) -> int:
        """Max combined degree in (x, xi); hbar does not count."""
        s = FIELD_BITS * 2 * self.dimension
        return max(((key >> s & _FIELD) + (key >> (s + FIELD_BITS) & _FIELD) for key in self.num), default=0)

    def is_xi_free(self) -> bool:
        s = FIELD_BITS * 2 * self.dimension
        return not any(key >> s & _FIELD for key in self.num)

    def is_hbar_free(self) -> bool:
        return max(self.num, default=0) >> _hbar_shift(self.dimension) == 0  # hbar is the top field

    def hbar_component(self, power: int) -> "PolySymbol":
        """The hbar^power slice, with the hbar factor stripped."""
        s = _hbar_shift(self.dimension)
        sliced = {key & ((1 << s) - 1): c for key, c in self.num.items() if key >> s == power}
        return PolySymbol._reduced(self.dimension, self.den, sliced)

    def compile(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exponent matrix (T, 1 + 2n) over (hbar, x, xi) and complex coefficients (T,).

        Built once per symbol and cached; `evaluate_compiled` runs it.
        """
        if self._compiled is None:
            exponents, coefficients = compile_symbols([self])
            _set_compiled(self, (exponents, coefficients[:, 0]))
        return self._compiled

    def evaluate(self, x: Sequence[float], xi: Sequence[float], hbar: float = 1.0) -> complex:
        """Value at one phase-space point: the N = 1 case of `evaluate_many`."""
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if x.shape != (self.dimension,) or xi.shape != (self.dimension,):
            raise DimensionMismatch("point dimension does not match symbol")
        return complex(self.evaluate_many(x[None, :], xi[None, :], hbar)[0])

    def evaluate_many(
        self, xs: np.ndarray, xis: np.ndarray | None = None, hbar: float = 1.0
    ) -> np.ndarray:
        """Values at the rows of arrays of shape (N, n); xis defaults to 0."""
        return evaluate_compiled(*self.compile(), xs, xis, hbar)

    def __repr__(self):
        if not self.terms:
            return "PolySymbol(0)"
        parts = []
        for (h, xe, xie), c in sorted(self.terms.items()):
            factors = [f"({c})"]
            if h:
                factors.append(f"hb^{h}")
            factors += [f"x{a}^{e}" for a, e in enumerate(xe) if e]
            factors += [f"xi{a}^{e}" for a, e in enumerate(xie) if e]
            parts.append("*".join(factors))
        return " + ".join(parts)


# the slots' own setters pass the immutability guard, at a third of the cost of object.__setattr__
_set_dimension, _set_den, _set_num, _set_terms, _set_compiled = (
    PolySymbol.__dict__[name].__set__ for name in PolySymbol.__slots__
)


def integer_product(
    f: PolySymbol,
    g: PolySymbol,
    orders: range = range(1),
    scale: int = 1,
    phased: bool = True,
) -> PolySymbol:
    """The exact product loop: every product of symbols runs here, on integers.

    Gives scale sum_K (1/2)^K / K! P^K(f, g) over the orders K in `orders`,
    with P^K the order-K bidifferential part of the Moyal product (P^0 = fg,
    P^1 the Poisson bracket); with `phased` order K also carries
    hbar^K i^K, its sign folded into the weights and its i a swap. So the
    plain product is orders = range(1), `poisson` is range(1, 2) times 2
    without phase, and the star product is every order. Only int
    multiply-adds on the stored numerators run per pair of terms, keys add
    as packed monomials, and one gcd reduces the sums: no Fraction is built
    and no monomial unpacked. A product whose degrees would pass a field
    raises ExponentOverflow before any loop runs.

    No order passes min(xi deg f, x deg g) + min(x deg f, xi deg g) (order K
    applies d_xi^alpha d_x^beta to f and d_x^alpha d_xi^beta to g,
    |alpha| + |beta| = K), so `orders` is cut there. The cut reads the
    degree fields of the OR of each factor's keys, which bound its degrees
    from above: an order kept past the true bound has no terms. The kept
    orders share the denominator 2^top top! of the largest one, top, so
    every weight is an integer. Order 0 alone runs `_plain_sums`, and any
    other range `_order_sums`.
    """
    _check_same_dim(f, g)
    n = f.dimension
    # the OR of a symbol's keys bounds each of its fields and stays below _LIMIT
    # there, so two add without a carry: a product that fits needs no exact degrees
    fo, go = reduce(or_, f.num, 0), reduce(or_, g.num, 0)
    s = FIELD_BITS * 2 * n
    if (fo + go) >> s & (_LIMIT | _LIMIT << FIELD_BITS):
        _check_product_fits(f, g)
    D = f.den * g.den
    if orders == range(1):
        return PolySymbol._reduced(n, D, _plain_sums(f, g, scale))
    xf, xif, xg, xig = fo >> s + FIELD_BITS & _FIELD, fo >> s & _FIELD, go >> s + FIELD_BITS & _FIELD, go >> s & _FIELD
    kept = range(orders.start, min(orders.stop, min(xif, xg) + min(xf, xig) + 1), orders.step)
    if not kept:
        return PolySymbol.zero(n)
    top = kept[-1]
    if not top:
        return PolySymbol._reduced(n, D, _plain_sums(f, g, scale))
    # order K weighs scale / (2^K K!) = scale 2^(top-K) top! / K! over 2^top top!;
    # the loops take K! times that numerator
    common = gcd(scale, factorial(top) << top)
    D *= (factorial(top) << top) // common
    unit = scale // common * factorial(top)
    weight = [unit << (top - K) if K in kept else 0 for K in range(top + 1)]
    if phased:  # fold the sign of i^K into the weights; the swap stays below
        weight = [-w if K & 2 else w for K, w in enumerate(weight)]
    return PolySymbol._reduced(n, D, _order_sums(f, g, fo, go, weight, phased))


@lru_cache(maxsize=32)  # one layout per dimension
def _moves(n: int) -> tuple:
    """The 2n moves of P = sum_a d_xi_a (x) d_x_a - d_x_a (x) d_xi_a in dimension n.

    Each is (field shift on f, field shift on g, key step on f, key step on
    g, sign); a step lowers one variable's field and its degree field by one.
    """
    return tuple(
        (FIELD_BITS * fv, FIELD_BITS * gv, _variable(n, fv), _variable(n, gv), sign)
        for a in range(n)
        for fv, gv, sign in ((n + a, a, 1), (a, n + a, -1))
    )


def _order_sums(f: PolySymbol, g: PolySymbol, fo: int, go: int, weight: Sequence[int], phased: bool) -> dict:
    """The sums of sum_K weight[K] / K! (i hbar)^(K phased) P^K(f, g) by packed monomial.

    The sign of i^K is already folded into `weight`, and fo, go are the OR
    of the keys of f and of g. The 2n moves v of P (`_moves`) commute, so
    P^K / K! is the sum, over counts m_v adding up to K, of
    prod_v sign_v^m_v / m_v! (d^m f)(d^m g), where d^m takes each move's
    variable m_v times. The derivative rows of both factors are built move
    by move: each state (K, rows of f, rows of g) takes the next move 0, 1,
    2, ... times, and a branch ends at the top order or once a side has no
    term left. A move whose variable no term of a factor carries (its field
    is 0 in fo or go) is skipped. Each state then pairs its rows as the
    plain product does, hbar^K lifting the keys when phased. No integer
    division is left over: prod_v m_v! divides K!, which divides weight[K].
    """
    n = f.dimension
    top = len(weight) - 1
    hbar_bit = 1 << _hbar_shift(n) if phased else 0
    # (K, rows (key, re, im) of d^m f, of d^m g, prod sign_v^m_v, prod m_v!)
    states = [(0, [(k, a, b) for k, (a, b) in f.num.items()], [(k, c, d) for k, (c, d) in g.num.items()], 1, 1)]
    for fs, gs, fstep, gstep, sign in _moves(n):
        if not (fo >> fs & _FIELD and go >> gs & _FIELD):
            continue
        for K, fl, gl, s, den in states[:]:
            for m in range(1, top - K + 1):  # this move taken m times
                gl = [(k - gstep, e * c, e * d) for k, c, d in gl if (e := k >> gs & _FIELD)]
                if not gl:
                    break
                fl = [(k - fstep, e * a, e * b) for k, a, b in fl if (e := k >> fs & _FIELD)]
                if not fl:
                    break
                s, den = s * sign, den * m
                states.append((K + m, fl, gl, s, den))
    acc: dict = {}
    get = acc.get
    for K, fl, gl, s, den in states:
        w = weight[K] * s // den
        if not w:
            continue
        lift, odd = K * hbar_bit, phased and K & 1
        for k1, a, b in fl:
            k1 += lift
            for k2, c, d in gl:
                k = k1 + k2
                re, im = (a * c - b * d) * w, (a * d + b * c) * w
                if odd:  # the odd orders' i
                    re, im = -im, re
                prev = get(k)
                acc[k] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return acc


def _plain_sums(f: PolySymbol, g: PolySymbol, w: int) -> dict:
    """The numerator sums of w f g, the order-0 pass of `integer_product`: keys add.

    A one-term factor relabels and scales the other's terms: adding one
    key is injective, so no two products share a key and nothing
    accumulates.
    """
    if len(f.num) == 1:
        f, g = g, f
    if len(g.num) == 1:
        ((k2, (c, d)),) = g.num.items()
        c, d = c * w, d * w
        return {k1 + k2: (a * c - b * d, a * d + b * c) for k1, (a, b) in f.num.items()}
    acc: dict = {}
    get = acc.get
    g_terms = g.num.items()
    for k1, (a, b) in f.num.items():
        for k2, (c, d) in g_terms:
            key = k1 + k2
            re, im = a * c - b * d, a * d + b * c
            prev = get(key)
            acc[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    if w != 1:
        return {key: (re * w, im * w) for key, (re, im) in acc.items()}
    return acc


def compile_symbols(symbols: Sequence[PolySymbol]) -> Tuple[np.ndarray, np.ndarray]:
    """One kernel for several symbols of one dimension over their shared monomials.

    Returns the exponent matrix (T, 1 + 2n), one row (hbar, x, xi) per
    distinct monomial, and the complex coefficient matrix (T, len(symbols)).
    """
    n = symbols[0].dimension
    rows: dict[int, int] = {}
    for f in symbols:
        _check_same_dim(symbols[0], f)
        for key in f.num:
            rows.setdefault(key, len(rows))
    exponents = np.zeros((len(rows), 1 + 2 * n), dtype=np.int64)
    for key, t in rows.items():
        h, xe, xie = _unpack(n, key)
        exponents[t] = (h, *xe, *xie)
    coefficients = np.zeros((len(rows), len(symbols)), dtype=complex)
    for j, f in enumerate(symbols):
        for key, (re, im) in f.num.items():
            coefficients[rows[key], j] = complex(re / f.den, im / f.den)
    return exponents, coefficients


def evaluate_compiled(
    exponents: np.ndarray,
    coefficients: np.ndarray,
    xs: np.ndarray,
    xis: np.ndarray | None = None,
    hbar: float = 1.0,
) -> np.ndarray:
    """Run a compiled kernel on the rows of (N, n) arrays; xis defaults to 0.

    Gives shape (N,) for a coefficient vector and (N, m) for a (T, m)
    coefficient matrix. This is the only numeric evaluator of symbols.
    """
    n = (exponents.shape[1] - 1) // 2
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != n:
        raise DimensionMismatch(f"points of shape {xs.shape} do not match dimension {n}")
    if xis is not None and np.shape(xis) != xs.shape:
        raise DimensionMismatch(f"xi of shape {np.shape(xis)} do not match points {xs.shape}")
    xis = np.zeros((1, n)) if xis is None else np.asarray(xis, dtype=float)
    monomials = np.empty((len(exponents), len(xs)))
    for row, (h, *exps) in zip(monomials, exponents.tolist()):
        row[:] = float(hbar) ** h
        for a in range(n):
            if exps[a]:
                row *= xs[:, a] ** exps[a]
            if exps[n + a]:
                row *= xis[:, a] ** exps[n + a]
    return (coefficients.T @ monomials).T


@dataclass(frozen=True)
class VectorField:
    """n polynomial component functions on R^n (position-only symbols)."""

    dimension: int
    components: Tuple[PolySymbol, ...]

    def __post_init__(self):
        if len(self.components) != self.dimension:
            raise DimensionMismatch("need one component per dimension")
        for comp in self.components:
            if comp.dimension != self.dimension:
                raise DimensionMismatch("component dimension mismatch")
            if not comp.is_xi_free() or not comp.is_hbar_free():
                raise ValueError("vector field components must be xi- and hbar-free")

    @classmethod
    def zero(cls, n: int) -> "VectorField":
        return cls(n, tuple(PolySymbol.zero(n) for _ in range(n)))

    def divergence(self) -> PolySymbol:
        return self._divergence

    @cached_property
    def _divergence(self) -> PolySymbol:
        out = PolySymbol.zero(self.dimension)
        for a, comp in enumerate(self.components):
            out = out + comp.partial("x", a)
        return out

    def linear_part(self) -> Optional[np.ndarray]:
        """The real (n, n) matrix A with X(x) = A x, or None if some term is not degree 1.

        Like the compiled kernel, it keeps the real parts of the coefficients.
        """
        n = self.dimension
        A = np.zeros((n, n))
        for a, comp in enumerate(self.components):
            for key, (re, _) in comp.num.items():
                _, xe, _ = _unpack(n, key)
                if sum(xe) != 1:
                    return None
                A[a, xe.index(1)] = re / comp.den
        return A

    def apply_to(self, a: PolySymbol) -> PolySymbol:
        """Directional derivative X(a) = sum_b X_b d_x_b a."""
        out = PolySymbol.zero(self.dimension)
        for b, comp in enumerate(self.components):
            out = out + comp * a.partial("x", b)
        return out

    def lie_bracket(self, other: "VectorField") -> "VectorField":
        """[X,Y]_a = X(Y_a) - Y(X_a)."""
        comps = tuple(
            self.apply_to(yb) - other.apply_to(xb)
            for xb, yb in zip(self.components, other.components)
        )
        return VectorField(self.dimension, comps)

    def evaluate(self, x) -> np.ndarray:
        """Field values: shape (n,) for one point, (N, n) for an (N, n) array."""
        x = np.asarray(x, dtype=float)
        values = self.evaluate_many(np.atleast_2d(x))
        return values if x.ndim == 2 else values[0]

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return evaluate_compiled(*self._kernel, xs)

    @cached_property
    def _kernel(self) -> Tuple[np.ndarray, np.ndarray]:
        exponents, coefficients = compile_symbols(self.components)
        return exponents, coefficients.real.copy()


def momentum_symbol(X: VectorField) -> PolySymbol:
    """J_X(x, xi) = <X(x), xi>; degree 1 in xi unless X = 0.

    The components are xi-free, so the terms of X_a xi_a carry xi exponent
    e_a and never meet another component's: J_X is one relabel of the
    components' numerators, each key plus the packed xi_a, over their lcm
    denominator.
    """
    n = X.dimension
    parts = []
    for a, comp in enumerate(X.components):
        xi_a = _variable(n, n + a)
        parts.append((comp.den, {key + xi_a: c for key, c in comp.num.items()}))
    return PolySymbol._disjoint_sum(n, parts)


def angular_momentum(i: int, j: int, n: int) -> PolySymbol:
    """f_ij = x_i xi_j - x_j xi_i (indices 0-based)."""
    if i == j:
        raise ValueError("angular momentum needs two distinct indices")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("angular momentum index out of range")
    return PolySymbol.x(i, n) * PolySymbol.xi(j, n) - PolySymbol.x(j, n) * PolySymbol.xi(i, n)


def rotation_generator(i: int, j: int, n: int) -> VectorField:
    """The vector field x_i d_j - x_j d_i, whose momentum symbol is f_ij."""
    comps = []
    for b in range(n):
        if b == j:
            comps.append(PolySymbol.x(i, n))
        elif b == i:
            comps.append(-PolySymbol.x(j, n))
        else:
            comps.append(PolySymbol.zero(n))
    return VectorField(n, tuple(comps))


def xi_norm_squared(n: int) -> PolySymbol:
    out = PolySymbol.zero(n)
    for a in range(n):
        out = out + PolySymbol.xi(a, n) * PolySymbol.xi(a, n)
    return out


# -- polynomial literal format for config files ------------------------


def symbol_from_literal(records, n: int) -> PolySymbol:
    """Parse [{"re": "p/q", "im": "p/q", "hbar": k, "x": [...], "xi": [...]}].

    Missing "im"/"hbar" default to zero; "x"/"xi" must be length-n lists of
    non-negative integers.
    """
    if not isinstance(records, list):
        raise ValueError("polynomial literal must be a list of term records")
    terms: dict[TermKey, QQi] = {}
    for rec in records:
        if not isinstance(rec, dict):
            raise ValueError(f"term record must be an object, got {rec!r}")
        unknown = set(rec) - {"re", "im", "hbar", "x", "xi"}
        if unknown:
            raise ValueError(f"unknown term record keys: {sorted(unknown)}")
        re = parse_rational(rec.get("re", "0"))
        im = parse_rational(rec.get("im", "0"))
        h = rec.get("hbar", 0)
        # type, not isinstance: JSON true and false arrive as bools, a subclass of int
        if type(h) is not int or h < 0:
            raise ValueError(f"hbar power must be a non-negative integer, got {h!r}")
        xe = rec.get("x", [0] * n)
        xie = rec.get("xi", [0] * n)
        for exps, label in ((xe, "x"), (xie, "xi")):
            if (
                not isinstance(exps, list)
                or len(exps) != n
                or any(type(e) is not int or e < 0 for e in exps)
            ):
                raise ValueError(
                    f"{label} exponents must be a length-{n} list of non-negative integers, got {exps!r}"
                )
        key = (h, tuple(xe), tuple(xie))
        c = QQi(re, im)
        terms[key] = terms.get(key, QQi()) + c
    return PolySymbol(n, terms)
