"""Exact phase-space polynomials in (x, xi) with a formal hbar grading.

Coefficients live in Q(i) so that star products of real symbols stay exact.
A symbol stores them as Gaussian-integer numerators over one reduced
denominator: `den >= 1` and `num = {(hbar_power, x_exponents, xi_exponents):
(re, im)}`, with no (0, 0) entry and gcd(den, every numerator) = 1. That
form is canonical, so equality and hashing compare (dimension, den, num),
and every ring operation runs on Python ints. The `{key: QQi}` view `terms`
is built from the numerators on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm
from operator import add, index
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .rational import QQi, parse_rational

TermKey = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


class DimensionMismatch(ValueError):
    pass


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


def _integer_form(coefficients: Mapping[TermKey, QQi]) -> Tuple[int, dict]:
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
        clean: dict[TermKey, QQi] = {}
        for (h, xe, xie), c in (terms or {}).items():
            h = _exponent(h)
            xe = tuple(_exponent(e) for e in xe)
            xie = tuple(_exponent(e) for e in xie)
            if h < 0 or any(e < 0 for e in xe) or any(e < 0 for e in xie):
                raise ValueError("exponents must be non-negative")
            if len(xe) != dimension or len(xie) != dimension:
                raise DimensionMismatch("exponent vector length != dimension")
            c = QQi.coerce(c)
            if c.is_zero():
                continue
            key = (h, xe, xie)
            prev = clean.get(key)
            total = c if prev is None else prev + c
            if total.is_zero():
                clean.pop(key, None)
            else:
                clean[key] = total
        self._init(dimension, *_integer_form(clean))

    def _init(self, dimension: int, den: int, num: dict) -> None:
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "_terms", None)
        object.__setattr__(self, "_compiled", None)

    @classmethod
    def _canonical(cls, dimension: int, den: int, num: dict) -> "PolySymbol":
        """Wrap numerators that are canonical by construction, unchecked."""
        out = object.__new__(cls)
        out._init(dimension, den, num)
        return out

    @classmethod
    def _reduced(cls, dimension: int, den: int, sums: Mapping) -> "PolySymbol":
        """Numerator sums over den made canonical: zero entries dropped, one gcd divided out."""
        common = _common_factor(den, sums.values())
        if common == 1:
            num = {key: (re, im) for key, (re, im) in sums.items() if re or im}
        else:
            num = {key: (re // common, im // common) for key, (re, im) in sums.items() if re or im}
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
            den = self.den
            view = {
                key: QQi._from_fractions(Fraction(re, den), Fraction(im, den))
                for key, (re, im) in self.num.items()
            }
            object.__setattr__(self, "_terms", view)
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
        z = (0,) * n
        return cls._canonical(n, *_integer_form({(0, z, z): c} if c else {}))

    @classmethod
    def one(cls, n: int) -> "PolySymbol":
        return cls.hbar(n, 0)

    @classmethod
    def x(cls, a: int, n: int) -> "PolySymbol":
        if not 0 <= a < n:
            raise IndexError(f"x index {a} out of range for dimension {n}")
        xe = tuple(1 if j == a else 0 for j in range(n))
        return cls._canonical(n, 1, {(0, xe, (0,) * n): (1, 0)})

    @classmethod
    def xi(cls, a: int, n: int) -> "PolySymbol":
        if not 0 <= a < n:
            raise IndexError(f"xi index {a} out of range for dimension {n}")
        xie = tuple(1 if j == a else 0 for j in range(n))
        return cls._canonical(n, 1, {(0, (0,) * n, xie): (1, 0)})

    @classmethod
    def hbar(cls, n: int, power: int = 1) -> "PolySymbol":
        _check_dimension(n)
        power = _exponent(power)
        if power < 0:
            raise ValueError("exponents must be non-negative")
        z = (0,) * n
        return cls._canonical(n, 1, {(power, z, z): (1, 0)})

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
        for key, (a, b) in other.num.items():
            if shift:
                key = (key[0] + shift, key[1], key[2])
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
        pos = 1 if kind == "x" else 2
        out: dict = {}
        for key, (re, im) in self.num.items():
            exps = key[pos]
            e = exps[a]
            if e == 0:
                continue
            new_exps = tuple(v - 1 if j == a else v for j, v in enumerate(exps))
            new_key = list(key)
            new_key[pos] = new_exps
            out[tuple(new_key)] = (re * e, im * e)
        return PolySymbol._reduced(self.dimension, self.den, out)

    def poisson(self, other: "PolySymbol") -> "PolySymbol":
        """{f,g} = sum_a (d_xi_a f d_x_a g - d_x_a f d_xi_a g).

        The first order of the product loop without phase, P^1(f, g): one
        pass over the term pairs, each read off its active coordinates. The
        sign is fixed so that {J_X, J_Y} = J_[X,Y] with the standard Lie
        bracket of vector fields.
        """
        return integer_product(self, self._coerce(other), range(1, 2), 2, phased=False)

    # -- queries --------------------------------------------------------
    def total_degree(self) -> int:
        """Max combined degree in (x, xi); hbar does not count."""
        if not self.num:
            return 0
        return max(sum(xe) + sum(xie) for _, xe, xie in self.num)

    def is_xi_free(self) -> bool:
        return all(sum(xie) == 0 for _, _, xie in self.num)

    def is_hbar_free(self) -> bool:
        return all(h == 0 for h, _, _ in self.num)

    def hbar_component(self, power: int) -> "PolySymbol":
        """The hbar^power slice, with the hbar factor stripped."""
        return PolySymbol._reduced(
            self.dimension,
            self.den,
            {(0, xe, xie): c for (h, xe, xie), c in self.num.items() if h == power},
        )

    def compile(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exponent matrix (T, 1 + 2n) over (hbar, x, xi) and complex coefficients (T,).

        Built once per symbol and cached; `evaluate_compiled` runs it.
        """
        if self._compiled is None:
            exponents, coefficients = compile_symbols([self])
            object.__setattr__(self, "_compiled", (exponents, coefficients[:, 0]))
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


@lru_cache(maxsize=4096)
def _coordinate_product(alpha: int, beta: int, gamma: int, delta: int) -> tuple:
    """x^alpha xi^beta * x^gamma xi^delta in one coordinate pair.

    Gives ((k, x exponent, xi exponent, R, k!), ...) over the orders k with
    R != 0, in increasing k, the order-k term being
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


_NONZERO = bytes([0] + [1] * 255)


def _scan(f: PolySymbol, size: int):
    """One pass over f: (rows, x degree, xi degree), or None if an exponent needs more than `size` bytes.

    Each exponent takes a field of `size` bytes, x_0..x_{n-1} then
    xi_0..xi_{n-1} from the low end, with the hbar power above them, so the
    product of two monomials is the sum of their packed ints; every field
    keeps a spare top bit, so no field of a product overflows. A row is
    (packed monomial, x mask, xi mask, re, im, exponents): the masks hold bit
    8a for each coordinate a with a nonzero x, and xi, exponent, and the
    exponents are the tuple x + xi.
    """
    n = f.dimension
    limit = 1 << (8 * size - 1)
    h_shift = 16 * n * size
    low = (1 << (8 * n)) - 1
    rows = []
    xdeg = xideg = 0
    for (h, xe, xie), (re, im) in f.num.items():
        e = xe + xie
        if max(e) >= limit:
            return None
        if size == 1:
            raw = bytes(e)
            nz = int.from_bytes(raw.translate(_NONZERO), "little")
        else:
            raw = b"".join([v.to_bytes(size, "little") for v in e])
            nz = int.from_bytes(bytes(map(bool, e)), "little")
        rows.append((h << h_shift | int.from_bytes(raw, "little"), nz & low, nz >> (8 * n), re, im, e))
        dx, dxi = sum(xe), sum(xie)
        if dx > xdeg:
            xdeg = dx
        if dxi > xideg:
            xideg = dxi
    return rows, xdeg, xideg


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
    without phase, and the star product is every order. Both factors enter
    as their stored Gaussian-integer numerators, only int multiply-adds run
    per pair of terms, and one gcd reduces the sums. No Fraction is built.

    Order 0 alone is a plain loop over tuple keys; a one-term factor there
    only relabels and scales the other's terms, with no accumulation. Past
    it, one scan per factor (`_scan`) packs each monomial into one int and
    gives the x and xi degrees. No order passes min(xi deg f, x deg g) +
    min(x deg f, xi deg g) (order K applies d_xi^alpha d_x^beta to f and
    d_x^alpha d_xi^beta to g, |alpha| + |beta| = K), so `orders` is cut
    there, and the kept orders share the denominator 2^top top! of the
    largest one, top: every weight is an integer. At top order 1
    (`_first_order_sums`) each coordinate's derivative terms of f and g are
    paired directly. Past it (`_tensor_sums`) a pair of terms reaches past
    order 0 only through its active coordinates a, those where the xi_a
    exponent of f and the x_a exponent of g, or the x_a exponent of f and
    the xi_a exponent of g, are both nonzero; a pair with none costs one add
    of packed exponents (nothing if order 0 is not kept), and only the
    active coordinates' tables (`_coordinate_product`) are tensored, entries
    past the top order pruned as they are built: an order-K entry that
    lowers coordinate a by k_a weighs prod R_a K! w_K / prod k_a!, w_K the
    order's weight over the common denominator, and moves the packed key by
    sum_a k_a (hbar - x_a - xi_a). Every order adds straight into one
    accumulator, and the sums are unpacked and reduced in one pass.
    """
    _check_same_dim(f, g)
    n = f.dimension
    D = f.den * g.den
    if orders == range(1):
        return PolySymbol._reduced(n, D, _plain_sums(f, g, scale))
    size = 1
    while True:
        fs, gs = _scan(f, size), _scan(g, size)
        if fs and gs:
            break
        size += 1
    (fs, xf, xif), (gs, xg, xig) = fs, gs
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
    w8 = 8 * size
    if top == 1:
        acc = _first_order_sums(fs, gs, n, w8, weight[0], weight[1], phased)
    else:
        acc = _tensor_sums(fs, gs, n, w8, weight, phased)
    common = _common_factor(D, acc.values())
    h_shift = 2 * n * w8
    low = (1 << h_shift) - 1
    num = {}
    for key, (re, im) in acc.items():
        if re or im:
            raw = (key & low).to_bytes(2 * n * size, "little")
            e = tuple(raw) if size == 1 else tuple(
                int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)
            )
            num[(key >> h_shift, e[:n], e[n:])] = (re // common, im // common)
    return PolySymbol._canonical(n, D // common if num else 1, num)


def _first_order_sums(fs, gs, n: int, w8: int, w0: int, w1: int, phased: bool) -> dict:
    """Packed sums of w0 fg + w1 (i hbar)^phased P^1(f, g) over the rows of `_scan`.

    P^1(f, g) = sum_a d_xi_a f d_x_a g - d_x_a f d_xi_a g: each
    coordinate's derivative terms are paired directly, so a pair of terms
    with no active coordinate costs nothing, and the weight, sign and phase
    ride on the f side. w0 adds the plain product as one more pairing.
    """
    hb = 1 << (2 * n * w8) if phased else 0
    c0, d0 = (0, w1) if phased else (w1, 0)
    pairings = []
    if w0:
        pairings.append(
            ([(k, a * w0, b * w0) for k, _, _, a, b, _ in fs], [(k, c, d) for k, _, _, c, d, _ in gs])
        )
    for j in range(n):
        for fi, gi, sign in ((n + j, j, 1), (j, n + j, -1)):
            fbit, gbit = 1 << (fi * w8), 1 << (gi * w8)
            fl = [
                (k + hb - fbit, sign * e[fi] * (a * c0 - b * d0), sign * e[fi] * (a * d0 + b * c0))
                for k, _, _, a, b, e in fs
                if e[fi]
            ]
            gl = [(k - gbit, e[gi] * c, e[gi] * d) for k, _, _, c, d, e in gs if e[gi]] if fl else ()
            if gl:
                pairings.append((fl, gl))
    acc: dict = {}
    get = acc.get
    for fl, gl in pairings:
        for k1, a, b in fl:
            for k2, c, d in gl:
                k = k1 + k2
                re, im = a * c - b * d, a * d + b * c
                slot = get(k)
                if slot is None:
                    acc[k] = [re, im]
                else:
                    slot[0] += re
                    slot[1] += im
    return acc


def _tensor_sums(fs, gs, n: int, w8: int, weight: Sequence[int], phased: bool) -> dict:
    """Packed sums of sum_K weight[K] / K! (i hbar)^(K phased) P^K(f, g) over the rows of `_scan`, top order >= 2.

    The sign of i^K is already folded into `weight`. Each pair of terms adds
    weight[0] times its plain product, and past it the tensor product of its
    active coordinates' tables, pruned past the top order.
    """
    top = len(weight) - 1
    w0 = weight[0]
    hbar_bit = 1 << (2 * n * w8) if phased else 0
    step = [hbar_bit - (1 << (a * w8)) - (1 << ((n + a) * w8)) for a in range(n)]
    acc: dict = {}
    get = acc.get
    for key1, xm1, xim1, a, b, e1 in fs:
        for key2, xm2, xim2, c, d, e2 in gs:
            active = (xim1 & xm2) | (xm1 & xim2)
            if not (active or w0):
                continue
            re, im = a * c - b * d, a * d + b * c
            key = key1 + key2
            if w0:
                slot = get(key)
                if slot is None:
                    acc[key] = [re * w0, im * w0]
                else:
                    slot[0] += re * w0
                    slot[1] += im * w0
                if not active:
                    continue
            re1, im1 = (-im, re) if phased else (re, im)  # the odd orders' i
            tensor = [(0, key, 1, 1)]  # (K, key, prod R_a, prod k_a!)
            while active:
                bit = active & -active
                active ^= bit
                j = bit.bit_length() >> 3
                table = _coordinate_product(e1[j], e1[n + j], e2[j], e2[n + j])
                s = step[j]
                tensor = [
                    (K + k, k2 + k * s, W * R, facts * k_fact)
                    for K, k2, W, facts in tensor
                    for k, _, _, R, k_fact in table
                    if K + k <= top
                ]
            for K, k, W, facts in tensor:
                if not K or not weight[K]:
                    continue
                w = W * weight[K] // facts
                if K & 1:
                    cre, cim = re1 * w, im1 * w
                else:
                    cre, cim = re * w, im * w
                slot = get(k)
                if slot is None:
                    acc[k] = [cre, cim]
                else:
                    slot[0] += cre
                    slot[1] += cim
    return acc


def _plain_sums(f: PolySymbol, g: PolySymbol, w: int) -> dict:
    """The numerator sums of w f g, the order-0 pass of `integer_product`.

    A one-term factor relabels and scales the other's terms: adding one
    monomial is injective, so no two products share a key and nothing
    accumulates.
    """
    if len(f.num) == 1:
        f, g = g, f
    if len(g.num) == 1:
        (((h2, xe2, xie2), (c, d)),) = g.num.items()
        c, d = c * w, d * w
        if not (any(xe2) or any(xie2)):  # a constant times hbar^h2 moves only the hbar power
            return {
                (h1 + h2, xe1, xie1): (a * c - b * d, a * d + b * c)
                for (h1, xe1, xie1), (a, b) in f.num.items()
            }
        return {
            (h1 + h2, tuple(map(add, xe1, xe2)), tuple(map(add, xie1, xie2))): (a * c - b * d, a * d + b * c)
            for (h1, xe1, xie1), (a, b) in f.num.items()
        }
    acc: dict = {}
    g_terms = g.num.items()
    for (h1, xe1, xie1), (a, b) in f.num.items():
        for (h2, xe2, xie2), (c, d) in g_terms:
            key = (h1 + h2, tuple(map(add, xe1, xe2)), tuple(map(add, xie1, xie2)))
            re, im = a * c - b * d, a * d + b * c
            slot = acc.get(key)
            if slot is None:
                acc[key] = [re, im]
            else:
                slot[0] += re
                slot[1] += im
    if w != 1:
        return {key: (re * w, im * w) for key, (re, im) in acc.items()}
    return acc


def compile_symbols(symbols: Sequence[PolySymbol]) -> Tuple[np.ndarray, np.ndarray]:
    """One kernel for several symbols of one dimension over their shared monomials.

    Returns the exponent matrix (T, 1 + 2n), one row (hbar, x, xi) per
    distinct monomial, and the complex coefficient matrix (T, len(symbols)).
    """
    n = symbols[0].dimension
    rows: dict[TermKey, int] = {}
    for f in symbols:
        _check_same_dim(symbols[0], f)
        for key in f.num:
            rows.setdefault(key, len(rows))
    exponents = np.zeros((len(rows), 1 + 2 * n), dtype=np.int64)
    for (h, xe, xie), t in rows.items():
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
            for (_, xe, _), (re, _) in comp.num.items():
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
    components' numerators over their lcm denominator.
    """
    n = X.dimension
    parts = []
    for a, comp in enumerate(X.components):
        unit = tuple(int(j == a) for j in range(n))
        parts.append((comp.den, {(h, xe, unit): c for (h, xe, _), c in comp.num.items()}))
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
