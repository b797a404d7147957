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
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
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
        common = den
        for re, im in sums.values():
            if common == 1:
                break
            common = gcd(common, re, im)
        if common == 1:
            num = {key: (re, im) for key, (re, im) in sums.items() if re or im}
        else:
            num = {key: (re // common, im // common) for key, (re, im) in sums.items() if re or im}
        return cls._canonical(dimension, den // common if num else 1, num)

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
    def __add__(self, other) -> "PolySymbol":
        other = self._coerce(other)
        _check_same_dim(self, other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        sums = dict(self.num) if s == 1 else {k: (re * s, im * s) for k, (re, im) in self.num.items()}
        for k, (re, im) in other.num.items():
            prev = sums.get(k)
            if prev is None:
                sums[k] = (re * t, im * t)
            else:
                sums[k] = (prev[0] + re * t, prev[1] + im * t)
        return PolySymbol._reduced(self.dimension, den, sums)

    __radd__ = __add__

    def __neg__(self) -> "PolySymbol":
        return PolySymbol._canonical(
            self.dimension, self.den, {k: (-re, -im) for k, (re, im) in self.num.items()}
        )

    def __sub__(self, other) -> "PolySymbol":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "PolySymbol":
        return self._coerce(other) + (-self)

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

        The sign is fixed so that {J_X, J_Y} = J_[X,Y] with the standard
        Lie bracket of vector fields.
        """
        other = self._coerce(other)
        _check_same_dim(self, other)
        out = PolySymbol.zero(self.dimension)
        for a in range(self.dimension):
            out = out + self.partial("xi", a) * other.partial("x", a)
            out = out - self.partial("x", a) * other.partial("xi", a)
        return out

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

    def coefficient(self, key: TermKey) -> QQi:
        re, im = self.num.get(key, (0, 0))
        return QQi(Fraction(re, self.den), Fraction(im, self.den))

    def hbar_component(self, power: int) -> "PolySymbol":
        """The hbar^power slice, with the hbar factor stripped."""
        return PolySymbol._reduced(
            self.dimension,
            self.den,
            {(0, xe, xie): c for (h, xe, xie), c in self.num.items() if h == power},
        )

    def substitute_hbar_sign(self) -> "PolySymbol":
        """hbar -> -hbar."""
        return PolySymbol._canonical(
            self.dimension,
            self.den,
            {k: ((-re, -im) if k[0] % 2 else (re, im)) for k, (re, im) in self.num.items()},
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


def integer_product(
    f: PolySymbol,
    g: PolySymbol,
    monomial_product=None,
    lift: Sequence[int] = (1,),
    den: int = 1,
    phased: bool = True,
) -> PolySymbol:
    """The exact product loop: every product of symbols runs here, on integers.

    Both factors enter as their stored Gaussian-integer numerators over
    their denominators f.den, g.den. A pair of terms multiplies its
    numerators and spreads them over the entries (K, x exponents, xi
    exponents, W) that `monomial_product(xe1, xie1, xe2, xie2)` gives for its
    two monomials; the plain product (None) has the one entry
    (0, xe1 + xe2, xie1 + xie2, 1). An entry of order K adds W lift[K] times
    the numerator product; with `phased` it also gains hbar^K and the phase
    i^K, applied as a swap and sign. Only int multiply-adds run per pair;
    the sums stay numerators over f.den g.den den, and one gcd over all of
    them reduces the result. No Fraction is built.
    """
    _check_same_dim(f, g)
    if phased:  # fold the sign of i^K into the weights; the swap stays below
        lift = [-w if K & 2 else w for K, w in enumerate(lift)]
    acc: dict = {}
    g_terms = g.num.items()
    for (h1, xe1, xie1), (a, b) in f.num.items():
        for (h2, xe2, xie2), (c, d) in g_terms:
            re, im = a * c - b * d, a * d + b * c
            h = h1 + h2
            if monomial_product is None:
                entries = ((0, tuple(map(add, xe1, xe2)), tuple(map(add, xie1, xie2)), 1),)
            else:
                entries = monomial_product(xe1, xie1, xe2, xie2)
            for K, xe, xie, w in entries:
                w *= lift[K]
                if not w:
                    continue
                if phased:
                    key = (h + K, xe, xie)
                    cre, cim = (-im * w, re * w) if K & 1 else (re * w, im * w)
                else:
                    key = (h, xe, xie)
                    cre, cim = re * w, im * w
                slot = acc.get(key)
                if slot is None:
                    acc[key] = [cre, cim]
                else:
                    slot[0] += cre
                    slot[1] += cim
    return PolySymbol._reduced(f.dimension, f.den * g.den * den, acc)


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
    """J_X(x, xi) = <X(x), xi>; degree 1 in xi unless X = 0."""
    n = X.dimension
    out = PolySymbol.zero(n)
    for a, comp in enumerate(X.components):
        out = out + comp * PolySymbol.xi(a, n)
    return out


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


def symbol_to_literal(f: PolySymbol):
    records = []
    for (h, xe, xie), c in sorted(f.terms.items()):
        records.append(
            {
                "re": str(c.re),
                "im": str(c.im),
                "hbar": h,
                "x": list(xe),
                "xi": list(xie),
            }
        )
    return records
