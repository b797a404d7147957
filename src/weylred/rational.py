"""Gaussian-rational coefficients: exact complex numbers a + bi with a, b in Q."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, Rational)):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot build an exact rational from {v!r}")


@dataclass(frozen=True)
class QQi:
    """An element of Q(i), stored as reduced real and imaginary Fractions."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- ring structure -------------------------------------------------
    def __add__(self, other: "QQi") -> "QQi":
        if not isinstance(other, (QQi, int, Fraction, str)):
            return NotImplemented
        other = QQi.coerce(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "QQi":
        return QQi(-self.re, -self.im)

    def __sub__(self, other: "QQi") -> "QQi":
        if not isinstance(other, (QQi, int, Fraction, str)):
            return NotImplemented
        return self + (-QQi.coerce(other))

    def __rsub__(self, other) -> "QQi":
        if not isinstance(other, (QQi, int, Fraction, str)):
            return NotImplemented
        return QQi.coerce(other) + (-self)

    def __mul__(self, other) -> "QQi":
        if not isinstance(other, (QQi, int, Fraction, str)):
            return NotImplemented
        other = QQi.coerce(other)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QQi":
        other = QQi.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return QQi(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    # -- helpers --------------------------------------------------------
    @classmethod
    def _from_fractions(cls, re: Fraction, im: Fraction) -> "QQi":
        """Wrap two Fractions unchecked; the `terms` view of a PolySymbol builds its coefficients so."""
        out = object.__new__(cls)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    @staticmethod
    def coerce(v) -> "QQi":
        if isinstance(v, QQi):
            return v
        return QQi(_as_fraction(v))

    @staticmethod
    def i() -> "QQi":
        return QQi(Fraction(0), Fraction(1))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


def parse_rational(text: str) -> Fraction:
    """Parse a 'p/q' (or plain integer) string; reject anything else."""
    if not isinstance(text, str):
        raise ValueError(f"rational literal must be a string, got {text!r}")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational literal {text!r}") from exc
    return value
