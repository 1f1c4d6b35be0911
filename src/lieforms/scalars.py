"""Gaussian-rational scalars: the exact coefficient field Q(i)."""

from __future__ import annotations

from fractions import Fraction

_ZERO_FRACTION = Fraction(0)


class Scalar:
    """An element re + i*im of Q(i), both parts reduced Fractions.

    Plain slotted class rather than a dataclass: these are the innermost
    objects of every matrix computation.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction = _ZERO_FRACTION):
        object.__setattr__(self, "re", re)
        # a zero imaginary part is always the one shared Fraction, so the
        # real-only paths below test it by identity
        object.__setattr__(self, "im", im if im is _ZERO_FRACTION or im else _ZERO_FRACTION)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar) and self.re == other.re and self.im == other.im
        )

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(Fraction(value))

    @staticmethod
    def i() -> "Scalar":
        return Scalar(Fraction(0), Fraction(1))

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.im is _ZERO_FRACTION and other.im is _ZERO_FRACTION:
            return Scalar(self.re + other.re)
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if self.im is _ZERO_FRACTION and other.im is _ZERO_FRACTION:
            return Scalar(self.re - other.re)
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        if self.im is _ZERO_FRACTION:
            return Scalar(-self.re)
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if other.im is _ZERO_FRACTION:
            if self.im is _ZERO_FRACTION:
                return Scalar(self.re * other.re)
            return Scalar(self.re * other.re, self.im * other.re)
        if self.im is _ZERO_FRACTION:
            return Scalar(self.re * other.re, self.re * other.im)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if self.im is _ZERO_FRACTION and other.im is _ZERO_FRACTION:
            if not other.re:
                raise ZeroDivisionError("division by zero scalar")
            return Scalar(self.re / other.re)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conj(self) -> "Scalar":
        return self if self.im is _ZERO_FRACTION else Scalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.im is _ZERO_FRACTION and not self.re

    def __bool__(self) -> bool:
        return self.im is not _ZERO_FRACTION or bool(self.re)

    def __str__(self) -> str:
        if self.im == 0:
            return _frac_str(self.re)
        re = _frac_str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{re}{sign}{_frac_str(abs(self.im))}i"

    def json_str(self) -> str:
        """Strict a/b or a/b+c/di encoding used by machine-readable output."""
        re = f"{self.re.numerator}/{self.re.denominator}"
        if self.im == 0:
            return re
        sign = "+" if self.im > 0 else "-"
        return f"{re}{sign}{abs(self.im.numerator)}/{self.im.denominator}i"


ZERO = Scalar(Fraction(0))
ONE = Scalar(Fraction(1))
I = Scalar.i()
HALF = Scalar(Fraction(1, 2))


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_scalar(text: str) -> Scalar:
    """Inverse of json_str/__str__ (accepts both)."""
    s = text.strip()
    if s.endswith("i"):
        body = s[:-1]
        # split at the sign that separates real and imaginary parts
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re = Fraction(body[:k])
                im = Fraction(body[k:] if body[k] == "-" else body[k + 1 :])
                return Scalar(re, im)
        return Scalar(Fraction(0), Fraction(body))
    return Scalar(Fraction(s))
