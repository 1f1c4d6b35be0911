"""Gaussian-rational scalars: the exact coefficient field Q(i).

Each part of a Scalar is kept in one canonical form: an integral value is
a Python int, and any other value is a reduced Fraction with denominator
> 1.  Almost every entry the engine meets is a small integer (structure
constants, wedge and contraction signs, the +-1 of a pivot), so
arithmetic on int parts never reaches `fractions`.  Only division, or an
operation with a non-integral part, builds a Fraction, and a result whose
denominator is 1 goes back to int.
"""

from __future__ import annotations

from fractions import Fraction

# a zero imaginary part is always this one int, so the real-only paths
# below test it by identity
_ZERO = 0


def _canon(x: int | Fraction) -> int | Fraction:
    """The canonical form of an int or a reduced Fraction."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _part(x) -> int | Fraction:
    """A constructor argument in canonical form; only ints and Fractions
    are exact, so a float, a bool or anything else raises TypeError."""
    if type(x) is not int and not isinstance(x, Fraction):
        raise TypeError(f"a Scalar part must be an int or a Fraction, not {type(x).__name__}")
    return _canon(x)


def _div(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """a / b in canonical form, for canonical parts and a nonzero b."""
    if type(a) is int and type(b) is int:
        return Fraction(a, b) if a % b else a // b
    return _canon(a / b)


class Scalar:
    """An element re + i*im of Q(i).

    Plain slotted class rather than a dataclass: these are the innermost
    objects of every matrix computation.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction, im: int | Fraction = _ZERO):
        im = _part(im)
        _set_re(self, _part(re))
        _set_im(self, im if im else _ZERO)

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
        return value if isinstance(value, Scalar) else Scalar(value)

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.im is _ZERO and other.im is _ZERO:
            re = self.re + other.re
            return _real(re if type(re) is int else _canon(re))
        return _complex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if self.im is _ZERO and other.im is _ZERO:
            re = self.re - other.re
            return _real(re if type(re) is int else _canon(re))
        return _complex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return _real(-self.re) if self.im is _ZERO else _complex(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if other.im is _ZERO:
            if self.im is _ZERO:
                re = self.re * other.re
                return _real(re if type(re) is int else _canon(re))
            return _complex(self.re * other.re, self.im * other.re)
        if self.im is _ZERO:
            return _complex(self.re * other.re, self.re * other.im)
        return _complex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if self.im is _ZERO and other.im is _ZERO:
            if not other.re:
                raise ZeroDivisionError("division by zero scalar")
            return _real(_div(self.re, other.re))
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero scalar")
        return _complex(
            _div(self.re * other.re + self.im * other.im, n),
            _div(self.im * other.re - self.re * other.im, n),
        )

    def conj(self) -> "Scalar":
        return self if self.im is _ZERO else _complex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.im is _ZERO and not self.re

    def __bool__(self) -> bool:
        return self.im is not _ZERO or bool(self.re)

    def __str__(self) -> str:
        # str of a canonical part is "n" when integral and "n/d" otherwise
        if self.im is _ZERO:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_new = object.__new__
_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__


def _real(re: int | Fraction) -> Scalar:
    """The Scalar re + 0i, for a part already in canonical form."""
    s = _new(Scalar)
    _set_re(s, re)
    _set_im(s, _ZERO)
    return s


def _complex(re: int | Fraction, im: int | Fraction) -> Scalar:
    """The Scalar re + i*im, for arithmetic results on canonical parts."""
    s = _new(Scalar)
    _set_re(s, _canon(re))
    _set_im(s, _canon(im) if im else _ZERO)
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
# the one -1 that `matrices.add_into`'s callers pass, tested by identity
MINUS_ONE = -ONE
I = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))


def parse_scalar(text: str) -> Scalar:
    """Inverse of __str__: reads "a", "a/b" and "a/b+c/di" back into a Scalar."""
    s = text.strip()
    if s.endswith("i"):
        body = s[:-1]
        # split at the sign that separates real and imaginary parts
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re = Fraction(body[:k])
                im = Fraction(body[k:] if body[k] == "-" else body[k + 1 :])
                return Scalar(re, im)
        return Scalar(0, Fraction(body))
    return Scalar(Fraction(s))
