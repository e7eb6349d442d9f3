"""Exact scalar arithmetic for scaled number structures.

Rational and real-kind quantities are plain ``fractions.Fraction`` values,
and so are a structure's factor t and level s (or ComplexFractions), with no
wrapper class; a packet's level c is a plain number.  Every string, such as
"3/2" or "0.125", is read exactly by ``parse_fraction``: scenario and CLI
input call it directly, library input reaches it through ``as_exact``, so
there is one parser and one exponent bound.  A finite decimal is an exact
rational, so there is no precision setting.  Complex quantities are
``ComplexFraction`` pairs of Fractions with exact field arithmetic.

``ComplexFraction`` speaks the same number protocol as ``Fraction``: the
arithmetic and comparison operators (reflected ones included, so mixed
operands work), ``real``, ``imag``, ``conjugate()`` and ``complex()``.  The
structures built on top therefore have no per-kind arithmetic: one
expression such as ``t / s * v`` serves every kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Union

from .errors import DivisionByZero


@dataclass(frozen=True, eq=False)
class ComplexFraction:
    """A complex number with exact rational components."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ComplexFraction):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (Fraction, int)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def conjugate(self) -> "ComplexFraction":
        return ComplexFraction(self.re, -self.im)

    def __add__(self, other: "Scalar") -> "ComplexFraction":
        o = as_complex(other)
        return ComplexFraction(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "ComplexFraction":
        return ComplexFraction(-self.re, -self.im)

    def __sub__(self, other: "Scalar") -> "ComplexFraction":
        return self + (-as_complex(other))

    def __rsub__(self, other: "Scalar") -> "ComplexFraction":
        return as_complex(other) + (-self)

    def __mul__(self, other: "Scalar") -> "ComplexFraction":
        o = as_complex(other)
        return ComplexFraction(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "ComplexFraction":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise DivisionByZero("reciprocal of zero")
        return ComplexFraction(self.re / n, -self.im / n)

    def __truediv__(self, other: "Scalar") -> "ComplexFraction":
        return self * as_complex(other).reciprocal()

    def __rtruediv__(self, other: "Scalar") -> "ComplexFraction":
        return as_complex(other) * self.reciprocal()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


Scalar = Union[Fraction, int, ComplexFraction]


def as_complex(x: Scalar) -> ComplexFraction:
    if isinstance(x, ComplexFraction):
        return x
    return ComplexFraction(Fraction(x))


def as_exact(x) -> Scalar:
    """``x`` as an exact scalar: ComplexFractions pass, strings go through
    ``parse_fraction`` and the rest through ``Fraction`` (ints, floats and
    Decimals, all exactly)."""
    if isinstance(x, ComplexFraction):
        return x
    if isinstance(x, str):
        return parse_fraction(x)
    return Fraction(x)


MAX_EXPONENT = 4300  # the digit limit int() applies to the other forms


def parse_fraction(text: str) -> Fraction:
    """Parse "A/B" or a plain integer/decimal string into a Fraction; a
    decimal exponent beyond MAX_EXPONENT would take unbounded work."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num.strip()), int(den.strip()))
    if "." in s or "e" in s or "E" in s:
        try:
            d = Decimal(s)
        except InvalidOperation:
            raise ValueError(f"invalid decimal {text!r}") from None
        exponent = d.as_tuple().exponent
        if abs(exponent) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent {exponent} beyond the limit "
                             f"of {MAX_EXPONENT}")
        return Fraction(d)
    return Fraction(int(s))
