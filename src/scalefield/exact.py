"""Exact scalar arithmetic for scaled number structures.

Rational and real-kind quantities are plain ``fractions.Fraction`` values,
and so are a structure's factor t and level s (or ComplexFractions), with no
wrapper class; a packet's level c is a plain number.  Every string, such as
"3/2" or "0.125", is read exactly by ``parse_fraction``: scenario and CLI
input call it directly, library input reaches it through ``as_exact``, so
there is one parser and one exponent bound.  A finite decimal is an exact
rational, so there is no precision setting.

Complex quantities are ``ComplexFraction`` values: one Gaussian integer
a + bi over one denominator d, stored as the int triple (a, b, d).  The
triple is canonical, with d > 0 and gcd(a, b, d) == 1, so each value has
exactly one triple and the operators work on plain ints with one gcd per
result.  ``re`` and ``im`` are the Fractions a/d and b/d.

``ComplexFraction`` speaks the same number protocol as ``Fraction``: the
arithmetic and comparison operators (reflected ones included, so mixed
operands work), ``real``, ``imag``, ``conjugate()`` and ``complex()``.  The
structures built on top therefore have no per-kind arithmetic: one
expression such as ``t / s * v`` serves every kind.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .errors import DivisionByZero


class ComplexFraction:
    """A complex number with exact rational components: (a + bi)/d.

    ``ComplexFraction(re, im=0)`` takes anything ``Fraction()`` takes for
    either part.  The ints a, b and d are kept in canonical form, d > 0 and
    gcd(a, b, d) == 1, so ``==`` compares triples.  Values are immutable by
    convention, as ``Fraction`` values are.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re, im=0) -> None:
        re, im = Fraction(re), Fraction(im)
        # canonical with no gcd: a prime p of d divides neither d // q nor
        # the numerator of the part whose denominator q holds p's full power
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    real = re
    imag = im

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ComplexFraction):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, (Fraction, int)):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def conjugate(self) -> "ComplexFraction":
        return _make(self._a, -self._b, self._d, reduced=True)

    def __add__(self, other: "Scalar") -> "ComplexFraction":
        o = as_complex(other)
        d1, d2 = self._d, o._d
        return _make(self._a * d2 + o._a * d1, self._b * d2 + o._b * d1,
                     d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "ComplexFraction":
        return _make(-self._a, -self._b, self._d, reduced=True)

    def __sub__(self, other: "Scalar") -> "ComplexFraction":
        return self + (-as_complex(other))

    def __rsub__(self, other: "Scalar") -> "ComplexFraction":
        return as_complex(other) + (-self)

    def __mul__(self, other: "Scalar") -> "ComplexFraction":
        o = as_complex(other)
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * o._d)

    __rmul__ = __mul__

    def reciprocal(self) -> "ComplexFraction":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise DivisionByZero("reciprocal of zero")
        return _make(d * a, -d * b, n)

    def __truediv__(self, other: "Scalar") -> "ComplexFraction":
        return self * as_complex(other).reciprocal()

    def __rtruediv__(self, other: "Scalar") -> "ComplexFraction":
        return as_complex(other) * self.reciprocal()

    def __complex__(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self) -> str:
        if self._b == 0:
            return str(self.re)
        sign = "+" if self._b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"ComplexFraction(re={self.re!r}, im={self.im!r})"


def _make(a: int, b: int, d: int, reduced: bool = False) -> ComplexFraction:
    """(a + bi)/d for d > 0, divided by gcd(a, b, d) unless ``reduced``
    says the triple is canonical already."""
    if not reduced:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = object.__new__(ComplexFraction)
    z._a, z._b, z._d = a, b, d
    return z


Scalar = Union[Fraction, int, ComplexFraction]


def as_complex(x: Scalar) -> ComplexFraction:
    """``x`` as a ComplexFraction: one passes unchanged, a Fraction keeps
    its reduced numerator and denominator, anything else goes through the
    constructor."""
    if type(x) is ComplexFraction:
        return x
    if type(x) is Fraction:
        return _make(x.numerator, 0, x.denominator, reduced=True)
    return ComplexFraction(x)


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
