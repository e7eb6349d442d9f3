"""ComplexFraction against a reference built from pairs of Fractions.

The reference keeps a complex value as its (re, im) pair of Fractions and
applies the textbook field formulas to the pair.  Exact arithmetic admits
no tolerance, so every result must equal the reference exactly, print and
hash as the pair does, and sit in the canonical form of the (a, b, d)
triple: d > 0 and gcd(a, b, d) == 1.
"""

import math
import operator
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalefield.errors import DivisionByZero, OrderUndefined
from scalefield.exact import ComplexFraction as C
from scalefield.exact import as_complex, parse_fraction

FRACTIONS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 6)
INTS = st.integers(-10 ** 30, 10 ** 30)


# an operand and its reference pair
COMPLEX = st.tuples(FRACTIONS | INTS, FRACTIONS | INTS).map(
    lambda p: (C(*p), (F(p[0]), F(p[1]))))
SCALAR = (FRACTIONS | INTS).map(lambda x: (x, (F(x), F(0))))
OPERAND = COMPLEX | SCALAR


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_reciprocal(x):
    n = x[0] * x[0] + x[1] * x[1]
    if n == 0:
        raise DivisionByZero("reciprocal of zero")
    return x[0] / n, -x[1] / n


def ref_div(x, y):
    return ref_mul(x, ref_reciprocal(y))


def ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    sign = "+" if im >= 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def ref_hash(x):
    return hash(x[0]) if x[1] == 0 else hash(x)


def check(z, expected):
    """``z`` is the ComplexFraction of the reference pair, canonical."""
    assert type(z) is C
    assert (z.re, z.im) == expected
    assert (z.real, z.imag) == expected
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    assert z == C(*expected)
    assert str(z) == ref_str(expected)
    assert repr(z) == (f"ComplexFraction(re={expected[0]!r}, "
                       f"im={expected[1]!r})")
    assert hash(z) == ref_hash(expected)
    assert complex(z) == complex(float(expected[0]), float(expected[1]))


BINARY = [(operator.add, ref_add), (operator.sub, ref_sub),
          (operator.mul, ref_mul), (operator.truediv, ref_div)]


@pytest.mark.parametrize("op, ref", BINARY,
                         ids=[op.__name__ for op, _ in BINARY])
@given(x=COMPLEX, y=OPERAND, flip=st.booleans())
def test_binary_operators_match_the_pair_reference(op, ref, x, y, flip):
    (a, pa), (b, pb) = (y, x) if flip else (x, y)
    try:
        expected = ref(pa, pb)
    except DivisionByZero:
        with pytest.raises(DivisionByZero, match="reciprocal of zero"):
            op(a, b)
        return
    check(op(a, b), expected)


@given(x=COMPLEX)
def test_unary_operations_match_the_pair_reference(x):
    z, p = x
    check(z, p)
    check(-z, (-p[0], -p[1]))
    check(z.conjugate(), (p[0], -p[1]))
    assert as_complex(z) is z
    if p == (0, 0):
        with pytest.raises(DivisionByZero, match="reciprocal of zero"):
            z.reciprocal()
    else:
        check(z.reciprocal(), ref_reciprocal(p))


@given(x=OPERAND, y=OPERAND)
def test_equality_matches_the_pair_reference(x, y):
    (a, pa), (b, pb) = x, y
    za, zb = as_complex(a), as_complex(b)
    assert (za == zb) == (pa == pb)
    assert (za == b) == (pa == pb)
    assert (b == za) == (pa == pb)
    if pa == pb:
        assert hash(za) == hash(zb)


@given(x=FRACTIONS | INTS)
def test_a_real_value_hashes_and_compares_as_its_fraction(x):
    z = C(x, 0)
    assert z == x and x == z
    assert hash(z) == hash(F(x))
    check(as_complex(x), (F(x), F(0)))
    check(as_complex(F(x)), (F(x), F(0)))


@given(x=FRACTIONS | INTS, y=FRACTIONS | INTS)
def test_real_values_order_as_their_fractions(x, y):
    assert (C(x) < y) is (F(x) < F(y))
    assert (C(x) < C(y)) is (F(x) < F(y))


def test_order_refuses_a_value_with_an_imaginary_part():
    for a, b in ((C(1, 1), 2), (C(1), C(2, -1)), (C(0, 1), C(0, 1))):
        with pytest.raises(OrderUndefined):
            a < b


def test_the_constructor_takes_what_fraction_takes():
    assert C("3/4", 0.5) == C(F(3, 4), F(1, 2))
    assert C(re=Decimal("-1.25"), im="2") == C(F(-5, 4), 2)
    assert C(parse_fraction("0.125")) == F(1, 8)
    assert as_complex("1/3") == C(F(1, 3))
    with pytest.raises(TypeError):
        C(C(1, 2))


def test_division_by_zero_raises_from_every_side():
    z = C(2, -3)
    for zero in (0, F(0), C(0), C(0, 0)):
        with pytest.raises(DivisionByZero, match="reciprocal of zero"):
            z / zero
    with pytest.raises(DivisionByZero, match="reciprocal of zero"):
        1 / C(0)
    with pytest.raises(DivisionByZero, match="reciprocal of zero"):
        F(1, 2) / C(F(0), 0)


def test_other_types_compare_unequal():
    assert C(1) != 1.0 + 0j
    assert C(1) != "1"
    assert C(1, 2) != (1, 2)
