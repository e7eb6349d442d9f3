"""Scaled number structures and their value maps.

A structure of kind natural/rational/real/complex carries an internal factor
t and is represented at level s.  Base numbers are fixed set elements; what
changes between levels is the value map.  The same number with value v at
level t has value (t/s) v at level s, and only "0" keeps its value at every
level.  The arithmetic operations pick up compensating factors of t/s so the
structure axioms keep holding after relabeling:

    add(A, B)  = A + B
    mul(A, B)  = (s/t) A B
    identity   = (t/s) 1
    inv(A)     = (t/s)^2 A^(-1)
    conj(A)    = (w / conj(w)) conj(A),  w = t/s

The inverse factor is squared because mul(A, inv(A)) must return the scaled
identity; a single t/s factor would break the identity and inverse axioms
(the axiom suite shows this through an injected operation table).  The order
relation only exists for real kinds and flips direction when t and s have
opposite signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import (
    DivisionByZero,
    NotInBaseSet,
    NotRepresentable,
    OrderUndefined,
    ZeroScaling,
)
from .exact import ComplexFraction, Scalar, as_complex, as_exact

KINDS = ("natural", "rational", "real", "complex")


def _nonzero(x) -> Scalar:
    """``x`` as a nonzero exact scalar (a structure factor, level or group
    element): ints become Fractions, anything inexact is refused."""
    if isinstance(x, int):
        x = Fraction(x)
    if not isinstance(x, (Fraction, ComplexFraction)):
        raise TypeError(f"scaling factor must be exact, got {type(x).__name__}")
    if x == 0:
        raise ZeroScaling("scaling factor must be nonzero")
    return x


@dataclass(frozen=True)
class BaseNumber:
    """An element of a base set; identical across structures sharing the set.

    The payload is the element's value at level 1: an exact nonnegative
    integer for naturals, an exact rational for rational/real kinds, and an
    exact rational pair for complex.
    """

    kind: str
    payload: Scalar

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        p = as_exact(self.payload)
        if self.kind == "complex":
            object.__setattr__(self, "payload", as_complex(p))
        else:
            if p.imag != 0:
                raise NotInBaseSet(f"{self.kind} payload must be real")
            p = p.real
            if self.kind == "natural" and (p < 0 or p.denominator != 1):
                raise NotInBaseSet("natural payload must be a nonnegative integer")
            object.__setattr__(self, "payload", p)

    @staticmethod
    def natural(n: int) -> "BaseNumber":
        return BaseNumber("natural", Fraction(n))

    @staticmethod
    def rational(value: Union[str, int, Fraction]) -> "BaseNumber":
        return BaseNumber("rational", value)

    @staticmethod
    def complex(re, im=0) -> "BaseNumber":
        return BaseNumber("complex", ComplexFraction(as_exact(re), as_exact(im)))


@dataclass(frozen=True)
class ScaledStructure:
    """Structure of a given kind with internal factor t represented at level s.

    t and s are nonzero exact scalars; an int is stored as a Fraction.
    Naturals need positive integers, and t is the stride of their base set.
    """

    kind: str
    factor_t: Scalar
    level_s: Scalar

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        t, s = _nonzero(self.factor_t), _nonzero(self.level_s)
        object.__setattr__(self, "factor_t", t)
        object.__setattr__(self, "level_s", s)
        if self.kind != "complex":
            if t.imag != 0 or s.imag != 0:
                raise ZeroScaling(f"{self.kind} structures need real factors")
        if self.kind == "natural":
            for name, v in (("factor", t), ("level", s)):
                if v.real <= 0 or v.real.denominator != 1:
                    raise ZeroScaling(f"natural {name} must be a positive integer")

    @property
    def ratio(self) -> Scalar:
        """t/s, the factor relating level-s values to this structure's values."""
        return self.factor_t / self.level_s

    @property
    def order_defined(self) -> bool:
        return self.kind != "complex" and self.ratio.imag == 0


structure = ScaledStructure  # the short name callers build structures by


@dataclass(frozen=True)
class ScaledValue:
    """A number value carried by a structure, expressed at its level s."""

    structure: ScaledStructure
    value: Scalar


def value_of(a: BaseNumber, s: Scalar) -> ScaledValue:
    """Value of base number ``a`` in the structure with factor s (own level).

    Naturals: the member "m*s" of the stride-s base set has value m.  Other
    kinds: val_s(a) = payload / s.
    """
    sv = _nonzero(s)
    st = structure(a.kind, sv, sv)
    q = a.payload / sv
    if a.kind == "natural" and q.denominator != 1:
        raise NotInBaseSet(f"{a.payload} is not a multiple of the stride {sv}")
    return ScaledValue(st, q)


def number_of(v: Union[ScaledValue, Scalar], s: Scalar,
              kind: Optional[str] = None) -> BaseNumber:
    """Base number whose value at factor s is ``v`` (inverse of value_of)."""
    if isinstance(v, ScaledValue):
        kind = kind or v.structure.kind
        raw = v.value
    else:
        if kind is None:
            raise TypeError("kind required when passing a raw scalar")
        raw = v
    sv = _nonzero(s)
    raw = as_exact(raw)
    if kind == "complex":
        return BaseNumber(kind, raw * sv)
    if raw.imag != 0:
        raise NotRepresentable(f"{kind} value must be real")
    raw = raw.real
    if kind == "natural" and (raw < 0 or raw.denominator != 1):
        raise NotRepresentable(
            f"value {raw} has no preimage in the stride-{sv} base set"
        )
    return BaseNumber(kind, raw * sv)


def relabel(v: Union[ScaledValue, Scalar], t: Scalar, s: Scalar,
            kind: str = "rational") -> ScaledValue:
    """Re-express a level-t value at level s: v -> (t/s) v.

    Composing relabel(t -> s') with relabel(s' -> s) equals the direct map,
    and relabel(v, t, t) is the identity.
    """
    tv, sv = _nonzero(t), _nonzero(s)
    if isinstance(v, ScaledValue):
        kind = v.structure.kind
        if v.structure.level_s != tv:
            raise NotRepresentable(
                f"value lives at level {v.structure.level_s}, not {tv}"
            )
        raw = v.value
    else:
        raw = v
    return ScaledValue(ScaledStructure(kind, sv, sv), tv / sv * as_exact(raw))


def group_action(t: Scalar, level: Scalar) -> Scalar:
    """Action of the scaling group on levels: t sends level c to t*c.

    The group is abelian; acting by t then u equals acting by u*t, and
    acting by the reciprocal of a level maps that level to 1.
    """
    return _nonzero(t) * _nonzero(level)


@dataclass(frozen=True)
class ScaledOps:
    """Operation table of a scaled structure, acting on level-s values."""

    structure: ScaledStructure
    add: Callable[[Scalar, Scalar], Scalar]
    mul: Callable[[Scalar, Scalar], Scalar]
    neg: Callable[[Scalar], Scalar]
    identity: Scalar
    zero: Scalar
    inv: Optional[Callable[[Scalar], Scalar]] = None
    conj: Optional[Callable[[Scalar], Scalar]] = None
    lt: Optional[Callable[[Scalar, Scalar], bool]] = None


def scaled_ops(st: ScaledStructure) -> ScaledOps:
    """Build the operation table for ``st``.

    Every kind computes on ComplexFractions: the ops return them, with a
    zero imaginary part on natural, rational and real structures, and take
    Fractions and ints as well.  The inverse carries the (t/s)^2 factor
    required by mul(A, inv(A)) = identity.
    """
    w = as_complex(st.ratio)
    mul_factor = 1 / w  # s/t
    inv_factor = w * w

    def add(a: Scalar, b: Scalar) -> Scalar:
        return a + b

    def mul(a: Scalar, b: Scalar) -> Scalar:
        return mul_factor * a * b

    def neg(a: Scalar) -> Scalar:
        return -a

    inv: Optional[Callable[[Scalar], Scalar]] = None
    if st.kind != "natural":
        def inv(a: Scalar) -> Scalar:  # type: ignore[no-redef]
            if a == 0:
                raise DivisionByZero("scaled inverse of zero")
            return inv_factor / a

    conj: Optional[Callable[[Scalar], Scalar]] = None
    if st.kind == "complex":
        conj_factor = w / w.conjugate()

        def conj(a: Scalar) -> Scalar:  # type: ignore[no-redef]
            return conj_factor * a.conjugate()

    lt: Optional[Callable[[Scalar, Scalar], bool]] = None
    if st.order_defined:
        reversed_order = w < 0

        def lt(a: Scalar, b: Scalar) -> bool:  # type: ignore[no-redef]
            a, b = as_complex(a), as_complex(b)
            return (b < a) if reversed_order else (a < b)
    else:
        def lt(a: Scalar, b: Scalar) -> bool:  # type: ignore[no-redef]
            raise OrderUndefined(
                f"no order on {st.kind} structure with ratio {st.ratio}"
            )

    return ScaledOps(
        structure=st,
        add=add,
        mul=mul,
        neg=neg,
        identity=w * 1,
        zero=w - w,
        inv=inv,
        conj=conj,
        lt=lt,
    )


@dataclass(frozen=True)
class ScaledVectorSpace:
    """Finite-dimensional vector space over a scaled scalar structure.

    Vector values transform between levels with the same t/s factor as
    scalar values.  Scalar multiplication therefore carries an s/t factor so
    the scaled identity scalar acts as the identity map.
    """

    dimension: int
    scalars: ScaledStructure

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.scalars.kind == "natural":
            raise ValueError("vector spaces need field scalars")

    def _check(self, v: Sequence[Scalar]) -> tuple:
        if len(v) != self.dimension:
            raise ValueError(f"expected {self.dimension} components")
        return tuple(v)

    def vadd(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple:
        u, v = self._check(u), self._check(v)
        return tuple(a + b for a, b in zip(u, v))

    def smul(self, c: Scalar, v: Sequence[Scalar]) -> tuple:
        v = self._check(v)
        factor = 1 / self.scalars.ratio
        return tuple(factor * c * x for x in v)

    def norm_squared(self, v: Sequence[Scalar]) -> Scalar:
        """Scaled value of |v|^2: exact, avoids square roots.

        The level-s representation of the underlying |v|^2 is w * |s/t|^2 *
        sum |V_i|^2 with w = t/s; for a real positive ratio this collapses
        to sum V_i^2 / w.
        """
        v = self._check(v)
        w = self.scalars.ratio
        total: Scalar = Fraction(0)
        for x in v:
            total = total + (x.conjugate() * x).real
        winv = 1 / w
        scale = winv * winv.conjugate() * w
        return scale * total
