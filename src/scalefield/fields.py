"""Scalar field families and the complex scaling field f = exp(theta + i phi).

Field specs evaluate on point arrays of shape (..., dim) and return values of
shape (...); analytic families also provide exact gradients of shape
(..., dim).  The scaling field bundles theta and phi over a manifold and
exposes the quantities everything downstream consumes: f itself, the real
and imaginary connection components (Gamma, Delta) = (grad theta, grad phi),
and ``connection_factor``, the one f(y)/f(x) that outcomes and packets use.
How to differentiate is the scaling field's decision alone: ``gradient_of``
is analytic or central by its mode, and every finite difference, of theta,
phi, a transform's alpha or a matter field psi, is its ``differences`` of a
function of points.
A spec's values are read only through ``evaluate`` and its analytic
gradient only through ``analytic_gradient``.  Inside a
``shared_evaluation`` block, which the gauge opens for each call, these
two, a central ``gradient_of`` and the shifted arrays of central
differences (``_stencil``) keep what they compute in one table, so each is
computed once per (spec, points), (spec, points, step) or (points, axis,
step) until the block ends.
The connection-modified derivative lives in ``gauge``: without a gauge field
it is ``gauge_covariant_derivative`` with g_r = g_i = 1 and a zero photon.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from .errors import BoundaryPoint, ScenarioValidationError
from .manifold import Manifold


# up to this many points, one short reduction per row costs less than a
# pass per column: about 1.2 against 2.5 us for 2 to 32 points of 4
_FEW_POINTS = 32


def coordinate_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` bit for bit when the last axis, the coordinates,
    has fewer than 8 entries: numpy adds those left to right from +0.0, and
    so does this for an array of many points, a column at a time, which
    beats one short reduction per row.  A few points keep numpy's own sum,
    and a single point must: scalar adds may pick another of two NaNs'
    payloads."""
    if x.size <= _FEW_POINTS * x.shape[-1]:
        return x.sum(axis=-1)
    cols = x.T
    out = 0.0 + cols[0]
    for k in range(1, len(cols)):
        out += cols[k]
    return out.T


class FieldSpec:
    """Interface shared by all scalar field families."""

    has_analytic_gradient = True

    def value(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        return False


@dataclass(frozen=True)
class ConstantField(FieldSpec):
    constant: float = 0.0

    def value(self, pts: np.ndarray) -> np.ndarray:
        return np.full(pts.shape[:-1], float(self.constant))

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        return np.zeros(pts.shape)

    @property
    def is_constant(self) -> bool:
        return True


@dataclass(frozen=True)
class LinearField(FieldSpec):
    """a . x + b"""

    coefficients: Tuple[float, ...]
    offset: float = 0.0

    def __post_init__(self) -> None:
        coefficients = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "_a", np.array(coefficients))

    def value(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self._a + self.offset

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty(pts.shape)
        out[...] = self._a
        return out

    @property
    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coefficients)


@dataclass(frozen=True)
class GaussianField(FieldSpec):
    """A exp(-|x - x0|^2 / (2 sigma^2)).

    When `axes` is given, the distance runs over those coordinates only and
    the gradient vanishes on the rest (e.g. a time-independent spatial bump).
    """

    amplitude: float
    center: Tuple[float, ...]
    width: float
    axes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        center = tuple(float(c) for c in self.center)
        object.__setattr__(self, "center", center)
        if not self.width > 0:
            raise ValueError("width must be positive")
        if self.axes is None:
            mask = None  # every axis counts, and x * 1.0 is x
        else:
            object.__setattr__(self, "axes", tuple(int(a) for a in self.axes))
            mask = np.zeros(len(center))
            mask[list(self.axes)] = 1.0
        object.__setattr__(self, "_center", np.array(center))
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "_w2", self.width ** 2)

    def _offset(self, pts: np.ndarray) -> np.ndarray:
        d = pts - self._center
        return d if self._mask is None else d * self._mask

    def _bump(self, d: np.ndarray) -> np.ndarray:
        r2 = coordinate_sum(d * d)  # r2 / -y is -r2 / y, one pass fewer
        return self.amplitude * np.exp(r2 / (-2.0 * self._w2))

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self._bump(self._offset(pts))

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        d = self._offset(pts)
        return self._bump(d)[..., None] * (d / -self._w2)

    @property
    def is_constant(self) -> bool:
        # over no axes the distance is 0: the bump is its amplitude
        return self.amplitude == 0 or self.axes == ()


@dataclass(frozen=True)
class RadialPolynomial(FieldSpec):
    """g(|x|) with g a polynomial given by ascending coefficients."""

    coefficients: Tuple[float, ...]

    def __post_init__(self) -> None:
        coefficients = tuple(float(c) for c in self.coefficients)
        if not coefficients:
            raise ValueError("need at least one coefficient")
        object.__setattr__(self, "coefficients", coefficients)
        c = np.array(coefficients)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_dc", np.polynomial.polynomial.polyder(c)
                           if len(c) > 1 else None)

    def value(self, pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        return np.polynomial.polynomial.polyval(r, self._c)

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        dg = np.polynomial.polynomial.polyval(r, self._dc) \
            if self._dc is not None else np.zeros_like(r)
        # radial direction is undefined at the origin; the symmetric limit is 0
        safe_r = np.where(r == 0, 1.0, r)
        scale = np.where(r == 0, 0.0, dg / safe_r)
        return scale[..., None] * pts

    @property
    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coefficients[1:])


@dataclass(frozen=True, eq=False)
class TabulatedField(FieldSpec):
    """Values sampled on the full manifold grid, interpolated multilinearly.

    Evaluation reproduces scipy 1.17's ``RegularGridInterpolator`` with
    ``method="linear"``, ``bounds_error=False`` and ``fill_value=None`` bit
    for bit, in numpy alone: each coordinate falls in the cell
    ``searchsorted(nodes, x, side="right") - 1``, clipped to the edge cells,
    so points past a bound extrapolate linearly; its distance into the cell
    is ``(x - lo) / (hi - lo)``; the 2**dim corners are summed from +0.0 in
    ``itertools.product`` order, axis 0 outermost, each weighted by the
    product of its per-axis weights (``1 - y`` below, ``y`` above) taken in
    axis order; and a point with a NaN coordinate gives NaN.

    Corners whose weight is exactly zero are skipped.  Such a corner adds
    +-0 to a sum that starts at +0.0, which changes no bit, as long as its
    value and its other weights are finite.  So when every table value is
    finite and every point lies in the table's box (every y in [0, 1]), an
    axis whose y is 0 at every point keeps its lower node alone, with
    weight exactly 1.0, and one whose y is 1 at every point its upper node.
    Central-difference stencils of grid nodes sit on a node on every axis
    but one, so they gather 2 corners of the 2**dim.
    """

    manifold: Manifold
    values: np.ndarray
    has_analytic_gradient = False

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.dtype.kind not in "iuf":
            # float() would take "1.5" or true; scenario numbers never do
            raise ScenarioValidationError(
                f"tabulated values must be numbers, got dtype {vals.dtype}")
        vals = np.asarray(vals, dtype=float)
        if vals.shape != self.manifold.grid_shape:
            raise ScenarioValidationError(
                f"tabulated values shape {vals.shape} does not match grid "
                f"{self.manifold.grid_shape}"
            )
        if np.any(np.isnan(vals)):
            raise ScenarioValidationError("tabulated values contain NaN")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_finite", bool(np.isfinite(vals).all()))
        # corners are gathered by flat index into a C-ordered copy, so the
        # strides come from the shape and not from the caller's layout
        shape = vals.shape
        strides = [math.prod(shape[a + 1:]) for a in range(len(shape))]
        object.__setattr__(self, "_flat", np.ascontiguousarray(vals).ravel())
        # per axis: nodes, cell widths nodes[i + 1] - nodes[i], stride
        nodes = [self.manifold.axis_nodes(a) for a in range(len(shape))]
        object.__setattr__(self, "_axes", tuple(
            (x, np.diff(x), stride) for x, stride in zip(nodes, strides)))

    def value(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1:] != (len(self._axes),):
            raise ValueError(f"points must have {len(self._axes)} "
                             f"components, got shape {pts.shape}")
        dim = len(self._axes)
        cols = pts.reshape(-1, dim).T.copy()  # each axis one contiguous row
        n = cols.shape[1]
        base = 0
        nan = np.zeros(n, dtype=bool)
        ys = []
        for (nodes, widths, stride), x in zip(self._axes, cols):
            i = np.searchsorted(nodes, x, side="right")
            i -= 1
            np.clip(i, 0, len(nodes) - 2, out=i)
            ys.append((x - nodes[i]) / widths[i])
            base = base + i * stride
            nan |= np.isnan(x)
        # per axis: the lone node kept (0 lower, 1 upper), or None for both
        lone = [None] * dim
        if self._finite:
            found = [0 if not y.any() else 1 if (y == 1.0).all() else None
                     for y in ys]
            if all(node is not None or (0.0 <= y.min() and y.max() <= 1.0)
                   for node, y in zip(found, ys)):
                lone = found
        # (flat offset, weight) of the lower and upper node of each axis
        # that keeps both; a lone node's weight is exactly 1.0 and is left out
        sides = []
        for (_, _, stride), y, node in zip(self._axes, ys, lone):
            if node is None:
                sides.append(((0, 1 - y), (stride, y)))
            elif node == 1:
                base = base + stride
        out = np.zeros(n)
        for corner in itertools.product(*sides):
            offset = sum(o for o, _ in corner)
            # the weights multiply left to right in axis order; 1 * w is w
            # bit for bit, and x * 1 is x
            out += self._flat[base + offset] * math.prod(w for _, w in corner)
        out[nan] = np.nan
        return out.reshape(pts.shape[:-1])

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        raise ScenarioValidationError(
            "tabulated fields have no analytic gradient; use central differences"
        )


@dataclass(frozen=True)
class CombinationField(FieldSpec):
    """Linear combination sum_i c_i * spec_i."""

    terms: Tuple[Tuple[float, FieldSpec], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "terms", tuple((float(c), s) for c, s in self.terms))

    @property
    def has_analytic_gradient(self) -> bool:  # type: ignore[override]
        return all(s.has_analytic_gradient for _, s in self.terms)

    def value(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[:-1])
        for c, s in self.terms:
            out = out + c * evaluate(s, pts)
        return out

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        # the +0.0 start turns -0 into +0; 1.0 * x is x
        out = np.zeros(pts.shape)
        for c, s in self.terms:
            g = analytic_gradient(s, pts)
            out += g if c == 1.0 else c * g
        return out

    @property
    def is_constant(self) -> bool:
        return all(c == 0 or s.is_constant for c, s in self.terms)


# The share of a ``shared_evaluation`` block: one table, keyed by the kind
# of quantity and the ids of the objects it is computed from.
_SHARE: ContextVar[Optional[Dict[tuple, tuple]]] = ContextVar(
    "scalefield_share", default=None)


@contextmanager
def shared_evaluation() -> Iterator[None]:
    """Evaluate each spec once per point array inside the block.

    A block inside another joins its share, which ends with the outer
    block, also when it raises, so no value outlives the call that opened it.
    """
    token = None if _SHARE.get() is not None else _SHARE.set({})
    try:
        yield
    finally:
        if token is not None:
            _SHARE.reset(token)


def _once(share: Dict[tuple, tuple], key: tuple, compute: Callable,
          *args) -> object:
    """compute(*args), once per key in ``share``.  The entry holds compute
    and args, which hold the objects whose ids the key names, so no id is
    reused while the block lasts."""
    entry = share.get(key)
    if entry is None:
        entry = share[key] = (compute, args, compute(*args))
    return entry[2]


def evaluate(spec: FieldSpec, pts: np.ndarray) -> np.ndarray:
    """spec.value(pts), the one call of a spec's values: computed once per
    (spec, pts) inside a share.  The result is shared, so callers must not
    write into it."""
    share = _SHARE.get()
    if share is None:
        return spec.value(pts)
    return _once(share, ("value", id(spec), id(pts)), spec.value, pts)


def analytic_gradient(spec: FieldSpec, pts: np.ndarray) -> np.ndarray:
    """spec.gradient(pts), the one call of a spec's analytic gradient:
    computed once per (spec, pts) inside a share, as ``evaluate`` computes
    values.  Callers must not write into it."""
    share = _SHARE.get()
    if share is None:
        return spec.gradient(pts)
    return _once(share, ("gradient", id(spec), id(pts)), spec.gradient, pts)


def _shifted(pts: np.ndarray, axis: int, h: float
             ) -> Tuple[np.ndarray, np.ndarray]:
    # pts + h e_axis and pts - h e_axis bit for bit, without broadcasting a
    # row over the points: x + 0.0 turns -0 into +0 as x + 0 does, and
    # x - 0.0 is x
    plus = pts + 0.0
    plus[..., axis] += h
    minus = pts.copy()
    minus[..., axis] -= h
    return plus, minus


def _stencil(pts: np.ndarray, axis: int, h: float
             ) -> Tuple[np.ndarray, np.ndarray]:
    """pts shifted by +h and by -h along ``axis``; inside a share, the same
    two arrays for every caller."""
    share = _SHARE.get()
    if share is None:
        return _shifted(pts, axis, h)
    return _once(share, ("stencil", id(pts), axis, h), _shifted, pts, axis, h)


@dataclass(frozen=True)
class AxisDerivativeField(FieldSpec):
    """The scalar field x -> d(base)/dx_axis, column ``axis`` of ``field``'s
    ``gradient_of``.  Used to carry gradient terms of gauge transforms as
    evaluable fields.
    """

    base: FieldSpec
    axis: int
    field: ScalingField
    has_analytic_gradient = False

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self.field.gradient_of(self.base, pts)[..., self.axis]

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        raise ScenarioValidationError(
            "derivative fields have no analytic gradient; use central differences"
        )

    @property
    def is_constant(self) -> bool:
        return self.base.is_constant


GRADIENT_MODES = ("analytic", "central")


@dataclass(frozen=True)
class ScalingField:
    """f(x) = exp(theta(x) + i phi(x)) over a manifold.

    ``gradient_mode`` selects analytic gradients or second-order central
    differences with step ``gradient_step`` (defaults to the smallest grid
    spacing).
    """

    manifold: Manifold
    theta: FieldSpec
    phi: FieldSpec = field(default_factory=ConstantField)
    gradient_mode: str = "analytic"
    gradient_step: Optional[float] = None

    def __post_init__(self) -> None:
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(f"unknown gradient_mode {self.gradient_mode!r}")
        for name, spec in (("theta", self.theta), ("phi", self.phi)):
            if not self.differentiates(spec):
                raise ScenarioValidationError(
                    f"{name} has no analytic gradient; "
                    "use central-difference mode"
                )
        if self.gradient_step is None:
            object.__setattr__(self, "gradient_step", min(self.manifold.spacing))
        elif not self.gradient_step > 0:
            raise ValueError("gradient step must be positive")
        # probe once so malformed specs fail at construction, not mid-run
        center = np.array([(lo + hi) / 2.0 for lo, hi in self.manifold.bounds])
        evaluate(self.theta, center[None, :])
        evaluate(self.phi, center[None, :])

    # -- raw components ----------------------------------------------------

    def theta_at(self, x) -> np.ndarray:
        pts = self.manifold.require_inside(x)
        return np.asarray(evaluate(self.theta, pts))

    def phi_at(self, x) -> np.ndarray:
        pts = self.manifold.require_inside(x)
        return np.asarray(evaluate(self.phi, pts))

    def differentiates(self, spec: FieldSpec) -> bool:
        """Whether ``gradient_of`` can take spec's gradient: by central
        differences always, analytically only if spec has one."""
        return self.gradient_mode == "central" or spec.has_analytic_gradient

    def differences(self, fn: Callable[[np.ndarray], np.ndarray],
                    pts: np.ndarray, axes) -> np.ndarray:
        """Second-order central differences with step ``gradient_step`` of
        ``fn``, which maps points (..., dim) to real or complex values (...),
        along each of ``axes``: shape (..., len(axes)).  Every point needs
        the step as margin on every axis."""
        h = self.gradient_step
        if not self.manifold.margin_inside(pts, h):
            raise BoundaryPoint(
                f"central differences need {h} of margin on every axis"
            )
        out = None
        for i, axis in enumerate(axes):
            plus, minus = _stencil(pts, axis, h)
            d = (fn(plus) - fn(minus)) / (2.0 * h)
            if out is None:
                out = np.empty(np.shape(d) + (len(axes),), np.result_type(d))
            out[..., i] = d
        return out

    def gradient_of(self, spec: FieldSpec, pts: np.ndarray) -> np.ndarray:
        """Gradient of spec at in-grid points, analytic or central by mode.
        Inside a share it is computed once per (spec, points), and a central
        one once per step, for every field that asks; callers must not write
        into it."""
        if self.gradient_mode == "analytic":
            return analytic_gradient(spec, pts)
        args = (partial(evaluate, spec), pts, range(self.manifold.dimension))
        share = _SHARE.get()
        if share is None:
            return self.differences(*args)
        return _once(share, ("central", id(spec), id(pts), self.gradient_step),
                     self.differences, *args)

    def gamma_delta(self, x) -> Tuple[np.ndarray, np.ndarray]:
        pts = self.manifold.require_inside(x)
        return self.gradient_of(self.theta, pts), self.gradient_of(self.phi, pts)


def eval_f(fieldref: ScalingField, x) -> np.ndarray:
    """f(x) = exp(theta + i phi), vectorized over points."""
    pts = fieldref.manifold.require_inside(x)
    return np.exp(evaluate(fieldref.theta, pts)
                  + 1j * evaluate(fieldref.phi, pts))


def gradients(fieldref: ScalingField, x) -> Tuple[np.ndarray, np.ndarray]:
    """(Gamma, Delta) = (grad theta, grad phi) at x."""
    return fieldref.gamma_delta(x)


def connection_factor(fieldref: ScalingField, y, x) -> np.ndarray:
    """f(y)/f(x) = exp(theta(y) - theta(x) + i (phi(y) - phi(x))).

    The exponent-difference form makes the factor exactly 1 at y = x, keeps
    the cocycle identity tight, and cancels constant shifts of theta and phi
    to machine precision.
    """
    log = (fieldref.theta_at(y) - fieldref.theta_at(x)) \
        + 1j * (fieldref.phi_at(y) - fieldref.phi_at(x))
    return np.exp(log)
