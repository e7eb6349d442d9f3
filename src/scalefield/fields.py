"""Scalar field families and the complex scaling field f = exp(theta + i phi).

Field specs evaluate on point arrays of shape (..., dim) and return values of
shape (...); analytic families also provide exact gradients of shape
(..., dim).  The scaling field bundles theta and phi over a manifold and
exposes the quantities everything downstream consumes: f itself, the real
and imaginary connection components (Gamma, Delta) = (grad theta, grad phi),
and ``connection_factor``, the one f(y)/f(x) that outcomes and packets use.
How to differentiate is the scaling field's decision alone: ``gradient_of``
and the one-axis ``partial_of`` are analytic or central by its mode, and
every finite difference, of theta, phi, a transform's alpha or a matter
field psi, is its ``differences`` of a function of points.
Inside a ``shared_evaluation`` block, which the gauge residual opens for
each call, every spec is evaluated once per point array and every central
difference takes the same shifted arrays for one (points, axis, step).
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
            mask = np.ones(len(center))
        else:
            object.__setattr__(self, "axes", tuple(int(a) for a in self.axes))
            mask = np.zeros(len(center))
            mask[list(self.axes)] = 1.0
        object.__setattr__(self, "_center", np.array(center))
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "_w2", self.width ** 2)

    def _offset(self, pts: np.ndarray) -> np.ndarray:
        return (pts - self._center) * self._mask

    def _bump(self, d: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-(d * d).sum(axis=-1) / (2.0 * self._w2))

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self._bump(self._offset(pts))

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        d = self._offset(pts)
        return self._bump(d)[..., None] * (-d / self._w2)

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
        # corners are gathered by flat index into a C-ordered copy, so the
        # strides come from the shape and not from the caller's layout
        shape = vals.shape
        strides = [math.prod(shape[a + 1:]) for a in range(len(shape))]
        object.__setattr__(self, "_flat", np.ascontiguousarray(vals).ravel())
        object.__setattr__(self, "_axes", tuple(
            (self.manifold.axis_nodes(a), stride)
            for a, stride in enumerate(strides)))

    def value(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1:] != (len(self._axes),):
            raise ValueError(f"points must have {len(self._axes)} "
                             f"components, got shape {pts.shape}")
        xi = pts.reshape(-1, len(self._axes))
        n, dim = xi.shape
        base = 0
        nan = np.zeros(n, dtype=bool)
        sides = []  # per axis: (flat offset, weight) of the lower and upper node
        for a, (nodes, stride) in enumerate(self._axes):
            x = xi[:, a]
            i = np.clip(np.searchsorted(nodes, x, side="right") - 1,
                        0, len(nodes) - 2)
            y = (x - nodes[i]) / (nodes[i + 1] - nodes[i])
            base = base + i * stride
            nan |= np.isnan(x)
            sides.append(((0, 1 - y), (stride, y)))
        # A corner's weight is the product of its axis weights in axis
        # order; corners come in product order, so prefix[a], the product
        # over axes 0..a, is recomputed only from the first axis whose side
        # changed.  1.0 * w0 is w0 bit for bit, so no leading 1.0 is needed.
        prefix = [None] + [np.empty(n) for _ in range(1, dim)]
        index = np.empty(n, dtype=np.intp)
        term = np.empty(n)
        out = np.zeros(n)
        last = None
        for corner in itertools.product((0, 1), repeat=dim):
            first = 0 if last is None else next(
                a for a in range(dim) if corner[a] != last[a])
            for a in range(first, dim):
                w = sides[a][corner[a]][1]
                prefix[a] = w if a == 0 else np.multiply(prefix[a - 1], w,
                                                         out=prefix[a])
            last = corner
            offset = sum(sides[a][c][0] for a, c in enumerate(corner))
            # indices lie inside the table by construction, so clipping
            # never acts; it only lets take write into term unbuffered
            np.take(self._flat, np.add(base, offset, out=index), out=term,
                    mode="clip")
            np.multiply(term, prefix[-1], out=term)
            np.add(out, term, out=out)
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
        out = np.zeros(pts.shape)
        for c, s in self.terms:
            out = out + c * s.gradient(pts)
        return out

    @property
    def is_constant(self) -> bool:
        return all(c == 0 or s.is_constant for c, s in self.terms)


class _Share:
    """Shifted stencil arrays and spec values of one block, keyed by the
    identity of their arrays and specs.  Each entry holds the objects its
    key names, so no id is reused while the block lasts."""

    def __init__(self) -> None:
        # (id(pts), axis, h) -> (pts, pts + h e_axis, pts - h e_axis)
        self.stencils: Dict[tuple, tuple] = {}
        # (id(spec), id(pts)) -> (spec, pts, spec.value(pts))
        self.values: Dict[tuple, tuple] = {}


_SHARE: ContextVar[Optional[_Share]] = ContextVar("scalefield_share",
                                                  default=None)


@contextmanager
def shared_evaluation() -> Iterator[None]:
    """Evaluate each spec once per point array inside the block.

    The share ends with the block, also when the block raises, so no value
    outlives the call that opened it.
    """
    token = _SHARE.set(_Share())
    try:
        yield
    finally:
        _SHARE.reset(token)


def evaluate(spec: FieldSpec, pts: np.ndarray) -> np.ndarray:
    """spec.value(pts), computed once per (spec, pts) inside a share.  The
    result is shared, so callers must not write into it."""
    share = _SHARE.get()
    if share is None:
        return spec.value(pts)
    key = (id(spec), id(pts))
    entry = share.values.get(key)
    if entry is None:
        entry = share.values[key] = (spec, pts, spec.value(pts))
    return entry[2]


def _stencil(pts: np.ndarray, axis: int, h: float
             ) -> Tuple[np.ndarray, np.ndarray]:
    """pts shifted by +h and by -h along ``axis``; inside a share, the same
    two arrays for every caller."""
    share = _SHARE.get()
    key = (id(pts), axis, h)
    if share is not None and key in share.stencils:
        return share.stencils[key][1:]
    offset = np.zeros(pts.shape[-1])
    offset[axis] = h
    plus, minus = pts + offset, pts - offset
    if share is not None:
        share.stencils[key] = (pts, plus, minus)
    return plus, minus


@dataclass(frozen=True)
class AxisDerivativeField(FieldSpec):
    """The scalar field x -> d(base)/dx_axis, taken by ``field`` as it takes
    every derivative (``ScalingField.partial_of``).  Used to carry gradient
    terms of gauge transforms as evaluable fields.
    """

    base: FieldSpec
    axis: int
    field: ScalingField
    has_analytic_gradient = False

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self.field.partial_of(self.base, self.axis, pts)

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        raise ScenarioValidationError(
            "derivative fields have no analytic gradient; use central differences"
        )

    @property
    def is_constant(self) -> bool:
        return self.base.is_constant


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
        if self.gradient_mode not in ("analytic", "central"):
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
        self.theta.value(center[None, :])
        self.phi.value(center[None, :])

    # -- raw components ----------------------------------------------------

    def theta_at(self, x) -> np.ndarray:
        pts = self.manifold.require_inside(x)
        return np.asarray(self.theta.value(pts))

    def phi_at(self, x) -> np.ndarray:
        pts = self.manifold.require_inside(x)
        return np.asarray(self.phi.value(pts))

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
        if not self.manifold.margin_inside(pts, h).all():
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
        """Gradient of spec at in-grid points, analytic or central by mode."""
        if self.gradient_mode == "analytic":
            return spec.gradient(pts)
        return self.differences(partial(evaluate, spec), pts,
                                range(self.manifold.dimension))

    def partial_of(self, spec: FieldSpec, axis: int,
                   pts: np.ndarray) -> np.ndarray:
        """d spec/dx_axis at in-grid points, analytic or central by mode;
        the other axes are not differenced."""
        if self.gradient_mode == "analytic":
            return spec.gradient(pts)[..., axis]
        return self.differences(partial(evaluate, spec), pts, (axis,))[..., 0]

    def gamma_delta(self, x) -> Tuple[np.ndarray, np.ndarray]:
        pts = self.manifold.require_inside(x)
        return self.gradient_of(self.theta, pts), self.gradient_of(self.phi, pts)


def eval_f(fieldref: ScalingField, x) -> np.ndarray:
    """f(x) = exp(theta + i phi), vectorized over points."""
    pts = fieldref.manifold.require_inside(x)
    return np.exp(fieldref.theta.value(pts) + 1j * fieldref.phi.value(pts))


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
