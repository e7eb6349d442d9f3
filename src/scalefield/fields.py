"""Scalar field families and the complex scaling field f = exp(theta + i phi).

Field specs evaluate on point arrays of shape (..., dim) and return values of
shape (...); analytic families also provide exact gradients of shape
(..., dim).  The scaling field bundles theta and phi over a manifold and
exposes the quantities everything downstream consumes: f itself, the real
and imaginary connection components (Gamma, Delta) = (grad theta, grad phi),
and ``connection_factor``, the one f(y)/f(x) that outcomes and packets use.
Every finite difference in the package, of theta, phi, a transform's alpha
or a matter field psi, is ``central_difference`` of a function of points.
The connection-modified derivative lives in ``gauge``: without a gauge field
it is ``gauge_covariant_derivative`` with g_r = g_i = 1 and a zero photon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

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
        return self.amplitude == 0


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
        base = 0
        sides = []  # per axis: (flat offset, weight) of the lower and upper node
        for a, (nodes, stride) in enumerate(self._axes):
            x = xi[:, a]
            i = np.clip(np.searchsorted(nodes, x, side="right") - 1,
                        0, len(nodes) - 2)
            y = (x - nodes[i]) / (nodes[i + 1] - nodes[i])
            base = base + i * stride
            sides.append(((0, 1 - y), (stride, y)))
        out = np.array([0.0])
        for corner in itertools.product(*sides):
            offset = sum(o for o, _ in corner)
            weight = math.prod((w for _, w in corner), start=1.0)
            out = out + self._flat[base + offset] * weight
        out[np.isnan(xi).any(axis=-1)] = np.nan
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
            out = out + c * s.value(pts)
        return out

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape)
        for c, s in self.terms:
            out = out + c * s.gradient(pts)
        return out

    @property
    def is_constant(self) -> bool:
        return all(c == 0 or s.is_constant for c, s in self.terms)


def central_difference(fn: Callable[[np.ndarray], np.ndarray],
                       pts: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order central difference along ``axis``, step h, of ``fn``,
    which maps points (..., dim) to real or complex values (...)."""
    offset = np.zeros(pts.shape[-1])
    offset[axis] = h
    return (fn(pts + offset) - fn(pts - offset)) / (2.0 * h)


@dataclass(frozen=True)
class AxisDerivativeField(FieldSpec):
    """The scalar field x -> d(base)/dx_axis.

    With ``fd_step`` set, the derivative is a central difference of the base
    values; otherwise the base must provide an analytic gradient.  Used to
    carry gradient terms of gauge transforms as evaluable fields.
    """

    base: FieldSpec
    axis: int
    fd_step: Optional[float] = None
    has_analytic_gradient = False

    def value(self, pts: np.ndarray) -> np.ndarray:
        if self.fd_step is None:
            return self.base.gradient(pts)[..., self.axis]
        return central_difference(self.base.value, pts, self.axis, self.fd_step)

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
        if self.gradient_mode == "analytic":
            for name, spec in (("theta", self.theta), ("phi", self.phi)):
                if not spec.has_analytic_gradient:
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

    def require_stencil(self, pts: np.ndarray) -> None:
        """Refuse points where a central difference would leave the grid."""
        h = self.gradient_step
        if (self.gradient_mode == "central"
                and not self.manifold.margin_inside(pts, h).all()):
            raise BoundaryPoint(
                f"central differences need {h} of margin on every axis"
            )

    def gradient_of(self, spec: FieldSpec, pts: np.ndarray) -> np.ndarray:
        """Gradient of spec at in-grid points, analytic or central by mode."""
        if self.gradient_mode == "analytic":
            return spec.gradient(pts)
        self.require_stencil(pts)
        h = self.gradient_step
        out = np.empty(pts.shape)
        for axis in range(self.manifold.dimension):
            out[..., axis] = central_difference(spec.value, pts, axis, h)
        return out

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
