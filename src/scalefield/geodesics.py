"""Fixed-step integration of the scaled geodesic equation.

The equation of motion is, per coordinate mu,

    d2q^mu/dtau2 = -(Gamma . dq/dtau) dq^mu/dtau - eta^{mu mu} Gamma_mu(q)

with Gamma = grad theta.  The drag contraction Gamma . dq/dtau is the plain
Euclidean sum by default; a Minkowski contraction (eta inserted) is kept as
an option since either reading is defensible.  With Gamma identically zero
both reduce to d2q/dtau2 = 0.

Stepping is classical fourth-order Runge-Kutta on the stacked state (q, v)
with a fixed step, so halving it shrinks the endpoint error sixteenfold on
smooth fields.  States fill one table of rows [tau | q | v]; a trajectory that
exits the manifold keeps its rows so far, still useful, with `left_domain` set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryPoint, OutOfBounds
from .fields import ScalingField
from .paths import SplinePath


@dataclass(frozen=True, eq=False)
class GeodesicState:
    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.position, dtype=float)
        v = np.asarray(self.velocity, dtype=float)
        if q.shape != v.shape or q.ndim != 1:
            raise ValueError("position and velocity must be equal-length vectors")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(v))):
            raise ValueError("state must be finite")
        object.__setattr__(self, "position", q)
        object.__setattr__(self, "velocity", v)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled states on a uniform tau grid: one table of rows [tau | q | v],
    which a geodesic task writes as its CSV; the columns are views of it."""

    table: np.ndarray
    left_domain: bool = False

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2 or table.shape[1] % 2 == 0:
            raise ValueError("table must be 2-D with rows [tau | q | v]")
        object.__setattr__(self, "table", table)

    def __len__(self) -> int:
        return self.table.shape[0]

    @property
    def taus(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def positions(self) -> np.ndarray:
        return self.table[:, 1:1 + self.table.shape[1] // 2]

    @property
    def velocities(self) -> np.ndarray:
        return self.table[:, 1 + self.table.shape[1] // 2:]

    @property
    def final(self) -> GeodesicState:
        return GeodesicState(self.positions[-1], self.velocities[-1])


def _drag_weights(fieldref: ScalingField, contraction: str) -> np.ndarray:
    if contraction == "euclidean":
        return np.ones(fieldref.manifold.dimension)
    if contraction == "minkowski":
        return fieldref.manifold.metric_diagonal
    raise ValueError(f"unknown drag contraction {contraction!r}")


def rk4_steps(ratio: float) -> int:
    """Equal RK4 steps for tau_end / h_tau = ratio: the nearest, at least 1."""
    return max(1, round(ratio))


def _rate(y: np.ndarray, fieldref: ScalingField, drag: np.ndarray,
          eta: np.ndarray) -> np.ndarray:
    """dy/dtau of the stacked state y = (q, v), asking the field for Gamma."""
    q, v = y.reshape(2, -1)
    gamma = fieldref.gradient_of(fieldref.theta,
                                 fieldref.manifold.require_inside(q))
    return np.concatenate((v, -(np.dot(drag * gamma, v)) * v - eta * gamma))


def integrate_geodesic(state0: GeodesicState, fieldref: ScalingField,
                       tau_end: float, h_tau: float,
                       drag_contraction: str = "euclidean") -> Trajectory:
    """Integrate from tau = 0 to tau_end with step ~h_tau (exact divisor)."""
    if not h_tau > 0:
        raise ValueError("step must be positive")
    if not tau_end > 0:
        raise ValueError("tau_end must be positive")
    m = fieldref.manifold
    args = (fieldref, _drag_weights(fieldref, drag_contraction),
            m.metric_diagonal)
    n = rk4_steps(tau_end / h_tau)
    h = tau_end / n
    dim = m.dimension
    table = np.empty((n + 1, 1 + 2 * dim))
    table[:, 0] = h * np.arange(n + 1)
    y = table[0, 1:] = np.concatenate((m.require_inside(state0.position),
                                       state0.velocity))
    for k in range(n):
        try:
            k1 = _rate(y, *args)
            k2 = _rate(y + 0.5 * h * k1, *args)
            k3 = _rate(y + 0.5 * h * k2, *args)
            k4 = _rate(y + h * k3, *args)
            y = table[k + 1, 1:] = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not m.contains(y[:dim]):
                raise OutOfBounds("stepped outside the grid")
        except (OutOfBounds, BoundaryPoint):
            # central-difference gradients shrink the usable region by their
            # stencil margin; either way the step cannot be completed (the
            # copy frees the rows never reached)
            table = table[:k + 1].copy()
            break
    return Trajectory(table, left_domain=len(table) <= n)


def trajectory_path(trajectory: Trajectory) -> SplinePath:
    """Cubic Hermite through the trajectory, reparameterized to s in [0,1].

    The slope at each state is its integrated velocity times the tau span
    (chain rule), so the path needs no solve and carries the true exit
    directions.
    """
    span = float(trajectory.taus[-1] - trajectory.taus[0])
    if span <= 0:
        raise ValueError("trajectory must span a positive tau interval")
    return SplinePath(trajectory.positions, trajectory.velocities * span)
