"""Fixed-step integration of the scaled geodesic equation.

The equation of motion is, per coordinate mu,

    d2q^mu/dtau2 = -(Gamma . dq/dtau) dq^mu/dtau - eta^{mu mu} Gamma_mu(q)

with Gamma = grad theta.  The drag contraction Gamma . dq/dtau is the plain
Euclidean sum by default; a Minkowski contraction (eta inserted) is kept as
an option since either reading is defensible.  With Gamma identically zero
both reduce to d2q/dtau2 = 0.

Stepping is classical fourth-order Runge-Kutta with a fixed step, so halving
the step shrinks the endpoint error sixteenfold on smooth fields.  A
trajectory that exits the manifold is returned truncated with `left_domain`
set rather than raised away: the partial data is still useful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import BoundaryPoint, OutOfBounds
from .fields import ScalingField
from .paths import SplinePath


@dataclass(frozen=True, eq=False)
class GeodesicState:
    position: np.ndarray
    velocity: np.ndarray
    tau: float = 0.0

    def __post_init__(self) -> None:
        q = np.asarray(self.position, dtype=float)
        v = np.asarray(self.velocity, dtype=float)
        if q.shape != v.shape or q.ndim != 1:
            raise ValueError("position and velocity must be equal-length vectors")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(v))):
            raise ValueError("state must be finite")
        object.__setattr__(self, "position", q)
        object.__setattr__(self, "velocity", v)
        object.__setattr__(self, "tau", float(self.tau))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled states q(tau_k), v(tau_k) on a uniform tau grid."""

    taus: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    left_domain: bool = False

    def __post_init__(self) -> None:
        for name in ("taus", "positions", "velocities"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        n = self.taus.shape[0]
        if self.positions.shape[0] != n or self.velocities.shape[0] != n:
            raise ValueError("state arrays must share the tau axis")

    def __len__(self) -> int:
        return self.taus.shape[0]

    def state(self, k: int) -> GeodesicState:
        return GeodesicState(self.positions[k], self.velocities[k],
                             float(self.taus[k]))

    @property
    def final(self) -> GeodesicState:
        return self.state(len(self) - 1)


def _drag_weights(fieldref: ScalingField, contraction: str) -> np.ndarray:
    if contraction == "euclidean":
        return np.ones(fieldref.manifold.dimension)
    if contraction == "minkowski":
        return fieldref.manifold.metric_diagonal
    raise ValueError(f"unknown drag contraction {contraction!r}")


def _acceleration(q: np.ndarray, v: np.ndarray, fieldref: ScalingField,
                  drag: np.ndarray, eta: np.ndarray) -> np.ndarray:
    gamma, _ = fieldref.gamma_delta(q)
    return -(np.dot(drag * gamma, v)) * v - eta * gamma


def integrate_geodesic(state0: GeodesicState, fieldref: ScalingField,
                       tau_end: float, h_tau: float,
                       drag_contraction: str = "euclidean") -> Trajectory:
    """Integrate from state0 to tau_end with step ~h_tau (exact divisor)."""
    if not h_tau > 0:
        raise ValueError("step must be positive")
    if not tau_end > 0:
        raise ValueError("tau_end must be positive")
    m = fieldref.manifold
    drag = _drag_weights(fieldref, drag_contraction)
    eta = m.metric_diagonal
    n = max(1, int(round(tau_end / h_tau)))
    h = tau_end / n

    q = m.require_inside(state0.position).astype(float)
    v = state0.velocity.astype(float)
    taus = [state0.tau]
    qs = [q]
    vs = [v]
    for k in range(n):
        try:
            k1q, k1v = v, _acceleration(q, v, fieldref, drag, eta)
            k2q = v + 0.5 * h * k1v
            k2v = _acceleration(q + 0.5 * h * k1q, k2q, fieldref, drag, eta)
            k3q = v + 0.5 * h * k2v
            k3v = _acceleration(q + 0.5 * h * k2q, k3q, fieldref, drag, eta)
            k4q = v + h * k3v
            k4v = _acceleration(q + h * k3q, k4q, fieldref, drag, eta)
            q_next = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
            v_next = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
            if not m.contains(q_next):
                raise OutOfBounds("stepped outside the grid")
        except (OutOfBounds, BoundaryPoint):
            # central-difference gradients shrink the usable region by their
            # stencil margin; either way the step cannot be completed
            return Trajectory(np.array(taus), np.array(qs), np.array(vs),
                              left_domain=True)
        q, v = q_next, v_next
        taus.append(state0.tau + (k + 1) * h)
        qs.append(q)
        vs.append(v)
    return Trajectory(np.array(taus), np.array(qs), np.array(vs))


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
