"""Fixed-step integration of the scaled geodesic equation.

The equation of motion is, per coordinate mu,

    d2q^mu/dtau2 = -(Gamma . dq/dtau) dq^mu/dtau - eta^{mu mu} Gamma_mu(q)

with Gamma = grad theta.  The drag contraction Gamma . dq/dtau is the plain
Euclidean sum by default; a Minkowski contraction (eta inserted) is kept as
an option since either reading is defensible.  With Gamma identically zero
both reduce to d2q/dtau2 = 0.

Stepping is classical fourth-order Runge-Kutta on the stacked state (q, v)
with a fixed step, so halving it shrinks the endpoint error sixteenfold on
smooth fields.  There is one RK4 loop, over a batch of N states of shape
(N, 2 dim) (``integrate_geodesics``), which takes each RK4 stage in one call
for all N; one trajectory (``integrate_geodesic``) is the batch of one.  A
trajectory's states fill one table of rows [tau | q | v]; one that exits the
manifold keeps its rows so far, still useful, with `left_domain` set.  A row
whose step exits stops there alone, and that step is redone for each other
row by itself, so every row of a batch is bit for bit its integration as a
batch of one.

A scenario's geodesic tasks share batches: validation puts the tasks that
share tau_end, h_tau and drag contraction, and so one step count and step,
into one ``GeodesicBatch`` in task order, while their tables together hold
at most MAX_GEODESIC_STEPS + 1 rows, the most one task may hold.  Each task
still calls ``integrate_geodesic`` for its own trajectory; the first call of
a batch integrates it all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoundaryPoint, OutOfBounds
from .fields import ScalingField
from .manifold import Manifold
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


def _minkowski_drag(contraction: str) -> bool:
    if contraction not in ("euclidean", "minkowski"):
        raise ValueError(f"unknown drag contraction {contraction!r}")
    return contraction == "minkowski"


def rk4_steps(ratio: float) -> int:
    """Equal RK4 steps for tau_end / h_tau = ratio: the nearest, at least 1."""
    return max(1, round(ratio))


def _rate(y: np.ndarray, fieldref: ScalingField, minkowski: bool,
          neg_eta: np.ndarray) -> np.ndarray:
    """dy/dtau of the states y, shape (N, 1, 2 dim) with rows (q, v).

    The field gets the points as (N, 1, dim), so a linear spec's pts @ a
    reduces each point as np.dot reduces one, bit for bit, where (N, dim) @ a
    would take BLAS gemv, whose sums differ; np.vecdot contracts the drag
    the same way.  The acceleration is the pull -eta Gamma (``neg_eta`` is
    -eta) less the drag (Gamma . v) v, or ((eta Gamma) . v) v, which
    contracts the pull negated: no stage multiplies by a weight.
    """
    dim = neg_eta.shape[-1]
    v = y[..., dim:]
    gamma = fieldref.gradient_of(fieldref.theta, y[..., :dim])
    pull = neg_eta * gamma
    c = np.vecdot(-pull if minkowski else gamma, v, keepdims=True)
    return np.concatenate((v, pull - c * v), axis=-1)


def _step(y: np.ndarray, h: float, m: Manifold, args) -> np.ndarray:
    """One RK4 step of the states y.  Raises OutOfBounds or BoundaryPoint
    if a stage point or the end of any row is off the grid, or lacks the
    margin of central differences, which the field tests at each stage.
    The bounds are tested once, over stage points 2 to 4 and the end; the
    first stage's point is y, which passed the last step's test or the
    start's."""
    z = np.empty((4, *y.shape))  # stage points 2 to 4, then the end
    k1 = _rate(y, *args)
    k2 = _rate(np.add(y, 0.5 * h * k1, out=z[0]), *args)
    k3 = _rate(np.add(y, 0.5 * h * k2, out=z[1]), *args)
    k4 = _rate(np.add(y, h * k3, out=z[2]), *args)
    y = np.add(y, (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), out=z[3])
    m.require_inside(z[..., :m.dimension])
    return y


def _step_each(y: np.ndarray, h: float, m: Manifold,
               args) -> Tuple[np.ndarray, np.ndarray]:
    """Each row of the states y stepped by itself: the stepped rows that
    stayed on the domain, and the mask of those rows."""
    stepped, ok = [], np.zeros(len(y), dtype=bool)
    for i in range(len(y)):
        try:
            stepped.append(_step(y[i:i + 1], h, m, args))
            ok[i] = True
        except (OutOfBounds, BoundaryPoint):
            # central-difference gradients shrink the usable region by
            # their stencil margin; either way the step cannot be completed
            pass
    return np.array(stepped).reshape(-1, *y.shape[1:]), ok


def _integrate(y: np.ndarray, fieldref: ScalingField, tau_end: float,
               h_tau: float, drag_contraction: str
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The one RK4 loop, from tau = 0 to tau_end with step ~h_tau (exact
    divisor), over the states y, shape (N, 1, 2 dim).

    Returns the tables of rows [tau | q | v], shape (N, n + 1, 1 + 2 dim),
    and the steps each row completed, shape (N,).
    """
    if not h_tau > 0:
        raise ValueError("step must be positive")
    if not tau_end > 0:
        raise ValueError("tau_end must be positive")
    m = fieldref.manifold
    # -eta shaped as the points: numpy multiplies equal shapes faster than
    # it broadcasts, and a batch of one has them
    neg_eta = -m.metric_diagonal.reshape(1, 1, -1)
    args = (fieldref, _minkowski_drag(drag_contraction), neg_eta)
    n = rk4_steps(tau_end / h_tau)
    h = tau_end / n
    m.require_inside(y[..., :m.dimension])
    table = np.empty((len(y), n + 1, y.shape[-1] + 1))
    table[:, :, 0] = h * np.arange(n + 1)
    table[:, 0, 1:] = y[:, 0]
    done = np.full(len(y), n)
    live = slice(None)  # the rows still stepping: all, until one stops
    for k in range(n):
        try:
            y = _step(y, h, m, args)
        except (OutOfBounds, BoundaryPoint):
            y, ok = _step_each(y, h, m, args)
            live = np.flatnonzero(done == n)
            done[live[~ok]] = k
            live = live[ok]
            if not live.size:
                break
        table[live, k + 1, 1:] = y[:, 0]
    return table, done


def _trajectory(table: np.ndarray, steps: int) -> Trajectory:
    """One state table after ``steps`` steps; one that stopped early keeps
    a copy of the rows it reached, which frees the rows it never did."""
    if steps < len(table) - 1:
        return Trajectory(table[:steps + 1].copy(), left_domain=True)
    return Trajectory(table)


@dataclass(eq=False)
class GeodesicBatch:
    """States that ``integrate_geodesic`` integrates as one batch, all with
    the same field, tau_end, h_tau and drag contraction: the first call for
    any of them integrates them all, and each call takes its own state's
    trajectory out of the batch."""

    states: List[GeodesicState] = field(default_factory=list)
    ready: Dict[int, Trajectory] = field(default_factory=dict)  # by id(state)


def integrate_geodesics(states: Sequence[GeodesicState],
                        fieldref: ScalingField, tau_end: float, h_tau: float,
                        drag_contraction: str = "euclidean"
                        ) -> List[Trajectory]:
    """``integrate_geodesic`` of each state, as one batch: each RK4 stage is
    one call for all of them, and each trajectory is bit for bit the one
    its state gives as a batch of one.  ValueError if a state's dimension
    is not the manifold's."""
    if not states:
        return []
    dim = fieldref.manifold.dimension
    for s in states:
        if len(s.position) != dim:
            raise ValueError(f"a state of dimension {len(s.position)} "
                             f"on a manifold of dimension {dim}")
    y = np.array([[np.concatenate((s.position, s.velocity))]
                  for s in states])
    tables, done = _integrate(y, fieldref, tau_end, h_tau, drag_contraction)
    return [_trajectory(t, k) for t, k in zip(tables, done)]


def integrate_geodesic(state0: GeodesicState, fieldref: ScalingField,
                       tau_end: float, h_tau: float,
                       drag_contraction: str = "euclidean",
                       batch: Optional[GeodesicBatch] = None) -> Trajectory:
    """Integrate from tau = 0 to tau_end with step ~h_tau (exact divisor):
    the batch of state0 alone.

    With ``batch``, a GeodesicBatch holding state0, the first call
    integrates the whole batch with these arguments and each call returns
    state0's trajectory from it.
    """
    if batch is None:
        return integrate_geodesics([state0], fieldref, tau_end, h_tau,
                                   drag_contraction)[0]
    if id(state0) not in batch.ready:
        batch.ready = dict(zip(
            map(id, batch.states),
            integrate_geodesics(batch.states, fieldref, tau_end, h_tau,
                                drag_contraction)))
    return batch.ready.pop(id(state0))


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
