"""Paths q(s), s in [0,1], and their plain and theta-weighted lengths.

The length integrand is |eta^{mm} dq_m dq_m|^{1/2} with eta the diagonal
metric of the manifold; the absolute value admits null tangents (they just
contribute zero).  The scaled variant weights the integrand by
exp(theta(q(s)) - theta(x_ref)), tying the whole number to one reference
point; change_reference moves that point by a pure exponent factor.

Quadrature is composite Simpson.  Paths advertise their smoothness breaks
via `breakpoints`, and the rule is applied piecewise between breaks, so a
polyline is integrated segment by segment (exactly, for constant speed)
while analytic paths keep the clean fourth-order error decay.  Each piece is
walked in blocks of at most 2**16 nodes, whose partial sums add up to the
length, so a length takes the same memory at any number of steps; a piece
that fits in one block is summed exactly as in a single pass.  One walk
sums both the plain and the weighted integrand (``path_lengths``), so a
path's two lengths cost one evaluation of its tangents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import DegenerateParameterization
from .fields import ScalingField
from .manifold import Manifold


class Path:
    """Base parameterization: position(s) and velocity(s), vectorized."""

    def position(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def velocity(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def piece_velocity(self, s: np.ndarray, a: float, b: float) -> np.ndarray:
        """Velocity at nodes s of the smooth piece [a, b] between breakpoints.

        At a piece's ends this is the one-sided tangent from inside the
        piece; paths without corners just return velocity(s).
        """
        return self.velocity(s)

    def breakpoints(self) -> Tuple[float, ...]:
        return (0.0, 1.0)


@dataclass(frozen=True, eq=False)
class SegmentPath(Path):
    """Straight line from start to end."""

    start: np.ndarray
    end: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        object.__setattr__(self, "end", np.asarray(self.end, dtype=float))
        if self.start.shape != self.end.shape or self.start.ndim != 1:
            raise ValueError("endpoints must be two points of equal dimension")

    def position(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return self.start + s[..., None] * (self.end - self.start)

    def velocity(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return np.broadcast_to(self.end - self.start,
                               s.shape + self.start.shape).copy()


def _cells(s: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Interval index of each s, clipped to [0, 1], among n uniform
    intervals (s = 1 in the last), and its offset there in interval widths."""
    u = np.clip(np.asarray(s, dtype=float), 0.0, 1.0) * n
    idx = np.minimum(u.astype(int), n - 1)
    return idx, u - idx


@dataclass(frozen=True, eq=False)
class PolylinePath(Path):
    """Piecewise straight path through the given vertices, uniform in s."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("need at least two vertices of equal dimension")
        object.__setattr__(self, "vertices", v)

    @property
    def _segments(self) -> int:
        return self.vertices.shape[0] - 1

    def position(self, s: np.ndarray) -> np.ndarray:
        idx, frac = _cells(s, self._segments)
        a = self.vertices[idx]
        return a + frac[..., None] * (self.vertices[idx + 1] - a)

    def velocity(self, s: np.ndarray) -> np.ndarray:
        n = self._segments
        idx, _ = _cells(s, n)
        return (self.vertices[idx + 1] - self.vertices[idx]) * n

    def piece_velocity(self, s: np.ndarray, a: float, b: float) -> np.ndarray:
        # velocity(s) picks the next segment at a vertex; a piece's own
        # tangent is the one at its midpoint.
        s = np.asarray(s, dtype=float)
        return self.velocity(np.full_like(s, 0.5 * (a + b)))

    def breakpoints(self) -> Tuple[float, ...]:
        n = self._segments
        return tuple(k / n for k in range(n + 1))


@dataclass(frozen=True, eq=False)
class SplinePath(Path):
    """Cubic Hermite through uniformly spaced samples with the given dq/ds.

    Each interval is the one cubic that meets both of its samples with both
    of their velocities, so no system is solved.  The path is C1 and is
    treated as one smooth piece by the quadrature.
    """

    samples: np.ndarray
    velocities: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.samples, dtype=float)
        vel = np.asarray(self.velocities, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("need at least two samples of equal dimension")
        if vel.shape != pts.shape:
            raise ValueError("need one velocity per sample")
        object.__setattr__(self, "samples", pts)
        object.__setattr__(self, "velocities", vel)

    def _cubic(self, s: np.ndarray):
        """Offset t in the interval of each s, the interval count n, and
        coefficients of q = p0 + t (c1 + t (c2 + t c3)) in that interval."""
        n = self.samples.shape[0] - 1
        idx, t = _cells(s, n)
        p0, d = self.samples[idx], self.samples[idx + 1] - self.samples[idx]
        c1, m1 = self.velocities[idx] / n, self.velocities[idx + 1] / n
        return (t[..., None], n, p0, c1, 3.0 * d - 2.0 * c1 - m1,
                c1 + m1 - 2.0 * d)

    def position(self, s: np.ndarray) -> np.ndarray:
        t, _, p0, c1, c2, c3 = self._cubic(s)
        return p0 + t * (c1 + t * (c2 + t * c3))

    def velocity(self, s: np.ndarray) -> np.ndarray:
        t, n, _, c1, c2, c3 = self._cubic(s)
        return (c1 + t * (2.0 * c2 + t * (3.0 * c3))) * n


@dataclass(frozen=True, eq=False)
class AnalyticPath(Path):
    """Wraps closed-form position and velocity callables."""

    position_fn: Callable[[np.ndarray], np.ndarray]
    velocity_fn: Callable[[np.ndarray], np.ndarray]

    def position(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(self.position_fn(np.asarray(s, dtype=float)))

    def velocity(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(self.velocity_fn(np.asarray(s, dtype=float)))


@dataclass(frozen=True, eq=False)
class PerturbedPath(Path):
    """Base path plus endpoint-fixed sine bumps on selected axes.

    coefficients has shape (modes, len(axes)); mode k contributes
    coefficients[k] sin((k+1) pi s), which vanishes at both ends.
    """

    base: Path
    coefficients: np.ndarray
    axes: Tuple[int, ...]

    def __post_init__(self) -> None:
        c = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        if c.shape[1] != len(self.axes):
            raise ValueError("one coefficient column per perturbed axis")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "axes", tuple(int(a) for a in self.axes))

    def position(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        q = np.array(self.base.position(s), dtype=float, copy=True)
        k = np.arange(1, self.coefficients.shape[0] + 1)
        bumps = np.sin(np.pi * s[..., None] * k) @ self.coefficients
        q[..., list(self.axes)] += bumps
        return q

    def velocity(self, s: np.ndarray) -> np.ndarray:
        return self._add_bump_velocity(s, self.base.velocity(s))

    def piece_velocity(self, s: np.ndarray, a: float, b: float) -> np.ndarray:
        return self._add_bump_velocity(s, self.base.piece_velocity(s, a, b))

    def _add_bump_velocity(self, s: np.ndarray, base_v: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        v = np.array(base_v, dtype=float, copy=True)
        k = np.arange(1, self.coefficients.shape[0] + 1)
        dbumps = (np.cos(np.pi * s[..., None] * k) * (np.pi * k)) \
            @ self.coefficients
        v[..., list(self.axes)] += dbumps
        return v

    def breakpoints(self) -> Tuple[float, ...]:
        return self.base.breakpoints()


# -- quadrature --------------------------------------------------------------

# nodes evaluated at once: the working memory of a length, whatever its steps
_BLOCK_NODES = 1 << 16


def simpson_pieces(q: Path, steps: int) -> List[Tuple[float, float, int]]:
    """(a, b, n) for each smooth piece [a, b] of q: a total Simpson budget of
    `steps` intervals split by the pieces' lengths in s, even and at least 2
    each.  The quadrature evaluates n + 1 nodes per piece."""
    breaks = q.breakpoints()
    out = []
    for a, b in zip(breaks, breaks[1:]):
        n = int(round(steps * (b - a)))
        n += n % 2
        out.append((a, b, max(2, n)))
    return out


def _simpson_blocks(a: float, b: float, n: int
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Nodes and weights of the n-interval Simpson rule on [a, b], at most
    _BLOCK_NODES at a time.  The nodes are those of np.linspace(a, b, n + 1)
    and the weights 1, 4, 2, ..., 4, 1 times (b - a) / (3n), bit for bit."""
    step = (b - a) / n
    h3 = (b - a) / (3.0 * n)
    for i0 in range(0, n + 1, _BLOCK_NODES):
        k = np.arange(i0, min(i0 + _BLOCK_NODES, n + 1))
        s = k * step + a
        w = np.where(k % 2 == 1, 4.0, 2.0)
        if k[0] == 0:
            w[0] = 1.0
        if k[-1] == n:
            s[-1] = b
            w[-1] = 1.0
        yield s, w * h3


def _integrate(q: Path, m: Manifold, steps: int,
               weight: Optional[Callable[[np.ndarray], np.ndarray]] = None,
               ) -> Tuple[float, float]:
    """(unweighted, weighted) Simpson sums of the length integrand, from one
    walk over the nodes; the weighted sum stays 0.0 without a weight."""
    if steps < 2:
        raise ValueError("need at least 2 quadrature steps")
    eta = m.metric_diagonal
    total = weighted = 0.0
    max_speed = 0.0
    for a, b, n in simpson_pieces(q, steps):
        for s, w in _simpson_blocks(a, b, n):
            v = q.piece_velocity(s, a, b)
            g = np.sqrt(np.abs(np.sum(eta * v * v, axis=-1)))
            max_speed = max(max_speed, float(np.max(np.abs(v))))
            total += float(np.dot(w, g))
            if weight is not None:
                weighted += float(np.dot(w, g * weight(q.position(s))))
    if max_speed == 0.0:
        raise DegenerateParameterization("tangent vanishes along the path")
    return total, weighted


def local_path_length(q: Path, m: Manifold, steps: int = 1000) -> float:
    """Unweighted length, composite Simpson with `steps` intervals."""
    return _integrate(q, m, steps)[0]


def path_lengths(q: Path, fieldref: ScalingField, x_ref,
                 steps: int = 1000) -> Tuple[float, float]:
    """(local, scaled) lengths of q from one Simpson walk: the scaled one
    weights the integrand by exp(theta(q(s)) - theta(x_ref))."""
    t0 = float(fieldref.theta_at(x_ref))

    def weight(pts: np.ndarray) -> np.ndarray:
        return np.exp(fieldref.theta_at(pts) - t0)

    return _integrate(q, fieldref.manifold, steps, weight)


def scaled_path_length(q: Path, fieldref: ScalingField, x_ref,
                       steps: int = 1000) -> float:
    """Length with weight exp(theta(q(s)) - theta(x_ref))."""
    return path_lengths(q, fieldref, x_ref, steps)[1]


def change_reference(length: float, fieldref: ScalingField, frm, to) -> float:
    """Re-expresses a scaled length at another reference point."""
    t_from = float(fieldref.theta_at(frm))
    t_to = float(fieldref.theta_at(to))
    return length * float(np.exp(t_from - t_to))


# -- brute-force variational test --------------------------------------------

PERTURBATION_MODES = 5


@dataclass(frozen=True)
class VariationalReport:
    base_length: float
    perturbed_lengths: Tuple[float, ...]
    tolerance: float

    @property
    def fraction_not_shorter(self) -> float:
        wins = sum(1 for L in self.perturbed_lengths
                   if L >= self.base_length - self.tolerance)
        return wins / len(self.perturbed_lengths)

    @property
    def minimizes(self) -> bool:
        return self.fraction_not_shorter == 1.0


def variational_check(q_star: Path, fieldref: ScalingField,
                      perturbations: int = 100, amplitude: float = 1e-2,
                      seed: int = 0, steps: int = 2000,
                      tolerance: float = 1e-7) -> VariationalReport:
    """Compare q_star's scaled length against random endpoint-fixed rivals.

    Rivals add the first PERTURBATION_MODES sine modes with uniform random
    coefficients of size `amplitude` on the manifold's spatial axes.  A
    minimizing path beats every rival up to the quadrature tolerance.
    Lengths are taken relative to the path's start; another reference point
    would rescale every length by the same factor.
    """
    x_ref = q_star.position(np.array(0.0))
    axes = fieldref.manifold.spatial_axes
    rng = np.random.default_rng(seed)
    base = scaled_path_length(q_star, fieldref, x_ref, steps)
    lengths = []
    for _ in range(perturbations):
        coeff = amplitude * rng.uniform(-1.0, 1.0,
                                        size=(PERTURBATION_MODES, len(axes)))
        rival = PerturbedPath(q_star, coeff, axes)
        lengths.append(scaled_path_length(rival, fieldref, x_ref, steps))
    return VariationalReport(base, tuple(lengths), tolerance)
