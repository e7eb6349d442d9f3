"""Wave packets on the spatial grid and their scaled representations.

A packet holds one complex amplitude per spatial node.  Localizing it at a
reference point x0 multiplies each amplitude by f(w)/f(x0).  The quotient is
evaluated as exp((theta(w)-theta(x0)) + i(phi(w)-phi(x0))): any overall level
c of the structure appears in numerator and denominator alike, so it drops
out before a single float is produced, and constant shifts of theta or phi
cancel to rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import OutOfBounds, ZeroLevel
from .fields import ScalingField, connection_factor
from .manifold import Manifold, coordinate_major


def slice_time(manifold: Manifold,
               time_slice: Optional[float]) -> Optional[float]:
    """The time of a packet's spatial slice: required and inside the bounds
    on a 4-dimensional grid, None on a 3-dimensional one."""
    if manifold.dimension == 3:
        if time_slice is not None:
            raise ValueError("time_slice only applies to 4-dimensional grids")
        return None
    if time_slice is None:
        raise ValueError("time_slice required on a 4-dimensional grid")
    t = float(time_slice)
    lo, hi = manifold.bounds[0]
    if not lo <= t <= hi:
        raise OutOfBounds(f"time_slice {t} outside [{lo}, {hi}]")
    return t


@dataclass(frozen=True, eq=False)
class WavePacket:
    """Complex amplitudes over the spatial slice of a manifold grid.

    For a 4-dimensional manifold the slice sits at the fixed time coordinate
    `time_slice`; for 3 dimensions the slice is the whole grid and
    `time_slice` must stay None.
    """

    manifold: Manifold
    amplitudes: np.ndarray
    time_slice: Optional[float] = None

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        shape = self.spatial_shape
        if amp.shape != shape:
            raise ValueError(
                f"amplitudes shape {amp.shape} does not match the spatial "
                f"grid {shape}"
            )
        object.__setattr__(self, "time_slice",
                           slice_time(self.manifold, self.time_slice))
        total = float(np.sum(np.abs(amp) ** 2))
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError("packet norm must be finite and positive")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def spatial_shape(self) -> Tuple[int, ...]:
        m = self.manifold
        return tuple(m.grid_shape[a] for a in m.spatial_axes)

    def points(self) -> np.ndarray:
        """Full-dimensional coordinates of every node in the slice."""
        mesh = self.manifold.grid_points(self.manifold.spatial_axes)
        if self.manifold.dimension == 3:
            return mesh
        cols = np.moveaxis(mesh, -1, 0)
        return coordinate_major([np.full(cols.shape[1:], self.time_slice),
                                 *cols])

    @property
    def cell_volume(self) -> float:
        m = self.manifold
        out = 1.0
        for a in m.spatial_axes:
            out *= m.spacing[a]
        return out


def packet_norm_squared(psi: WavePacket) -> float:
    """Riemann-sum norm: sum of |amplitude|^2 times the cell volume."""
    return float(np.sum(np.abs(psi.amplitudes) ** 2)) * psi.cell_volume


def _gaussian(d: np.ndarray, width: float, momentum) -> np.ndarray:
    """exp(-|d|^2 / (2 sigma^2)) exp(i k.d) at offsets d from the centre."""
    amp = np.exp(-(d * d).sum(axis=-1) / (2.0 * float(width) ** 2))
    amp = amp.astype(complex)
    if momentum is not None:
        k = np.asarray(momentum, dtype=float)
        amp = amp * np.exp(1j * (d * k).sum(axis=-1))
    return amp


def gaussian_packet(manifold: Manifold, center, width: float,
                    momentum=None, time_slice: Optional[float] = None,
                    ) -> WavePacket:
    """exp(-|w-c|^2 / (2 sigma^2)) exp(i k.(w-c)) sampled on the slice."""
    c = np.asarray(center, dtype=float)
    if c.shape != (len(manifold.spatial_axes),):
        raise ValueError("center must have one entry per spatial axis")
    d = manifold.grid_points(manifold.spatial_axes) - c
    return WavePacket(manifold, _gaussian(d, width, momentum),
                      time_slice=time_slice)


def check_gaussian_packet(manifold: Manifold, center, width: float,
                          momentum=None) -> None:
    """Refuse, without sampling the slice, a packet whose norm
    ``gaussian_packet`` would find zero or not finite.

    |amplitude| peaks at the grid node nearest the centre, so the norm is
    zero when |amplitude|^2 underflows there, and the phase k.d is
    largest in size at a corner of the slice, so it overflows somewhere
    only if it overflows at a corner.  Those nine nodes are evaluated with
    the packet's own formula.
    """
    try:
        float(width) ** 2
    except OverflowError:
        raise ValueError(f"width {width} squared overflows a float")
    c = np.asarray(center, dtype=float)
    nodes = [manifold.axis_nodes(a) for a in manifold.spatial_axes]
    nearest = [g[np.argmin(np.abs(g - x))] for g, x in zip(nodes, c)]
    corners = itertools.product(*((g[0], g[-1]) for g in nodes))
    with np.errstate(all="ignore"):
        amp2 = np.abs(_gaussian(np.array([nearest, *corners]) - c, width,
                                momentum)) ** 2
    if not np.isfinite(amp2).all():
        raise ValueError("packet amplitude is not finite on the grid")
    if not amp2[0] > 0.0:
        raise ValueError(f"|amplitude|^2 underflows to 0 at the grid node "
                         f"{[float(x) for x in nearest]} nearest the centre")


def scale_wave_packet(psi: WavePacket, field: ScalingField, x0,
                      c=None) -> WavePacket:
    """Localize psi at x0: amplitude at w picks up f(w)/f(x0).

    The level argument is validated (zero is rejected) and then unused: the
    quotient c f(w) / (c f(x0)) is computed as the exponential of the
    exponent difference, so c cancels identically and the output bytes do
    not depend on it.
    """
    if c is not None and complex(c) == 0:
        raise ZeroLevel("level must be nonzero")
    if psi.manifold != field.manifold:
        raise ValueError("packet and field live on different manifolds")
    x0 = field.manifold.require_inside(x0)
    pts = psi.points().reshape(-1, field.manifold.dimension)
    factor = connection_factor(field, pts, x0[None, :]).reshape(
        psi.spatial_shape)
    return WavePacket(psi.manifold, factor * psi.amplitudes,
                      time_slice=psi.time_slice)


def canonical_momentum_shift(p, field: ScalingField, x) -> np.ndarray:
    """p -> p + Gamma(x) + i Delta(x), componentwise."""
    gamma, delta = field.gamma_delta(x)
    return np.asarray(p, dtype=complex) + gamma + 1j * delta
