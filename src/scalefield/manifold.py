"""Flat manifolds with rectangular grids.

Dimension 3 carries the identity metric; dimension 4 carries the flat
diagonal metric (+1, -1, -1, -1).  Each axis has bounds and a grid spacing;
the spacing must tile the bounds exactly.  Points are float vectors, and all
point-taking APIs accept arrays of shape (..., dim).

Point sets made in bulk keep that shape but are stored coordinate-major:
each is the ``np.moveaxis(., 0, -1)`` view of a C-contiguous (dim, ...)
array (``coordinate_major``).  numpy then runs elementwise ops, a (dim,)
row broadcast over the points and ``.sum(axis=-1)`` one contiguous
coordinate at a time; over C-ordered (N, dim) rows it runs one inner loop
of dim entries per point instead, at several times the cost, for the
same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import OutOfBounds

_NODE_TOL = 1e-9


def coordinate_major(columns) -> np.ndarray:
    """Points (..., dim) from their dim coordinate arrays (...), stored one
    coordinate after another; a C-contiguous float (dim, ...) array is not
    copied."""
    return np.moveaxis(np.asarray(columns, dtype=float), 0, -1)


@dataclass(frozen=True)
class Manifold:
    dimension: int
    bounds: Tuple[Tuple[float, float], ...]
    spacing: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.dimension not in (3, 4):
            raise ValueError("dimension must be 3 or 4")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) != self.dimension:
            raise ValueError("one (lo, hi) pair per axis required")
        spacing = tuple(float(h) for h in self.spacing)
        if len(spacing) != self.dimension:
            raise ValueError("one spacing per axis required")
        for (lo, hi), h in zip(bounds, spacing):
            if not lo < hi:
                raise ValueError(f"empty axis range [{lo}, {hi}]")
            if not h > 0:
                raise ValueError("spacing must be positive")
            n = (hi - lo) / h
            if abs(n - round(n)) > _NODE_TOL * max(1.0, n) or round(n) < 1:
                raise ValueError(
                    f"spacing {h} does not tile [{lo}, {hi}] into whole cells"
                )
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "_lo", np.array([lo for lo, _ in bounds]))
        object.__setattr__(self, "_hi", np.array([hi for _, hi in bounds]))

    @staticmethod
    def box(bounds: Sequence[Sequence[float]], nodes: int) -> "Manifold":
        """Build a manifold from bounds and one node count for every axis."""
        dim = len(bounds)
        spacing = tuple(
            (float(hi) - float(lo)) / (nodes - 1) for lo, hi in bounds
        )
        return Manifold(dim, tuple((float(lo), float(hi)) for lo, hi in bounds),
                        spacing)

    @property
    def metric_diagonal(self) -> np.ndarray:
        if self.dimension == 3:
            return np.ones(3)
        return np.array([1.0, -1.0, -1.0, -1.0])

    @property
    def spatial_axes(self) -> Tuple[int, ...]:
        return (0, 1, 2) if self.dimension == 3 else (1, 2, 3)

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        return tuple(
            int(round((hi - lo) / h)) + 1
            for (lo, hi), h in zip(self.bounds, self.spacing)
        )

    def axis_nodes(self, axis: int) -> np.ndarray:
        lo, hi = self.bounds[axis]
        return np.linspace(lo, hi, self.grid_shape[axis])

    def grid_points(self, axes: Iterable[int] | None = None) -> np.ndarray:
        """Mesh of grid nodes over ``axes`` (default all), shape (*counts, k)."""
        axes = tuple(axes) if axes is not None else tuple(range(self.dimension))
        return coordinate_major(
            np.meshgrid(*(self.axis_nodes(a) for a in axes), indexing="ij",
                        copy=False))

    def as_points(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.shape[-1:] != (self.dimension,):
            raise ValueError(
                f"points must have {self.dimension} components, got shape {pts.shape}"
            )
        return pts

    def _within(self, pts: np.ndarray) -> np.ndarray:
        """Per-coordinate bounds test, shape (..., dim)."""
        return (pts >= self._lo) & (pts <= self._hi)

    def contains(self, x) -> np.ndarray:
        return self._within(self.as_points(x)).all(axis=-1)

    def require_inside(self, x) -> np.ndarray:
        pts = self.as_points(x)
        within = self._within(pts)
        if not within.all():
            bad = pts if pts.ndim == 1 else pts[~within.all(axis=-1)][0]
            raise OutOfBounds(f"point {np.asarray(bad).tolist()} outside bounds")
        return pts

    def margin_inside(self, x, margin: float) -> bool:
        """Whether every point has ``margin`` of room to both bounds on
        every axis; one flat test, as no caller needs it per point.

        A relative slack absorbs the last-ulp wobble of grid nodes built by
        linspace, so interior nodes always qualify at margin = spacing.
        """
        pts = self.as_points(x)
        m = margin - 1e-12 * (1.0 + abs(margin))
        return bool(((pts >= self._lo + m) & (pts <= self._hi - m)).all())

    def interior_corners(self) -> np.ndarray:
        """The first and last interior node, shape (2, dim): every interior
        node lies in the box they span.  ValueError if there is none."""
        if min(self.grid_shape) < 3:
            raise ValueError("the grid has no interior node")
        return np.array([self.axis_nodes(a)[[1, -2]]
                         for a in range(self.dimension)]).T

    @property
    def interior_shape(self) -> Tuple[int, ...]:
        """Node counts of the interior: every axis without its two ends."""
        return tuple(n - 2 for n in self.grid_shape)

    def interior_grid_points(self, index=None) -> np.ndarray:
        """Grid nodes with both neighbors available on every axis, shape
        (N, dim), in C order over ``interior_shape``; ``index`` picks nodes
        by their flat position in that order (default all)."""
        shape = self.interior_shape
        if index is None:
            index = np.arange(math.prod(shape))
        cols = np.unravel_index(index, shape)
        return coordinate_major([self.axis_nodes(a)[1:-1][c]
                                 for a, c in enumerate(cols)])
