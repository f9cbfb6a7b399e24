"""Raycasting against collections of 2-D segments.

Occlusion is the performance-critical geometric query: every simulated
photo must test hundreds of candidate feature points against all opaque
surfaces. :class:`SegmentSoup` stores segments in numpy arrays and answers
batched visibility queries with broadcasting instead of per-segment Python
loops.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from .segments import Segment
from .vec import Vec2

_EPS = 1e-9


class SegmentSoup:
    """An immutable batch of segments supporting vectorised ray queries.

    Segments may carry a vertical extent (``heights`` = (base_z, top_z)
    pairs): a sight line then only counts as blocked when it crosses the
    segment *within* that extent — a camera looks over a 0.75 m table but
    not over a 2.7 m wall. Without heights, segments block at any height.
    """

    def __init__(
        self,
        segments: Sequence[Segment],
        heights: Optional[Sequence[Tuple[float, float]]] = None,
    ):
        self._segments: Tuple[Segment, ...] = tuple(segments)
        n = len(self._segments)
        self._ax = np.array([s.a.x for s in self._segments], dtype=float)
        self._ay = np.array([s.a.y for s in self._segments], dtype=float)
        self._dx = np.array([s.b.x - s.a.x for s in self._segments], dtype=float)
        self._dy = np.array([s.b.y - s.a.y for s in self._segments], dtype=float)
        self._n = n
        if heights is not None:
            if len(heights) != n:
                raise GeometryError("heights must align with segments")
            self._base_z = np.array([h[0] for h in heights], dtype=float)
            self._top_z = np.array([h[1] for h in heights], dtype=float)
        else:
            self._base_z = np.full(n, -np.inf)
            self._top_z = np.full(n, np.inf)

    def __len__(self) -> int:
        return self._n

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return self._segments

    def visible(
        self,
        origin: Vec2,
        targets: np.ndarray,
        target_margin: float = 1e-6,
        origin_z: Optional[float] = None,
        target_z: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Boolean mask: which ``targets`` are visible from ``origin``.

        ``targets`` is an (N, 2) array of floor points. A target is visible
        when no segment in the soup intersects the open ray strictly between
        origin and the target. ``target_margin`` shrinks the ray slightly at
        the target end so a point lying *on* a surface is not occluded by
        its own surface.

        When ``origin_z`` and ``target_z`` (shape (N,)) are given, the
        sight line is treated as 3-D: a crossing only blocks if the line's
        height at the crossing lies within the segment's vertical extent.
        """
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2 or targets.shape[1] != 2:
            raise GeometryError("targets must be an (N, 2) array")
        n_targets = targets.shape[0]
        if n_targets == 0:
            return np.zeros(0, dtype=bool)
        if self._n == 0:
            return np.ones(n_targets, dtype=bool)

        ox, oy = origin.x, origin.y
        rx = targets[:, 0] - ox  # (N,)
        ry = targets[:, 1] - oy

        # Ray: origin + t * r, t in [0, 1). Segment j: a_j + u * d_j, u in [0, 1].
        # Solve r x d != 0 case with broadcasting: shape (N, M).
        denom = rx[:, None] * self._dy[None, :] - ry[:, None] * self._dx[None, :]
        qpx = self._ax[None, :] - ox
        qpy = self._ay[None, :] - oy
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (qpx * self._dy[None, :] - qpy * self._dx[None, :]) / denom
            u = (qpx * ry[:, None] - qpy * rx[:, None]) / denom

        dist = np.hypot(rx, ry)
        # Stop slightly before the target so surface-mounted points survive.
        t_max = np.where(dist > 0, 1.0 - np.maximum(target_margin / np.maximum(dist, _EPS), _EPS), 0.0)
        hits = (
            (np.abs(denom) > _EPS)
            & (t > _EPS)
            & (t < t_max[:, None])
            & (u >= -_EPS)
            & (u <= 1.0 + _EPS)
        )
        if origin_z is not None and target_z is not None:
            target_z = np.asarray(target_z, dtype=float)
            if target_z.shape[0] != n_targets:
                raise GeometryError("target_z must align with targets")
            # Height of the sight line at each crossing: (N, M).
            z_at = origin_z + (target_z[:, None] - origin_z) * t
            in_extent = (z_at >= self._base_z[None, :]) & (z_at <= self._top_z[None, :])
            hits &= in_extent
        return ~hits.any(axis=1)

    def first_hits(self, origin: Vec2, directions: np.ndarray, max_range: float) -> np.ndarray:
        """Distance to the closest segment along each ray from ``origin``.

        ``directions`` is a (K, 2) array of unit vectors. Returns a (K,)
        array: the distance along each ray to its first hit within
        ``max_range``, or ``inf`` where the ray hits nothing.
        """
        directions = np.asarray(directions, dtype=float)
        if directions.ndim != 2 or directions.shape[1] != 2:
            raise GeometryError("directions must be a (K, 2) array")
        if self._n == 0:
            return np.full(directions.shape[0], np.inf)
        rx = directions[:, 0:1]  # (K, 1)
        ry = directions[:, 1:2]
        denom = rx * self._dy - ry * self._dx  # (K, M)
        qpx = self._ax - origin.x
        qpy = self._ay - origin.y
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (qpx * self._dy - qpy * self._dx) / denom
            u = (qpx * ry - qpy * rx) / denom
        valid = (np.abs(denom) > _EPS) & (t > _EPS) & (t <= max_range) & (u >= -_EPS) & (u <= 1.0 + _EPS)
        return np.where(valid, t, np.inf).min(axis=1)


def ray_march_cells(
    origin_cell: Tuple[int, int],
    target_cell: Tuple[int, int],
) -> List[Tuple[int, int]]:
    """Integer Bresenham line between two grid cells, inclusive.

    Used by the grid-level visibility raster to walk cells along a view ray.
    """
    (x0, y0), (x1, y1) = origin_cell, target_cell
    cells: List[Tuple[int, int]] = []
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        cells.append((x, y))
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy
    return cells
