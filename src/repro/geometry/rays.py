"""Raycasting against collections of 2-D segments.

Occlusion is the performance-critical geometric query: every simulated
photo must test hundreds of candidate feature points against the opaque
surfaces. :class:`SegmentSoup` stores segments in numpy arrays and answers
batched visibility queries over (target, segment) pairs instead of
per-segment Python loops, evaluating only the pairs that can intersect.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from .segments import Segment
from .vec import Vec2

_EPS = 1e-9

#: ``visible`` evaluates a (target, segment) pair when the segment passes
#: within ``PRUNE_RADIUS_M`` of the origin, or when the target's bearing
#: lies within ``PRUNE_MARGIN_RAD`` of the bearings the segment spans.
#: Every other pair provably reports no hit: a pair the hit test accepts
#: has its computed crossing within ``ERROR_GAIN * |a - o| |r| |d|`` metres
#: of the segment, and a segment is pruned only while that error stays
#: below ``PRUNE_ERROR_BUDGET_M``, which keeps the crossing's bearing
#: within half the margin of the segment's span (DESIGN.md section 5).
PRUNE_RADIUS_M = 0.25
PRUNE_MARGIN_RAD = 0.05
ERROR_GAIN = 1e-6
PRUNE_ERROR_BUDGET_M = 0.5 * PRUNE_RADIUS_M * math.sin(PRUNE_MARGIN_RAD)

#: Pairs evaluated per block in ``visible``.
PAIR_BLOCK = 8192


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
        self._length = np.hypot(self._dx, self._dy)
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

        Only the (target, segment) pairs of :meth:`_pairs` are evaluated;
        the pairs left out cannot report a hit, so the mask is the one a
        test of every pair gives.
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
        qpx = self._ax - ox  # (M,)
        qpy = self._ay - oy
        dist = np.hypot(rx, ry)

        # Stop slightly before the target so surface-mounted points survive.
        t_max = np.where(dist > 0, 1.0 - np.maximum(target_margin / np.maximum(dist, _EPS), _EPS), 0.0)
        heights = origin_z is not None and target_z is not None
        if heights:
            target_z = np.asarray(target_z, dtype=float)
            if target_z.shape[0] != n_targets:
                raise GeometryError("target_z must align with targets")

        ti, sj = self._pairs(qpx, qpy, rx, ry, dist)
        blocked = np.zeros(n_targets, dtype=bool)
        # Blocks of pairs keep the temporaries small, whatever the call's size.
        for lo in range(0, ti.shape[0], PAIR_BLOCK):
            i, j = ti[lo : lo + PAIR_BLOCK], sj[lo : lo + PAIR_BLOCK]
            # Ray: origin + t * r, t in [0, 1). Segment j: a_j + u * d_j, u in [0, 1].
            dx, dy = self._dx[j], self._dy[j]
            pqx, pqy = qpx[j], qpy[j]
            prx, pry = rx[i], ry[i]
            denom = prx * dy - pry * dx
            # A parallel pair divides by zero; its hit test fails on |denom|.
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (pqx * dy - pqy * dx) / denom
                u = (pqx * pry - pqy * prx) / denom
                hits = (
                    (np.abs(denom) > _EPS)
                    & (t > _EPS)
                    & (t < t_max[i])
                    & (u >= -_EPS)
                    & (u <= 1.0 + _EPS)
                )
                if heights:
                    # Height of the sight line at each crossing.
                    z_at = origin_z + (target_z[i] - origin_z) * t
                    hits &= (z_at >= self._base_z[j]) & (z_at <= self._top_z[j])
            blocked[i[hits]] = True
        return ~blocked

    def _pairs(
        self, qpx: np.ndarray, qpy: np.ndarray, rx: np.ndarray, ry: np.ndarray, dist: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(target, segment) index columns of the pairs that can hit.

        A segment within ``PRUNE_RADIUS_M`` of the origin, or one whose
        error bound exceeds ``PRUNE_ERROR_BUDGET_M`` for this call's
        farthest target, pairs with every target. Any other segment pairs
        with the targets whose bearing lies within ``PRUNE_MARGIN_RAD`` of
        its angular span. The targets are sorted by bearing once, and each
        window is found by binary search in the bearings unrolled over
        [-3 pi, 3 pi], so a window across +-pi is one contiguous run.
        """
        n = rx.shape[0]
        dx, dy, length = self._dx, self._dy, self._length
        # Segments are non-degenerate (Segment rejects length < 1e-9).
        s = np.clip(-(qpx * dx + qpy * dy) / (length * length), 0.0, 1.0)
        gap = np.hypot(qpx + s * dx, qpy + s * dy)
        reach = dist.max()
        q = np.hypot(qpx, qpy)
        error = ERROR_GAIN * (q * length * reach + q + length + reach)
        everyone = ~((gap > PRUNE_RADIUS_M) & (error <= PRUNE_ERROR_BUDGET_M))

        # The bearings a segment spans: from lo counter-clockwise through
        # width (< pi, as the segment misses the origin), widened by the margin.
        bx, by = qpx + dx, qpy + dy
        cross = qpx * by - qpy * bx
        width = np.arctan2(np.abs(cross), qpx * bx + qpy * by)
        lo = np.arctan2(qpy, qpx) - np.where(cross < 0, width, 0.0) - PRUNE_MARGIN_RAD
        hi = lo + width + 2.0 * PRUNE_MARGIN_RAD

        bearing = np.arctan2(ry, rx)
        order = np.argsort(bearing, kind="stable")
        ring = bearing[order]
        unrolled = np.concatenate([ring - 2.0 * math.pi, ring, ring + 2.0 * math.pi])
        start = np.searchsorted(unrolled, lo, side="left")
        stop = np.searchsorted(unrolled, hi, side="right")
        start[everyone] = n
        stop[everyone] = 2 * n
        counts = stop - start
        seg = np.repeat(np.arange(self._n), counts)
        # Each pair's place in the unrolled bearings: its run's start plus its rank.
        place = np.arange(seg.shape[0])
        place += np.repeat(start - (np.cumsum(counts) - counts), counts)
        place %= n
        return order[place], seg

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
