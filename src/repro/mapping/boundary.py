"""Outer-bounds reconstruction length (Fig. 11a's metric).

"We also measured the length of reconstructed outer bounds of the venue in
every obstacles map and compared it to the ground truth. During the
comparison, we set the bounds reconstruction threshold to T = 0.15m,
meaning that two segments of the bounds will be considered as one, if a
distance between them is less than T" (Sec. V-C1).

Implementation: for every ground-truth outer-wall segment, project nearby
obstacle cells onto the segment, convert each cell to a small covered
interval along the wall, merge intervals with gaps below T, and sum the
merged lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..geometry import Segment, merge_intervals, total_interval_length
from ..venue.model import Venue
from .grid import Grid2D

#: How far (metres) an obstacle cell centre may sit from the wall line and
#: still count as reconstructing that wall. Covers triangulation noise plus
#: half a cell of quantisation.
DEFAULT_WALL_TOLERANCE_M = 0.3


@dataclass(frozen=True)
class BoundsReport:
    """Reconstructed-vs-ground-truth outer bounds."""

    reconstructed_m: float
    ground_truth_m: float
    per_wall: Tuple[Tuple[str, float, float], ...]  # (label, got, total)

    @property
    def fraction(self) -> float:
        if self.ground_truth_m == 0:
            return 0.0
        return min(1.0, self.reconstructed_m / self.ground_truth_m)

    @property
    def percent(self) -> float:
        return 100.0 * self.fraction


def wall_covered_length(
    wall: Segment,
    obstacle_xy: np.ndarray,
    merge_threshold_m: float,
    tolerance_m: float,
    cell_size_m: float,
) -> float:
    """Length of ``wall`` covered by obstacle cells at ``obstacle_xy``."""
    if obstacle_xy.shape[0] == 0:
        return 0.0
    a = np.array([wall.a.x, wall.a.y])
    d = np.array([wall.b.x - wall.a.x, wall.b.y - wall.a.y])
    length = float(np.hypot(*d))
    d_unit = d / length
    rel = obstacle_xy - a
    t = rel @ d_unit  # distance along the wall, metres
    perp = np.abs(rel[:, 0] * (-d_unit[1]) + rel[:, 1] * d_unit[0])
    near = (perp <= tolerance_m) & (t >= -tolerance_m) & (t <= length + tolerance_m)
    if not near.any():
        return 0.0
    half = cell_size_m / 2.0
    intervals = []
    for ti in t[near]:
        lo = max(0.0, float(ti) - half)
        hi = min(length, float(ti) + half)
        if hi > lo:  # cells projecting just past the wall ends are void
            intervals.append((lo, hi))
    merged = merge_intervals(intervals, merge_threshold_m)
    return total_interval_length(merged)


def outer_bounds_report(
    venue: Venue,
    obstacles: Grid2D,
    merge_threshold_m: float = 0.15,
    tolerance_m: float = DEFAULT_WALL_TOLERANCE_M,
) -> BoundsReport:
    """Reconstructed outer-bound length against the venue's ground truth."""
    mask = obstacles.nonzero_mask()
    rows, cols = np.nonzero(mask)
    spec = obstacles.spec
    xs = spec.origin_x + (cols + 0.5) * spec.cell_size_m
    ys = spec.origin_y + (rows + 0.5) * spec.cell_size_m
    xy = np.stack([xs, ys], axis=1) if rows.size else np.zeros((0, 2))

    per_wall: List[Tuple[str, float, float]] = []
    total_got = 0.0
    total_len = 0.0
    for wall in venue.outer_wall_surfaces():
        got = wall_covered_length(
            wall.segment, xy, merge_threshold_m, tolerance_m, spec.cell_size_m
        )
        got = min(got, wall.segment.length)
        per_wall.append((wall.label or f"wall-{wall.surface_id}", got, wall.segment.length))
        total_got += got
        total_len += wall.segment.length
    return BoundsReport(
        reconstructed_m=total_got,
        ground_truth_m=total_len,
        per_wall=tuple(per_wall),
    )
