"""Aspect coverage (paper Fig. 4, after Zhang et al.).

"Zhang et al. distinguished two types of coverage in VCS: point coverage
and aspect coverage. In order to fully cover a particular aspect, one has
to take photos or videos that would cover all sides of that aspect", and
"Regarding a complete visibility of an area, it is required that all
aspects of the area are covered by camera views" (Secs. II/V-A).

The visibility map of Algorithm 3 counts *how many* cameras cover a cell;
this module additionally tracks *from which directions*: each covered
cell accumulates a bitmask of the viewing-direction sectors (camera →
cell bearing, quantised into N buckets). A cell's aspect coverage is the
fraction of sectors seen; guided 360° capture dominates this metric
because every sweep views its surroundings from a full ring of
directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..sfm.model import RecoveredCamera, SfmModel
from .grid import Grid2D, GridSpec
from .visibility import camera_visible_cells, sector_information_ranges

#: Number of viewing-direction buckets per cell.
N_ASPECT_BUCKETS = 8


@dataclass(frozen=True)
class AspectCoverage:
    """Per-cell viewing-direction masks plus summary statistics."""

    spec: GridSpec
    masks: np.ndarray  # uint16 bitmasks, shape = spec.shape
    n_buckets: int = N_ASPECT_BUCKETS

    def aspects_seen(self) -> np.ndarray:
        """Per-cell count of distinct viewing directions."""
        counts = np.zeros(self.spec.shape, dtype=np.uint8)
        for b in range(self.n_buckets):
            counts += ((self.masks >> b) & 1).astype(np.uint8)
        return counts

    def mean_aspects(self, region_mask: Optional[np.ndarray] = None) -> float:
        """Mean viewing-direction count over covered cells in the region."""
        counts = self.aspects_seen()
        mask = counts > 0
        if region_mask is not None:
            mask &= region_mask
        if not mask.any():
            return 0.0
        return float(counts[mask].mean())

    def fully_covered_fraction(
        self,
        region_mask: Optional[np.ndarray] = None,
        min_aspects: int = 4,
    ) -> float:
        """Fraction of region cells seen from >= ``min_aspects`` directions.

        "Complete visibility" in the paper's sense; 4 of 8 buckets is the
        practical threshold for all *reachable* sides (wall-adjacent cells
        can never be viewed from inside the wall).
        """
        counts = self.aspects_seen()
        region = (
            region_mask
            if region_mask is not None
            else np.ones(self.spec.shape, dtype=bool)
        )
        total = int(region.sum())
        if total == 0:
            return 0.0
        return float(((counts >= min_aspects) & region).sum()) / total


def calculate_aspect_coverage(
    model: SfmModel,
    obstacles: Grid2D,
    max_range_m: float = 5.0,
    cameras: Optional[Iterable[RecoveredCamera]] = None,
    n_buckets: int = N_ASPECT_BUCKETS,
) -> AspectCoverage:
    """Accumulate per-cell viewing-direction masks over all cameras.

    Uses the same obstacle- and information-clipped wedges as
    Algorithm 3; for every cell a camera covers, the bucket of the
    camera→cell bearing is set in the cell's mask.
    """
    spec = obstacles.spec
    obstacle_mask = obstacles.nonzero_mask()
    masks = np.zeros(spec.shape, dtype=np.uint16)

    cloud = model.cloud
    order = np.argsort(cloud.feature_ids)
    ids_sorted = cloud.feature_ids[order]
    xy_sorted = cloud.floor_xy()[order]

    # Precompute cell-centre coordinates for bearing computation.
    cols = np.arange(spec.n_cols)
    rows = np.arange(spec.n_rows)
    centre_x = spec.origin_x + (cols + 0.5) * spec.cell_size_m
    centre_y = spec.origin_y + (rows + 0.5) * spec.cell_size_m
    grid_x = np.broadcast_to(centre_x, spec.shape)
    grid_y = np.broadcast_to(centre_y[:, None], spec.shape)

    cameras = list(cameras if cameras is not None else model.cameras)
    all_ranges = sector_information_ranges(cameras, ids_sorted, xy_sorted, max_range_m)
    for camera, ranges in zip(cameras, all_ranges):
        visible = camera_visible_cells(
            spec,
            obstacle_mask,
            camera.pose.position.x,
            camera.pose.position.y,
            camera.pose.yaw_rad,
            camera.hfov_rad,
            max_range_m,
            ray_ranges_m=ranges,
        )
        if not visible.any():
            continue
        dx = grid_x[visible] - camera.pose.position.x
        dy = grid_y[visible] - camera.pose.position.y
        bearing = np.arctan2(dy, dx)  # direction camera -> cell
        buckets = (
            ((bearing + math.pi) / (2.0 * math.pi) * n_buckets).astype(int) % n_buckets
        )
        masks[visible] |= (1 << buckets).astype(np.uint16)
    return AspectCoverage(spec=spec, masks=masks, n_buckets=n_buckets)
