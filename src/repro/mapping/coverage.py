"""Model coverage: the union of the obstacles and visibility maps.

"The coverage of the 3D point cloud, also called the model coverage, is
the union of the coverage of the obstacles and the visibility maps. Any
particular place in a venue is considered as an unvisited area, if it is
not included in neither the obstacles map nor the visibility map"
(Sec. IV). Comparison against ground truth follows Sec. V-C1: only cells
inside the ground-truth coverage region are counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MappingError
from .grid import Grid2D


@dataclass(frozen=True)
class CoverageMaps:
    """Obstacles map + visibility map + their union for one model state."""

    obstacles: Grid2D
    visibility: Grid2D

    def __post_init__(self) -> None:
        if self.obstacles.spec != self.visibility.spec:
            raise MappingError("obstacle/visibility maps on different specs")

    @property
    def spec(self):
        return self.obstacles.spec

    def covered_mask(self) -> np.ndarray:
        return self.obstacles.union_mask(self.visibility)

    def covered_cells(self) -> int:
        """The scalar "coverage" Algorithm 1 compares between iterations."""
        return int(self.covered_mask().sum())

    def covered_area_m2(self) -> float:
        return self.covered_cells() * self.spec.cell_area_m2


@dataclass(frozen=True)
class CoverageScore:
    """Model coverage relative to ground truth."""

    covered_in_region: int
    region_cells: int
    obstacle_cells_matched: int
    gt_obstacle_cells: int

    @property
    def coverage_fraction(self) -> float:
        if self.region_cells == 0:
            return 0.0
        return self.covered_in_region / self.region_cells

    @property
    def coverage_percent(self) -> float:
        return 100.0 * self.coverage_fraction

    @property
    def obstacle_recall(self) -> float:
        if self.gt_obstacle_cells == 0:
            return 0.0
        return self.obstacle_cells_matched / self.gt_obstacle_cells


def score_against_ground_truth(
    maps: CoverageMaps,
    gt_region_mask: np.ndarray,
    gt_obstacle_mask: np.ndarray,
    obstacle_tolerance_cells: int = 1,
) -> CoverageScore:
    """Compare model maps to ground truth.

    "We compared the coverage by directly comparing non-zero cells of
    obstacles and visibility matrices of the generated map to cells of
    corresponding matrices obtained from the ground truth floor plan. We
    did not consider any cells that were outside the ground truth coverage
    map" (Sec. V-C1). Obstacle matching tolerates ``obstacle_tolerance_cells``
    of displacement, absorbing reconstruction noise at cell granularity.
    """
    covered = maps.covered_mask()
    if covered.shape != gt_region_mask.shape:
        raise MappingError("ground truth masks on a different grid")
    covered_in_region = int((covered & gt_region_mask).sum())
    region_cells = int(gt_region_mask.sum())

    model_obstacles = maps.obstacles.nonzero_mask()
    dilated = _dilate(model_obstacles, obstacle_tolerance_cells)
    matched = int((dilated & gt_obstacle_mask).sum())
    return CoverageScore(
        covered_in_region=covered_in_region,
        region_cells=region_cells,
        obstacle_cells_matched=matched,
        gt_obstacle_cells=int(gt_obstacle_mask.sum()),
    )


def _dilate(mask: np.ndarray, cells: int) -> np.ndarray:
    """Binary dilation by ``cells`` using numpy shifts."""
    if cells <= 0:
        return mask
    out = mask.copy()
    for _ in range(cells):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out
