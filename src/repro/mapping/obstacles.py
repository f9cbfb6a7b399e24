"""Algorithm 2: calculateObstaclesMap.

    1: O <= empty
    2: compute OctoMap Om from M
    3: Om' <= merge Om cells along up-pointing axis
    4: for cell[i,j] in Om': O[i,j] = cell if cell >= OBSTACLE_THRESHOLD else 0

The obstacles map is "a 2D representation of non traversable areas": any
cell whose merged column holds at least OBSTACLE_THRESHOLD (= 4) points is
an obstacle, which suppresses isolated noise points without erasing thin
structures like wall bands.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Vec2
from ..sfm.pointcloud import PointCloud
from .grid import Grid2D, GridSpec
from .octomap import OctoMap

#: Vertical band of points contributing to obstacles. Points close to the
#: floor are mostly floor returns / noise; ceilings are above phone height.
#: The band is applied to *leaf centres* of the spec-anchored octree, whose
#: z lattice starts at 0: the bottom slab [0, cell) has its centre at
#: cell/2, so ``DEFAULT_Z_MIN`` is chosen above cell/2 for the map cell
#: sizes in use (0.10-0.30 m) — the floor slab is always excluded.
DEFAULT_Z_MIN = 0.15
DEFAULT_Z_MAX = 2.6


def calculate_obstacles_map(
    cloud: PointCloud,
    spec: GridSpec,
    obstacle_threshold: int = 4,
    z_min: float = DEFAULT_Z_MIN,
    z_max: float = DEFAULT_Z_MAX,
) -> Grid2D:
    """Build the obstacles map of ``cloud`` on grid ``spec``.

    The OctoMap lattice is anchored to ``spec`` (see
    :meth:`OctoMap.for_spec`): the leaf size equals the cell size and leaf
    boundaries align with cell boundaries, so one merged column corresponds
    to exactly one map cell. A fixed lattice is what allows
    :class:`~repro.mapping.incremental.IncrementalMapEngine` to maintain
    this map by delta insertion while staying cell-exact with this
    from-scratch implementation.
    """
    grid = Grid2D(spec)
    if len(cloud) == 0:
        return grid

    octomap = OctoMap.for_spec(spec)
    octomap.insert_array(cloud.xyz)
    counts = np.zeros(spec.shape, dtype=float)
    for cx, cy, cz, count in octomap.leaves():
        if not z_min <= cz <= z_max:
            continue
        cell = spec.cell_of(Vec2(cx, cy))
        if cell is not None:
            counts[cell] += count

    grid.data[:] = np.where(counts >= obstacle_threshold, counts, 0.0)
    return grid
