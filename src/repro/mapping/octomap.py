"""A simplified OctoMap: count occupancy on an octree's leaf lattice.

Algorithm 2 computes "OctoMap Om from M" and then merges "Om cells along
up-pointing axis". This is a count-occupancy octree (no probabilistic ray
updates — SnapTask only inserts triangulated points and counts them),
subdividing space down to a configurable leaf resolution. Algorithm 2
reads nothing but leaf counts, so only the leaf level is stored: one
count per occupied leaf, keyed by the leaf centre that the octree's
midpoint descent assigns a point to. :meth:`OctoMap.leaf_centers` is that
descent, run on columns of points; it is the one placement rule of the
obstacles map, from scratch and incremental alike.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Tuple

import numpy as np

from ..errors import MappingError


class OctoMap:
    """Count occupancy on the leaf level of a fixed-depth octree."""

    def __init__(
        self,
        center: Tuple[float, float, float],
        half_extent: float,
        resolution: float,
    ):
        if resolution <= 0:
            raise MappingError("octree resolution must be positive")
        if half_extent <= 0:
            raise MappingError("octree half extent must be positive")
        self._resolution = resolution
        # Depth so that leaf half-size <= resolution / 2.
        depth = max(0, int(math.ceil(math.log2((2.0 * half_extent) / resolution))))
        self._max_depth = depth
        self._center = (float(center[0]), float(center[1]), float(center[2]))
        self._half = float(half_extent)
        self._leaves: Dict[Tuple[float, float, float], int] = {}
        self._n_points = 0

    @property
    def resolution(self) -> float:
        return self._resolution

    @property
    def max_depth(self) -> int:
        return self._max_depth

    @property
    def n_points(self) -> int:
        return self._n_points

    def leaf_centers(self, xyz: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Leaf centres of (N, 3) points, and which points are in the cube.

        The octree's descent rule, run on columns from the root down to
        the leaf depth: a coordinate on a node's midpoint goes to the
        upper child (``>=``), and each child centre is its parent's
        centre ± a quarter of the parent's side. The bounds are closed,
        so a point on the cube's maximum face lands in the last leaf; NaN
        is outside. The centre rows of outside points carry no meaning.
        This is the one descent rule: the from-scratch obstacles map and
        the incremental engine both place points with it.
        """
        xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
        centre = np.array(self._center)
        half = self._half
        inside = (np.abs(xyz - centre) <= half).all(axis=1)
        centres = np.broadcast_to(centre, xyz.shape).copy()
        for _ in range(self._max_depth):
            quarter = half / 2.0
            centres += np.where(xyz >= centres, quarter, -quarter)
            half = quarter
        return centres, inside

    def insert(self, x: float, y: float, z: float) -> bool:
        """Insert one point; returns False if outside the octree bounds."""
        return self.insert_array(np.array([[x, y, z]], dtype=float)) == 1

    def insert_array(self, xyz: np.ndarray) -> int:
        """Insert (N, 3) points; returns how many fell inside the bounds."""
        centres, inside = self.leaf_centers(xyz)
        for leaf in map(tuple, centres[inside].tolist()):
            self._leaves[leaf] = self._leaves.get(leaf, 0) + 1
        inserted = int(inside.sum())
        self._n_points += inserted
        return inserted

    def leaves(self) -> Iterator[Tuple[float, float, float, int]]:
        """Occupied leaves as (center_x, center_y, center_z, count)."""
        for (cx, cy, cz), count in self._leaves.items():
            yield (cx, cy, cz, count)

    def count_at(self, x: float, y: float, z: float) -> int:
        """Point count in the leaf containing (x, y, z)."""
        centres, inside = self.leaf_centers(np.array([[x, y, z]], dtype=float))
        return self._leaves.get(tuple(centres[0].tolist()), 0) if inside[0] else 0

    def merge_columns(
        self, z_min: float = -math.inf, z_max: float = math.inf
    ) -> Dict[Tuple[int, int], int]:
        """Merge leaves along the up axis (Algorithm 2 line 3).

        Returns column point counts keyed by integer (ix, iy) leaf indices;
        only leaves with centres in [z_min, z_max] contribute — callers use
        this to ignore floor and ceiling returns.
        """
        columns: Dict[Tuple[int, int], int] = {}
        leaf_size = self.leaf_size
        for cx, cy, cz, count in self.leaves():
            if not z_min <= cz <= z_max:
                continue
            key = (
                int(math.floor(cx / leaf_size)),
                int(math.floor(cy / leaf_size)),
            )
            columns[key] = columns.get(key, 0) + count
        return columns

    @property
    def leaf_size(self) -> float:
        return (2.0 * self._half) / (2 ** self._max_depth)

    @property
    def min_corner(self) -> Tuple[float, float, float]:
        """Minimum (x, y, z) corner of the octree cube."""
        cx, cy, cz = self._center
        return (cx - self._half, cy - self._half, cz - self._half)

    @staticmethod
    def for_cloud(
        xyz: np.ndarray, resolution: float, padding: float = 1.0
    ) -> "OctoMap":
        """Octree sized to enclose ``xyz`` with ``padding`` metres of slack."""
        xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
        if xyz.shape[0] == 0:
            return OctoMap((0.0, 0.0, 0.0), max(padding, resolution), resolution)
        lo = xyz.min(axis=0) - padding
        hi = xyz.max(axis=0) + padding
        center = (lo + hi) / 2.0
        half = float(max(hi - lo) / 2.0)
        return OctoMap((center[0], center[1], center[2]), max(half, resolution), resolution)

    @staticmethod
    def for_spec(
        spec,
        z_floor_m: float = -4.0,
        padding_m: float = 2.0,
    ) -> "OctoMap":
        """Octree whose leaf lattice is anchored to a :class:`GridSpec`.

        Unlike :meth:`for_cloud` — whose lattice drifts as the cloud's
        bounding box grows — this octree is a *fixed* function of the grid
        spec: leaf size equals the cell size exactly (the cube side is
        ``cell * 2**depth``), and the cube's minimum corner sits an integer
        number of cells below the spec origin. Every leaf column therefore
        corresponds to exactly one map cell for the lifetime of the map,
        which is what makes delta insertion and from-scratch rebuilds
        cell-exact against each other.

        ``z_floor_m`` anchors the bottom of the cube (points below it are
        out of bounds); the cube always spans at least the grid's x/y
        extent plus ``padding_m`` on each side.
        """
        cell = float(spec.cell_size_m)
        pad_cells = int(math.ceil(padding_m / cell))
        width_cells = spec.n_cols + 2 * pad_cells
        height_cells = spec.n_rows + 2 * pad_cells
        floor_cells = int(math.ceil(max(0.0, -z_floor_m) / cell))
        # The cube must cover the padded grid in x/y and reach down to the
        # z floor; side = cell * 2**depth keeps the leaf size exact.
        need = max(width_cells, height_cells, floor_cells + 1)
        depth = max(0, int(math.ceil(math.log2(need))))
        side_cells = 2 ** depth
        half = cell * side_cells / 2.0
        cx = (spec.origin_x - pad_cells * cell) + half
        cy = (spec.origin_y - pad_cells * cell) + half
        cz = (-floor_cells * cell) + half
        return OctoMap((cx, cy, cz), half, cell)
