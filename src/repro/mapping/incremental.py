"""Incremental map maintenance: O(delta) updates of the SnapTask maps.

Algorithm 1 rebuilds the obstacles map (Algorithm 2), the visibility map
(Algorithm 3) and the coverage union from scratch over the *entire* model
on every uploaded photo batch. The paper itself motivates why that cannot
scale: "a large number of photos leads to long processing time" (Sec.
II-A) — each guided task is slower than the last because the model only
grows. This engine maintains the same three artefacts by delta:

* **Obstacles** — one integer grid holds each map cell's merged column
  count: the number of applied points whose leaf on the spec-anchored
  :class:`OctoMap` lattice (one leaf column == one map cell) lies in the
  cell and inside the vertical band. The applied cloud is kept as sorted
  feature-id and xyz columns; one ``searchsorted`` merge diffs each new
  filtered cloud against it. Only that diff moves the counts — new
  triangulated points add one, points dropped by the statistical outlier
  filter subtract one — and only the touched cells are re-thresholded
  into the obstacles grid.
* **Visibility** — per-camera FOV wedges are cached as sorted flat cell
  indices, keyed by the camera object (a frozen
  :class:`~repro.sfm.model.RecoveredCamera`, which copies as itself) and
  its per-sector information-clip ranges. A cached wedge is recomputed
  only when (a) a cell whose occupancy flipped lies inside it, or (b)
  the camera observed a cloud feature that changed
  (:meth:`SfmModel.cameras_observing`), *and* the recomputed clip ranges
  actually differ. Rule (a) is exact: a ray stops at its first obstacle
  and that cell is in the wedge, so a flip outside the wedge cannot
  change any ray. Everything else is reused verbatim. The engine keeps
  no observer index of its own, so its cache stays a function of the
  models it is handed. Each update works per update, not per camera: it
  classifies every camera first, computes the clip ranges of all that
  need them in one pass, and runs rule (a)'s exact test only for cameras
  within reach of a flipped cell.
* **Coverage** — the covered-cell union (optionally restricted to a site
  mask) is maintained over the dirty region only; no full grid scans.

Cell-exactness against the from-scratch functions
(:func:`~repro.mapping.obstacles.calculate_obstacles_map`,
:func:`~repro.mapping.visibility.calculate_visibility_map`) is a hard
invariant, enforced by the differential oracle in
``tests/test_incremental_equivalence.py``. The arithmetic that makes it
hold: visibility counts are small integers stored in floats (order-free
addition/subtraction of 1.0 is exact), obstacle counts are integer sums,
and both paths share one leaf-descent rule (:meth:`OctoMap.leaf_centers`)
and one ray-marching routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import MappingError
from ..obs import MetricsRegistry, Telemetry
from ..sfm.model import RecoveredCamera, SfmModel
from ..sfm.pointcloud import PointCloud
from .coverage import CoverageMaps
from .grid import Grid2D, GridSpec
from .obstacles import DEFAULT_Z_MAX, DEFAULT_Z_MIN
from .octomap import OctoMap
from .visibility import sector_information_ranges, visible_cell_indices

#: A cloud delta: feature ids and their (N, 3) positions.
_Points = Tuple[np.ndarray, np.ndarray]

#: (camera, flipped cell) pairs per block of the flip prefilter.
_PAIR_BLOCK = 16384


@dataclass(frozen=True)
class MapUpdate:
    """Result of one engine update: snapshot maps + delta statistics."""

    maps: CoverageMaps
    covered_cells: int
    points_added: int
    points_removed: int
    cameras_added: int
    cameras_refreshed: int
    cameras_reused: int
    dirty_obstacle_cells: int

    @property
    def cameras_total(self) -> int:
        return self.cameras_added + self.cameras_refreshed + self.cameras_reused


class _CameraEntry:
    """Cached wedge of one registered camera.

    Never written after it is built (a refresh caches a new entry), and
    its arrays are read-only, so durability snapshots share it with the
    live graph, as they share the camera it holds.
    """

    __slots__ = ("camera", "ranges", "cells")

    def __init__(self, camera, ranges, cells):
        ranges.setflags(write=False)
        cells.setflags(write=False)
        self.camera = camera  # the frozen camera the wedge was cast for
        self.ranges = ranges  # per-sector info-clip ranges
        self.cells = cells  # sorted flat cell indices of the wedge

    def __deepcopy__(self, memo: dict) -> "_CameraEntry":
        return self


class IncrementalMapEngine:
    """Maintains obstacles / visibility / coverage maps by delta.

    One engine instance tracks one growing reconstruction on one grid
    spec. Feed it successive ``(model, filtered_cloud)`` states via
    :meth:`update`; it diffs each state against the previous one by
    feature id / photo id and touches only the dirty region.
    """

    def __init__(
        self,
        spec: GridSpec,
        obstacle_threshold: int = 4,
        max_range_m: float = 5.0,
        z_min: float = DEFAULT_Z_MIN,
        z_max: float = DEFAULT_Z_MAX,
        site_mask: Optional[np.ndarray] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if obstacle_threshold <= 0:
            raise MappingError("obstacle threshold must be positive")
        if not 0.0 < max_range_m < math.inf:  # NaN fails too
            raise MappingError("max range must be finite and positive")
        metrics = telemetry.metrics if telemetry is not None else MetricsRegistry()
        # Delta-size distributions + FOV-wedge cache effectiveness
        # (the two numbers DESIGN.md §5 argues about).
        self._m_updates = metrics.counter("repro.map.updates")
        self._m_cache_hits = metrics.counter("repro.map.fov_cache_hits")
        self._m_cache_misses = metrics.counter("repro.map.fov_cache_misses")
        self._h_dirty = metrics.histogram(
            "repro.map.dirty_columns", base=1.0, growth=2.0
        )
        self._g_covered = metrics.gauge("repro.map.covered_cells")
        self._spec = spec
        self._threshold = int(obstacle_threshold)
        self._max_range = float(max_range_m)
        self._z_min = float(z_min)
        self._z_max = float(z_max)
        if site_mask is not None:
            site_mask = np.asarray(site_mask, dtype=bool)
            if site_mask.shape != spec.shape:
                raise MappingError("site mask shape does not match grid spec")
        self._site_mask = site_mask
        # Used only for its leaf lattice: it stores no points.
        self._lattice = OctoMap.for_spec(spec)
        self._ids = np.zeros(0, dtype=np.int64)  # applied cloud, sorted by id
        self._xyz = np.zeros((0, 3))
        self._counts = np.zeros(spec.shape, dtype=np.int64)
        self._obst = np.zeros(spec.shape, dtype=float)
        self._obst_mask = np.zeros(spec.shape, dtype=bool)
        self._vis = np.zeros(spec.shape, dtype=float)
        self._covered = np.zeros(spec.shape, dtype=bool)
        self._covered_cells = 0
        self._cameras: Dict[int, _CameraEntry] = {}
        self._cov_dirty: List[np.ndarray] = []

    # -- state access ------------------------------------------------------------

    @property
    def spec(self) -> GridSpec:
        return self._spec

    @property
    def covered_cells(self) -> int:
        """Covered-cell count (site-masked), maintained incrementally."""
        return self._covered_cells

    @property
    def n_applied_points(self) -> int:
        return self._ids.size

    def maps(self) -> CoverageMaps:
        """Independent snapshot of the current obstacles + visibility maps."""
        return CoverageMaps(
            Grid2D(self._spec, self._obst), Grid2D(self._spec, self._vis)
        )

    # -- the engine --------------------------------------------------------------

    def update(
        self,
        model: SfmModel,
        cloud: Optional[PointCloud] = None,
    ) -> MapUpdate:
        """Bring the maps up to date with ``model`` (+ filtered ``cloud``).

        ``cloud`` is the point cloud the maps should be built from —
        normally the SOR-filtered cloud, which is why it is passed
        separately from ``model`` (whose own cloud is unfiltered). Omitted,
        ``model.cloud`` is used.
        """
        if cloud is None:
            cloud = model.cloud

        added, removed = self._diff_cloud(cloud)
        dirty = self._apply_cloud_delta(added, removed)
        flipped = self._remerge_columns(dirty)
        refreshed, reused, n_new = self._update_cameras(model, added, removed, flipped)
        self._update_coverage(flipped)

        self._m_updates.inc()
        self._m_cache_hits.inc(reused)
        self._m_cache_misses.inc(refreshed + n_new)
        self._h_dirty.record(dirty.size)
        self._g_covered.set(self._covered_cells)
        return MapUpdate(
            maps=self.maps(),
            covered_cells=self._covered_cells,
            points_added=added[0].size,
            points_removed=removed[0].size,
            cameras_added=n_new,
            cameras_refreshed=refreshed,
            cameras_reused=reused,
            dirty_obstacle_cells=dirty.size,
        )

    # -- obstacles: per-cell column counts + dirty-cell re-threshold -------------

    def _diff_cloud(self, cloud: PointCloud) -> Tuple[_Points, _Points]:
        """Symmetric diff of ``cloud`` against the applied columns.

        The SOR filter is a *global* statistic: adding points can evict
        previously-inlying points, so the delta is not insert-only. Points
        whose position changed are treated as remove + add. Both sides are
        sorted by feature id, so one ``searchsorted`` matches them; the
        cloud then becomes the applied set.
        """
        ids = np.asarray(cloud.feature_ids, dtype=np.int64)
        xyz = cloud.xyz
        if not (ids[1:] > ids[:-1]).all():
            order = np.argsort(ids, kind="stable")
            ids, xyz = ids[order], xyz[order]
            if (ids[1:] == ids[:-1]).any():
                raise MappingError("point cloud has duplicate feature ids")
        old_ids, old_xyz = self._ids, self._xyz
        pos = np.searchsorted(old_ids, ids)
        same = pos < old_ids.size
        same[same] = old_ids[pos[same]] == ids[same]
        same[same] = (old_xyz[pos[same]] == xyz[same]).all(axis=1)
        kept = np.zeros(old_ids.size, dtype=bool)
        kept[pos[same]] = True
        self._ids, self._xyz = ids, xyz
        return (ids[~same], xyz[~same]), (old_ids[~kept], old_xyz[~kept])

    def _apply_cloud_delta(self, added: _Points, removed: _Points) -> np.ndarray:
        """Move the column counts by the diff; return the touched flat cells.

        A point counts in the cell under its leaf centre, and only when
        that centre lies inside the cube and the vertical band — the
        placement :func:`~repro.mapping.obstacles.calculate_obstacles_map`
        uses.
        """
        counts = self._counts.reshape(-1)
        touched = np.zeros(counts.size, dtype=bool)
        for step, (_ids, xyz) in ((-1, removed), (1, added)):
            leaves, inside = self._lattice.leaf_centers(xyz)
            z = leaves[:, 2]
            in_band = inside & (z >= self._z_min) & (z <= self._z_max)
            cells = self._spec.cells_of(leaves[in_band, :2])
            cells = cells[cells[:, 0] >= 0]
            flat = cells[:, 0] * self._spec.n_cols + cells[:, 1]
            np.add.at(counts, flat, step)
            touched[flat] = True
        return np.flatnonzero(touched)

    def _remerge_columns(self, dirty: np.ndarray) -> np.ndarray:
        """Re-threshold only the dirtied cells; return occupancy-flipped cells."""
        counts = self._counts.reshape(-1)[dirty]
        occupied = counts >= self._threshold
        mask = self._obst_mask.reshape(-1)
        flipped = dirty[occupied != mask[dirty]]
        self._obst.reshape(-1)[dirty] = np.where(occupied, counts, 0)
        mask[dirty] = occupied
        return flipped

    # -- visibility: cached FOV wedges with exact invalidation -------------------

    def _update_cameras(
        self,
        model: SfmModel,
        added: _Points,
        removed: _Points,
        flipped: np.ndarray,
    ) -> Tuple[int, int, int]:
        current_ids = {camera.photo_id for camera in model.cameras}

        # Cameras that left the model (defensive; does not happen in the
        # simulator, but keeps the cache an exact function of the model).
        for photo_id in [pid for pid in self._cameras if pid not in current_ids]:
            self._retire_camera(photo_id)

        # (b) information rule: cameras that observed a changed cloud
        # feature may have different clip ranges.
        range_stale = set(
            model.cameras_observing(np.concatenate([added[0], removed[0]])).tolist()
        )

        # Classify every camera first. A new or replaced camera (a new
        # camera object, whose pose, intrinsics or observations may
        # differ) needs clip ranges and a wedge; a cached one needs its
        # ranges rechecked if range-stale, and the flip test if it stands
        # near a flipped cell. All clip ranges then come from one pass.
        cameras = model.cameras
        entries = [self._cameras.get(camera.photo_id) for camera in cameras]
        cached = [e is not None and e.camera is c for c, e in zip(cameras, entries)]
        clip = [
            c for c, hit in zip(cameras, cached) if not hit or c.photo_id in range_stale
        ]
        ranges = iter(
            sector_information_ranges(clip, self._ids, self._xyz[:, :2], self._max_range)
        )
        kept = [c for c, hit in zip(cameras, cached) if hit]
        near = iter(self._near_flips(kept, flipped))
        # (a) obstacle rule: a ray stops at its first obstacle and that
        # cell is in the wedge, so an occupancy flip can change a wedge
        # only if the flipped cell lies inside it.
        is_flipped = np.zeros(self._obst_mask.size, dtype=bool)
        is_flipped[flipped] = True

        refreshed = 0
        reused = 0
        n_new = 0
        for camera, entry, is_cached in zip(cameras, entries, cached):
            if not is_cached:
                if entry is None:
                    n_new += 1
                else:
                    self._retire_camera(camera.photo_id)
                    refreshed += 1
                self._admit_camera(camera, next(ranges).copy())
                continue
            near_flip = next(near)
            new_ranges = entry.ranges
            if camera.photo_id in range_stale:
                row = next(ranges)
                if not np.array_equal(row, entry.ranges):
                    new_ranges = row.copy()
            if new_ranges is not entry.ranges or (
                near_flip and is_flipped[entry.cells].any()
            ):
                self._refresh_wedge(camera, entry, new_ranges)
                refreshed += 1
            else:
                reused += 1
        return refreshed, reused, n_new

    def _near_flips(
        self, cameras: List[RecoveredCamera], flipped: np.ndarray
    ) -> np.ndarray:
        """Which ``cameras`` stand close enough to a flipped cell to hold it.

        Every sample of the ray march lies less than ``max_range_m`` plus
        half a cell from its camera (the last step), and every point of a
        cell lies within half a cell diagonal of its centre. So no wedge
        holds a cell whose centre is farther than ``max_range_m`` plus one
        cell diagonal from its camera. The bound only prefilters: the
        exact test, ``is_flipped[entry.cells].any()``, still decides.
        """
        near = np.zeros(len(cameras), dtype=bool)
        if not cameras or flipped.size == 0:
            return near
        spec = self._spec
        rows, cols = np.divmod(flipped, spec.n_cols)
        flip_x = spec.origin_x + (cols + 0.5) * spec.cell_size_m
        flip_y = spec.origin_y + (rows + 0.5) * spec.cell_size_m
        reach = self._max_range + spec.cell_size_m * math.sqrt(2.0)
        cam_x = np.array([camera.pose.position.x for camera in cameras])
        cam_y = np.array([camera.pose.position.y for camera in cameras])
        # A few hundred kilobytes of pairwise distances at a time.
        step = max(1, _PAIR_BLOCK // len(cameras))
        for start in range(0, flipped.size, step):
            dx = cam_x[:, None] - flip_x[None, start : start + step]
            dy = cam_y[:, None] - flip_y[None, start : start + step]
            near |= (dx * dx + dy * dy <= reach * reach).any(axis=1)
        return near

    def _wedge_cells(self, camera: RecoveredCamera, ranges) -> np.ndarray:
        return visible_cell_indices(
            self._spec,
            self._obst_mask,
            camera.pose.position.x,
            camera.pose.position.y,
            camera.pose.yaw_rad,
            camera.hfov_rad,
            self._max_range,
            ray_ranges_m=ranges,
        )

    def _admit_camera(self, camera, ranges) -> None:
        cells = self._wedge_cells(camera, ranges)
        self._vis.reshape(-1)[cells] += 1.0
        self._cov_dirty.append(cells)
        self._cameras[camera.photo_id] = _CameraEntry(camera, ranges, cells)

    def _retire_camera(self, photo_id: int) -> None:
        entry = self._cameras.pop(photo_id)
        self._vis.reshape(-1)[entry.cells] -= 1.0
        self._cov_dirty.append(entry.cells)

    def _refresh_wedge(self, camera, entry: _CameraEntry, ranges) -> None:
        new_cells = self._wedge_cells(camera, ranges)
        if np.array_equal(new_cells, entry.cells):
            new_cells = entry.cells
        else:
            vis = self._vis.reshape(-1)
            vis[entry.cells] -= 1.0
            vis[new_cells] += 1.0
            self._cov_dirty += [entry.cells, new_cells]
        self._cameras[camera.photo_id] = _CameraEntry(camera, ranges, new_cells)

    # -- coverage: dirty-region union maintenance --------------------------------

    def _update_coverage(self, flipped: np.ndarray) -> None:
        dirty = np.zeros(self._covered.size, dtype=bool)
        dirty[flipped] = True
        for cells in self._cov_dirty:
            dirty[cells] = True
        self._cov_dirty.clear()
        idx = np.flatnonzero(dirty)
        obst, vis = self._obst.reshape(-1), self._vis.reshape(-1)
        covered = (obst[idx] > 0.0) | (vis[idx] > 0.0)
        if self._site_mask is not None:
            covered &= self._site_mask.reshape(-1)[idx]
        covered_flat = self._covered.reshape(-1)
        self._covered_cells += int(covered.sum()) - int(covered_flat[idx].sum())
        covered_flat[idx] = covered
