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
  cell and inside the vertical band. Only the *diff* of the filtered
  cloud versus the previously applied cloud moves those counts — new
  triangulated points add one, points dropped by the statistical outlier
  filter subtract one — and only the touched cells are re-thresholded
  into the obstacles grid.
* **Visibility** — per-camera FOV wedges are cached, keyed by the camera
  pose and its per-sector information-clip ranges. A cached wedge is
  invalidated only when (a) an obstacle cell within the camera's reach
  changed occupancy, or (b) the camera's observed-point set intersects
  cloud features that changed, *and* the recomputed clip ranges actually
  differ. Everything else is reused verbatim.
* **Coverage** — the covered-cell union (optionally restricted to a site
  mask) is maintained over the dirty region only; no full grid scans.

Cell-exactness against the from-scratch functions
(:func:`~repro.mapping.obstacles.calculate_obstacles_map`,
:func:`~repro.mapping.visibility.calculate_visibility_map`) is a hard
invariant, enforced by the differential oracle in
``tests/test_incremental_equivalence.py``. The arithmetic that makes it
hold: visibility counts are small integers stored in floats (order-free
addition/subtraction of 1.0 is exact), obstacle counts are integer sums,
and both paths share one leaf-descent rule (:meth:`OctoMap.leaf_center`)
and one ray-marching routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import MappingError
from ..geometry import Vec2
from ..obs import NULL_TELEMETRY, Telemetry
from ..sfm.model import RecoveredCamera, SfmModel
from ..sfm.pointcloud import PointCloud
from .coverage import CoverageMaps
from .grid import Grid2D, GridSpec
from .obstacles import DEFAULT_Z_MAX, DEFAULT_Z_MIN
from .octomap import OctoMap
from .visibility import camera_visible_cells, sector_information_ranges

#: Safety margin (in cells) added to a camera's reach when deciding whether
#: a dirtied obstacle cell can affect its cached wedge. Ray marching samples
#: radii up to ``max_range + cell/2`` and a sample lands anywhere inside its
#: cell (centre offset up to ``cell * sqrt(2)/2``), so 2 cells is strictly
#: conservative.
_REACH_MARGIN_CELLS = 2.0


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
    full_rebuild: bool

    @property
    def cameras_total(self) -> int:
        return self.cameras_added + self.cameras_refreshed + self.cameras_reused


class _CameraEntry:
    """Cached wedge of one registered camera."""

    __slots__ = ("key", "observed_ref", "ranges", "cells", "x", "y")

    def __init__(self, key, observed_ref, ranges, cells, x, y):
        self.key = key  # (x, y, yaw, hfov) — invalidates on pose change
        self.observed_ref = observed_ref  # identity of observed-ids array
        self.ranges = ranges  # per-sector info-clip ranges (or None)
        self.cells = cells  # sorted flat cell indices of the wedge
        self.x = x
        self.y = y


class IncrementalMapEngine:
    """Maintains obstacles / visibility / coverage maps by delta.

    One engine instance tracks one growing reconstruction on one grid
    spec. Feed it successive ``(model, filtered_cloud)`` states via
    :meth:`update`; it diffs each state against the previous one by
    feature id / photo id and touches only the dirty region. Passing
    ``full_rebuild=True`` discards all cached state first — the escape
    hatch that forces from-scratch behaviour through the same code path.
    """

    def __init__(
        self,
        spec: GridSpec,
        obstacle_threshold: int = 4,
        max_range_m: float = 5.0,
        z_min: float = DEFAULT_Z_MIN,
        z_max: float = DEFAULT_Z_MAX,
        site_mask: Optional[np.ndarray] = None,
        information_clipping: bool = True,
        telemetry: Optional[Telemetry] = None,
    ):
        if obstacle_threshold <= 0:
            raise MappingError("obstacle threshold must be positive")
        if not 0.0 < max_range_m < math.inf:  # NaN fails too
            raise MappingError("max range must be finite and positive")
        obs = telemetry if telemetry is not None else NULL_TELEMETRY
        metrics = obs.metrics
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
        self._clip = bool(information_clipping)
        if site_mask is not None:
            site_mask = np.asarray(site_mask, dtype=bool)
            if site_mask.shape != spec.shape:
                raise MappingError("site mask shape does not match grid spec")
        self._site_mask = site_mask
        # Used only for its leaf lattice: it stores no points.
        self._lattice = OctoMap.for_spec(spec)
        self._reset()

    # -- state access ------------------------------------------------------------

    @property
    def spec(self) -> GridSpec:
        return self._spec

    @property
    def covered_cells(self) -> int:
        """Covered-cell count (site-masked), maintained incrementally."""
        return self._covered_cells

    @property
    def n_cached_cameras(self) -> int:
        return len(self._cameras)

    @property
    def n_applied_points(self) -> int:
        return len(self._applied)

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
        full_rebuild: bool = False,
    ) -> MapUpdate:
        """Bring the maps up to date with ``model`` (+ filtered ``cloud``).

        ``cloud`` is the point cloud the maps should be built from —
        normally the SOR-filtered cloud, which is why it is passed
        separately from ``model`` (whose own cloud is unfiltered). Omitted,
        ``model.cloud`` is used.
        """
        if full_rebuild:
            self._reset()
        if cloud is None:
            cloud = model.cloud

        added, removed = self._diff_cloud(cloud)
        dirty_cols = self._apply_cloud_delta(added, removed)
        mask_changed = self._remerge_columns(dirty_cols)
        refreshed, reused, n_new = self._update_cameras(
            model, cloud, added, removed, mask_changed
        )
        self._update_coverage(mask_changed)

        self._m_updates.inc()
        self._m_cache_hits.inc(reused)
        self._m_cache_misses.inc(refreshed + n_new)
        self._h_dirty.record(len(dirty_cols))
        self._g_covered.set(self._covered_cells)
        return MapUpdate(
            maps=self.maps(),
            covered_cells=self._covered_cells,
            points_added=len(added),
            points_removed=len(removed),
            cameras_added=n_new,
            cameras_refreshed=refreshed,
            cameras_reused=reused,
            dirty_obstacle_cells=len(dirty_cols),
            full_rebuild=full_rebuild,
        )

    # -- obstacles: per-cell column counts + dirty-cell re-threshold -------------

    def _diff_cloud(
        self, cloud: PointCloud
    ) -> Tuple[List[Tuple[int, Tuple[float, float, float]]], List[Tuple[int, Tuple[float, float, float]]]]:
        """Symmetric diff of ``cloud`` against the applied point set.

        The SOR filter is a *global* statistic: adding points can evict
        previously-inlying points, so the delta is not insert-only. Points
        whose position changed are treated as remove + add.
        """
        ids = cloud.feature_ids
        xyz = cloud.xyz
        new: Dict[int, Tuple[float, float, float]] = {}
        for i in range(ids.shape[0]):
            new[int(ids[i])] = (float(xyz[i, 0]), float(xyz[i, 1]), float(xyz[i, 2]))
        if len(new) != ids.shape[0]:
            raise MappingError("point cloud has duplicate feature ids")

        added: List[Tuple[int, Tuple[float, float, float]]] = []
        removed: List[Tuple[int, Tuple[float, float, float]]] = []
        for fid, pos in new.items():
            old = self._applied.get(fid)
            if old is None:
                added.append((fid, pos))
            elif old != pos:
                removed.append((fid, old))
                added.append((fid, pos))
        if len(new) - len(added) != len(self._applied) - len(removed):
            # Some applied points vanished entirely from the cloud.
            for fid, old in self._applied.items():
                if fid not in new:
                    removed.append((fid, old))
        return added, removed

    def _apply_cloud_delta(self, added, removed) -> Set[Tuple[int, int]]:
        """Move the column counts by the diff; return the touched map cells.

        A point counts in the cell under its leaf centre, and only when
        that centre lies inside the cube and the vertical band — the
        placement :func:`~repro.mapping.obstacles.calculate_obstacles_map`
        uses.
        """
        for fid, _pos in removed:
            del self._applied[fid]
        self._applied.update(added)
        dirty: Set[Tuple[int, int]] = set()
        for step, delta in ((-1, removed), (1, added)):
            for _fid, pos in delta:
                leaf = self._lattice.leaf_center(*pos)
                if leaf is None or not self._z_min <= leaf[2] <= self._z_max:
                    continue  # outside the cube or the vertical band
                cell = self._spec.cell_of(Vec2(leaf[0], leaf[1]))
                if cell is not None:
                    self._counts[cell] += step
                    dirty.add(cell)
        return dirty

    def _remerge_columns(self, dirty: Set[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Re-threshold only the dirtied cells; return occupancy-flipped cells."""
        flipped: List[Tuple[int, int]] = []
        for (row, col) in dirty:
            count = int(self._counts[row, col])
            new_value = float(count) if count >= self._threshold else 0.0
            old_value = self._obst[row, col]
            if (new_value > 0.0) != (old_value > 0.0):
                flipped.append((row, col))
            self._obst[row, col] = new_value
        if flipped:
            rows = np.array([rc[0] for rc in flipped])
            cols = np.array([rc[1] for rc in flipped])
            self._obst_mask[rows, cols] = self._obst[rows, cols] > 0.0
        return flipped

    # -- visibility: cached FOV wedges with targeted invalidation ----------------

    def _update_cameras(
        self,
        model: SfmModel,
        cloud: PointCloud,
        added,
        removed,
        mask_changed: List[Tuple[int, int]],
    ) -> Tuple[int, int, int]:
        spec = self._spec
        current_ids = {camera.photo_id for camera in model.cameras}

        # Cameras that left the model (defensive; does not happen in the
        # simulator, but keeps the cache an exact function of the model).
        for photo_id in [pid for pid in self._cameras if pid not in current_ids]:
            self._retire_camera(photo_id)

        # (a) obstacle-dirt rule: any occupancy-flipped cell within reach
        # invalidates the wedge — rays may now stop earlier or reach
        # farther. Strictly conservative: the wedge is a subset of the
        # disc of radius max_range (+ margin) around the camera.
        obstacle_stale: Set[int] = set()
        if mask_changed and self._cameras:
            reach = self._max_range + _REACH_MARGIN_CELLS * spec.cell_size_m
            centers = np.array(
                [
                    (
                        spec.origin_x + (c + 0.5) * spec.cell_size_m,
                        spec.origin_y + (r + 0.5) * spec.cell_size_m,
                    )
                    for r, c in mask_changed
                ]
            )
            cam_ids = list(self._cameras)
            cam_xy = np.array(
                [(self._cameras[pid].x, self._cameras[pid].y) for pid in cam_ids]
            )
            d2 = (
                (cam_xy[:, None, 0] - centers[None, :, 0]) ** 2
                + (cam_xy[:, None, 1] - centers[None, :, 1]) ** 2
            )
            hit = (d2 <= reach * reach).any(axis=1)
            obstacle_stale = {pid for pid, h in zip(cam_ids, hit) if h}

        # (b) information rule: cameras whose observed-point sets intersect
        # changed cloud features may have different clip ranges.
        range_stale: Set[int] = set()
        if self._clip:
            for fid, _pos in added:
                range_stale.update(self._feature_cams.get(fid, ()))
            for fid, _pos in removed:
                range_stale.update(self._feature_cams.get(fid, ()))

        ids_sorted = np.zeros(0, dtype=int)
        xy_sorted = np.zeros((0, 2))
        if self._clip:
            order = np.argsort(cloud.feature_ids)
            ids_sorted = cloud.feature_ids[order]
            xy_sorted = cloud.floor_xy()[order]

        refreshed = 0
        reused = 0
        n_new = 0
        for camera in model.cameras:
            entry = self._cameras.get(camera.photo_id)
            key = self._camera_key(camera)
            if entry is None:
                self._admit_camera(camera, key, ids_sorted, xy_sorted)
                n_new += 1
                continue
            if entry.key != key or entry.observed_ref is not camera.observed_feature_ids:
                # Pose/intrinsics/observations changed: full refresh.
                self._retire_camera(camera.photo_id)
                self._admit_camera(camera, key, ids_sorted, xy_sorted)
                refreshed += 1
                continue
            pid = camera.photo_id
            needs_mask = pid in obstacle_stale
            if pid in range_stale:
                ranges = self._ranges_for(camera, ids_sorted, xy_sorted)
                if not np.array_equal(ranges, entry.ranges):
                    entry.ranges = ranges
                    needs_mask = True
            if needs_mask:
                self._refresh_wedge(camera, entry)
                refreshed += 1
            else:
                reused += 1
        return refreshed, reused, n_new

    def _camera_key(self, camera: RecoveredCamera):
        pose = camera.pose
        return (pose.position.x, pose.position.y, pose.yaw_rad, camera.hfov_rad)

    def _ranges_for(self, camera, ids_sorted, xy_sorted):
        if not self._clip:
            return None
        return sector_information_ranges(camera, ids_sorted, xy_sorted, self._max_range)

    def _wedge_cells(self, camera: RecoveredCamera, ranges) -> np.ndarray:
        mask = camera_visible_cells(
            self._spec,
            self._obst_mask,
            camera.pose.position.x,
            camera.pose.position.y,
            camera.pose.yaw_rad,
            camera.hfov_rad,
            self._max_range,
            ray_ranges_m=ranges,
        )
        return np.flatnonzero(mask.ravel())

    def _admit_camera(self, camera, key, ids_sorted, xy_sorted) -> None:
        ranges = self._ranges_for(camera, ids_sorted, xy_sorted)
        cells = self._wedge_cells(camera, ranges)
        self._vis.reshape(-1)[cells] += 1.0
        self._cov_dirty.update(cells.tolist())
        self._cameras[camera.photo_id] = _CameraEntry(
            key,
            camera.observed_feature_ids,
            ranges,
            cells,
            camera.pose.position.x,
            camera.pose.position.y,
        )
        if self._clip and camera.observed_feature_ids is not None:
            pid = camera.photo_id
            for fid in camera.observed_feature_ids:
                self._feature_cams.setdefault(int(fid), set()).add(pid)

    def _retire_camera(self, photo_id: int) -> None:
        entry = self._cameras.pop(photo_id)
        self._vis.reshape(-1)[entry.cells] -= 1.0
        self._cov_dirty.update(entry.cells.tolist())
        if self._clip and entry.observed_ref is not None:
            for fid in entry.observed_ref:
                observers = self._feature_cams.get(int(fid))
                if observers is not None:
                    observers.discard(photo_id)
                    if not observers:
                        del self._feature_cams[int(fid)]

    def _refresh_wedge(self, camera, entry: _CameraEntry) -> None:
        new_cells = self._wedge_cells(camera, entry.ranges)
        changed = np.setxor1d(entry.cells, new_cells, assume_unique=True)
        if changed.size == 0:
            return
        vis = self._vis.reshape(-1)
        vis[entry.cells] -= 1.0
        vis[new_cells] += 1.0
        entry.cells = new_cells
        self._cov_dirty.update(changed.tolist())

    # -- coverage: dirty-region union maintenance --------------------------------

    def _update_coverage(self, mask_changed: List[Tuple[int, int]]) -> None:
        n_cols = self._spec.n_cols
        for row, col in mask_changed:
            self._cov_dirty.add(row * n_cols + col)
        if not self._cov_dirty:
            return
        idx = np.fromiter(self._cov_dirty, dtype=np.int64, count=len(self._cov_dirty))
        self._cov_dirty.clear()
        obst, vis = self._obst.reshape(-1), self._vis.reshape(-1)
        covered = (obst[idx] > 0.0) | (vis[idx] > 0.0)
        if self._site_mask is not None:
            covered &= self._site_mask.reshape(-1)[idx]
        covered_flat = self._covered.reshape(-1)
        self._covered_cells += int(covered.sum()) - int(covered_flat[idx].sum())
        covered_flat[idx] = covered

    # -- lifecycle ---------------------------------------------------------------

    def _reset(self) -> None:
        spec = self._spec
        self._applied: Dict[int, Tuple[float, float, float]] = {}
        self._counts = np.zeros(spec.shape, dtype=np.int64)
        self._obst = np.zeros(spec.shape, dtype=float)
        self._obst_mask = np.zeros(spec.shape, dtype=bool)
        self._vis = np.zeros(spec.shape, dtype=float)
        self._covered = np.zeros(spec.shape, dtype=bool)
        self._covered_cells = 0
        self._cameras: Dict[int, _CameraEntry] = {}
        self._feature_cams: Dict[int, Set[int]] = {}
        self._cov_dirty: Set[int] = set()
