"""Algorithm 3: calculateVisibilityMap.

    1: extract camera positions P and facing directions D from M
    2: all_fields <= empty matrix
    3: for p in P, d in D:
    4:   f <= fov(p, d)                      // single camera coverage
    5:   visible_field <= intersect(f, O)    // clip by obstacles (Fig. 4)
    6:   all_fields += visible_field

"The value of a cell is equal to a number of cameras which fields-of-view
cover that particular cell." The map is built from "camera views of the
photos **used for reconstructing the 3D point cloud**" (Sec. IV): a
camera only covers space where it actually contributed model information.
Each camera's FOV wedge is therefore clipped twice:

* by the obstacles map O — rays stop at the first obstacle cell (the
  paper's Figure-4 aspect intersection), and
* by information — per angular sector, the wedge extends only slightly
  beyond the farthest *triangulated* point this camera observed there. A
  camera staring through a glass wall reconstructs nothing behind it, so
  its wedge does not mark that space as covered; this is precisely what
  keeps featureless areas "unvisited" until an annotation task fixes them.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..sfm.model import RecoveredCamera, SfmModel
from .grid import Grid2D, GridSpec

#: Rays per camera FOV wedge are chosen so adjacent rays are at most one
#: cell apart at max range; this multiplier adds safety overlap.
_RAY_DENSITY = 1.6

#: Number of angular sectors used for information clipping.
_N_SECTORS = 9

#: A camera always covers its immediate vicinity, even in sectors where it
#: observed no triangulated points.
MIN_INFO_RANGE_M = 0.3

#: The wedge extends this far beyond the farthest observed point, so the
#: surface the point sits on is itself covered.
INFO_MARGIN_M = 1.0

#: Observation rows per block of :func:`sector_information_ranges`: the
#: block's float temporaries stay a few hundred kilobytes however many
#: cameras one map update re-clips.
_RANGE_BLOCK_ROWS = 8192


def camera_visible_cells(
    spec: GridSpec,
    obstacle_mask: np.ndarray,
    position_x: float,
    position_y: float,
    yaw_rad: float,
    hfov_rad: float,
    max_range_m: float,
    ray_ranges_m: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boolean mask of cells covered by one camera, clipped by obstacles.

    The mask view of :func:`visible_cell_indices` (same arguments).
    """
    cells = visible_cell_indices(
        spec,
        obstacle_mask,
        position_x,
        position_y,
        yaw_rad,
        hfov_rad,
        max_range_m,
        ray_ranges_m,
    )
    mask = np.zeros(spec.shape, dtype=bool)
    mask.reshape(-1)[cells] = True
    return mask


def visible_cell_indices(
    spec: GridSpec,
    obstacle_mask: np.ndarray,
    position_x: float,
    position_y: float,
    yaw_rad: float,
    hfov_rad: float,
    max_range_m: float,
    ray_ranges_m: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sorted flat indices of the cells covered by one camera.

    ``ray_ranges_m`` optionally limits each ray individually (information
    clipping); rays are spread uniformly across the FOV. Vectorised ray
    marching: all rays advance in lockstep along radial steps; a ray is
    dead after its first obstacle hit.
    """
    cell = spec.cell_size_m
    n_steps = max(1, int(math.ceil(max_range_m / (cell * 0.5))))
    arc_cells = (hfov_rad * max_range_m) / cell
    n_rays = max(3, int(math.ceil(arc_cells * _RAY_DENSITY)))

    angles = yaw_rad + np.linspace(-hfov_rad / 2.0, hfov_rad / 2.0, n_rays)
    radii = (np.arange(1, n_steps + 1) * (cell * 0.5)).reshape(1, -1)  # (1, S)
    if ray_ranges_m is not None:
        limits = _resample_ranges(ray_ranges_m, n_rays).reshape(-1, 1)
    else:
        limits = np.full((n_rays, 1), max_range_m)

    xs = position_x + np.cos(angles).reshape(-1, 1) * radii  # (R, S)
    ys = position_y + np.sin(angles).reshape(-1, 1) * radii
    within = radii <= limits  # (R, S)

    cols = np.floor((xs - spec.origin_x) / cell).astype(np.int64)
    rows = np.floor((ys - spec.origin_y) / cell).astype(np.int64)
    # Viewed unsigned, a negative index is huge: one compare per axis.
    in_bounds = (rows.view(np.uint64) < spec.n_rows) & (
        cols.view(np.uint64) < spec.n_cols
    )
    flat = rows * spec.n_cols + cols
    blocked = obstacle_mask.reshape(-1).take(flat, mode="clip") & in_bounds

    # A step is visible up to and including its ray's first blocked step;
    # the blocking obstacle cell itself is visible (you can see the wall).
    first_block = np.where(blocked.any(axis=1), blocked.argmax(axis=1), n_steps)
    seen = np.zeros(spec.n_rows * spec.n_cols, dtype=bool)
    seen[flat[in_bounds & within & (np.arange(n_steps) <= first_block[:, None])]] = True

    # The camera's own cell is covered if it is in bounds.
    col0 = int(math.floor((position_x - spec.origin_x) / cell))
    row0 = int(math.floor((position_y - spec.origin_y) / cell))
    if 0 <= row0 < spec.n_rows and 0 <= col0 < spec.n_cols:
        seen[row0 * spec.n_cols + col0] = True
    # Marking a grid drops repeated samples without a sort.
    return np.flatnonzero(seen)


def sector_information_ranges(
    cameras: Sequence[RecoveredCamera],
    cloud_ids_sorted: np.ndarray,
    cloud_xy_sorted: np.ndarray,
    max_range_m: float,
    n_sectors: int = _N_SECTORS,
) -> np.ndarray:
    """Per-sector wedge ranges of ``cameras`` from their observations.

    Row c holds camera c's ranges. Sector k spans an equal slice of the
    FOV; its range is the distance of the farthest triangulated point the
    camera observed in that slice, plus :data:`INFO_MARGIN_M`, clipped to
    ``max_range_m``. Sectors with no observed points keep only
    :data:`MIN_INFO_RANGE_M`; a camera without observations
    (``observed_feature_ids`` is ``None``) is unclipped.

    ``cloud_ids_sorted`` / ``cloud_xy_sorted`` are the triangulated cloud's
    feature ids (sorted) and matching floor positions. All cameras'
    observations go through one pass, :data:`_RANGE_BLOCK_ROWS` rows at a
    time, with each row's arithmetic that of a one-camera pass, so the
    maxima are the same.
    """
    ranges = np.full((len(cameras), n_sectors), MIN_INFO_RANGE_M)
    for c, camera in enumerate(cameras):
        if camera.observed_feature_ids is None:
            ranges[c] = max_range_m
    if cloud_ids_sorted.size == 0:
        return ranges
    px = np.array([camera.pose.position.x for camera in cameras])
    py = np.array([camera.pose.position.y for camera in cameras])
    yaw = np.array([camera.pose.yaw_rad for camera in cameras])
    half = np.array([camera.hfov_rad for camera in cameras]) / 2.0
    flat_ranges = ranges.reshape(-1)
    for cam, obs in _observation_blocks(cameras):
        pos = np.searchsorted(cloud_ids_sorted, obs)
        pos = np.minimum(pos, cloud_ids_sorted.size - 1)
        matched = cloud_ids_sorted[pos] == obs
        pts = cloud_xy_sorted[pos[matched]]
        cam = cam[matched]

        cam_half = half[cam]
        dx = pts[:, 0] - px[cam]
        dy = pts[:, 1] - py[cam]
        bearing = np.arctan2(dy, dx) - yaw[cam]
        bearing = (bearing + np.pi) % (2.0 * np.pi) - np.pi
        in_fov = np.abs(bearing) <= cam_half
        cam_half = cam_half[in_fov]
        sectors = np.minimum(
            n_sectors - 1,
            ((bearing[in_fov] + cam_half) / (2.0 * cam_half) * n_sectors).astype(int),
        )
        dists = np.minimum(max_range_m, np.hypot(dx[in_fov], dy[in_fov]) + INFO_MARGIN_M)
        np.maximum.at(flat_ranges, cam[in_fov] * n_sectors + sectors, dists)
    return ranges


def _observation_blocks(cameras: Sequence[RecoveredCamera]):
    """(camera index, observed feature id) columns of ``cameras``, in
    blocks of at most :data:`_RANGE_BLOCK_ROWS` rows; a camera's rows may
    span two blocks."""
    owners: List[np.ndarray] = []
    parts: List[np.ndarray] = []
    n_rows = 0
    for c, camera in enumerate(cameras):
        if camera.observed_feature_ids is None:
            continue
        obs = np.asarray(camera.observed_feature_ids, dtype=int)
        while obs.size:
            room = _RANGE_BLOCK_ROWS - n_rows
            part, obs = obs[:room], obs[room:]
            owners.append(np.full(part.size, c))
            parts.append(part)
            n_rows += part.size
            if n_rows == _RANGE_BLOCK_ROWS:
                yield np.concatenate(owners), np.concatenate(parts)
                owners, parts, n_rows = [], [], 0
    if n_rows:
        yield np.concatenate(owners), np.concatenate(parts)


def calculate_visibility_map(
    model: SfmModel,
    obstacles: Grid2D,
    max_range_m: float = 5.0,
    cameras: Optional[Iterable[RecoveredCamera]] = None,
) -> Grid2D:
    """Build the visibility map for all cameras in ``model``.

    Camera FOVs come from EXIF-recovered intrinsics (Sec. II-A). The
    returned grid counts, per cell, how many camera views cover it.
    """
    spec = obstacles.spec
    obstacle_mask = obstacles.nonzero_mask()
    all_fields = Grid2D(spec)

    cloud = model.cloud
    order = np.argsort(cloud.feature_ids)
    cloud_ids_sorted = cloud.feature_ids[order]
    cloud_xy_sorted = cloud.floor_xy()[order]

    cameras = list(cameras if cameras is not None else model.cameras)
    all_ranges = sector_information_ranges(
        cameras, cloud_ids_sorted, cloud_xy_sorted, max_range_m
    )
    for camera, ray_ranges in zip(cameras, all_ranges):
        cells = visible_cell_indices(
            spec,
            obstacle_mask,
            camera.pose.position.x,
            camera.pose.position.y,
            camera.pose.yaw_rad,
            camera.hfov_rad,
            max_range_m,
            ray_ranges_m=ray_ranges,
        )
        all_fields.data.reshape(-1)[cells] += 1.0
    return all_fields


def _resample_ranges(sector_ranges: np.ndarray, n_rays: int) -> np.ndarray:
    """Spread per-sector ranges across the ray bundle."""
    n_sectors = sector_ranges.shape[0]
    idx = np.minimum(
        (np.arange(n_rays) * n_sectors) // max(1, n_rays - 1), n_sectors - 1
    )
    return sector_ranges[idx]
