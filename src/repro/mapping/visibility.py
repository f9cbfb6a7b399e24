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
from typing import Iterable, Optional

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

    cols = np.floor((xs - spec.origin_x) / cell).astype(int)
    rows = np.floor((ys - spec.origin_y) / cell).astype(int)
    in_bounds = (rows >= 0) & (rows < spec.n_rows) & (cols >= 0) & (cols < spec.n_cols)
    flat = rows * spec.n_cols + cols
    blocked = obstacle_mask.reshape(-1)[np.where(in_bounds, flat, 0)] & in_bounds

    # A step is visible up to and including its ray's first blocked step;
    # the blocking obstacle cell itself is visible (you can see the wall).
    first_block = np.where(blocked.any(axis=1), blocked.argmax(axis=1), n_steps)
    cells = flat[in_bounds & within & (np.arange(n_steps) <= first_block[:, None])]

    # The camera's own cell is covered if it is in bounds.
    col0 = int(math.floor((position_x - spec.origin_x) / cell))
    row0 = int(math.floor((position_y - spec.origin_y) / cell))
    if 0 <= row0 < spec.n_rows and 0 <= col0 < spec.n_cols:
        cells = np.append(cells, row0 * spec.n_cols + col0)
    # Sort, then drop repeats: numpy 2's np.unique hashes integer input,
    # which is several times slower on arrays of this size.
    cells.sort()
    first = np.ones(cells.size, dtype=bool)
    first[1:] = cells[1:] != cells[:-1]
    return cells[first]


def sector_information_ranges(
    camera: RecoveredCamera,
    cloud_ids_sorted: np.ndarray,
    cloud_xy_sorted: np.ndarray,
    max_range_m: float,
    n_sectors: int = _N_SECTORS,
) -> np.ndarray:
    """Per-sector wedge range from the camera's triangulated observations.

    Sector k spans an equal slice of the FOV; its range is the distance of
    the farthest triangulated point the camera observed in that slice,
    plus :data:`INFO_MARGIN_M`, clipped to ``max_range_m``. Sectors with
    no observed points keep only :data:`MIN_INFO_RANGE_M`.

    ``cloud_ids_sorted`` / ``cloud_xy_sorted`` are the triangulated cloud's
    feature ids (sorted) and matching floor positions.
    """
    observed = camera.observed_feature_ids
    if observed is None:
        return np.full(n_sectors, max_range_m)
    ranges = np.full(n_sectors, MIN_INFO_RANGE_M)
    obs = np.asarray(observed, dtype=int)
    if obs.size == 0 or cloud_ids_sorted.size == 0:
        return ranges
    pos = np.searchsorted(cloud_ids_sorted, obs)
    pos = np.minimum(pos, cloud_ids_sorted.size - 1)
    matched = cloud_ids_sorted[pos] == obs
    if not matched.any():
        return ranges
    pts = cloud_xy_sorted[pos[matched]]

    half = camera.hfov_rad / 2.0
    dx = pts[:, 0] - camera.pose.position.x
    dy = pts[:, 1] - camera.pose.position.y
    bearing = np.arctan2(dy, dx) - camera.pose.yaw_rad
    bearing = (bearing + np.pi) % (2.0 * np.pi) - np.pi
    in_fov = np.abs(bearing) <= half
    if not in_fov.any():
        return ranges
    sectors = np.minimum(
        n_sectors - 1,
        ((bearing[in_fov] + half) / (2.0 * half) * n_sectors).astype(int),
    )
    dists = np.minimum(max_range_m, np.hypot(dx[in_fov], dy[in_fov]) + INFO_MARGIN_M)
    np.maximum.at(ranges, sectors, dists)
    return ranges


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

    for camera in cameras if cameras is not None else model.cameras:
        ray_ranges = sector_information_ranges(
            camera, cloud_ids_sorted, cloud_xy_sorted, max_range_m
        )
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
