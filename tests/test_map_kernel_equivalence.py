"""Exact equivalence of the map engine's batched kernels and the ones they replaced.

The map engine works per update, not per camera or per point:

* ``sector_information_ranges`` clips a whole list of cameras in one
  blocked pass and returns one row per camera;
* ``visible_cell_indices`` drops repeated wedge samples by marking a grid
  instead of sorting them;
* ``OctoMap.leaf_centers`` runs the octree's midpoint descent on columns.

The one-camera clip-range pass, the sorting ray march and the scalar
descent they replaced are kept below, verbatim, as oracles. Every
comparison is bit-exact: over edge-case geometry drawn by hypothesis,
and over every call of a ``deploy-ref`` campaign, replayed.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.camera import GALAXY_S7, CameraPose
from repro.camera.intrinsics import Intrinsics
from repro.config import paper_config
from repro.eval import Workbench
from repro.geometry import BoundingBox
from repro.mapping import GridSpec, OctoMap
from repro.mapping import incremental, visibility
from repro.mapping.visibility import (
    INFO_MARGIN_M,
    MIN_INFO_RANGE_M,
    _N_SECTORS,
    _RAY_DENSITY,
    _resample_ranges,
    sector_information_ranges,
    visible_cell_indices,
)
from repro.server import Deployment
from repro.sfm.model import RecoveredCamera


# -- the replaced kernels, verbatim -------------------------------------------


def oracle_visible_cell_indices(
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


def oracle_sector_information_ranges(
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


def oracle_leaf_center(
    self, x: float, y: float, z: float
) -> Optional[Tuple[float, float, float]]:
    """Centre of the leaf containing (x, y, z); ``None`` outside the cube.

    The octree's descent rule, run from the root down to the leaf
    depth: a coordinate on a node's midpoint goes to the upper child
    (``>=``), and each child centre is its parent's centre ± a
    quarter of the parent's side. The bounds are closed, so a point
    on the cube's maximum face lands in the last leaf; NaN is outside.
    Both the from-scratch obstacles map and the incremental engine
    place points with this one rule.
    """
    cx, cy, cz = self._center
    half = self._half
    if not (abs(x - cx) <= half and abs(y - cy) <= half and abs(z - cz) <= half):
        return None
    for _ in range(self._max_depth):
        quarter = half / 2.0
        cx += quarter if x >= cx else -quarter
        cy += quarter if y >= cy else -quarter
        cz += quarter if z >= cz else -quarter
        half = quarter
    return (cx, cy, cz)


# -- comparisons ----------------------------------------------------------------


def assert_same_ranges(cameras, ids, xy, max_range_m, got):
    assert got.shape == (len(cameras), _N_SECTORS)
    for camera, row in zip(cameras, got):
        want = oracle_sector_information_ranges(camera, ids, xy, max_range_m)
        assert np.array_equal(row, want), camera.photo_id


def assert_same_leaves(tree, xyz, got):
    centres, inside = got
    assert centres.shape == (xyz.shape[0], 3) and inside.shape == (xyz.shape[0],)
    for point, centre, is_inside in zip(xyz.tolist(), centres.tolist(), inside):
        want = oracle_leaf_center(tree, *point)
        assert (want is not None) == is_inside, point
        if want is not None:
            assert tuple(centre) == want, point


# -- edge-case geometry -----------------------------------------------------------

SPECS = [
    GridSpec.from_bbox(BoundingBox(0.0, 0.0, 3.0, 4.0), 0.25, margin_m=0.0),
    GridSpec(origin_x=-1.0, origin_y=-2.3, cell_size_m=0.15, n_rows=21, n_cols=34),
]

spec_index = st.integers(0, len(SPECS) - 1)
#: Spans the grids and a few metres past them on every side, negative
#: coordinates included.
coords = st.one_of(
    st.floats(-4.0, 9.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([-2.3, -1.0, 0.0, 0.15, 0.25, 1.0, 2.5, 4.0]),
)
yaws = st.one_of(
    st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, math.pi / 2.0, -math.pi / 2.0, math.pi, -math.pi]),
)
hfovs = st.one_of(
    st.floats(0.2, 2.8, allow_nan=False, allow_infinity=False),
    st.just(GALAXY_S7.hfov_rad),
)
max_ranges = st.sampled_from([0.1, 0.3, 1.0, 2.5, 5.0])


@st.composite
def obstacle_masks(draw, spec):
    kind = draw(st.sampled_from(["empty", "full", "random"]))
    if kind == "empty":
        return np.zeros(spec.shape, dtype=bool)
    if kind == "full":
        return np.ones(spec.shape, dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(spec.shape) < draw(st.sampled_from([0.02, 0.1, 0.4]))


@st.composite
def ray_ranges(draw, max_range_m):
    if draw(st.booleans()):
        return None
    values = st.one_of(
        st.floats(0.0, max_range_m + 1.0, allow_nan=False),
        st.sampled_from([MIN_INFO_RANGE_M, max_range_m]),
    )
    return np.array(draw(st.lists(values, min_size=_N_SECTORS, max_size=_N_SECTORS)))


def intrinsics_with_fov(hfov_rad: float) -> Intrinsics:
    width = 4032
    return Intrinsics("test", (width / 2.0) / math.tan(hfov_rad / 2.0), width, 3024)


@st.composite
def clip_scenes(draw):
    """A cloud and cameras with observations that are ``None``, empty,
    unmatched or a mix of cloud ids and unknown ids; FOVs differ."""
    n_points = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.sort(rng.choice(1000, size=n_points, replace=False)).astype(np.int64)
    xy = rng.uniform(-4.0, 9.0, size=(n_points, 2))
    cameras = []
    for photo_id in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["none", "empty", "unmatched", "mixed", "all"]))
        if kind == "none":
            observed = None
        elif kind == "empty":
            observed = np.zeros(0, dtype=int)
        elif kind == "unmatched":
            observed = rng.integers(1000, 2000, size=int(rng.integers(1, 20)))
        else:
            known = ids[rng.random(ids.size) < (1.0 if kind == "all" else 0.6)]
            unknown = rng.integers(-50, 2000, size=int(rng.integers(0, 8)))
            observed = rng.permutation(np.concatenate([known, unknown]))
        cameras.append(
            RecoveredCamera(
                photo_id=photo_id,
                pose=CameraPose.at(draw(coords), draw(coords), draw(yaws)),
                intrinsics=intrinsics_with_fov(draw(hfovs)),
                n_inliers=10,
                observed_feature_ids=observed,
            )
        )
    return cameras, ids, xy


class TestEdgeCaseGeometry:
    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.data(), spec_index, coords, coords, yaws, hfovs, max_ranges)
    def test_wedge_equals_sorting_ray_march(self, data, spec_i, x, y, yaw, hfov, max_range):
        """Cameras on and off the grid, at negative coordinates, with and
        without per-ray ranges, through empty, full and random obstacles."""
        spec = SPECS[spec_i]
        mask = data.draw(obstacle_masks(spec))
        ranges = data.draw(ray_ranges(max_range))
        args = (spec, mask, x, y, yaw, hfov, max_range)
        got = visible_cell_indices(*args, ray_ranges_m=ranges)
        want = oracle_visible_cell_indices(*args, ray_ranges_m=ranges)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(clip_scenes(), max_ranges, st.sampled_from([1, 3, 8192]))
    def test_batched_ranges_equal_one_camera_passes(self, scene, max_range, block_rows):
        """Blocks split one camera's rows too, when it has more than one."""
        cameras, ids, xy = scene
        with mock.patch.object(visibility, "_RANGE_BLOCK_ROWS", block_rows):
            got = sector_information_ranges(cameras, ids, xy, max_range)
        assert_same_ranges(cameras, ids, xy, max_range, got)

    @pytest.mark.parametrize(
        "tree",
        [
            OctoMap((0.0, 0.0, 0.0), half_extent=8.0, resolution=0.25),
            OctoMap.for_spec(SPECS[1]),
        ],
        ids=["exact", "paper"],
    )
    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(data=st.data())
    def test_leaf_centers_equal_scalar_descent(self, tree, data):
        """Points inside the cube, on its faces and node midpoints, just
        past it, far outside it, and NaN."""
        lo = np.array(tree.min_corner)
        side = tree.leaf_size * 2**tree.max_depth
        axis = st.one_of(
            st.floats(-0.5, 1.5, allow_nan=False),
            st.sampled_from([0.0, 0.5, 1.0, 0.25, 0.75, -1e-12, 1.0 + 1e-12, 1.5, -3.0]),
            st.integers(0, 2**tree.max_depth).map(lambda k: k / 2**tree.max_depth),
            st.just(math.nan),
        )
        units = np.array(data.draw(st.lists(st.tuples(axis, axis, axis), max_size=30)))
        xyz = lo + units.reshape(-1, 3) * side
        assert_same_leaves(tree, xyz, tree.leaf_centers(xyz))

    def test_camera_without_observations_is_unclipped(self):
        camera = RecoveredCamera(
            photo_id=1, pose=CameraPose.at(-3.0, 2.0, 1.0), intrinsics=GALAXY_S7,
            n_inliers=1, observed_feature_ids=None,
        )
        no_ids, no_xy = np.zeros(0, dtype=np.int64), np.zeros((0, 2))
        got = sector_information_ranges([camera], no_ids, no_xy, 4.0)
        assert np.array_equal(got, np.full((1, _N_SECTORS), 4.0))
        assert sector_information_ranges([], no_ids, no_xy, 4.0).shape == (0, _N_SECTORS)


# -- recorded campaign ------------------------------------------------------------


@pytest.fixture(scope="module")
def deploy_ref_calls():
    """Every kernel call of a deploy-ref campaign, with its inputs and output."""
    calls = {"wedge": [], "ranges": [], "leaves": []}
    real_wedge = incremental.visible_cell_indices
    real_ranges = incremental.sector_information_ranges
    real_leaves = OctoMap.leaf_centers
    last_mask = [np.zeros(0, dtype=bool)]

    def wedge(spec, obstacle_mask, *args, ray_ranges_m=None):
        cells = real_wedge(spec, obstacle_mask, *args, ray_ranges_m=ray_ranges_m)
        # The engine's obstacle mask changes once per update: keep one copy.
        if not np.array_equal(obstacle_mask, last_mask[0]):
            last_mask[0] = obstacle_mask.copy()
        ranges = None if ray_ranges_m is None else ray_ranges_m.copy()
        calls["wedge"].append((spec, last_mask[0], args, ranges, cells))
        return cells

    def ranges(cameras, ids, xy, max_range_m):
        got = real_ranges(cameras, ids, xy, max_range_m)
        calls["ranges"].append((list(cameras), ids.copy(), xy.copy(), max_range_m, got))
        return got

    def leaves(tree, xyz):
        got = real_leaves(tree, xyz)
        calls["leaves"].append((tree, np.array(xyz, dtype=float), got))
        return got

    mp = pytest.MonkeyPatch()
    mp.setattr(incremental, "visible_cell_indices", wedge)
    mp.setattr(incremental, "sector_information_ranges", ranges)
    mp.setattr(OctoMap, "leaf_centers", leaves)
    try:
        bench = Workbench.for_library(paper_config(seed=2018))
        Deployment(bench, n_clients=2).run(until_s=2000.0)
    finally:
        mp.undo()
    return calls


class TestRecordedCampaign:
    def test_every_wedge_matches_the_sorting_ray_march(self, deploy_ref_calls):
        calls = deploy_ref_calls["wedge"]
        assert len(calls) > 500
        for spec, mask, args, ranges, cells in calls:
            want = oracle_visible_cell_indices(spec, mask, *args, ranges)
            assert np.array_equal(cells, want)

    def test_every_range_pass_matches_one_camera_passes(self, deploy_ref_calls):
        calls = deploy_ref_calls["ranges"]
        assert sum(len(cameras) for cameras, *_ in calls) > 500
        for cameras, ids, xy, max_range_m, got in calls:
            assert_same_ranges(cameras, ids, xy, max_range_m, got)

    def test_every_leaf_descent_matches_the_scalar_one(self, deploy_ref_calls):
        calls = deploy_ref_calls["leaves"]
        assert sum(xyz.shape[0] for _tree, xyz, _got in calls) > 1000
        for tree, xyz, got in calls:
            assert_same_leaves(tree, xyz, got)
