"""Tests for obstacle/visibility maps, coverage and the bounds metric."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import BoundingBox, Vec2
from repro.mapping import (
    CoverageMaps,
    Grid2D,
    GridSpec,
    calculate_obstacles_map,
    calculate_visibility_map,
    camera_visible_cells,
    outer_bounds_report,
    render_ascii,
    score_against_ground_truth,
    wall_covered_length,
)
from repro.mapping.visibility import (
    _RAY_DENSITY,
    _resample_ranges,
    sector_information_ranges,
    visible_cell_indices,
)
from repro.sfm import PointCloud, SfmModel
from repro.sfm.model import RecoveredCamera
from repro.sfm.pointcloud import CloudPoint
from repro.camera import GALAXY_S7, CameraPose
from repro.geometry import Segment


def small_spec(cell=0.25, size=10.0):
    return GridSpec.from_bbox(BoundingBox(0, 0, size, size), cell, margin_m=0.0)


def wall_cloud(x=5.0, y0=2.0, y1=8.0, step=0.05, per_column=6):
    """A dense synthetic 'wall' of points along x=const."""
    points = []
    fid = 0
    ys = np.arange(y0, y1, step)
    for y in ys:
        for k in range(per_column):
            points.append(CloudPoint(fid, x, float(y), 0.3 + 0.4 * k, 3))
            fid += 1
    return PointCloud(points)


class TestObstaclesMap:
    def test_wall_becomes_obstacles(self):
        spec = small_spec()
        grid = calculate_obstacles_map(wall_cloud(), spec, obstacle_threshold=4)
        assert grid.nonzero_count() > 10
        # Obstacle cells hug the x=5 line.
        rows, cols = np.nonzero(grid.nonzero_mask())
        xs = spec.origin_x + (cols + 0.5) * spec.cell_size_m
        assert np.all(np.abs(xs - 5.0) < 0.5)

    def test_threshold_suppresses_sparse_noise(self):
        spec = small_spec()
        sparse = PointCloud([CloudPoint(i, 1.0 + i, 1.0, 1.0, 3) for i in range(5)])
        grid = calculate_obstacles_map(sparse, spec, obstacle_threshold=4)
        assert grid.nonzero_count() == 0

    def test_z_band_filters_floor_and_ceiling(self):
        spec = small_spec()
        floor = PointCloud([CloudPoint(i, 5.0, 5.0, 0.01, 3) for i in range(20)])
        grid = calculate_obstacles_map(floor, spec, obstacle_threshold=4)
        assert grid.nonzero_count() == 0

    def test_empty_cloud(self):
        grid = calculate_obstacles_map(PointCloud.empty(), small_spec(), 4)
        assert grid.nonzero_count() == 0


def make_camera(photo_id, x, y, yaw, observed=None):
    return RecoveredCamera(
        photo_id=photo_id,
        pose=CameraPose.at(x, y, yaw),
        intrinsics=GALAXY_S7,
        n_inliers=100,
        observed_feature_ids=observed,
    )


def reference_visible_cells(
    spec, obstacle_mask, position_x, position_y, yaw_rad, hfov_rad, max_range_m,
    ray_ranges_m=None,
):
    """The full-grid ray march: clipped 2-D gathers, a running block count
    per ray and a boolean mask. The reference for the flat-index kernel."""
    cell = spec.cell_size_m
    n_steps = max(1, int(math.ceil(max_range_m / (cell * 0.5))))
    n_rays = max(3, int(math.ceil((hfov_rad * max_range_m) / cell * _RAY_DENSITY)))
    angles = yaw_rad + np.linspace(-hfov_rad / 2.0, hfov_rad / 2.0, n_rays)
    radii = (np.arange(1, n_steps + 1) * (cell * 0.5)).reshape(1, -1)
    if ray_ranges_m is not None:
        limits = _resample_ranges(ray_ranges_m, n_rays).reshape(-1, 1)
    else:
        limits = np.full((n_rays, 1), max_range_m)
    xs = position_x + np.cos(angles).reshape(-1, 1) * radii
    ys = position_y + np.sin(angles).reshape(-1, 1) * radii
    cols = np.floor((xs - spec.origin_x) / cell).astype(int)
    rows = np.floor((ys - spec.origin_y) / cell).astype(int)
    in_bounds = (rows >= 0) & (rows < spec.n_rows) & (cols >= 0) & (cols < spec.n_cols)
    rows_c = np.clip(rows, 0, spec.n_rows - 1)
    cols_c = np.clip(cols, 0, spec.n_cols - 1)
    blocked = obstacle_mask[rows_c, cols_c] & in_bounds
    prev_blocked = np.zeros_like(blocked)
    prev_blocked[:, 1:] = np.cumsum(blocked[:, :-1], axis=1) > 0
    visible = in_bounds & (radii <= limits) & ~prev_blocked
    mask = np.zeros(spec.shape, dtype=bool)
    mask[rows_c[visible], cols_c[visible]] = True
    col0 = int(math.floor((position_x - spec.origin_x) / cell))
    row0 = int(math.floor((position_y - spec.origin_y) / cell))
    if 0 <= row0 < spec.n_rows and 0 <= col0 < spec.n_cols:
        mask[row0, col0] = True
    return mask


class TestVisibilityMap:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cell=st.sampled_from([0.1, 0.15, 0.25]),
        n_rows=st.integers(1, 60),
        n_cols=st.integers(1, 60),
        density=st.sampled_from([0.0, 0.03, 0.15, 0.5, 1.0]),
        clipped=st.booleans(),
    )
    def test_flat_indices_match_reference_ray_march(
        self, seed, cell, n_rows, n_cols, density, clipped
    ):
        """Cameras inside and outside the grid, any yaw, FOV and range."""
        rng = np.random.default_rng(seed)
        spec = GridSpec(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), cell, n_rows, n_cols)
        mask = rng.random(spec.shape) < density
        args = (
            spec,
            mask,
            spec.origin_x + float(rng.uniform(-2, n_cols * cell + 2)),
            spec.origin_y + float(rng.uniform(-2, n_rows * cell + 2)),
            float(rng.uniform(-7, 7)),
            float(rng.uniform(0.01, 3.5)),
            float(rng.uniform(0.05, 8.0)),
            rng.uniform(0, 9, int(rng.integers(1, 12))) if clipped else None,
        )
        expected = reference_visible_cells(*args)
        cells = visible_cell_indices(*args)
        np.testing.assert_array_equal(cells, np.flatnonzero(expected))
        np.testing.assert_array_equal(camera_visible_cells(*args), expected)

    def test_wedge_blocked_by_obstacle(self):
        spec = small_spec()
        obstacles = Grid2D(spec)
        # A wall band at x=5.
        for row in range(spec.n_rows):
            obstacles.data[row, spec.cell_of(Vec2(5.0, 0.1))[1]] = 5.0
        mask = camera_visible_cells(
            spec, obstacles.nonzero_mask(), 2.0, 5.0, 0.0, 1.2, 6.0
        )
        # Cells before the wall visible; cells beyond it are not.
        before = spec.cell_of(Vec2(4.0, 5.0))
        beyond = spec.cell_of(Vec2(7.0, 5.0))
        assert mask[before]
        assert not mask[beyond]

    def test_ray_range_limits(self):
        spec = small_spec()
        empty = np.zeros(spec.shape, dtype=bool)
        mask = camera_visible_cells(spec, empty, 2.0, 5.0, 0.0, 1.2, 2.0)
        far = spec.cell_of(Vec2(6.0, 5.0))
        assert not mask[far]

    def test_counts_accumulate_per_camera(self):
        spec = small_spec()
        obstacles = Grid2D(spec)
        cameras = [make_camera(i, 2.0, 5.0, 0.0) for i in range(3)]
        model = SfmModel(PointCloud.empty(), cameras)
        grid = calculate_visibility_map(model, obstacles, 4.0)
        assert grid.data.max() == 3.0

    def test_information_clipping_limits_wedge(self):
        spec = small_spec()
        obstacles = Grid2D(spec)
        # One triangulated point 2 m ahead; camera observed it.
        cloud = PointCloud([CloudPoint(42, 4.0, 5.0, 1.0, 3)])
        camera = make_camera(1, 2.0, 5.0, 0.0, observed=np.array([42]))
        model = SfmModel(cloud, [camera])
        grid = calculate_visibility_map(model, obstacles, 6.0)
        near = spec.cell_of(Vec2(3.0, 5.0))
        far = spec.cell_of(Vec2(7.5, 5.0))  # beyond point + margin
        assert grid.data[near] > 0
        assert grid.data[far] == 0

    def test_no_observations_minimal_wedge(self):
        spec = small_spec()
        obstacles = Grid2D(spec)
        camera = make_camera(1, 2.0, 5.0, 0.0, observed=np.zeros(0, dtype=int))
        model = SfmModel(PointCloud.empty(), [camera])
        grid = calculate_visibility_map(model, obstacles, 6.0)
        assert grid.nonzero_count() <= 12  # just the immediate vicinity

    def test_sector_ranges(self):
        cloud_ids = np.array([1, 2])
        cloud_xy = np.array([[4.0, 5.0], [2.5, 6.0]])
        camera = make_camera(1, 2.0, 5.0, 0.0, observed=np.array([1, 2, 99]))
        ranges = sector_information_ranges([camera], cloud_ids, cloud_xy, 6.0)
        assert ranges.shape == (1, 9)
        assert ranges.max() > 2.0
        assert ranges.min() >= 0.3


class TestCoverage:
    def test_union_and_score(self):
        spec = small_spec()
        obstacles, visibility = Grid2D(spec), Grid2D(spec)
        obstacles.data[0, 0] = 5
        visibility.data[1, 1] = 2
        visibility.data[0, 0] = 1
        maps = CoverageMaps(obstacles, visibility)
        assert maps.covered_cells() == 2

        region = np.ones(spec.shape, dtype=bool)
        gt_obstacles = np.zeros(spec.shape, dtype=bool)
        gt_obstacles[0, 0] = True
        score = score_against_ground_truth(maps, region, gt_obstacles)
        assert score.covered_in_region == 2
        assert score.obstacle_recall == 1.0

    def test_region_mask_excludes_outside(self):
        spec = small_spec()
        obstacles, visibility = Grid2D(spec), Grid2D(spec)
        visibility.data[:, :] = 1.0
        maps = CoverageMaps(obstacles, visibility)
        region = np.zeros(spec.shape, dtype=bool)
        region[0, 0] = True
        score = score_against_ground_truth(maps, region, np.zeros(spec.shape, bool))
        assert score.covered_in_region == 1
        assert score.coverage_percent == 100.0

    def test_mismatched_specs_rejected(self):
        from repro.errors import MappingError

        a = Grid2D(GridSpec(0, 0, 0.5, 4, 4))
        b = Grid2D(GridSpec(0, 0, 0.25, 4, 4))
        with pytest.raises(MappingError):
            CoverageMaps(a, b)


class TestBounds:
    def test_full_wall_coverage(self):
        wall = Segment(Vec2(0, 0), Vec2(10, 0))
        xy = np.array([[x, 0.05] for x in np.arange(0.1, 10.0, 0.1)])
        length = wall_covered_length(wall, xy, 0.15, 0.3, 0.15)
        assert length == pytest.approx(10.0, abs=0.2)

    def test_gap_larger_than_threshold_splits(self):
        wall = Segment(Vec2(0, 0), Vec2(10, 0))
        xy = np.array([[x, 0.0] for x in list(np.arange(0, 3, 0.1)) + list(np.arange(7, 10, 0.1))])
        length = wall_covered_length(wall, xy, 0.15, 0.3, 0.15)
        assert length < 7.0

    def test_far_points_ignored(self):
        wall = Segment(Vec2(0, 0), Vec2(10, 0))
        xy = np.array([[5.0, 2.0]])
        assert wall_covered_length(wall, xy, 0.15, 0.3, 0.15) == 0.0

    def test_outer_bounds_report(self, bench, library):
        # A synthetic obstacles grid tracing the full south wall.
        spec = bench.spec
        grid = Grid2D(spec)
        for x in np.arange(0.0, 22.0, 0.05):
            cell = spec.cell_of(Vec2(float(x), 0.0))
            if cell:
                grid.data[cell] = 5.0
        report = outer_bounds_report(library, grid)
        south = [w for w in report.per_wall if "south" in w[0]]
        assert all(got == pytest.approx(total, abs=0.3) for _l, got, total in south)
        assert 0 < report.percent < 100


class TestRenderAscii:
    def test_renders_layers(self):
        spec = small_spec(0.5)
        obstacles, visibility = Grid2D(spec), Grid2D(spec)
        obstacles.data[10, 10] = 5
        visibility.data[5, 5] = 2
        art = render_ascii(CoverageMaps(obstacles, visibility))
        assert "#" in art
        assert "." in art
