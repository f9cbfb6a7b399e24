"""Tests for task objects, the quality check and findUnvisited."""

import numpy as np
import pytest

from repro.camera import GALAXY_S7, CameraPose
from repro.core import (
    Task,
    TaskFactory,
    TaskKind,
    TaskStatus,
    check_photo_quality,
    filter_blurry,
    find_unvisited,
    sharpest,
)
from repro.core.unvisited import unvisited_region_at
from repro.errors import TaskGenerationError
from repro.geometry import BoundingBox, Vec2
from repro.mapping import Grid2D, GridSpec


class TestTasks:
    def test_factory_ids_unique_and_ordered(self):
        factory = TaskFactory()
        a = factory.photo_task(Vec2(0, 0), iteration=1)
        b = factory.annotation_task(Vec2(1, 1), iteration=2)
        assert b.task_id == a.task_id + 1
        assert a.kind == TaskKind.PHOTO_COLLECTION
        assert b.is_annotation

    def test_status_transitions(self):
        task = TaskFactory().photo_task(Vec2(0, 0), 1)
        assert task.status == TaskStatus.PENDING
        assert task.assigned().status == TaskStatus.ASSIGNED
        assert task.completed().status == TaskStatus.COMPLETED
        assert task.failed().status == TaskStatus.FAILED

    def test_reissue_link(self):
        factory = TaskFactory()
        first = factory.photo_task(Vec2(0, 0), 1)
        again = factory.photo_task(Vec2(0, 0), 2, reissue_of=first.task_id)
        assert again.reissue_of == first.task_id


class TestQuality:
    def photos(self, bench, blurs):
        pose = CameraPose.at(10.0, 1.7, -1.57)
        return [bench.capture.take_photo(pose, GALAXY_S7, blur=b) for b in blurs]

    def test_sharp_batch_passes(self, bench, config):
        report = check_photo_quality(
            self.photos(bench, [0.02] * 5), config.tasks.low_quality_laplacian
        )
        assert not report.is_low_quality
        assert report.n_blurry == 0

    def test_blurry_batch_fails(self, bench, config):
        report = check_photo_quality(
            self.photos(bench, [0.9] * 5), config.tasks.low_quality_laplacian
        )
        assert report.is_low_quality
        assert report.blurry_fraction == 1.0

    def test_empty_batch_rejected(self, config):
        with pytest.raises(TaskGenerationError):
            check_photo_quality([], config.tasks.low_quality_laplacian)

    def test_filter_blurry(self, bench, config):
        photos = self.photos(bench, [0.02, 0.9, 0.03, 0.95])
        kept = filter_blurry(photos, config.tasks.low_quality_laplacian)
        assert len(kept) == 2

    def test_sharpest(self, bench):
        photos = self.photos(bench, [0.5, 0.05, 0.8])
        assert sharpest(photos) is photos[1]
        with pytest.raises(TaskGenerationError):
            sharpest([])


def maps_with_hole(size=12.0, cell=0.25, covered_until_x=6.0):
    """Visibility covers the left half; the right half is unvisited."""
    spec = GridSpec.from_bbox(BoundingBox(0, 0, size, size), cell, 0.0)
    obstacles, visibility = Grid2D(spec), Grid2D(spec)
    for row in range(spec.n_rows):
        for col in range(spec.n_cols):
            center = spec.center_of(row, col)
            if center.x < covered_until_x:
                visibility.data[row, col] = 5.0
    return spec, obstacles, visibility


class TestFindUnvisited:
    def test_finds_uncovered_half(self):
        spec, obstacles, visibility = maps_with_hole()
        areas = find_unvisited(
            obstacles, visibility, Vec2(1, 1), max_areas=1,
            covered_view_tolerance=3, min_area_cells=20,
        )
        assert len(areas) == 1
        assert areas[0].center_world.x > 5.5

    def test_fully_covered_returns_empty(self):
        spec, obstacles, visibility = maps_with_hole(covered_until_x=99.0)
        areas = find_unvisited(
            obstacles, visibility, Vec2(1, 1), 1, 3, 20
        )
        assert areas == []

    def test_min_area_filters_small_pockets(self):
        spec, obstacles, visibility = maps_with_hole(covered_until_x=99.0)
        # Punch a small hole of ~4 cells.
        visibility.data[10:12, 10:12] = 0.0
        areas = find_unvisited(obstacles, visibility, Vec2(1, 1), 1, 3, 20)
        assert areas == []
        areas = find_unvisited(obstacles, visibility, Vec2(1, 1), 1, 3, 4)
        assert len(areas) == 1

    def test_expansion_cap_keeps_task_near_frontier(self):
        spec, obstacles, visibility = maps_with_hole()
        capped = find_unvisited(
            obstacles, visibility, Vec2(1, 1), 1, 3, 20, expansion_cap_cells=30
        )
        uncapped = find_unvisited(
            obstacles, visibility, Vec2(1, 1), 1, 3, 20, expansion_cap_cells=10_000
        )
        assert capped[0].center_world.x <= uncapped[0].center_world.x

    def test_obstacles_block_search(self):
        spec, obstacles, visibility = maps_with_hole()
        # Wall sealing the right half completely, flush with the covered
        # region so no unvisited strip remains before it.
        col = spec.cell_of(Vec2(6.1, 0.1))[1]
        obstacles.data[:, col] = 9.0
        areas = find_unvisited(obstacles, visibility, Vec2(1, 1), 1, 3, 20)
        assert areas == []  # unreachable pocket is never found

    def test_site_mask_restricts(self):
        spec, obstacles, visibility = maps_with_hole()
        site = np.zeros(spec.shape, dtype=bool)  # nothing inside the site
        areas = find_unvisited(
            obstacles, visibility, Vec2(1, 1), 1, 3, 20, site_mask=site
        )
        assert areas == []

    def test_start_outside_grid_rejected(self):
        spec, obstacles, visibility = maps_with_hole()
        with pytest.raises(TaskGenerationError):
            find_unvisited(obstacles, visibility, Vec2(-99, -99), 1)

    def test_region_at_location(self):
        spec, obstacles, visibility = maps_with_hole()
        region = unvisited_region_at(obstacles, visibility, Vec2(9, 6), cap_cells=50)
        assert 0 < len(region) <= 50

    def test_region_at_covered_location_empty(self):
        spec, obstacles, visibility = maps_with_hole()
        region = unvisited_region_at(obstacles, visibility, Vec2(1, 1), cap_cells=50)
        assert region == []

    def test_region_at_rejects_maps_on_different_specs(self):
        """Same shape, shifted origin: the maps must not be read as one."""
        spec, obstacles, visibility = maps_with_hole()
        shifted = Grid2D(
            GridSpec(spec.origin_x + 1.0, spec.origin_y, spec.cell_size_m,
                     spec.n_rows, spec.n_cols),
            visibility.data,
        )
        with pytest.raises(TaskGenerationError, match="different grid specs"):
            unvisited_region_at(obstacles, shifted, Vec2(9, 6), cap_cells=50)

    def test_region_at_rejects_wrong_shaped_site_mask(self):
        spec, obstacles, visibility = maps_with_hole()
        site = np.ones((spec.n_rows + 1, spec.n_cols), dtype=bool)
        with pytest.raises(TaskGenerationError, match="site mask"):
            unvisited_region_at(obstacles, visibility, Vec2(9, 6), site_mask=site)
        with pytest.raises(TaskGenerationError, match="site mask"):
            find_unvisited(obstacles, visibility, Vec2(1, 1), 1, site_mask=site)
