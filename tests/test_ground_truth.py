"""Tests for ground-truth rasterisation."""

import numpy as np
import pytest

from repro.geometry import Vec2
from repro.venue.ground_truth import build_ground_truth, default_grid_spec


class TestGroundTruth:
    def test_masks_consistent(self, ground_truth):
        gt = ground_truth
        # Traversable is region minus obstacles.
        assert not (gt.traversable_mask & gt.obstacle_mask).any()
        assert (gt.traversable_mask | gt.obstacle_mask)[gt.region_mask].all()
        assert gt.region_cells >= gt.traversable_mask.sum()

    def test_region_area_close_to_floor_area(self, bench, ground_truth):
        area = ground_truth.region_cells * bench.spec.cell_area_m2
        assert area == pytest.approx(bench.venue.floor_area(), rel=0.06)

    def test_walls_are_obstacles(self, bench, ground_truth):
        spec = bench.spec
        # Sample along the south brick wall.
        for x in (0.5, 5.0, 12.0, 21.0):
            cell = spec.cell_of(Vec2(x, 0.0))
            assert ground_truth.obstacle_mask[cell], f"wall missing at x={x}"

    def test_glass_walls_in_ground_truth(self, bench, ground_truth):
        """The ground truth knows where the glass is (laser measured)."""
        spec = bench.spec
        for y in (3.0, 7.0, 11.0):
            cell = spec.cell_of(Vec2(0.0, y))
            assert ground_truth.obstacle_mask[cell], f"west glass missing at y={y}"

    def test_furniture_interiors_are_obstacles(self, bench, ground_truth):
        cell = bench.spec.cell_of(Vec2(10.0, 2.25))  # inside shelf row 0
        assert ground_truth.obstacle_mask[cell]

    def test_open_floor_is_traversable(self, bench, ground_truth):
        for p in (Vec2(3, 3), Vec2(10.5, 3.7), Vec2(19.2, 15.4)):
            cell = bench.spec.cell_of(p)
            assert ground_truth.traversable_mask[cell]

    def test_outside_not_in_region(self, bench, ground_truth):
        cell = bench.spec.cell_of(Vec2(-0.8, -0.8))
        assert cell is not None  # margin cells exist
        assert not ground_truth.region_mask[cell]

    def test_exterior_context_not_in_gt(self, bench, ground_truth):
        """EXTERIOR surfaces (if any) must not appear as obstacles."""
        from repro.venue.surfaces import SurfaceKind

        for surface in bench.venue.surfaces:
            if surface.kind != SurfaceKind.EXTERIOR:
                continue
            cell = bench.spec.cell_of(surface.segment.midpoint)
            if cell is not None:
                assert not ground_truth.obstacle_mask[cell]

    def test_outer_bounds_value(self, library, ground_truth):
        assert ground_truth.outer_bounds_m == pytest.approx(
            library.outer_bounds_length()
        )

    def test_cell_size_sweep(self, library):
        """Ground truth scales consistently across the paper's 10-50 cm."""
        areas = []
        for cell in (0.10, 0.25, 0.50):
            spec = default_grid_spec(library, cell)
            gt = build_ground_truth(library, spec)
            areas.append(gt.region_cells * spec.cell_area_m2)
        for area in areas:
            assert area == pytest.approx(library.floor_area(), rel=0.12)
