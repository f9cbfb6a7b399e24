"""Tests for pathfinding, localization and navigation."""

import numpy as np
import pytest

from repro.camera import GALAXY_S7, CameraPose
from repro.config import NavigationConfig
from repro.geometry import Vec2
from repro.nav import ImageLocalizer, Navigator, PathPlanner
from repro.simkit import RngStream


@pytest.fixture()
def planner(bench):
    return bench.planner


class TestPathPlanner:
    def test_path_between_open_points(self, planner):
        path = planner.plan(Vec2(2.4, 1.2), Vec2(10.5, 3.7))
        assert path is not None
        assert path[0].distance_to(Vec2(2.4, 1.2)) < 0.5
        assert path[-1].distance_to(Vec2(10.5, 3.7)) < 0.5

    def test_path_avoids_shelves(self, planner, bench):
        path = planner.plan(Vec2(10.5, 1.2), Vec2(10.5, 6.4))
        assert path is not None
        for p in path:
            assert bench.ground_truth.traversable_mask[bench.spec.cell_of(p)]
        # The straight line crosses shelf row 0; the path must be longer.
        assert PathPlanner.path_length(path) > Vec2(10.5, 1.2).distance_to(Vec2(10.5, 6.4))

    def test_path_into_annex_through_door(self, planner):
        path = planner.plan(Vec2(2.4, 1.2), Vec2(19.2, 15.4))
        assert path is not None
        # The only way in is the partition door at x ~17-18.2, y=14; check
        # the crossing points right on the partition line.
        door_crossings = [p for p in path if 13.87 < p.y < 14.13]
        assert door_crossings
        assert all(16.8 < p.x < 18.5 for p in door_crossings)

    def test_nearest_traversable_cell(self, planner):
        # Inside a bookshelf: the nearest traversable cell is adjacent.
        cell = planner.nearest_traversable_cell(Vec2(10.0, 2.2))
        assert cell is not None
        assert planner.is_traversable_cell(*cell)

    def test_same_start_goal(self, planner):
        path = planner.plan(Vec2(3.0, 3.0), Vec2(3.0, 3.0))
        assert path is not None and len(path) == 1

    def test_path_length_monotone_in_distance(self, planner):
        short = planner.plan(Vec2(3, 3), Vec2(5, 3))
        long = planner.plan(Vec2(3, 3), Vec2(19.2, 15.4))
        assert PathPlanner.path_length(long) > PathPlanner.path_length(short)


class TestLocalizer:
    def make(self, error=1.0):
        return ImageLocalizer(
            NavigationConfig(positioning_error_m=error), RngStream(9, "loc")
        )

    def test_fix_requires_matches(self, bench):
        localizer = self.make()
        photo = bench.capture.take_photo(CameraPose.at(10, 1.7, -1.57), GALAXY_S7, blur=0.0)
        model_ids = set(int(f) for f in photo.feature_ids)
        fix = localizer.locate(photo, model_ids)
        assert fix is not None
        assert fix.error_m <= 1.0
        assert fix.n_matches >= 12

    def test_no_fix_without_matches(self, bench):
        localizer = self.make()
        photo = bench.capture.take_photo(CameraPose.at(10, 1.7, -1.57), GALAXY_S7, blur=0.0)
        assert localizer.locate(photo, set()) is None

    def test_error_bounded(self):
        localizer = self.make(error=1.0)
        for i in range(50):
            offset = localizer.perturb_destination(Vec2(0, 0), f"k{i}")
            assert offset.norm() <= 1.0 + 1e-9

    def test_zero_error_config(self):
        localizer = self.make(error=0.0)
        p = localizer.perturb_destination(Vec2(2, 2), "x")
        assert p.distance_to(Vec2(2, 2)) == pytest.approx(0.0)


class TestNavigator:
    def test_navigate_reaches_near_target(self, bench):
        navigator = bench.make_navigator("test-nav")
        outcome = navigator.navigate(bench.venue.entrance, Vec2(10.5, 3.7))
        assert outcome.arrival_error_m <= 1.6  # <= 1 m positioning + snapping
        assert outcome.walk_time_s > 0
        assert bench.venue.is_traversable(outcome.arrived)

    def test_navigate_to_obstructed_target(self, bench):
        """The task generator may place a task inside an undiscovered
        obstacle; the participant stops as close as possible."""
        navigator = bench.make_navigator("test-nav-2")
        inside_shelf = Vec2(10.0, 2.2)
        outcome = navigator.navigate(bench.venue.entrance, inside_shelf)
        assert bench.venue.is_traversable(outcome.arrived)
        assert outcome.arrived.distance_to(inside_shelf) < 2.5
