"""Failure-injection tests: the system must degrade gracefully.

Each test injects one realistic failure (all-blurry uploads, unreachable
tasks, empty worlds, budget exhaustion, network outage windows) and checks
the corresponding recovery behaviour rather than a crash.
"""

import numpy as np
import pytest

from repro.camera import GALAXY_S7, CameraPose
from repro.core import SnapTaskPipeline, TaskFactory, TaskKind
from repro.errors import ReproError, VenueError
from repro.geometry import Polygon, Segment, Vec2
from repro.simkit import RngStream, Simulator
from repro.venue import BRICK, Hotspot, Surface, SurfaceKind, Venue
from repro.venue.features import FeatureWorld, build_feature_world


def sweep(bench, x, y, blur=0.0):
    return list(bench.capture.sweep(Vec2(x, y), GALAXY_S7, 8.0, blur=blur))


class TestBlurryUploads:
    def test_all_blurry_campaign_step_recovers(self, bench):
        """A completely shaky participant's upload reassigns the task and
        the next (sharp) attempt proceeds normally."""
        pipeline = bench.make_pipeline()
        pipeline.process_batch(sweep(bench, 3, 3))
        task = TaskFactory().photo_task(Vec2(6, 4), 2)
        blurry = pipeline.process_batch(sweep(bench, 6, 4, blur=0.92), task)
        assert blurry.quality is not None and blurry.quality.is_low_quality
        retry = blurry.new_tasks[0]
        assert retry.kind == TaskKind.PHOTO_COLLECTION
        sharp = pipeline.process_batch(sweep(bench, 6, 4, blur=0.0), retry)
        assert sharp.coverage_increased


class TestDegenerateWorlds:
    def make_bare_venue(self):
        """A venue whose only wall is glass: nothing to reconstruct."""
        from repro.venue import GLASS

        outer = Polygon.rectangle(0, 0, 8, 8)
        surfaces = [
            Surface(0, Segment(Vec2(0, 0), Vec2(8, 0)), GLASS, SurfaceKind.OUTER_WALL),
            Surface(1, Segment(Vec2(8, 0), Vec2(8, 8)), GLASS, SurfaceKind.OUTER_WALL),
            Surface(2, Segment(Vec2(8, 8), Vec2(0, 8)), GLASS, SurfaceKind.OUTER_WALL),
            Surface(3, Segment(Vec2(0, 8), Vec2(0, 2)), GLASS, SurfaceKind.OUTER_WALL),
        ]
        return Venue(
            name="bare-glass-box",
            outer=outer,
            surfaces=surfaces,
            furniture_footprints=[],
            entrance=Vec2(1, 1),
            hotspots=[Hotspot(Vec2(4, 4), 1.0, "centre")],
        )

    def test_featureless_world_never_registers(self):
        from repro.config import paper_config
        from repro.camera import CaptureSimulator
        from repro.sfm import IncrementalSfm

        venue = self.make_bare_venue()
        config = paper_config()
        world = build_feature_world(venue, RngStream(1, "bare"))
        capture = CaptureSimulator(world, config.sfm, config.camera, RngStream(1, "cap"))
        engine = IncrementalSfm(world, config.sfm, RngStream(1, "sfm"))
        photos = list(capture.sweep(Vec2(4, 4), GALAXY_S7, 8.0))
        report = engine.add_photos(photos)
        assert report.newly_registered == 0
        assert report.total_points == 0

    def test_empty_feature_world_capture(self):
        venue = self.make_bare_venue()
        world = build_feature_world(venue, RngStream(2, "bare2"), reflection_sample_rate=0.0)
        assert len(world) == 0


class TestUnreachableTask:
    def test_navigation_to_far_point_clamps(self, bench):
        navigator = bench.make_navigator("fail-nav")
        # A point just outside the venue: the participant ends up at the
        # closest standable spot inside.
        outcome = navigator.navigate(bench.venue.entrance, Vec2(23.5, 10.0))
        assert bench.venue.is_traversable(outcome.arrived)

    def test_nearest_traversable_radius_exhaustion(self):
        outer = Polygon.rectangle(0, 0, 4, 4)
        surfaces = [
            Surface(0, Segment(Vec2(0, 0), Vec2(4, 0)), BRICK, SurfaceKind.OUTER_WALL)
        ]
        venue = Venue(
            "tiny",
            outer,
            surfaces,
            furniture_footprints=[Polygon.rectangle(0.01, 0.01, 3.99, 3.99)],
            entrance=Vec2(2, 2),
            hotspots=[Hotspot(Vec2(2, 2), 1.0, "h")],
        )
        with pytest.raises(VenueError):
            venue.nearest_traversable(Vec2(2, 2), max_radius=1.0)


class TestBackendOverload:
    def test_many_queued_batches_processed_in_order(self, bench):
        from repro.server import BackendServer, PhotoBatch

        sim = Simulator()
        server = BackendServer(bench.make_pipeline(), sim, "venue")
        order = []
        for i, center in enumerate([(3, 3), (4, 4), (5, 5)]):
            photos = tuple(sweep(bench, *center))
            server.handle_photo_batch(
                PhotoBatch(f"c{i}", None, photos, batch_id=f"c{i}:b1"),
                on_done=lambda result, i=i: order.append(i),
            )
        sim.run()
        assert order == [0, 1, 2]

    def test_simulation_event_budget_guard(self, bench):
        from repro.errors import SimulationError

        sim = Simulator()

        def storm():
            sim.schedule(0.001, storm)

        sim.schedule(0.0, storm)
        with pytest.raises(SimulationError):
            sim.run(max_events=50)


class TestBudgetExhaustion:
    def test_selection_halts_cleanly(self):
        from repro.crowd import NearestIdlePolicy, Participant, replay_task_locations

        people = [Participant("p0", GALAXY_S7, 0.9)]
        report = replay_task_locations(
            [Vec2(5, 0), Vec2(10, 0), Vec2(15, 0)],
            people,
            [Vec2(0, 0)],
            NearestIdlePolicy(),
            base_reward=1.0,
            budget=2.0,  # only the first task is affordable
        )
        assert report.assignments == 1
        assert report.unassigned == 2
