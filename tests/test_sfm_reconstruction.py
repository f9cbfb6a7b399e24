"""Tests for incremental SfM: registration, triangulation, rigs, noise."""

import numpy as np
import pytest

from repro.camera import GALAXY_S7, CameraPose
from repro.errors import ReconstructionError, VenueError
from repro.geometry import Vec2, Vec3
from repro.sfm import IncrementalSfm, PointCloud, RecoveredCamera, SfmModel
from repro.simkit import RngStream
from repro.venue.features import ARTIFICIAL_FEATURE_BASE


@pytest.fixture()
def engine(bench):
    return IncrementalSfm(bench.world, bench.config.sfm, RngStream(99, "sfm-test"))


def sweep(bench, x, y):
    return list(bench.capture.sweep(Vec2(x, y), GALAXY_S7, 8.0, blur=0.0))


class TestRegistration:
    def test_bootstrap_from_dense_batch(self, bench, engine):
        report = engine.add_photos(sweep(bench, 3, 3))
        assert report.newly_registered > 10
        assert report.total_points > 200

    def test_isolated_batch_stays_pending(self, bench, engine):
        engine.add_photos(sweep(bench, 3, 3))
        # The annex room is visually isolated from the entrance area.
        report = engine.add_photos(sweep(bench, 19.2, 15.4))
        assert report.newly_registered == 0
        assert report.still_pending >= 40

    def test_pending_retry_after_bridge(self, bench, engine):
        engine.add_photos(sweep(bench, 3, 3))
        far = engine.add_photos(sweep(bench, 10.5, 6.4))
        pending_before = far.still_pending
        # A bridging sweep connects the entrance area to the far batch.
        bridge = engine.add_photos(sweep(bench, 6.0, 4.5))
        assert bridge.still_pending < pending_before + 45

    def test_duplicate_photo_rejected(self, bench, engine):
        photos = sweep(bench, 3, 3)
        engine.add_photos(photos)
        with pytest.raises(ReconstructionError):
            engine.add_photos([photos[0]])

    def test_chained_registration_grows_monotonically(self, bench, engine):
        total = 0
        for center in [(3, 3), (5, 5), (8, 3.7)]:
            report = engine.add_photos(sweep(bench, *center))
            assert report.total_cameras >= total
            total = report.total_cameras


class TestTriangulation:
    def test_three_view_rule(self, bench, engine):
        """Points require >= min_views_per_point registered observations."""
        engine.add_photos(sweep(bench, 3, 3))
        model = engine.model()
        assert (model.cloud.view_counts >= bench.config.sfm.min_views_per_point).all()

    def test_positions_near_truth(self, bench, engine):
        engine.add_photos(sweep(bench, 3, 3))
        model = engine.model()
        world = bench.world
        errors = []
        for point in list(model.cloud.points)[:200]:
            if point.is_reflection or point.is_artificial:
                continue
            truth = world.feature(point.feature_id).position
            errors.append(
                np.hypot(point.x - truth.x, point.y - truth.y)
            )
        assert np.mean(errors) < 0.2

    def test_recovered_poses_near_truth(self, bench, engine):
        photos = sweep(bench, 3, 3)
        engine.add_photos(photos)
        model = engine.model()
        by_id = {p.photo_id: p for p in photos}
        for camera in model.cameras:
            true = by_id[camera.photo_id].true_pose
            assert camera.pose.position.distance_to(true.position) < 0.5

    def test_point_noise_follows_the_ascending_observer_rule(self, bench):
        """Every point is its oracle position plus its ``point-<fid>`` draws.

        The sigma grows with the mean floor distance from the observers the
        point was triangulated from, summed in ascending photo id. Those
        observers are the first ``n_views`` registered photos that see the
        feature: a batch triangulates after its registration fixpoint.
        """
        rng = RngStream(99, "sfm-test")
        engine = IncrementalSfm(bench.world, bench.config.sfm, rng)
        for x, y in [(3, 3), (5, 5), (6.0, 4.5)]:
            engine.add_photos(sweep(bench, x, y))
        model = engine.model()
        cfg = bench.config.sfm
        by_id = {c.photo_id: c for c in model.cameras}
        cameras = [by_id[pid] for pid in engine.registration_log()]
        seen = {c.photo_id: set(c.observed_feature_ids.tolist()) for c in cameras}
        assert len(model.cloud) > 500
        for point in model.cloud.points:
            fid = point.feature_id
            made_from = [c for c in cameras if fid in seen[c.photo_id]][: point.n_views]
            truth = bench.world.position(fid)
            target = Vec2(truth.x, truth.y)
            dists = [
                c.pose.position.distance_to(target)
                for c in sorted(made_from, key=lambda c: c.photo_id)
            ]
            sigma = cfg.point_noise_sigma_m + cfg.point_noise_range_gain * (
                sum(dists) / len(dists)
            )
            draw = rng.child(f"point-{fid}")
            expected = (
                truth.x + draw.normal(0.0, sigma),
                truth.y + draw.normal(0.0, sigma),
                truth.z + draw.normal(0.0, sigma),
            )
            assert (point.x, point.y, point.z) == expected, fid

    def test_rebuild_is_stable(self, bench):
        """Same inputs -> identical point positions (noise is cached)."""
        a = IncrementalSfm(bench.world, bench.config.sfm, RngStream(5, "stab"))
        b = IncrementalSfm(bench.world, bench.config.sfm, RngStream(5, "stab"))
        # Same photo stream via a fresh deterministic capture run each time
        # is not possible (photo ids advance), so reuse one photo list.
        photos = sweep(bench, 5, 5)
        ra = a.add_photos(photos)
        with pytest.raises(ReconstructionError):
            a.add_photos(photos)  # sanity: cannot double-add to one engine
        rb = b.add_photos(photos)
        assert ra.total_points == rb.total_points
        pa = a.model().cloud.xyz
        pb = b.model().cloud.xyz
        assert np.allclose(pa, pb)


class TestArtificialFeatures:
    def test_register_and_triangulate(self, bench, engine):
        photos = sweep(bench, 3, 3)
        engine.add_photos(photos)
        registered = [p for p in photos if engine.is_registered(p.photo_id)][:4]
        assert len(registered) >= 3

        fid = ARTIFICIAL_FEATURE_BASE + 7
        engine.register_artificial_features([fid], [Vec3(3.5, 4.5, 1.0)])
        imprinted = [
            p.with_extra_observations(np.array([fid]), np.array([[100.0, 100.0]]), "t")
            for p in sweep(bench, 3.2, 3.2)
        ]
        engine.add_photos(imprinted)
        model = engine.model()
        match = [p for p in model.cloud.points if p.feature_id == fid]
        assert match and match[0].is_artificial
        assert abs(match[0].x - 3.5) < 0.3

    def test_world_id_space_rejected(self, engine):
        with pytest.raises(ReconstructionError):
            engine.register_artificial_features([5], [Vec3(0, 0, 0)])

    def test_unknown_world_feature_rejected(self, bench, engine):
        # Below the artificial id space, so it must be a world feature.
        fid = ARTIFICIAL_FEATURE_BASE - 1
        photo = sweep(bench, 3, 3)[0].with_extra_observations(
            np.array([fid]), np.array([[100.0, 100.0]]), "t"
        )
        with pytest.raises(VenueError, match=str(fid)):
            engine.add_photos([photo])


class TestViewpointCompatibility:
    def test_opposite_side_views_do_not_match(self, bench, engine):
        """Photos of the same shelf from opposite sides share feature ids
        only at ends; viewpoint buckets must block cross-side matching."""
        engine.add_photos(sweep(bench, 3, 3))
        overlap_same = engine._compatible_overlap(  # noqa: SLF001
            bench.capture.take_photo(
                __import__("repro.camera", fromlist=["CameraPose"]).CameraPose.at(3.1, 3.1, 0.3),
                GALAXY_S7,
                blur=0.0,
            )
        )
        assert overlap_same > 20


class TestSfmModel:
    def test_cameras_observing_matches_a_per_camera_scan(self, bench, engine):
        engine.add_photos(sweep(bench, 3, 3))
        model = engine.model()
        wanted = model.cloud.feature_ids[:3]
        expected = [
            c.photo_id
            for c in model.cameras
            if set(c.observed_feature_ids.tolist()) & set(wanted.tolist())
        ]
        assert 0 < len(expected) < model.n_cameras
        assert model.cameras_observing(wanted).tolist() == expected
        assert model.cameras_observing(np.zeros(0, dtype=np.int64)).tolist() == []

    def test_camera_without_observations_observes_nothing(self):
        camera = RecoveredCamera(
            photo_id=3, pose=CameraPose.at(1.0, 1.0, 0.0), intrinsics=GALAXY_S7, n_inliers=0
        )
        model = SfmModel(PointCloud.empty(), [camera])
        assert model.cameras_observing(np.array([1, 2])).tolist() == []

    def test_empty_model(self):
        model = SfmModel.empty()
        assert model.n_points == 0
        assert model.mean_camera_position() is None

    def test_camera_lookup(self, bench, engine):
        engine.add_photos(sweep(bench, 3, 3))
        model = engine.model()
        first = model.cameras[0]
        assert model.camera(first.photo_id) is first
        with pytest.raises(ReconstructionError):
            model.camera(-1)

    def test_mean_camera_position(self, bench, engine):
        engine.add_photos(sweep(bench, 3, 3))
        mean = engine.model().mean_camera_position()
        assert mean is not None
        assert abs(mean[0] - 3.0) < 1.0 and abs(mean[1] - 3.0) < 1.0
