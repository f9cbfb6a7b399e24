"""Tests for intrinsics, poses, photos and the capture simulator."""

import math

import numpy as np
import pytest

from repro.camera import (
    DEVICE_PRESETS,
    GALAXY_S7,
    CameraPose,
    ExifMetadata,
    Intrinsics,
    sweep_poses,
)
from repro.errors import CaptureError
from repro.geometry import Vec2


class TestIntrinsics:
    def test_fov_roundtrip(self):
        intr = Intrinsics("test", focal_length_px=2000.0, image_width_px=4000, image_height_px=3000)
        assert intr.hfov_deg == pytest.approx(2 * math.degrees(math.atan(1.0)))

    def test_presets_have_sane_fov(self):
        for device in DEVICE_PRESETS.values():
            assert 50.0 <= device.hfov_deg <= 80.0

    def test_validation(self):
        with pytest.raises(CaptureError):
            Intrinsics("bad", focal_length_px=-1, image_width_px=100, image_height_px=100)

    def test_exif_recovers_intrinsics(self):
        exif = ExifMetadata(
            device_model=GALAXY_S7.device_model,
            focal_length_px=GALAXY_S7.focal_length_px,
            image_width_px=GALAXY_S7.image_width_px,
            image_height_px=GALAXY_S7.image_height_px,
            timestamp_s=0.0,
            venue_id="test",
        )
        assert exif.intrinsics().hfov_rad == pytest.approx(GALAXY_S7.hfov_rad)


class TestCameraPose:
    def test_facing(self):
        pose = CameraPose.at(0, 0).facing(Vec2(0, 5))
        assert pose.yaw_rad == pytest.approx(math.pi / 2)

    def test_bearing(self):
        pose = CameraPose.at(0, 0, yaw_rad=0.0)
        assert pose.bearing_to(Vec2(1, 1)) == pytest.approx(math.pi / 4)

    def test_rotation_wraps(self):
        pose = CameraPose.at(0, 0, yaw_rad=math.pi - 0.1).rotated(0.3)
        assert -math.pi < pose.yaw_rad <= math.pi

    def test_sweep_poses_count_and_step(self):
        poses = sweep_poses(Vec2(1, 1), 8.0)
        assert len(poses) == 45  # 360 / 8
        diffs = {round(math.degrees(poses[1].yaw_rad - poses[0].yaw_rad), 3)}
        assert diffs == {8.0}

    def test_sweep_poses_bad_step(self):
        for step in (0.0, -8.0):
            with pytest.raises(CaptureError):
                sweep_poses(Vec2(0, 0), step)


class TestCaptureSimulator:
    def test_photo_has_exif_venue_id(self, bench):
        photo = bench.capture.take_photo(CameraPose.at(3, 3), GALAXY_S7)
        assert photo.exif.venue_id == bench.venue.name
        assert photo.exif.device_model == GALAXY_S7.device_model

    def test_facing_texture_yields_features(self, bench):
        # Facing the south brick wall from ~1.7 m away.
        pose = CameraPose.at(10.0, 1.7, yaw_rad=-math.pi / 2)
        photo = bench.capture.take_photo(pose, GALAXY_S7, blur=0.0)
        assert photo.n_features > 50

    def test_facing_bare_glass_yields_few(self, bench):
        # Hugging the west glass, facing it: almost nothing to detect.
        pose = CameraPose.at(0.5, 7.0, yaw_rad=math.pi)
        photo = bench.capture.take_photo(pose, GALAXY_S7, blur=0.0)
        assert photo.n_features < 35

    def test_exposure_compensation_helps_at_glass(self, bench):
        pose = CameraPose.at(2.6, 7.0, yaw_rad=math.pi)
        normal = bench.capture.take_photo(pose, GALAXY_S7, blur=0.0)
        compensated = bench.capture.take_photo(
            pose, GALAXY_S7, blur=0.0, exposure_compensated=True
        )
        assert compensated.n_features >= normal.n_features

    def test_blur_reduces_features(self, bench):
        pose = CameraPose.at(10.0, 1.7, yaw_rad=-math.pi / 2)
        sharp = bench.capture.take_photo(pose, GALAXY_S7, blur=0.0)
        blurry = bench.capture.take_photo(pose, GALAXY_S7, blur=0.85)
        assert blurry.n_features < sharp.n_features / 2

    def test_blur_out_of_range(self, bench):
        with pytest.raises(CaptureError):
            bench.capture.take_photo(CameraPose.at(3, 3), GALAXY_S7, blur=1.5)

    def test_occlusion_by_bookshelf(self, bench):
        """Features behind a shelf row must not be observed."""
        # Camera south of shelf-row-0 looking north: features of row 1's
        # south face (y=4.8) are hidden behind row 0 (y 2.0-2.5, h 2.0).
        pose = CameraPose.at(10.0, 1.0, yaw_rad=math.pi / 2)
        photo = bench.capture.take_photo(pose, GALAXY_S7, blur=0.0)
        positions = bench.world.positions
        ids = set(int(f) for f in photo.feature_ids)
        for idx, fid in enumerate(bench.world.ids):
            if int(fid) in ids:
                x, y, z = positions[idx]
                # Nothing from strictly behind the first shelf row band at
                # a height the shelf blocks.
                if 9.0 < x < 11.0 and 2.6 < y < 4.7 and z < 1.2:
                    raise AssertionError(f"saw hidden feature at {x},{y},{z}")

    def test_photo_ids_unique(self, bench):
        a = bench.capture.take_photo(CameraPose.at(3, 3), GALAXY_S7)
        b = bench.capture.take_photo(CameraPose.at(3, 3), GALAXY_S7)
        assert a.photo_id != b.photo_id

    def test_photo_pixel_lookup(self, bench):
        pose = CameraPose.at(10.0, 1.7, yaw_rad=-math.pi / 2)
        photo = bench.capture.take_photo(pose, GALAXY_S7, blur=0.0)
        fid = int(photo.feature_ids[0])
        u, v = photo.pixel_of(fid)
        assert 0 <= u < GALAXY_S7.image_width_px + 10
        with pytest.raises(CaptureError):
            photo.pixel_of(-12345)

    def test_with_extra_observations(self, bench):
        photo = bench.capture.take_photo(CameraPose.at(3, 3), GALAXY_S7)
        n = photo.n_features
        extended = photo.with_extra_observations(
            np.array([10_000_000, 10_000_001]),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            suffix="imprint",
        )
        assert extended.n_features == n + 2
        assert extended.photo_id == photo.photo_id
        assert "imprint" in extended.source

    def test_sweep_yields_45_photos(self, bench):
        photos = list(bench.capture.sweep(Vec2(3, 3), GALAXY_S7, 8.0))
        assert len(photos) == 45
        assert len({p.photo_id for p in photos}) == 45
