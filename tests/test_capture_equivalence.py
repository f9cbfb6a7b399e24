"""Exact equivalence of the vectorised capture and venue paths.

Capture work that does not depend on yaw runs once per position, a sweep
is captured as one shot group (one backlight raycast, one occlusion
raycast, one stacked patch blur), the ground-truth raster and the
reflection sources are computed over arrays, and the feature world is
sampled as columns. Each replaced scalar path is kept below as an oracle,
and every comparison is exact: ``np.array_equal`` or ``==``, never a
tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.camera import GALAXY_S7, CameraPose, CaptureSimulator
from repro.camera import capture as capture_module
from repro.camera.pose import sweep_poses
from repro.camera.blur import detection_factor, render_patch, variance_of_laplacian
from repro.config import paper_config
from repro.geometry import Polygon, Vec2, Vec3
from repro.mapping import GridSpec
from repro.simkit import RngStream
from repro.venue import OfficeSpec, build_feature_world, generate_office
from repro.venue.features import REFLECTION_FEATURE_BASE, WorldFeature
from repro.venue.ground_truth import build_ground_truth, default_grid_spec
from repro.venue.surfaces import SurfaceKind

# -- oracles: the scalar paths the vectorised code replaced -----------------


def reference_first_hit(soup, origin, direction, max_range):
    """Closest segment hit by one ray, as (distance, index), or None."""
    segs = soup.segments
    ax = np.array([s.a.x for s in segs], dtype=float)
    ay = np.array([s.a.y for s in segs], dtype=float)
    sdx = np.array([s.b.x - s.a.x for s in segs], dtype=float)
    sdy = np.array([s.b.y - s.a.y for s in segs], dtype=float)
    d = direction.normalized()
    rx, ry = d.x, d.y
    denom = rx * sdy - ry * sdx
    qpx = ax - origin.x
    qpy = ay - origin.y
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (qpx * sdy - qpy * sdx) / denom
        u = (qpx * ry - qpy * rx) / denom
    eps = 1e-9
    valid = (np.abs(denom) > eps) & (t > eps) & (t <= max_range) & (u >= -eps) & (u <= 1.0 + eps)
    if not valid.any():
        return None
    t_valid = np.where(valid, t, np.inf)
    idx = int(np.argmin(t_valid))
    return float(t_valid[idx]), idx


def reference_exposure(capture, pose):
    """The scalar backlight loop: up to 26 single-ray casts."""
    sfm = capture._sfm
    strength = sfm.backlight_strength
    if strength <= 0 or len(capture._glass_soup) == 0:
        return 1.0
    n_rays = 13
    half = capture._camera.hfov_rad / 2.0
    glassy = 0
    for i in range(n_rays):
        bearing = pose.yaw_rad - half + (2.0 * half) * i / (n_rays - 1)
        direction = Vec2.from_angle(bearing)
        glass_hit = reference_first_hit(
            capture._glass_soup, pose.position, direction, sfm.max_feature_range_m
        )
        if glass_hit is None:
            continue
        opaque_hit = reference_first_hit(
            capture._tall_soup, pose.position, direction, sfm.max_feature_range_m
        )
        if opaque_hit is None or glass_hit[0] < opaque_hit[0]:
            glassy += 1
    fraction = glassy / n_rays
    return 1.0 - strength * fraction ** 1.5


def reference_visible_features(capture, pose, intrinsics, blur, photo_rng, exposure_compensated):
    """The per-photo whole-world cull, projection, dropout and raycast."""
    world, sfm = capture.world, capture._sfm
    empty = np.zeros(0, dtype=int), np.zeros((0, 2))
    pos = world.positions
    cx, cy, ch = pose.position.x, pose.position.y, pose.height_m
    dx = pos[:, 0] - cx
    dy = pos[:, 1] - cy
    dist = np.hypot(dx, dy)

    mask = (dist >= sfm.min_feature_range_m) & (dist <= sfm.max_feature_range_m)
    if not mask.any():
        return empty

    cos_y, sin_y = math.cos(pose.yaw_rad), math.sin(pose.yaw_rad)
    z_fwd = dx * cos_y + dy * sin_y
    x_right = -dx * sin_y + dy * cos_y
    down = ch - pos[:, 2]
    mask &= z_fwd > 0.15
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intrinsics.image_width_px / 2.0 + intrinsics.focal_length_px * x_right / z_fwd
        v = intrinsics.image_height_px / 2.0 + intrinsics.focal_length_px * down / z_fwd
    mask &= (u >= 0) & (u < intrinsics.image_width_px)
    mask &= (v >= 0) & (v < intrinsics.image_height_px)

    with np.errstate(divide="ignore", invalid="ignore"):
        view_x = dx / np.maximum(dist, 1e-9)
        view_y = dy / np.maximum(dist, 1e-9)
    normals = world.normals
    cos_inc = np.abs(view_x * normals[:, 0] + view_y * normals[:, 1])
    mask &= cos_inc >= math.cos(math.radians(sfm.max_incidence_deg))

    candidates = np.nonzero(mask)[0]
    if candidates.size == 0:
        return empty

    exposure = 1.0 if exposure_compensated else reference_exposure(capture, pose)
    p = (
        sfm.base_detection_prob
        * world.strengths[candidates]
        * np.exp(-sfm.range_falloff * np.maximum(dist[candidates] - 1.0, 0.0))
        * detection_factor(blur)
        * exposure
    )
    detected = candidates[photo_rng.child("detect").uniform_array(candidates.size) < p]
    if detected.size == 0:
        return empty

    visible_mask = world.venue.opaque_soup.visible(
        Vec2(cx, cy),
        pos[detected, :2],
        target_margin=5e-3,
        origin_z=ch,
        target_z=pos[detected, 2],
    )
    visible = detected[visible_mask]
    cap = capture_module.MAX_OBSERVATIONS_PER_PHOTO
    if visible.size > cap:
        keep = photo_rng.child("cap").permutation(visible.size)[:cap]
        visible = visible[np.sort(keep)]

    noise = photo_rng.child("pixel").normal_array(
        (visible.size, 2), 0.0, capture_module.PIXEL_NOISE_STD
    )
    pixels = np.stack([u[visible], v[visible]], axis=1) + noise
    return visible, pixels


def reference_ground_truth_masks(venue, spec):
    """The per-cell loop: (obstacle, region, traversable) masks."""
    obstacle = np.zeros(spec.shape, dtype=bool)
    step = spec.cell_size_m * 0.4
    for surface in venue.surfaces:
        if surface.kind in (SurfaceKind.DECOR, SurfaceKind.EXTERIOR):
            continue
        for p in surface.segment.sample_points(step):
            cell = spec.cell_of(p)
            if cell is not None:
                obstacle[cell] = True
    region = np.zeros(spec.shape, dtype=bool)
    footprints = list(venue.furniture_footprints) + list(venue.inner_wall_footprints)
    for row in range(spec.n_rows):
        for col in range(spec.n_cols):
            center = spec.center_of(row, col)
            if venue.outer.contains(center):
                region[row, col] = True
                if any(fp.contains(center) for fp in footprints):
                    obstacle[row, col] = True
    band = np.zeros(spec.shape, dtype=bool)
    for edge in venue.outer.edges():
        for p in edge.sample_points(step):
            cell = spec.cell_of(p)
            if cell is not None:
                band[cell] = True
    region |= obstacle & band
    return obstacle, region, region & ~obstacle


def reference_mirror_reflections(venue, features, rng, sample_rate, max_source_distance):
    """The scalar reflection-source loop over every (pane, feature) pair."""
    reflective = [
        s for s in venue.surfaces if s.material.reflective and s.kind != SurfaceKind.DECOR
    ]
    out = []
    fid = REFLECTION_FEATURE_BASE
    for pane in sorted(reflective, key=lambda s: s.surface_id):
        pane_rng = rng.child(f"reflection-{pane.surface_id}")
        anchor = pane.segment.a
        normal = pane.segment.normal
        for f in features:
            if f.is_reflection:
                continue
            rel = Vec2(f.position.x - anchor.x, f.position.y - anchor.y)
            dist = rel.dot(normal)
            if abs(dist) > max_source_distance:
                continue
            t = pane.segment.project_parameter(Vec2(f.position.x, f.position.y))
            if not 0.0 <= t <= 1.0:
                continue
            if not pane_rng.chance(sample_rate):
                continue
            mirrored = Vec2(f.position.x, f.position.y) - normal * (2.0 * dist)
            out.append(
                WorldFeature(
                    feature_id=fid,
                    position=Vec3(mirrored.x, mirrored.y, f.position.z),
                    surface_id=pane.surface_id,
                    strength=pane_rng.uniform(0.08, 0.2),
                    is_reflection=True,
                )
            )
            fid += 1
    return out


def reference_sample_surface(surface, rng, start_id):
    """Jittered-grid sampling of one surface, three scalar draws a feature."""
    density = surface.material.feature_density
    if density <= 0:
        return []
    expected = density * surface.area
    if expected < 0.5:
        return []
    spacing = 1.0 / math.sqrt(density)
    n_len = max(1, int(round(surface.segment.length / spacing)))
    n_ht = max(1, int(round(surface.height / spacing)))
    features = []
    fid = start_id
    for i in range(n_len):
        for j in range(n_ht):
            t = (i + rng.uniform(0.15, 0.85)) / n_len
            z_frac = (j + rng.uniform(0.15, 0.85)) / n_ht
            pos = surface.point_at(t, z_frac)
            strength = rng.uniform(0.55, 1.0)
            features.append(
                WorldFeature(
                    feature_id=fid,
                    position=pos,
                    surface_id=surface.surface_id,
                    strength=strength,
                )
            )
            fid += 1
    return features


def reference_feature_world(venue, rng):
    features = []
    next_id = 0
    for surface in sorted(venue.surfaces, key=lambda s: s.surface_id):
        sampled = reference_sample_surface(
            surface, rng.child(f"surface-{surface.surface_id}"), next_id
        )
        features.extend(sampled)
        next_id += len(sampled)
    features.extend(reference_mirror_reflections(venue, features, rng, 0.04, 4.0))
    return tuple(features)


# -- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def office_world(office):
    return build_feature_world(office, RngStream(7, "office-world"))


SITE_SEED = 11


@pytest.fixture(params=["library", "office"])
def site(request, bench, office_world):
    """(fresh capture simulator, two open capture spots) per venue."""
    if request.param == "library":
        world, spots = bench.world, (Vec2(3.0, 3.0), Vec2(2.6, 7.0))
    else:
        venue = office_world.venue
        spots = (venue.entrance + Vec2(0.0, 1.5), venue.nearest_traversable(Vec2(7.0, 8.5)))
        world = office_world
    sim = CaptureSimulator(
        world, bench.config.sfm, bench.config.camera, RngStream(SITE_SEED, f"eq-{request.param}")
    )
    return sim, spots


def assert_matches_reference(sim, photo, blur, exposure_compensated=False):
    photo_rng = sim._rng.child(f"photo-{photo.photo_id}")
    idx, pixels = reference_visible_features(
        sim, photo.true_pose, GALAXY_S7, blur, photo_rng, exposure_compensated
    )
    assert np.array_equal(photo.feature_ids, sim.world.ids[idx])
    assert np.array_equal(photo.pixels_uv, pixels)
    patch = render_patch(blur, photo_rng.child("patch"), sim._camera.patch_size_px)
    assert np.array_equal(photo.patch, patch)
    assert photo.sharpness() == variance_of_laplacian(patch)


def assert_same_photo(got, want):
    """Byte-identical photos: every field, every array's values and dtype."""
    assert got.photo_id == want.photo_id
    assert got.exif == want.exif
    assert got.true_pose == want.true_pose
    assert got.source == want.source
    for a, b in (
        (got.feature_ids, want.feature_ids),
        (got.pixels_uv, want.pixels_uv),
        (got.patch, want.patch),
    ):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def one_at_a_time(sim, requests):
    """The requested captures on a fresh simulator, each ``take_photo`` alone.

    A request is (pose, blur, timestamp_s, source).
    """
    fresh = CaptureSimulator(sim.world, sim._sfm, sim._camera, RngStream(SITE_SEED, sim._rng.name))
    return [
        fresh.take_photo(pose, GALAXY_S7, blur=blur, timestamp_s=timestamp_s, source=source)
        for pose, blur, timestamp_s, source in requests
    ]


def sweep_requests(center, step_deg, blur, start_deg=0.0, start_timestamp_s=0.0):
    """The requests a sweep makes of ``take_photo``, in order."""
    return [
        (pose, blur, start_timestamp_s + i * 1.0, "guided")
        for i, pose in enumerate(sweep_poses(center, step_deg, 1.5, start_deg))
    ]


def assert_one_at_a_time(sim, photos, requests):
    assert len(photos) == len(requests)
    for got, want in zip(photos, one_at_a_time(sim, requests)):
        assert_same_photo(got, want)


# -- capture ----------------------------------------------------------------


class TestCaptureEquivalence:
    # Motion-blur kernel widths 1, 1, 3 and 8.
    @pytest.mark.parametrize("blur", [0.0, 0.04, 0.3, 0.85])
    def test_sweep(self, site, blur):
        sim, (spot, _other) = site
        photos = list(sim.sweep(spot, GALAXY_S7, 8.0, blur=blur, start_deg=3.0))
        assert len(photos) == 45
        assert sum(p.n_features for p in photos) > 0
        for photo in photos:
            assert_matches_reference(sim, photo, blur)

    @pytest.mark.parametrize("blur", [0.0, 0.85])
    def test_ring_at_one_spot(self, site, blur):
        sim, (_spot, other) = site
        for i in range(39):
            pose = CameraPose.at(other.x, other.y, yaw_rad=2.0 * math.pi * i / 39)
            photo = sim.take_photo(pose, GALAXY_S7, blur=blur)
            assert_matches_reference(sim, photo, blur)

    def test_alternating_stands_replace_the_station(self, site):
        sim, spots = site
        # Two spots in turn, then one spot at two heights in turn: every
        # photo is taken from a different stand than the one before it.
        stands = [(spots[i % 2], 1.5) for i in range(8)]
        stands += [(spots[0], 1.5 + 0.2 * (i % 2)) for i in range(8)]
        for i, (spot, height) in enumerate(stands):
            pose = CameraPose.at(spot.x, spot.y, yaw_rad=0.4 * i, height_m=height)
            photo = sim.take_photo(pose, GALAXY_S7, blur=0.04)
            assert_matches_reference(sim, photo, 0.04)

    @pytest.mark.parametrize("blur", [0.0, 0.85])
    def test_exposure_compensated(self, site, blur):
        sim, (spot, other) = site
        for i in range(12):
            center = spot if i < 6 else other
            pose = CameraPose.at(center.x, center.y, yaw_rad=math.pi / 6 * i)
            photo = sim.take_photo(pose, GALAXY_S7, blur=blur, exposure_compensated=True)
            assert_matches_reference(sim, photo, blur, exposure_compensated=True)

    def test_observation_cap(self, site, monkeypatch):
        monkeypatch.setattr(capture_module, "MAX_OBSERVATIONS_PER_PHOTO", 15)
        sim, (spot, _other) = site
        photos = list(sim.sweep(spot, GALAXY_S7, 30.0, blur=0.0))
        assert max(p.n_features for p in photos) == 15
        for photo in photos:
            assert_matches_reference(sim, photo, 0.0)

    def test_backlight_batch_equals_scalar_rays(self, site):
        sim, spots = site
        venue = sim.world.venue
        factors = []
        for center in spots + (venue.entrance, Vec2(0.6, 7.0), Vec2(1.2, 11.0)):
            poses = [
                CameraPose.at(center.x, center.y, yaw_rad=2.0 * math.pi * i / 24)
                for i in range(24)
            ]
            # All 24 poses in one batch, and each pose alone.
            batch = sim._exposure_factors(poses)
            assert batch == [sim._exposure_factors([pose])[0] for pose in poses]
            assert batch == [reference_exposure(sim, pose) for pose in poses]
            factors.extend(batch)
        # Some poses faced glass and some did not.
        assert min(factors) < 1.0
        assert max(factors) == 1.0


class TestRayDirections:
    """The backlight rays come from plain floats, bit-equal to the
    ``Vec2.from_angle(...).normalized()`` pairs they replaced."""

    YAWS = [0.0, math.pi, -math.pi, math.pi - 1e-9, -math.pi + 1e-9, 3.1, -3.1,
            2.0 * math.pi, 7.5, -7.5, math.nextafter(math.pi, 0.0)]

    @pytest.mark.parametrize(
        "hfov_rad",
        [paper_config().camera.hfov_rad, GALAXY_S7.hfov_rad],
        ids=["config-camera", "galaxy-s7"],
    )
    def test_bit_equal_to_vec2(self, hfov_rad):
        n_rays = 13
        half = hfov_rad / 2.0
        got = capture_module.ray_directions(self.YAWS, half, n_rays)
        want = [
            Vec2.from_angle(yaw - half + (2.0 * half) * i / (n_rays - 1)).normalized().as_tuple()
            for yaw in self.YAWS
            for i in range(n_rays)
        ]
        assert len(got) == len(want) == len(self.YAWS) * n_rays
        for (gx, gy), (wx, wy) in zip(got, want):
            assert gx.hex() == wx.hex() and gy.hex() == wy.hex()

    def test_sweeps_across_the_wrap(self, site):
        sim, _spots = site
        half = sim._camera.hfov_rad / 2.0
        # Yaws stepping over +-pi, as a sweep started near pi does.
        yaws = [math.pi + step * 0.05 for step in range(-12, 13)]
        yaws += [-y for y in yaws]
        got = capture_module.ray_directions(yaws, half, 13)
        want = [
            Vec2.from_angle(yaw - half + (2.0 * half) * i / 12).normalized().as_tuple()
            for yaw in yaws
            for i in range(13)
        ]
        assert got == want


class TestShotGroups:
    """A sweep's photos equal one-at-a-time capture, however it is consumed."""

    def test_full_sweep(self, site):
        sim, (spot, _other) = site
        photos = list(sim.sweep(spot, GALAXY_S7, 8.0, blur=0.04, start_timestamp_s=7.0))
        assert_one_at_a_time(sim, photos, sweep_requests(spot, 8.0, 0.04, start_timestamp_s=7.0))

    def test_abandoned_sweep(self, site):
        sim, (spot, other) = site
        sweep = sim.sweep(spot, GALAXY_S7, 8.0, blur=0.3, start_deg=5.0)
        photos = [next(sweep) for _ in range(10)]
        requests = sweep_requests(spot, 8.0, 0.3, start_deg=5.0)[:10]
        del sweep
        # A fresh sweep elsewhere, then single shots at the abandoned spot,
        # the first of them the abandoned sweep's next shot.
        photos += list(sim.sweep(other, GALAXY_S7, 30.0))
        requests += sweep_requests(other, 30.0, 0.04)
        for pose, blur, timestamp_s, source in sweep_requests(spot, 8.0, 0.3, start_deg=5.0)[10:13]:
            photos.append(
                sim.take_photo(pose, GALAXY_S7, blur=blur, timestamp_s=timestamp_s, source=source)
            )
            requests.append((pose, blur, timestamp_s, source))
        assert [p.photo_id for p in photos] == list(range(1, len(photos) + 1))
        assert_one_at_a_time(sim, photos, requests)

    def test_interleaved_take_photo(self, site):
        sim, (spot, other) = site
        sweep_shots = sweep_requests(spot, 8.0, 0.04)
        photos, requests = [], []
        for i, photo in enumerate(sim.sweep(spot, GALAXY_S7, 8.0, blur=0.04)):
            photos.append(photo)
            requests.append(sweep_shots[i])
            if i not in (4, 5, 20):
                continue
            # Interleaved shots that differ from the sweep's next shot in
            # pose alone (another spot, or the same spot and a hair of
            # yaw), or in blur too.
            pose, blur, timestamp_s, source = sweep_shots[i + 1]
            pose = {
                4: CameraPose.at(other.x, other.y, yaw_rad=pose.yaw_rad),
                5: pose.rotated(1e-12),
                20: pose,
            }[i]
            blur = 0.85 if i == 20 else blur
            photos.append(
                sim.take_photo(pose, GALAXY_S7, blur=blur, timestamp_s=timestamp_s, source=source)
            )
            requests.append((pose, blur, timestamp_s, source))
        assert len(photos) == 48
        assert_one_at_a_time(sim, photos, requests)
        for photo, (_pose, blur, _t, _s) in zip(photos, requests):
            assert_matches_reference(sim, photo, blur)

    def test_one_photo_groups(self, site):
        sim, (spot, _other) = site
        # A sweep abandoned before its first photo, then a one-shot sweep.
        sim.sweep(spot, GALAXY_S7, 8.0)
        photos = list(sim.sweep(spot, GALAXY_S7, 360.0, start_deg=45.0))
        assert len(photos) == 1
        assert_one_at_a_time(sim, photos, sweep_requests(spot, 360.0, 0.04, start_deg=45.0))

    def test_sweep_calls_take_photo_once_per_photo(self, site, monkeypatch):
        sim, (spot, _other) = site
        calls = []
        real = CaptureSimulator.take_photo

        def counting(self, *args, **kwargs):
            photo = real(self, *args, **kwargs)
            calls.append(photo.photo_id)
            return photo

        monkeypatch.setattr(CaptureSimulator, "take_photo", counting)
        photos = list(sim.sweep(spot, GALAXY_S7, 8.0))
        assert len(photos) == 45
        assert calls == [p.photo_id for p in photos]

    def test_patches_own_their_pixels(self, site):
        sim, (spot, other) = site
        photos = list(sim.sweep(spot, GALAXY_S7, 8.0))
        photos.append(sim.take_photo(CameraPose.at(other.x, other.y), GALAXY_S7))
        for photo in photos:
            assert photo.patch.base is None


# -- venue geometry ---------------------------------------------------------


class TestVenueEquivalence:
    def test_ground_truth_library(self, bench):
        gt = bench.ground_truth
        obstacle, region, traversable = reference_ground_truth_masks(bench.venue, bench.spec)
        assert np.array_equal(gt.obstacle_mask, obstacle)
        assert np.array_equal(gt.region_mask, region)
        assert np.array_equal(gt.traversable_mask, traversable)

    @pytest.mark.parametrize("cell", [0.1, 0.25])
    def test_ground_truth_generated_office(self, office, cell):
        spec = default_grid_spec(office, cell)
        gt = build_ground_truth(office, spec)
        obstacle, region, traversable = reference_ground_truth_masks(office, spec)
        assert np.array_equal(gt.obstacle_mask, obstacle)
        assert np.array_equal(gt.region_mask, region)
        assert np.array_equal(gt.traversable_mask, traversable)

    def test_feature_world_library(self, bench):
        rng = RngStream(3, "world")
        world = build_feature_world(bench.venue, rng)
        reference = reference_feature_world(bench.venue, rng)
        assert any(f.is_reflection for f in reference)
        assert world.features == reference

    def test_feature_world_generated_office(self, office):
        world = build_feature_world(office, RngStream(7, "office-world"))
        reference = reference_feature_world(office, RngStream(7, "office-world"))
        assert any(f.is_reflection for f in reference)
        assert world.features == reference


# -- contains_points --------------------------------------------------------


def _query_points(polygon, cell):
    """Vertices, edge midpoints, cell centres around the polygon, and more."""
    pts = list(polygon.vertices)
    pts += [e.midpoint for e in polygon.edges()]
    spec = GridSpec.from_bbox(polygon.bbox, cell, margin_m=2.0 * cell)
    pts += [spec.center_of(r, c) for r in range(spec.n_rows) for c in range(spec.n_cols)]
    pts.append(polygon.bbox.center)
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    return pts, xs, ys


def _assert_contains_points_equal(polygon, cell):
    pts, xs, ys = _query_points(polygon, cell)
    batched = polygon.contains_points(xs, ys)
    scalar = np.array([polygon.contains(p) for p in pts])
    assert np.array_equal(batched, scalar)
    # The same answer on a 2-D mesh.
    assert np.array_equal(polygon.contains_points(xs[None, :], ys[None, :])[0], scalar)


class TestContainsPoints:
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.floats(0.3, 6.0),
        st.floats(0.3, 6.0),
        st.floats(-math.pi, math.pi),
        st.sampled_from([0.1, 0.15, 0.25, 0.5]),
    )
    def test_rotated_rectangles(self, x, y, width, depth, angle, cell):
        polygon = Polygon.rotated_rectangle(Vec2(x, y), width, depth, angle)
        _assert_contains_points_equal(polygon, cell)

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(
        st.floats(6.0, 30.0),
        st.floats(6.0, 20.0),
        st.integers(0, 10_000),
        st.sampled_from([0.1, 0.15, 0.25]),
    )
    def test_generated_outer_polygons(self, width, depth, seed, cell):
        venue = generate_office(
            OfficeSpec(width_m=width, depth_m=depth, n_furniture=3, n_hotspots=1),
            RngStream(seed, "office"),
        )
        _assert_contains_points_equal(venue.outer, cell)
        for footprint in venue.furniture_footprints:
            _assert_contains_points_equal(footprint, cell)

    def test_library_outer_polygon(self, library):
        _assert_contains_points_equal(library.outer, 0.15)

    def test_shape_mismatch(self):
        from repro.errors import GeometryError

        with pytest.raises(GeometryError):
            Polygon.rectangle(0, 0, 1, 1).contains_points(np.zeros(3), np.zeros(2))
