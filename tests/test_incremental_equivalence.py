"""Differential oracle: incremental maps must be cell-exact vs rebuilds.

The incremental map-maintenance engine (``repro.mapping.incremental``)
replaces the per-batch from-scratch runs of Algorithm 2 + Algorithm 3 in
the pipeline. Its correctness contract is *cell-exact equivalence* with
the from-scratch functions — not "close enough". This suite enforces it:

* the full fig10 guided campaign is replayed batch-by-batch and every
  obstacles / visibility grid and covered-cell count the pipeline emitted
  is compared against an independent from-scratch rebuild;
* targeted delta scenarios (camera re-observation, SOR point churn,
  obstacle appearance inside and outside cached wedges, glass-wall
  imprint recovery via artificial features, annotation write-off) and
  seeded add / remove / move sequences are driven through the engine
  directly, and after every update each cached camera wedge must equal a
  fresh ray march against the current obstacles;
* unsorted and duplicate-id clouds exercise the columnar cloud diff;
* a long-lived engine matches a fresh engine built from each state alone,
  and a pipeline on the columnar SfM engine emits the same maps as one on
  the from-scratch :class:`~repro.sfm.scratch.ScratchSfm` oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.camera import GALAXY_S7, CameraPose
from repro.core.tasks import TaskKind
from repro.geometry import BoundingBox, Vec2
from repro.mapping import (
    GridSpec,
    IncrementalMapEngine,
    calculate_obstacles_map,
    calculate_visibility_map,
    camera_visible_cells,
)
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import SnapTaskPipeline
from repro.errors import MappingError
from repro.sfm import IncrementalSfm, PointCloud, SfmModel
from repro.sfm.model import RecoveredCamera
from repro.sfm.pointcloud import CloudPoint
from repro.sfm.scratch import ScratchSfm
from repro.simkit import RngStream
from repro.venue.features import ARTIFICIAL_FEATURE_BASE
from tests.test_core_pipeline import recorded_outcomes


# --------------------------------------------------------------------------
# Oracle helpers
# --------------------------------------------------------------------------


def scratch_maps(model, spec, threshold=4, max_range=5.0):
    """Independent from-scratch rebuild (Algorithm 2 + Algorithm 3)."""
    obstacles = calculate_obstacles_map(model.cloud, spec, threshold)
    visibility = calculate_visibility_map(model, obstacles, max_range)
    return obstacles, visibility


def assert_cell_exact(update, model, spec, threshold=4, max_range=5.0, site_mask=None):
    obstacles, visibility = scratch_maps(model, spec, threshold, max_range)
    np.testing.assert_array_equal(
        update.maps.obstacles.data, obstacles.data, err_msg="obstacles diverged"
    )
    np.testing.assert_array_equal(
        update.maps.visibility.data, visibility.data, err_msg="visibility diverged"
    )
    covered = obstacles.nonzero_mask() | visibility.nonzero_mask()
    if site_mask is not None:
        covered = covered & site_mask
    assert update.covered_cells == int(covered.sum())


def assert_wedges_exact(engine, max_range=5.0):
    """Every cached wedge equals a fresh ray march against today's obstacles.

    The exact invalidation rule refreshes a wedge only when an occupancy
    flip lands inside it; a wedge the rule wrongly kept would differ here.
    """
    obstacle_mask = engine.maps().obstacles.nonzero_mask()
    for photo_id, entry in engine._cameras.items():  # noqa: SLF001
        pose = entry.camera.pose
        fresh = camera_visible_cells(
            engine.spec, obstacle_mask, pose.position.x, pose.position.y,
            pose.yaw_rad, entry.camera.hfov_rad, max_range,
            ray_ranges_m=entry.ranges,
        )
        np.testing.assert_array_equal(
            entry.cells, np.flatnonzero(fresh),
            err_msg=f"stale cached wedge for camera {photo_id}",
        )


# --------------------------------------------------------------------------
# Synthetic model building blocks
# --------------------------------------------------------------------------


def small_spec(cell=0.25, size=12.0):
    return GridSpec.from_bbox(BoundingBox(0, 0, size, size), cell, margin_m=0.0)


def wall_points(fid0, x, y0, y1, step=0.1, per_column=5):
    """A dense wall of cloud points along x=const; returns (points, ids)."""
    points = []
    fid = fid0
    for y in np.arange(y0, y1, step):
        for k in range(per_column):
            points.append(CloudPoint(fid, float(x), float(y), 0.4 + 0.4 * k, 3))
            fid += 1
    return points


def make_camera(photo_id, x, y, yaw, observed):
    return RecoveredCamera(
        photo_id=photo_id,
        pose=CameraPose.at(x, y, yaw),
        intrinsics=GALAXY_S7,
        n_inliers=100,
        observed_feature_ids=np.asarray(observed, dtype=int),
    )


class TestSyntheticDeltas:
    """Engine vs oracle across hand-built delta scenarios."""

    def check_sequence(self, spec, states, site_mask=None):
        """Run ``states`` through one engine, oracle-checking every step."""
        engine = IncrementalMapEngine(spec, site_mask=site_mask)
        updates = []
        for cloud, cameras in states:
            model = SfmModel(PointCloud(cloud), cameras)
            update = engine.update(model)
            assert_cell_exact(update, model, spec, site_mask=site_mask)
            assert_wedges_exact(engine)
            updates.append(update)
        return updates

    def test_growth_then_reobservation_reuses_wedges(self):
        spec = small_spec()
        wall_a = wall_points(0, 6.0, 2.0, 6.0)
        ids_a = [p.feature_id for p in wall_a]
        cam1 = make_camera(1, 3.0, 4.0, 0.0, ids_a)
        # Camera 2 re-observes exactly the same points from a new spot far
        # from any dirtied cell; camera 1's cached wedge must be reused.
        cam2 = make_camera(2, 3.0, 5.0, 0.0, ids_a)
        states = [
            (wall_a, [cam1]),
            (wall_a, [cam1, cam2]),
        ]
        updates = self.check_sequence(spec, states)
        assert updates[0].cameras_added == 1
        assert updates[1].cameras_added == 1
        assert updates[1].cameras_reused == 1  # no dirt: wedge reused
        assert updates[1].points_added == 0

    def test_new_wall_dirties_only_its_columns(self):
        spec = small_spec()
        wall_a = wall_points(0, 6.0, 2.0, 6.0)
        wall_b = wall_points(10_000, 9.0, 2.0, 6.0)
        cam = make_camera(1, 3.0, 4.0, 0.0, [p.feature_id for p in wall_a])
        updates = self.check_sequence(
            spec, [(wall_a, [cam]), (wall_a + wall_b, [cam])]
        )
        n_wall_b_cells = len({(round(p.y, 6)) for p in wall_b})
        assert updates[1].points_added == len(wall_b)
        # Only the new wall's columns were re-merged, not the whole grid.
        assert 0 < updates[1].dirty_obstacle_cells < spec.n_rows * spec.n_cols / 4

    def test_sor_churn_removes_points(self):
        """SOR is global: previously-inlying points can vanish."""
        spec = small_spec()
        wall = wall_points(0, 6.0, 2.0, 6.0)
        survivors = wall[: len(wall) - 10]
        cam = make_camera(1, 3.0, 4.0, 0.0, [p.feature_id for p in wall])
        updates = self.check_sequence(spec, [(wall, [cam]), (survivors, [cam])])
        assert updates[1].points_removed == 10
        assert updates[1].points_added == 0

    def test_point_position_change_is_remove_plus_add(self):
        spec = small_spec()
        wall = wall_points(0, 6.0, 2.0, 6.0)
        moved = [CloudPoint(wall[0].feature_id, 6.2, wall[0].y, wall[0].z, 3)]
        moved += wall[1:]
        cam = make_camera(1, 3.0, 4.0, 0.0, [p.feature_id for p in wall])
        updates = self.check_sequence(spec, [(wall, [cam]), (moved, [cam])])
        assert updates[1].points_removed == 1
        assert updates[1].points_added == 1

    def test_obstacle_appearing_inside_cached_wedge_invalidates(self):
        """A wall materialising mid-wedge must clip cached rays."""
        spec = small_spec()
        far_wall = wall_points(0, 9.0, 3.0, 5.0)
        near_wall = wall_points(20_000, 5.0, 3.0, 5.0)
        observed = [p.feature_id for p in far_wall] + [
            p.feature_id for p in near_wall
        ]
        cam = make_camera(1, 3.0, 4.0, 0.0, observed)
        states = [(far_wall, [cam]), (far_wall + near_wall, [cam])]
        updates = self.check_sequence(spec, states)
        assert updates[1].cameras_refreshed == 1
        # Cells behind the new near wall are no longer visible.
        behind = spec.cell_of(Vec2(7.0, 4.0))
        assert updates[0].maps.visibility.data[behind] > 0
        assert updates[1].maps.visibility.data[behind] == 0

    def test_unobserved_obstacle_inside_wedge_invalidates(self):
        """The camera's clip ranges do not change (it observed none of the
        new wall), so only the obstacle rule can refresh its wedge."""
        spec = small_spec()
        far_wall = wall_points(0, 9.0, 3.0, 5.0)
        near_wall = wall_points(20_000, 5.0, 3.0, 5.0)
        cam = make_camera(1, 3.0, 4.0, 0.0, [p.feature_id for p in far_wall])
        updates = self.check_sequence(
            spec, [(far_wall, [cam]), (far_wall + near_wall, [cam])]
        )
        assert updates[1].cameras_refreshed == 1
        behind = spec.cell_of(Vec2(7.0, 4.0))
        assert updates[0].maps.visibility.data[behind] > 0
        assert updates[1].maps.visibility.data[behind] == 0

    def test_flip_in_the_farthest_wedge_cell_invalidates(self):
        """The flip prefilter's reach. A wedge cell's centre can lie past
        ``max_range_m``, by up to half a cell diagonal; a flip in such a
        cell must still refresh the wedge."""
        spec = small_spec()
        cam = RecoveredCamera(
            photo_id=1, pose=CameraPose.at(3.0, 4.0, 0.0), intrinsics=GALAXY_S7,
            n_inliers=100, observed_feature_ids=None,
        )
        empty = np.zeros(spec.shape, dtype=bool)
        wedge = np.flatnonzero(
            camera_visible_cells(spec, empty, 3.0, 4.0, 0.0, cam.hfov_rad, 5.0)
        )
        rows, cols = np.divmod(wedge, spec.n_cols)
        centre_x = spec.origin_x + (cols + 0.5) * spec.cell_size_m
        centre_y = spec.origin_y + (rows + 0.5) * spec.cell_size_m
        dist = np.hypot(centre_x - 3.0, centre_y - 4.0)
        far = int(dist.argmax())
        assert 5.0 < dist[far] <= 5.0 + spec.cell_size_m / np.sqrt(2.0)
        column = [
            CloudPoint(k, float(centre_x[far]), float(centre_y[far]), 0.4 + 0.4 * k, 3)
            for k in range(5)
        ]
        updates = self.check_sequence(spec, [([], [cam]), (column, [cam])])
        assert updates[1].dirty_obstacle_cells == 1
        assert updates[1].maps.obstacles.data.reshape(-1)[wedge[far]] > 0
        assert updates[1].cameras_refreshed == 1

    def test_obstacle_vanishing_restores_visibility(self):
        """The inverse: removing a blocking wall re-extends cached rays."""
        spec = small_spec()
        far_wall = wall_points(0, 9.0, 3.0, 5.0)
        near_wall = wall_points(20_000, 5.0, 3.0, 5.0)
        observed = [p.feature_id for p in far_wall] + [
            p.feature_id for p in near_wall
        ]
        cam = make_camera(1, 3.0, 4.0, 0.0, observed)
        states = [(far_wall + near_wall, [cam]), (far_wall, [cam])]
        updates = self.check_sequence(spec, states)
        behind = spec.cell_of(Vec2(7.0, 4.0))
        assert updates[0].maps.visibility.data[behind] == 0
        assert updates[1].maps.visibility.data[behind] > 0

    def test_obstacle_outside_wedge_keeps_it_cached(self):
        """A wall inside the camera's reach but behind it cannot touch any
        of its rays, so the cached wedge is reused, not recomputed."""
        spec = small_spec()
        far_wall = wall_points(0, 6.0, 2.0, 6.0)
        back_wall = wall_points(20_000, 1.5, 3.0, 5.0)
        cam = make_camera(1, 3.0, 4.0, 0.0, [p.feature_id for p in far_wall])
        updates = self.check_sequence(
            spec, [(far_wall, [cam]), (far_wall + back_wall, [cam])]
        )
        back_cell = spec.cell_of(Vec2(1.5, 4.0))
        assert updates[1].maps.obstacles.data[back_cell] > 0
        assert updates[1].cameras_reused == 1
        assert updates[1].cameras_refreshed == 0

    def test_glass_wall_imprint_recovery(self):
        """Artificial-texture points (Algorithm 6) arriving late must
        imprint the glass wall and extend wedges, exactly as a rebuild."""
        spec = small_spec()
        wall = wall_points(0, 9.0, 2.0, 3.5)
        # Imprinted glass surface: artificial feature ids, dense points.
        glass = [
            CloudPoint(ARTIFICIAL_FEATURE_BASE + i, 7.0, 5.0 + 0.02 * i, 1.2, 3)
            for i in range(60)
        ]
        cam1 = make_camera(1, 3.0, 4.0, 0.0, [p.feature_id for p in wall])
        cam2 = make_camera(
            2, 4.0, 5.0, 0.0, [p.feature_id for p in glass]
        )
        states = [(wall, [cam1]), (wall + glass, [cam1, cam2])]
        updates = self.check_sequence(spec, states)
        glass_cell = spec.cell_of(Vec2(7.0, 5.5))
        assert updates[1].maps.obstacles.data[glass_cell] > 0
        assert updates[1].points_added == len(glass)

    def test_site_mask_restricts_covered_cells(self):
        spec = small_spec()
        site = np.zeros(spec.shape, dtype=bool)
        site[: spec.n_rows // 2, :] = True
        wall = wall_points(0, 6.0, 2.0, 6.0)
        cam = make_camera(1, 3.0, 4.0, 0.0, [p.feature_id for p in wall])
        self.check_sequence(spec, [(wall, [cam])], site_mask=site)

    def test_bad_max_range_rejected(self):
        for bad in (0.0, -2.0, float("nan"), float("inf")):
            with pytest.raises(MappingError):
                IncrementalMapEngine(small_spec(), max_range_m=bad)

    def test_fresh_engine_per_state_is_identical(self):
        spec = small_spec()
        wall_a = wall_points(0, 6.0, 2.0, 6.0)
        wall_b = wall_points(10_000, 9.0, 2.0, 6.0)
        cam1 = make_camera(1, 3.0, 4.0, 0.0, [p.feature_id for p in wall_a])
        cam2 = make_camera(2, 3.0, 5.0, 0.2, [p.feature_id for p in wall_b])
        states = [
            (wall_a, [cam1]),
            (wall_a + wall_b, [cam1, cam2]),
            (wall_a[5:] + wall_b, [cam1, cam2]),
        ]
        incremental = IncrementalMapEngine(spec)
        for cloud, cameras in states:
            model = SfmModel(PointCloud(cloud), cameras)
            a = incremental.update(model)
            b = IncrementalMapEngine(spec).update(model)
            assert b.cameras_added == len(cameras) and b.points_removed == 0
            np.testing.assert_array_equal(
                a.maps.obstacles.data, b.maps.obstacles.data
            )
            np.testing.assert_array_equal(
                a.maps.visibility.data, b.maps.visibility.data
            )
            assert a.covered_cells == b.covered_cells


class TestColumnarCloudDiff:
    """The applied cloud is kept as sorted id / xyz columns."""

    def states(self):
        wall_a = wall_points(0, 6.0, 2.0, 6.0)
        wall_b = wall_points(10_000, 9.0, 2.0, 6.0)
        moved = [CloudPoint(p.feature_id, p.x - 0.5, p.y, p.z, 3) for p in wall_b[:40]]
        cam1 = make_camera(1, 3.0, 4.0, 0.0, [p.feature_id for p in wall_a])
        cam2 = make_camera(2, 3.0, 5.0, 0.2, [p.feature_id for p in wall_b])
        return [
            (wall_a, [cam1]),
            (wall_a + wall_b, [cam1, cam2]),
            (wall_a[5:] + moved + wall_b[40:], [cam1, cam2]),
        ]

    def test_unsorted_cloud_matches_sorted(self):
        spec = small_spec()
        rng = np.random.default_rng(7)
        ordered, shuffled = IncrementalMapEngine(spec), IncrementalMapEngine(spec)
        for cloud, cameras in self.states():
            permuted = [cloud[i] for i in rng.permutation(len(cloud))]
            a = ordered.update(SfmModel(PointCloud(cloud), cameras))
            b = shuffled.update(SfmModel(PointCloud(permuted), cameras))
            assert_cell_exact(b, SfmModel(PointCloud(cloud), cameras), spec)
            np.testing.assert_array_equal(a.maps.obstacles.data, b.maps.obstacles.data)
            np.testing.assert_array_equal(a.maps.visibility.data, b.maps.visibility.data)
            for field in (
                "covered_cells", "points_added", "points_removed", "cameras_added",
                "cameras_refreshed", "cameras_reused", "dirty_obstacle_cells",
            ):
                assert getattr(a, field) == getattr(b, field), field
            assert_wedges_exact(shuffled)
        assert shuffled.n_applied_points == ordered.n_applied_points

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_duplicate_feature_ids_rejected(self, shuffle):
        wall = wall_points(0, 6.0, 2.0, 6.0)
        cloud = wall + [CloudPoint(wall[3].feature_id, 7.0, 4.0, 1.0, 3)]
        if shuffle:
            cloud = cloud[::-1]
        engine = IncrementalMapEngine(small_spec())
        with pytest.raises(MappingError, match="duplicate feature ids"):
            engine.update(SfmModel(PointCloud(cloud), []))


def random_state(rng, walls, next_fid):
    """Seeded walls appear, vanish and move; cameras observe some of them."""
    for key in list(walls):
        roll = rng.random()
        if roll < 0.25:
            del walls[key]
        elif roll < 0.5:
            fid0, _x, y0, y1 = walls[key]
            walls[key] = (fid0, float(rng.uniform(0.5, 11.5)), y0, y1)
    for _ in range(int(rng.integers(0, 3))):
        y0 = float(rng.uniform(0.5, 10.0))
        walls[next_fid] = (next_fid, float(rng.uniform(0.5, 11.5)), y0, y0 + rng.uniform(0.3, 2.0))
        next_fid += 1000
    cloud = [p for wall in walls.values() for p in wall_points(*wall)]
    ids = [p.feature_id for p in cloud]
    cameras = []
    for pid in range(int(rng.integers(1, 5))):
        x, y = rng.uniform(0.5, 11.5, 2)
        yaw = float(rng.uniform(-np.pi, np.pi))
        if rng.random() < 0.5:
            observed = rng.permutation(ids)[: rng.integers(0, len(ids) + 1)]
            cameras.append(make_camera(pid, float(x), float(y), yaw, observed))
        else:
            # No observations: an unclipped wedge that only obstacles shape.
            cameras.append(
                RecoveredCamera(
                    photo_id=pid,
                    pose=CameraPose.at(float(x), float(y), yaw),
                    intrinsics=GALAXY_S7,
                    n_inliers=100,
                    observed_feature_ids=None,
                )
            )
    return cloud, cameras, next_fid


def reference_diff_sizes(applied, cloud):
    """(added, removed) counts of the per-point dict diff the columnar
    ``searchsorted`` merge replaced; ``applied`` becomes ``cloud``."""
    new = {p.feature_id: (p.x, p.y, p.z) for p in cloud}
    added = sum(1 for fid, pos in new.items() if applied.get(fid) != pos)
    removed = sum(1 for fid, pos in applied.items() if new.get(fid) != pos)
    applied.clear()
    applied.update(new)
    return added, removed


class TestSeededDeltaSequences:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 6))
    def test_maps_and_wedges_exact_after_every_delta(self, seed, steps):
        spec = small_spec()
        rng = np.random.default_rng(seed)
        engine = IncrementalMapEngine(spec)
        applied: dict = {}
        walls: dict = {}
        next_fid = 0
        cameras: list = []
        for _ in range(steps):
            cloud, fresh, next_fid = random_state(rng, walls, next_fid)
            # Keep some cameras (same observed-ids object) so their wedges
            # are cached across deltas; replace the rest.
            keep = cameras[: len(cameras) // 2]
            kept_ids = {c.photo_id for c in keep}
            cameras = keep + [c for c in fresh if c.photo_id not in kept_ids]
            model = SfmModel(PointCloud(cloud), cameras)
            update = engine.update(model)
            assert_cell_exact(update, model, spec)
            assert_wedges_exact(engine)
            assert (update.points_added, update.points_removed) == (
                reference_diff_sizes(applied, cloud)
            )


# --------------------------------------------------------------------------
# The fig10 guided campaign, replayed batch-by-batch
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def guided_replay():
    """One full guided campaign (the fig10 procedure) on a fresh bench,
    with the outcome of every batch it processed."""
    from repro.eval import Workbench

    bench = Workbench.for_library()
    pipeline = bench.make_pipeline()
    campaign = bench.make_guided_campaign(pipeline, 10)
    with recorded_outcomes() as outcomes:
        run = campaign.run(max_tasks=120)
    return bench, outcomes, run


def camera_derived(model):
    """The same model without observation rows: its ``cameras_observing``
    scans the cameras' own observed ids."""
    return SfmModel(model.cloud, model.cameras)


class TestTableBackedObservers:
    """A pipeline snapshot answers ``cameras_observing`` from the SfM
    engine's live observation table, reading the queried features' rows
    alone; the answer must equal the camera-derived one, whenever it is
    asked, however much the table grew since."""

    def test_every_batch_delta_matches_the_cameras(self, guided_replay):
        _bench, outcomes, _run = guided_replay
        applied = np.zeros(0, dtype=np.int64)
        asked = 0
        for outcome in outcomes:
            model = outcome.model
            assert model._rows is not None  # noqa: SLF001 - table-backed
            ids = np.asarray(model.cloud.feature_ids, dtype=np.int64)
            # The engine's diff: new filtered points plus evicted ones.
            changed = np.setxor1d(applied, ids)
            applied = ids
            got = model.cameras_observing(changed)
            np.testing.assert_array_equal(
                got,
                camera_derived(model).cameras_observing(changed),
                err_msg=f"observers diverged at iteration {outcome.iteration}",
            )
            asked += got.shape[0]
        assert asked > 1000, "vacuous: the deltas reached few cameras"

    def test_earlier_snapshots_answer_as_when_taken(self, guided_replay):
        _bench, outcomes, _run = guided_replay
        final = outcomes[-1].model
        # Every id the campaign ever triangulated, most of them interned
        # after the early snapshots were taken, plus ids never seen.
        ids = final.cloud.feature_ids
        every = np.concatenate([ids, np.array([-5, int(ids.max()) + 1], dtype=np.int64)])
        early = outcomes[:: max(1, len(outcomes) // 8)]
        assert early[1].model.n_cameras < final.n_cameras
        for outcome in early:
            model = outcome.model
            np.testing.assert_array_equal(
                model.cameras_observing(every),
                camera_derived(model).cameras_observing(every),
            )

    def test_snapshot_shares_rows_and_cameras(self, bench):
        engine = IncrementalSfm(bench.world, bench.config.sfm, RngStream(8, "rows"))
        photos = list(bench.capture.sweep(Vec2(3, 3), GALAXY_S7, 8.0, blur=0.0))
        engine.add_photos(photos[:20])
        before = engine.model()
        filtered = before.with_cloud(before.cloud.subset(np.arange(len(before.cloud)) % 2 == 0))
        assert filtered.cameras is before.cameras
        engine.add_photos(photos[20:])
        after = engine.model()
        assert after.n_cameras > before.n_cameras
        assert [c.photo_id for c in after.cameras] == engine.registered_ids()
        wanted = after.cloud.feature_ids
        for model in (before, filtered, after):
            np.testing.assert_array_equal(
                model.cameras_observing(wanted), camera_derived(model).cameras_observing(wanted)
            )


class TestGuidedCampaignEquivalence:
    def test_every_batch_cell_exact(self, guided_replay):
        """The acceptance criterion: incremental == rebuild, every batch."""
        bench, outcomes, _run = guided_replay
        threshold = bench.config.tasks.obstacle_threshold
        max_range = bench.config.sfm.visibility_range_m
        site = bench.ground_truth.region_mask
        assert len(outcomes) > 20
        for outcome in outcomes:
            model = outcome.model  # filtered cloud + recovered cameras
            obstacles, visibility = scratch_maps(model, bench.spec, threshold, max_range)
            np.testing.assert_array_equal(
                outcome.maps.obstacles.data,
                obstacles.data,
                err_msg=f"obstacles diverged at iteration {outcome.iteration}",
            )
            np.testing.assert_array_equal(
                outcome.maps.visibility.data,
                visibility.data,
                err_msg=f"visibility diverged at iteration {outcome.iteration}",
            )
            covered = (obstacles.nonzero_mask() | visibility.nonzero_mask()) & site
            assert outcome.coverage_cells == int(covered.sum()), (
                f"covered-cell count diverged at iteration {outcome.iteration}"
            )

    def test_cached_wedges_exact_after_every_batch(self, guided_replay):
        """Replayed through a fresh engine, no batch leaves a stale wedge."""
        bench, outcomes, _run = guided_replay
        max_range = bench.config.sfm.visibility_range_m
        engine = IncrementalMapEngine(
            bench.spec,
            obstacle_threshold=bench.config.tasks.obstacle_threshold,
            max_range_m=max_range,
            site_mask=bench.ground_truth.region_mask,
        )
        for outcome in outcomes:
            update = engine.update(outcome.model)
            assert update.covered_cells == outcome.coverage_cells
            assert_wedges_exact(engine, max_range)

    def test_campaign_exercised_the_delta_paths(self, guided_replay):
        """Guard against a vacuous oracle: the campaign must actually hit
        reuse, SOR removal, and annotation/imprint machinery."""
        _bench, outcomes, run = guided_replay
        updates = [o.map_update for o in outcomes if o.map_update]
        assert updates, "pipeline did not report map updates"
        assert sum(u.cameras_reused for u in updates) > 0
        assert sum(u.points_removed for u in updates) > 0, (
            "SOR churn never removed a point — removal path untested"
        )
        assert sum(u.cameras_refreshed for u in updates) > 0
        # Late-campaign batches must be delta-sized, not model-sized.
        late = updates[-5:]
        for u in late:
            assert u.cameras_reused > u.cameras_added + u.cameras_refreshed, (
                "late-campaign batch recomputed more wedges than it reused"
            )
        # Glass-wall imprint recovery happened and went through the engine.
        assert any(
            r.task.kind == TaskKind.ANNOTATION for r in run.completed
        ), "campaign produced no annotation task"

    def test_write_off_keeps_maps_exact(self, guided_replay):
        """Targeted: drive Algorithm 1 into its `_write_off` branch and
        verify the maps emitted during it still match the oracle."""
        bench, _outcomes, _run = guided_replay
        rng = RngStream(4242, "write-off")
        pipeline = SnapTaskPipeline(
            bench.world,
            bench.config,
            bench.spec,
            bench.venue.entrance,
            rng,
            site_mask=bench.ground_truth.region_mask,
        )
        campaign = bench.make_guided_campaign(pipeline, 2)
        outcome = pipeline.process_batch(campaign.bootstrap_photos())
        assert outcome.photos_added

        # Re-sweep the already-covered entrance: no growth, good quality.
        task = outcome.new_tasks[0] if outcome.new_tasks else None
        location = bench.venue.entrance
        key = pipeline._location_key(location)
        trigger = bench.config.tasks.annotation_trigger_attempts
        pipeline._attempts[key] = trigger  # next good-quality failure escalates
        pipeline._annotated_keys[key] = (
            bench.config.tasks.max_annotations_per_location
        )  # annotation budget exhausted -> write-off
        from repro.core.tasks import TaskFactory

        factory = TaskFactory()
        retry = factory.photo_task(location, 1)
        photos = list(
            bench.capture.sweep(
                location,
                GALAXY_S7,
                bench.config.tasks.capture_step_deg,
                blur=0.02,
                start_timestamp_s=1.0,
                source="write-off-test",
            )
        )
        outcome2 = pipeline.process_batch(photos, retry)
        assert pipeline._written_off.any(), "write-off branch did not run"
        for out in (outcome, outcome2):
            obstacles, visibility = scratch_maps(
                out.model,
                bench.spec,
                bench.config.tasks.obstacle_threshold,
                bench.config.sfm.visibility_range_m,
            )
            np.testing.assert_array_equal(out.maps.obstacles.data, obstacles.data)
            np.testing.assert_array_equal(out.maps.visibility.data, visibility.data)


# --------------------------------------------------------------------------
# Pipeline on the from-scratch SfM oracle, on real photos
# --------------------------------------------------------------------------


class TestPipelineOracle:
    def test_scratch_sfm_pipeline_maps_match(self, bench, monkeypatch):
        """Two pipelines on identical RNG streams — one on the columnar SfM
        engine, one on the from-scratch oracle — must emit identical maps
        batch for batch, and each batch's maps must equal those a fresh
        map engine builds from that batch's model alone."""
        photos = _deterministic_photos(bench)
        outcomes = {}
        for label, engine_cls in (("inc", IncrementalSfm), ("scratch", ScratchSfm)):
            monkeypatch.setattr(pipeline_module, "IncrementalSfm", engine_cls)
            pipeline = SnapTaskPipeline(
                bench.world,
                bench.config,
                bench.spec,
                bench.venue.entrance,
                RngStream(777, "escape-hatch"),
                site_mask=bench.ground_truth.region_mask,
            )
            assert type(pipeline.sfm) is engine_cls
            chunk = 20
            outcomes[label] = [
                pipeline.process_batch(photos[i : i + chunk])
                for i in range(0, len(photos), chunk)
            ]
        for a, b in zip(outcomes["inc"], outcomes["scratch"]):
            np.testing.assert_array_equal(
                a.maps.obstacles.data, b.maps.obstacles.data
            )
            np.testing.assert_array_equal(
                a.maps.visibility.data, b.maps.visibility.data
            )
            assert a.coverage_cells == b.coverage_cells
            fresh = IncrementalMapEngine(
                bench.spec,
                obstacle_threshold=bench.config.tasks.obstacle_threshold,
                max_range_m=bench.config.sfm.visibility_range_m,
                site_mask=bench.ground_truth.region_mask,
            ).update(a.model)
            np.testing.assert_array_equal(
                a.maps.obstacles.data, fresh.maps.obstacles.data
            )
            np.testing.assert_array_equal(
                a.maps.visibility.data, fresh.maps.visibility.data
            )
            assert a.coverage_cells == fresh.covered_cells


def _deterministic_photos(bench):
    """A fixed photo batch shared by both pipelines."""
    pipeline = SnapTaskPipeline(
        bench.world,
        bench.config,
        bench.spec,
        bench.venue.entrance,
        RngStream(778, "photo-gen"),
        site_mask=bench.ground_truth.region_mask,
    )
    campaign = bench.make_guided_campaign(pipeline, 2)
    return campaign.bootstrap_photos()
