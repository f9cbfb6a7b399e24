"""Differential oracle: the columnar SfM wavefront vs the from-scratch engine.

The columnar engine (dense feature interning, registration wavefront,
dirty-feature triangulation, O(delta) snapshots) and the incremental SOR
filter replace per-batch O(model) scans in the pipeline. Their correctness
contract is *bit-exactness* against the preserved from-scratch
implementations — the :class:`~repro.sfm.scratch.ScratchSfm` oracle and
``sor_filter`` — not "close enough". This suite enforces it:

* hypothesis drives random batch partitions of a real photo pool through
  both engines and pins registration order, reports and cloud arrays
  identical;
* a targeted scenario pins the rig-registration count on both engines
  (`newly_registered` used to report at most 1 when `_register_rigs`
  registered several);
* the vectorized view-compat bucket computation is pinned against the
  original scalar formula;
* `IncrementalSorFilter` masks are pinned bit-identical to `sor_mask` on
  grown clouds *and* on contract-violating inputs (moved/removed points);
* vectorized `PointCloud.subset` / `merged_with` are pinned against a
  per-point reference implementation;
* two full pipelines (on the columnar engine and on the oracle) must
  emit byte-identical filtered clouds, reports and coverage, batch for
  batch, and every batch's filtered cloud and maps must equal
  ``sor_filter`` of the raw model and the Algorithm 2+3 rebuilds.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.annotation.textures import FEATURES_PER_TEXTURE
from repro.camera import GALAXY_S7
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import SnapTaskPipeline
from repro.geometry import Vec2, Vec3
from repro.mapping import calculate_obstacles_map, calculate_visibility_map
from repro.obs import Telemetry
from repro.sfm import IncrementalSfm, IncrementalSorFilter, PointCloud, sor_filter, sor_mask
from repro.sfm.pointcloud import CloudPoint
from repro.sfm.scratch import ScratchSfm
from repro.simkit import RngStream
from repro.venue.features import ARTIFICIAL_FEATURE_BASE


def sweep(bench, x, y, step=8.0):
    return list(bench.capture.sweep(Vec2(x, y), GALAXY_S7, step, blur=0.0))


@pytest.fixture(scope="module")
def photo_pool(bench):
    """A fixed, registration-rich photo pool spanning several rooms."""
    photos = []
    for x, y in [(3, 3), (5, 5), (8, 3.7), (10.5, 6.4), (6.0, 4.5), (12.0, 5.0)]:
        photos.extend(sweep(bench, x, y))
    return photos


def run_engine(bench, batches, engine_cls):
    engine = engine_cls(bench.world, bench.config.sfm, RngStream(4242, "sfm-equiv"))
    reports = [engine.add_photos(batch) for batch in batches]
    return engine, reports


def assert_engines_identical(bench, batches):
    inc, inc_reports = run_engine(bench, batches, IncrementalSfm)
    scr, scr_reports = run_engine(bench, batches, ScratchSfm)
    assert not isinstance(inc, ScratchSfm) and isinstance(scr, ScratchSfm)
    # Same photos registered, in the same order.
    assert inc.registration_log() == scr.registration_log()
    assert inc.registered_ids() == scr.registered_ids()
    assert inc.pending_ids() == scr.pending_ids()
    # Per-batch reports (deltas included) identical.
    for a, b in zip(inc_reports, scr_reports):
        assert a == b
    # Clouds bit-identical: ids, positions, view counts, camera poses.
    m_inc, m_scr = inc.model(), scr.model()
    np.testing.assert_array_equal(m_inc.cloud.feature_ids, m_scr.cloud.feature_ids)
    np.testing.assert_array_equal(m_inc.cloud.xyz, m_scr.cloud.xyz)
    np.testing.assert_array_equal(m_inc.cloud.view_counts, m_scr.cloud.view_counts)
    assert [c.photo_id for c in m_inc.cameras] == [c.photo_id for c in m_scr.cameras]
    for ca, cb in zip(m_inc.cameras, m_scr.cameras):
        assert ca.pose == cb.pose
        assert ca.n_inliers == cb.n_inliers
        np.testing.assert_array_equal(ca.observed_feature_ids, cb.observed_feature_ids)
    return inc, scr


class TestWavefrontEquivalence:
    """Wavefront vs full-rescan fixpoint on real photos."""

    def test_single_batch(self, bench, photo_pool):
        assert_engines_identical(bench, [photo_pool])

    def test_photo_at_a_time(self, bench, photo_pool):
        # Worst case for the wavefront bookkeeping: 1-photo batches force
        # maximal pending-retry traffic.
        subset = photo_pool[:40]
        assert_engines_identical(bench, [[p] for p in subset])

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_batch_partitions(self, bench, photo_pool, data):
        """Any partition of the pool registers the same photos in the same
        order as the from-scratch fixpoint — the wavefront invariant."""
        photos = list(photo_pool)
        batches = []
        i = 0
        while i < len(photos):
            n = data.draw(st.integers(1, 25), label="batch-size")
            batches.append(photos[i : i + n])
            i += n
        inc, _scr = assert_engines_identical(bench, batches)
        assert inc.n_registered > 20, "vacuous: pool failed to register"

    def test_artificial_features_requeue_triangulation(self, bench, photo_pool):
        """Oracle positions arriving *after* the observers registered must
        re-trigger triangulation identically on both engines."""
        fid = ARTIFICIAL_FEATURE_BASE + 3
        base = sweep(bench, 3, 3)
        imprinted = [
            p.with_extra_observations(np.array([fid]), np.array([[50.0, 50.0]]), "t")
            for p in sweep(bench, 3.2, 3.2)
        ]
        followup = sweep(bench, 3.4, 3.4)

        def run(engine_cls):
            engine = engine_cls(bench.world, bench.config.sfm, RngStream(77, "late-oracle"))
            engine.add_photos(base)
            engine.add_photos(imprinted)  # observers register, no position yet
            engine.register_artificial_features([fid], [Vec3(3.4, 3.3, 1.1)])
            report = engine.add_photos(followup)
            return engine, report

        inc, r_inc = run(IncrementalSfm)
        scr, r_scr = run(ScratchSfm)
        assert r_inc == r_scr
        assert fid in set(int(f) for f in inc.model().cloud.feature_ids)
        np.testing.assert_array_equal(
            inc.model().cloud.xyz, scr.model().cloud.xyz
        )


class TestRigRegistrationCount:
    """Pin the rig-undercount fix: `newly_registered` counts every photo
    `_register_rigs` registered, not just one."""

    def _rig_batch(self, bench, engine, base):
        """Two pending photos registrable only jointly, as a texture rig."""
        cfg = bench.config.sfm
        model_photo = next(p for p in base if engine.is_registered(p.photo_id))
        anchors = [int(f) for f in model_photo.feature_ids]
        n_each = cfg.min_rig_anchor_matches // 2 + 1
        assert len(anchors) >= 2 * n_each
        block0 = ARTIFICIAL_FEATURE_BASE  # texture block 0
        texture_ids = np.arange(block0, block0 + cfg.rig_texture_matches)
        # The annex room is visually isolated — neither photo overlaps the
        # model on its own detections.
        isolated = sweep(bench, 19.2, 15.4)[:2]
        rig = []
        for i, photo in enumerate(isolated):
            extra = np.concatenate(
                [texture_ids, np.asarray(anchors[i * n_each : (i + 1) * n_each])]
            )
            uv = np.tile([60.0, 60.0], (extra.shape[0], 1))
            rig.append(photo.with_extra_observations(extra, uv, "rig"))
        return rig

    @pytest.mark.parametrize("scratch", [False, True])
    def test_rig_registrations_all_counted(self, bench, scratch):
        engine_cls = ScratchSfm if scratch else IncrementalSfm
        engine = engine_cls(bench.world, bench.config.sfm, RngStream(11, "rig-count"))
        base = sweep(bench, 3, 3)
        engine.add_photos(base)
        rig = self._rig_batch(bench, engine, base)
        before = engine.n_registered
        report = engine.add_photos(rig)
        for photo in rig:
            assert engine.is_registered(photo.photo_id), "rig did not register"
        assert engine.n_registered == before + len(rig)
        # The pinned bug: this used to report fewer than len(rig).
        assert report.newly_registered == len(rig)
        assert tuple(sorted(report.new_camera_ids)) == tuple(
            sorted(p.photo_id for p in rig)
        )


class TestTextureBlockCache:
    """The rig fallback reads each pending photo's texture block from a
    cache that holds until the photo registers."""

    def test_each_pending_photo_is_blocked_once(self, bench, photo_pool, monkeypatch):
        calls = {}
        passes = []
        real_block = IncrementalSfm._texture_block
        real_rigs = IncrementalSfm._register_rigs

        def counting(self, photo):
            calls[photo.photo_id] = calls.get(photo.photo_id, 0) + 1
            return real_block(self, photo)

        def rig_pass(self):
            passes.append(len(self._pending))
            return real_rigs(self)

        # The rig is built against a throwaway engine's model.
        helper = IncrementalSfm(bench.world, bench.config.sfm, RngStream(11, "rig-count"))
        base = sweep(bench, 3, 3)
        helper.add_photos(base)
        rig = TestRigRegistrationCount()._rig_batch(bench, helper, base)
        # Isolated annex photos stay pending through many rig passes.
        annex = sweep(bench, 19.2, 15.4)[2:8]
        batches = [base] + [[p] for p in annex] + [[rig[0]], photo_pool[:12], [rig[1]]]
        monkeypatch.setattr(IncrementalSfm, "_texture_block", counting)
        monkeypatch.setattr(IncrementalSfm, "_register_rigs", rig_pass)
        inc, _scr = assert_engines_identical(bench, batches)
        assert all(inc.is_registered(p.photo_id) for p in rig)
        # Photos stayed pending through many rig passes (the scratch
        # engine's passes are counted too), each blocked once.
        assert sum(passes) > 2 * len(calls)
        assert {p.photo_id for p in rig + annex} <= set(calls)
        assert max(calls.values()) == 1


class TestBucketVectorization:
    """The vectorized arctan2/truncation bucket formula must reproduce the
    original scalar loop bit-for-bit on real photos."""

    def test_buckets_match_scalar_reference(self, bench, photo_pool):
        engine = IncrementalSfm(
            bench.world, bench.config.sfm, RngStream(5, "buckets")
        )
        n = bench.config.sfm.view_compat_buckets
        for photo in photo_pool[:25]:
            _wild, vec = engine._view_buckets(photo, engine._photo_columns(photo)[0])
            cx = photo.true_pose.position.x
            cy = photo.true_pose.position.y
            for j, fid in enumerate(photo.feature_ids):
                fid = int(fid)
                if ARTIFICIAL_FEATURE_BASE <= fid:
                    continue  # pool photos carry no artificial features
                feature = bench.world.feature(fid)
                angle = math.atan2(
                    cy - feature.position.y, cx - feature.position.x
                )
                expected = int((angle + math.pi) / (2.0 * math.pi) * n) % n
                assert int(vec[j]) == expected


# ---------------------------------------------------------------------------
# Incremental SOR vs the from-scratch oracle
# ---------------------------------------------------------------------------


def _cloud_from_xyz(ids, xyz):
    return PointCloud.from_columns(
        np.asarray(ids, dtype=int),
        np.asarray(xyz, dtype=float),
        np.full(len(ids), 3, dtype=int),
    )


def reference_sor_counters(clouds, k):
    """(points_requeried, points_reused, full_recomputes) of an incremental
    SOR filter fed ``clouds`` (id-sorted, each a position-stable superset
    of the last), from brute-force distances: the first cloud over k
    points is computed in full, and each later one re-queries its new
    points and every old point with a new point within its previous k-th
    neighbour distance."""
    requeried = reused = full = 0
    previous = None
    for ids, xyz in clouds:
        n = ids.shape[0]
        if n <= k:
            previous = None
            continue
        d = xyz[None, :, :] - xyz[:, None, :]
        dist = np.sqrt((d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2])
        kth = np.sort(dist, axis=1)[:, k]
        if previous is None:
            full += 1
            requeried += n
        else:
            old_ids, old_kth = previous
            old = np.isin(ids, old_ids)
            old_rows, new_rows = np.flatnonzero(old), np.flatnonzero(~old)
            radius = old_kth[np.searchsorted(old_ids, ids[old_rows])]
            hit = (dist[np.ix_(old_rows, new_rows)] <= radius[:, None]).any(axis=1)
            count = new_rows.shape[0] + int(hit.sum())
            requeried += count
            reused += n - count
        previous = (ids, kth)
    return requeried, reused, full


class TestIncrementalSorEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_base=st.integers(0, 120),
        growth=st.lists(st.integers(0, 60), min_size=1, max_size=6),
        k=st.integers(2, 10),
    )
    def test_grown_clouds_bit_identical(self, seed, n_base, growth, k):
        """Masks match `sor_mask` exactly on every step of a growing,
        id-sorted cloud — the zero-staleness bound."""
        rng = np.random.default_rng(seed)
        state = IncrementalSorFilter(n_neighbors=k, std_ratio=2.0)
        total = n_base + sum(growth)
        # Pre-draw ids/positions, then reveal prefixes (id-sorted growth).
        all_ids = np.sort(
            rng.choice(10 * max(1, total), size=max(1, total), replace=False)
        )
        all_xyz = np.where(
            rng.random((max(1, total), 3)) < 0.15,
            rng.normal(0.0, 40.0, (max(1, total), 3)),  # sprinkle outliers
            rng.normal(0.0, 1.0, (max(1, total), 3)),
        )
        sizes = np.cumsum([n_base] + growth)
        for size in sizes:
            size = int(size)
            cloud = _cloud_from_xyz(all_ids[:size], all_xyz[:size])
            expected = (
                sor_mask(cloud.xyz, k, 2.0)
                if size
                else np.ones(0, dtype=bool)
            )
            np.testing.assert_array_equal(state.mask(cloud), expected)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_contract_violations_fall_back_exactly(self, seed):
        """Moved, removed and reordered points are served by a transparent
        full recompute — still bit-identical to the oracle."""
        rng = np.random.default_rng(seed)
        state = IncrementalSorFilter(n_neighbors=4)
        ids = np.arange(0, 160, 2)
        xyz = rng.normal(0.0, 1.0, (80, 3))
        first = _cloud_from_xyz(ids, xyz)
        np.testing.assert_array_equal(state.mask(first), sor_mask(xyz, 4, 2.0))
        # Move one point.
        moved = xyz.copy()
        moved[rng.integers(0, 80)] += 5.0
        cloud = _cloud_from_xyz(ids, moved)
        np.testing.assert_array_equal(state.mask(cloud), sor_mask(moved, 4, 2.0))
        # Remove a third of the points.
        keep = rng.random(80) > 0.33
        cloud = _cloud_from_xyz(ids[keep], moved[keep])
        np.testing.assert_array_equal(
            state.mask(cloud), sor_mask(moved[keep], 4, 2.0)
        )
        # Shrink below k: all-inlier short-circuit.
        tiny = _cloud_from_xyz(ids[:3], moved[:3])
        assert state.mask(tiny).all()

    def test_amortized_rebuild_still_exact(self):
        """A long growth walk (18 steps to 900 points), each served by
        the delta path on a freshly built grid; every mask stays exact."""
        rng = np.random.default_rng(3)
        telemetry = Telemetry()
        state = IncrementalSorFilter(n_neighbors=6, telemetry=telemetry)
        n_total = 900
        ids = np.arange(n_total)
        xyz = rng.normal(0.0, 2.0, (n_total, 3))
        for size in range(50, n_total + 1, 50):
            cloud = _cloud_from_xyz(ids[:size], xyz[:size])
            np.testing.assert_array_equal(
                state.mask(cloud), sor_mask(xyz[:size], 6, 2.0)
            )
        assert telemetry.metrics.counter("repro.sfm.sor.full_recomputes").value == 1

    @staticmethod
    def _grow(state, telemetry, ids, xyz, sizes, k):
        """Reveal the first ``sizes[i]`` points (each cloud id-sorted, so
        new points land between old ones); every mask must equal
        ``sor_mask`` and the counters the brute-force reference. Returns
        the grid's build size after each step."""
        built = []
        clouds = []
        for size in sizes:
            order = np.argsort(ids[:size], kind="stable")
            cloud = _cloud_from_xyz(ids[:size][order], xyz[:size][order])
            clouds.append((cloud.feature_ids, cloud.xyz))
            np.testing.assert_array_equal(
                state.mask(cloud), sor_mask(cloud.xyz, k, 2.0), err_msg=f"size {size}"
            )
            built.append(state._built_n)  # noqa: SLF001
        metrics = telemetry.metrics
        got = tuple(
            metrics.counter(f"repro.sfm.sor.{name}").value
            for name in ("points_requeried", "points_reused", "full_recomputes")
        )
        assert got == reference_sor_counters(clouds, k)
        return built

    def test_growth_leaving_the_grid_box_rebuilds_exactly(self):
        rng = np.random.default_rng(21)
        inside = rng.uniform(0.0, 1.0, (260, 3))
        outside = rng.uniform(0.0, 1.0, (40, 3)) + [1.6, 0.0, 0.0]
        xyz = np.vstack([inside[:200], inside[200:230], outside, inside[230:]])
        xyz[rng.random(xyz.shape[0]) < 0.05] *= 6.0  # a few outliers
        ids = rng.permutation(10 * xyz.shape[0])[: xyz.shape[0]]
        telemetry = Telemetry()
        state = IncrementalSorFilter(n_neighbors=6, telemetry=telemetry)
        built = self._grow(state, telemetry, ids, xyz, [200, 230, 270, 300], k=6)
        # Kept inside the box, rebuilt when the points left it, kept again.
        assert built == [200, 200, 270, 270]

    def test_growth_past_doubling_rebuilds_exactly(self):
        rng = np.random.default_rng(22)
        xyz = rng.normal(0.0, 1.0, (480, 3))
        # Every later point inside the first cloud's box.
        lo, hi = xyz[:100].min(axis=0), xyz[:100].max(axis=0)
        xyz[100:] = lo + (hi - lo) * rng.uniform(0.05, 0.95, (380, 3))
        ids = rng.permutation(5000)[:480]
        telemetry = Telemetry()
        state = IncrementalSorFilter(n_neighbors=5, telemetry=telemetry)
        built = self._grow(state, telemetry, ids, xyz, [100, 160, 199, 200, 330, 399, 400, 480], k=5)
        assert built == [100, 100, 100, 200, 200, 200, 400, 400]

    def test_a_copied_filter_rebuilds_its_grid_exactly(self):
        """Checkpoints leave the grid out; the copy builds a new one on its
        next call and then answers, and counts, as the original does."""
        rng = np.random.default_rng(23)
        xyz = rng.normal(0.0, 1.0, (400, 3))
        ids = rng.permutation(4000)[:400]
        clouds = []
        for size in (150, 190, 230, 260, 330, 400):
            order = np.argsort(ids[:size], kind="stable")
            clouds.append(_cloud_from_xyz(ids[:size][order], xyz[:size][order]))
        telemetry = Telemetry()
        state = IncrementalSorFilter(n_neighbors=6, telemetry=telemetry)
        for cloud in clouds[:3]:
            state.mask(cloud)
        twin = copy.deepcopy(state)
        assert state._grid is not None and twin._grid is None  # noqa: SLF001
        names = ("points_requeried", "points_reused", "full_recomputes")
        counters = [telemetry.metrics.counter(f"repro.sfm.sor.{n}") for n in names]
        deltas = []
        masks = []
        for filt in (twin, state):
            before = [c.value for c in counters]
            masks.append([filt.mask(cloud) for cloud in clouds[3:]])
            deltas.append([c.value - b for c, b in zip(counters, before)])
        for got, want, cloud in zip(masks[0], masks[1], clouds[3:]):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, sor_mask(cloud.xyz, 6, 2.0))
        assert deltas[0] == deltas[1] and deltas[0][2] == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 9))
    def test_counters_match_the_reference(self, seed, k):
        """Random growth, outward and inward, with ids landing between old
        ones: masks exact and every counter the parent's rule gives."""
        rng = np.random.default_rng(seed)
        n = 320
        xyz = rng.normal(0.0, 1.0, (n, 3)) * np.linspace(0.5, 3.0, n)[:, None]
        ids = rng.permutation(8 * n)[:n]
        sizes = np.cumsum(rng.integers(5, 60, 12))
        sizes = [int(x) for x in sizes[sizes <= n]] + [n]
        telemetry = Telemetry()
        state = IncrementalSorFilter(n_neighbors=k, telemetry=telemetry)
        self._grow(state, telemetry, ids, xyz, sizes, k)

    def test_filter_function_matches_sor_filter(self):
        rng = np.random.default_rng(9)
        xyz = rng.normal(0.0, 1.0, (120, 3))
        cloud = _cloud_from_xyz(np.arange(120), xyz)
        state = IncrementalSorFilter()
        got = state.filter(cloud)
        want = sor_filter(cloud)
        np.testing.assert_array_equal(got.feature_ids, want.feature_ids)
        np.testing.assert_array_equal(got.xyz, want.xyz)
        # Second call reuses the cache but must stay identical.
        again = state.filter(cloud)
        np.testing.assert_array_equal(again.feature_ids, want.feature_ids)


# ---------------------------------------------------------------------------
# Vectorized PointCloud ops vs per-point reference semantics
# ---------------------------------------------------------------------------


def reference_merge(a: PointCloud, b: PointCloud) -> list:
    """The original per-point dict merge: b wins on id collision, result
    sorted by feature id."""
    by_id = {p.feature_id: p for p in a.points}
    by_id.update({p.feature_id: p for p in b.points})
    return [by_id[k] for k in sorted(by_id)]


cloud_strategy = st.lists(
    st.tuples(
        st.integers(0, 50),
        st.floats(-100, 100, allow_nan=False),
        st.floats(-100, 100, allow_nan=False),
        st.floats(-100, 100, allow_nan=False),
        st.integers(3, 9),
    ),
    max_size=40,
).map(
    lambda rows: PointCloud(
        [
            CloudPoint(fid, x, y, z, v)
            for fid, (_, x, y, z, v) in (
                # unique, sorted ids as the engine guarantees
                (lambda d: sorted(d.items()))(
                    {r[0]: r for r in rows}
                )
            )
        ]
    )
)


class TestPointCloudVectorized:
    @settings(max_examples=60, deadline=None)
    @given(cloud=cloud_strategy, seed=st.integers(0, 1000))
    def test_subset_matches_reference(self, cloud, seed):
        mask = np.random.default_rng(seed).random(len(cloud)) < 0.5
        got = cloud.subset(mask)
        want = [p for p, m in zip(cloud.points, mask) if m]
        assert list(got.points) == want
        np.testing.assert_array_equal(got.xyz, cloud.xyz[mask])

    @settings(max_examples=60, deadline=None)
    @given(a=cloud_strategy, b=cloud_strategy)
    def test_merged_with_matches_reference(self, a, b):
        got = a.merged_with(b)
        want = reference_merge(a, b)
        assert list(got.points) == want

    def test_merge_empty_cases(self):
        a = PointCloud([CloudPoint(1, 0.0, 0.0, 0.0, 3)])
        e = PointCloud.empty()
        assert list(e.merged_with(e).points) == []
        assert list(a.merged_with(e).points) == list(a.points)
        assert list(e.merged_with(a).points) == list(a.points)

    def test_other_wins_on_collision(self):
        a = PointCloud([CloudPoint(7, 0.0, 0.0, 0.0, 3)])
        b = PointCloud([CloudPoint(7, 9.0, 9.0, 9.0, 5)])
        merged = a.merged_with(b)
        assert merged.points[0] == CloudPoint(7, 9.0, 9.0, 9.0, 5)


# ---------------------------------------------------------------------------
# Full pipeline: columnar engine vs the oracle, byte for byte
# ---------------------------------------------------------------------------


def assert_batch_matches_references(bench, pipeline, outcome):
    """The batch's filtered cloud is ``sor_filter`` of the raw model, and
    its maps are the Algorithm 2+3 rebuilds from that filtered cloud."""
    config = bench.config
    want = sor_filter(
        pipeline.model().cloud, config.sfm.sor_neighbors, config.sfm.sor_std_ratio
    )
    got = outcome.model.cloud
    np.testing.assert_array_equal(got.feature_ids, want.feature_ids)
    np.testing.assert_array_equal(got.xyz, want.xyz)
    np.testing.assert_array_equal(got.view_counts, want.view_counts)
    obstacles = calculate_obstacles_map(got, bench.spec, config.tasks.obstacle_threshold)
    visibility = calculate_visibility_map(
        outcome.model, obstacles, config.sfm.visibility_range_m
    )
    np.testing.assert_array_equal(outcome.maps.obstacles.data, obstacles.data)
    np.testing.assert_array_equal(outcome.maps.visibility.data, visibility.data)


class TestPipelineDifferential:
    def test_pipelines_bit_identical(self, bench, monkeypatch):
        """Algorithm 1 end-to-end: the columnar engine + incremental SOR
        must leave no trace — clouds, reports, tasks and coverage match the
        pipeline on the from-scratch engine on every batch, and each
        batch matches the from-scratch SOR and map references."""
        photos = self._photos(bench)
        outcomes = {}
        for label, engine_cls in (("inc", IncrementalSfm), ("scratch", ScratchSfm)):
            monkeypatch.setattr(pipeline_module, "IncrementalSfm", engine_cls)
            pipeline = SnapTaskPipeline(
                bench.world,
                bench.config,
                bench.spec,
                bench.venue.entrance,
                RngStream(1234, "sfm-pipe-equiv"),
                site_mask=bench.ground_truth.region_mask,
            )
            assert type(pipeline.sfm) is engine_cls
            chunk = 25
            outcomes[label] = []
            for i in range(0, len(photos), chunk):
                outcome = pipeline.process_batch(photos[i : i + chunk])
                assert_batch_matches_references(bench, pipeline, outcome)
                outcomes[label].append(outcome)
        assert len(outcomes["inc"]) > 2
        for a, b in zip(outcomes["inc"], outcomes["scratch"]):
            assert a.report == b.report
            # The *filtered* cloud: pins IncrementalSorFilter == sor_filter
            # on the live reconstruction, and the O(delta) snapshots.
            np.testing.assert_array_equal(
                a.model.cloud.feature_ids, b.model.cloud.feature_ids
            )
            np.testing.assert_array_equal(a.model.cloud.xyz, b.model.cloud.xyz)
            np.testing.assert_array_equal(
                a.model.cloud.view_counts, b.model.cloud.view_counts
            )
            assert [c.photo_id for c in a.model.cameras] == [
                c.photo_id for c in b.model.cameras
            ]
            assert a.coverage_cells == b.coverage_cells
            assert len(a.new_tasks) == len(b.new_tasks)

    @staticmethod
    def _photos(bench):
        pipeline = SnapTaskPipeline(
            bench.world,
            bench.config,
            bench.spec,
            bench.venue.entrance,
            RngStream(1235, "sfm-pipe-photos"),
            site_mask=bench.ground_truth.region_mask,
        )
        campaign = bench.make_guided_campaign(pipeline, 2)
        return campaign.bootstrap_photos()
