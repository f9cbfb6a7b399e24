"""Crash-restart recovery: behavioural equivalence end to end.

DESIGN.md §10's recovered-state contract, pinned at deployment scale:

* persistence on, zero crashes — the campaign is *identical* to the
  persistence-off baseline (the durable host must be a pure observer);
* a crashed-and-recovered campaign converges to exactly the final
  coverage / task outcomes of its crash-free same-seed twin;
* every recovery's double-restore digest audit matches;
* a crash landing exactly at a lease-expiry instant neither loses nor
  double-fires the reap (the simulator timer fencing satellite);
* an ``IncrementalMapEngine`` copied mid-replay by ``copy.deepcopy``
  stays cell-exact against the from-scratch oracle, independent of its
  original (the deepcopy regression that once silently corrupted
  coverage after every restore), and reuses the same cached wedges the
  original does (the cameras it keys them on copy as themselves).
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from repro.mapping import GridSpec, IncrementalMapEngine
from repro.persist import AdmitRecord, BatchRecord, ReapRecord, RecoveryManager
from repro.sfm import PointCloud, SfmModel
from repro.testkit import Scenario, run_scenario
from tests.test_incremental_equivalence import assert_cell_exact, make_camera

#: The quiet single-client deployment every test derives from.
BASE = Scenario(seed=11, n_clients=1)

CONVERGED_FIELDS = (
    "venue_covered",
    "coverage_cells",
    "tasks_completed",
    "tasks_failed",
    "photos_uploaded",
)


def _run(scenario):
    deployment = scenario.make_deployment()
    report = deployment.run(
        until_s=scenario.until_s, max_events=scenario.max_events
    )
    return deployment, report


class TestPersistenceIsAPureObserver:
    def test_zero_crash_run_equals_the_baseline(self):
        """WAL + snapshots on, no crash: nothing observable may change."""
        _, baseline = _run(BASE)
        _, persisted = _run(replace(BASE, persist=True, snapshot_every=2))
        assert baseline.venue_covered
        for name in CONVERGED_FIELDS + ("events_processed", "sim_time_s"):
            assert getattr(persisted, name) == getattr(baseline, name), name
        assert persisted.wal_records > 0
        assert persisted.snapshots_taken > 0
        assert baseline.wal_records == 0  # persistence-off graph untouched


class TestCrashRecovery:
    CRASHED = replace(
        BASE,
        persist=True,
        snapshot_every=2,
        backend_crashes=((900.0, 45.0), (2400.0, 70.0)),
    )

    def test_recovered_campaign_converges_like_the_twin(self):
        """The harness's crash-twin diff must hold for a real schedule."""
        assert self.CRASHED.crash_twin_eligible
        result = run_scenario(self.CRASHED, check_determinism=False)
        assert result.ok, result.determinism_detail or result.label
        report = result.report
        assert report.venue_covered
        assert report.backend_crashes == 2
        assert report.backend_recoveries == 2
        # The explicit diff the harness ran implicitly: field-for-field.
        _, twin = _run(replace(self.CRASHED, backend_crashes=(), persist=False))
        for name in CONVERGED_FIELDS:
            assert getattr(report, name) == getattr(twin, name), name

    def test_every_recovery_audit_matches(self):
        """The host audits every recovery (restores twice); digests agree."""
        deployment, report = _run(self.CRASHED)
        host = deployment.host
        assert len(host.recovery_audits) == report.backend_recoveries > 0
        for rec in host.recovery_audits:
            assert rec.audit_ok, (rec.digest, rec.audit_digest)
            assert rec.dropped_remnants == 0  # clean in-memory media

    def test_admit_seq_watermark_survives_recovery(self):
        """Bounded-lane admission seqs stay strictly increasing across a
        restart — the recovered watermark resumes above every seq issued."""
        scenario = replace(
            BASE,
            n_clients=2,
            persist=True,
            sfm_workers=1,
            backend_crashes=((900.0, 45.0),),
        )
        deployment, report = _run(scenario)
        assert report.backend_recoveries == 1
        seqs = [
            r.seq
            for r in deployment.host.wal.records()
            if isinstance(r, AdmitRecord) and r.seq is not None
        ]
        assert seqs, "bounded lane issued no admission seqs"
        assert seqs == sorted(set(seqs))


class TestReplayServiceAccounting:
    def test_replay_does_not_duplicate_service_accounting(self):
        """The seed-0/campaign-26 fuzz finding, pinned structurally.

        A bounded-lane batch can *start service* before a checkpoint and
        *commit* after it: the snapshot then already holds its seq in
        ``_service_order`` (plus its wait/service totals), while its
        BatchRecord sits in the replayed WAL suffix. Replay must detect
        that and not re-apply the service-start accounting — the
        original bug duplicated the seq and double-counted the totals,
        which the admission-bound invariant's FIFO audit caught.
        """
        # The de-faulted shape of the original finding (fuzz master seed
        # 0, campaign 26): a crowd on a two-worker zero-queue lane with
        # a parallel task stream keeps batches in service across other
        # batches' commits, so per-commit checkpoints straddle often.
        scenario = Scenario(
            seed=131778450,
            venue_seed=1065893155,
            venue_width_m=10.0,
            venue_depth_m=10.0,
            glass_walls=2,
            n_hotspots=3,
            n_furniture=0,
            n_clients=4,
            persist=True,
            snapshot_every=1,
            snapshot_retain=999,  # keep every generation for the scan
            rto_initial_s=2.0,
            upload_subbatch=30,
            sfm_workers=2,
            sfm_queue_limit=0,
            max_tasks=3,
            until_s=3_000.0,
        )
        deployment, report = _run(scenario)
        assert report.venue_covered
        host = deployment.host
        live_order = deployment.server.sfm_service_order()
        assert live_order == sorted(set(live_order))  # healthy baseline
        # Find every checkpoint that straddles an in-service batch: its
        # snapshot already contains the seq, and the commit's
        # BatchRecord is in the WAL suffix past the snapshot.
        straddling = []
        for snap in host.snapshotter.generations():
            captured = set(snap.state["_service_order"])
            suffix_seqs = {
                r.seq
                for r in host.wal.records(snap.wal_position)
                if isinstance(r, BatchRecord) and r.seq is not None
            }
            if captured & suffix_seqs:
                straddling.append(snap)
        assert straddling, (
            "scenario produced no checkpoint straddling an in-service "
            "batch — the regression's trigger condition never occurred"
        )
        # Recover from a spread of straddling generations (newest,
        # oldest, and two between — each full recovery replays a WAL
        # suffix, so recovering from all ~18 would dominate the suite):
        # the replayed suffix re-delivers the already-captured commit,
        # and the recovered service-start audit log must still be
        # exactly the live one.
        picked = {0, len(straddling) // 3, (2 * len(straddling)) // 3,
                  len(straddling) - 1}
        for snap in (straddling[i] for i in sorted(picked)):
            result = RecoveryManager(host.wal, snap).recover(deployment.simulator)
            recovered = result.server.sfm_service_order()
            assert recovered == live_order, snap.seq
            assert recovered == sorted(set(recovered)), snap.seq
            assert result.server.sfm_queue_wait_total_s == (
                deployment.server.sfm_queue_wait_total_s
            ), snap.seq
            assert result.server.sfm_service_time_total_s == (
                deployment.server.sfm_service_time_total_s
            ), snap.seq
            result.server.fence()  # never let the probe server act


class TestCrashAtLeaseExpiry:
    def test_crash_landing_on_the_reap_instant(self):
        """Kill the backend at the exact sim-time the lease reaper fires.

        The reaper timer dies with the fence; recovery re-arms the lease
        at ``max(expires_at, now)`` so the expiry still happens exactly
        once. The run must stay invariant-clean, deterministic, and
        complete the campaign.
        """
        # A client abandoning mid-task forces a real lease expiry; the
        # ReapRecord in the WAL gives us its exact instant.
        reaping = Scenario(
            seed=11,
            n_clients=2,
            persist=True,
            snapshot_every=2,
            dropouts=(("client-0", 5.0),),
            lease_duration_s=200.0,
        )
        deployment, report = _run(reaping)
        assert report.venue_covered
        reaps = [
            r for r in deployment.host.wal.records() if isinstance(r, ReapRecord)
        ]
        assert reaps, "dropout produced no lease expiry"
        pinned = replace(reaping, backend_crashes=((reaps[0].t, 30.0),))
        result = run_scenario(pinned, check_determinism=True)
        assert result.ok, result.determinism_detail or result.label
        assert result.report.venue_covered
        assert result.report.backend_recoveries == 1


def _replay_models():
    """Eight growing models: each adds a wall of points and a camera facing
    it, and drops or moves some earlier points (SOR-style churn)."""
    rng = np.random.default_rng(5)
    points = {}  # feature id -> (x, y, z)
    cameras = []
    models = []
    for step in range(8):
        x = 2.0 + 1.2 * step
        wall = []
        for y in np.arange(1.0, 8.0, 0.1):
            for k in range(5):
                fid = 10_000 * step + len(wall)
                points[fid] = (x, float(y), 0.4 + 0.4 * k)
                wall.append(fid)
        for fid in rng.choice(sorted(points), size=20, replace=False):
            if rng.random() < 0.5:
                del points[int(fid)]
            else:
                px, py, pz = points[int(fid)]
                points[int(fid)] = (px + 0.3, py, pz)
        cameras.append(make_camera(step, x - 1.5, 4.5, 0.0, wall))
        ids = np.array(sorted(points))
        xyz = np.array([points[fid] for fid in ids.tolist()])
        cloud = PointCloud.from_columns(ids, xyz, np.full(len(ids), 3))
        models.append(SfmModel(cloud, list(cameras)))
    return models


class TestSnapshotAliasing:
    def test_copies_replay_exactly_and_independently(self):
        """The snapshot regression, by behaviour: an engine copied
        mid-replay must keep matching the from-scratch oracle on the
        remaining batches, updating the copy must leave the original
        untouched, and the copy must reuse exactly the wedges the
        original reuses on the same models."""
        spec = GridSpec(0.0, 0.0, 0.25, 40, 56)
        site = np.ones(spec.shape, dtype=bool)
        site[:, :6] = False
        models = _replay_models()
        engine = IncrementalMapEngine(spec, site_mask=site)
        for model in models[:4]:
            engine.update(model)
        before = engine.maps()
        covered_before = engine.covered_cells

        clone = copy.deepcopy(engine)
        clone_counts = []
        for model in models[4:]:
            update = clone.update(model)
            assert_cell_exact(update, model, spec, site_mask=site)
            clone_counts.append(replace(update, maps=None))
        np.testing.assert_array_equal(
            engine.maps().obstacles.data, before.obstacles.data
        )
        np.testing.assert_array_equal(
            engine.maps().visibility.data, before.visibility.data
        )
        assert engine.covered_cells == covered_before

        counts = []
        for model in models[4:]:
            update = engine.update(model)
            assert_cell_exact(update, model, spec, site_mask=site)
            counts.append(replace(update, maps=None))
        assert clone_counts == counts
        assert counts[0].cameras_reused > 0
