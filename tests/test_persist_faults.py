"""Storage fault injection + the recovery ladder (DESIGN §10).

The tentpole robustness contract, pinned at every layer:

* :class:`StorageFaultConfig` validation and the injector's
  determinism / no-draws-when-disabled guarantees;
* WAL damage: torn tails leave a decodable clean prefix (exact drop
  count, ``repro.persist.wal.torn_records`` counted), dropped flushes
  cut at a clean boundary (the journal looks pristine);
* snapshot damage: the cascade walks newest-first, every mode is
  caught by seal verification, the depth cap bounds it;
* the recovery ladder: a damaged newest generation is quarantined and
  recovery falls back to an older verified generation **with an
  identical recovered state digest** (the WAL has everything); all
  generations damaged fails closed with a structured quarantine report;
* hypothesis: corrupting the seal at *any* byte offset (flip or
  truncation) yields quarantine-or-clean-restore — never a divergent
  restored state (derandomized, like the codec properties);
* DST integration: the crafted storage probe fails closed as an ``ok``
  outcome, the ``skip-digest-verify`` mutation is caught by the
  recovery-integrity invariant, and a sampled snapshot-corruption
  campaign recovers through the fallback and still converges exactly
  like its crash-free twin.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, SimulationError, UnrecoverableStateError
from repro.obs.metrics import MetricsRegistry
from repro.persist import (
    SNAPSHOT_DAMAGE_MODES,
    GrantRecord,
    LocateRecord,
    RecoveryManager,
    Snapshotter,
    StorageFaultConfig,
    StorageFaultInjector,
    WriteAheadLog,
    verify_snapshot,
)
from repro.simkit.rng import RngStream
from repro.testkit import Scenario, run_scenario
from repro.testkit.mutations import storage_probe

BASE = Scenario(seed=11, n_clients=1)

#: A seed whose storage draws at the 900 s crash damage exactly the
#: newest retained generation (seq 1) and leave genesis clean — found
#: by scanning seeds: recovery must fall back one generation and still
#: converge like the crash-free twin.
FALLBACK_SEED = 13
FALLBACK_CORRUPTION = 0.5


@pytest.fixture(scope="module")
def media():
    """One persisted deployment whose (WAL, snapshots) every test forks."""
    scenario = replace(BASE, persist=True, snapshot_every=1, snapshot_retain=2)
    deployment = scenario.make_deployment()
    report = deployment.run(
        until_s=scenario.until_s, max_events=scenario.max_events
    )
    assert report.venue_covered
    assert deployment.host.snapshotter.count >= 3  # a real ladder to walk
    return deployment


def _fork_store(host) -> Snapshotter:
    """An isolated copy of the snapshot store (damage stays local)."""
    source = host.snapshotter
    store = Snapshotter(
        host.wal, every_batches=source.every_batches, retain=source.retain
    )
    store._snapshots = [
        replace(snap, state=copy.deepcopy(snap.state))
        for snap in reversed(source.generations())
    ]
    store._next_seq = source.taken
    return store


def _journal() -> WriteAheadLog:
    wal = WriteAheadLog()
    for i in range(6):
        wal.append(GrantRecord(t=float(i), client_id=f"c-{i}", request_id=f"c-{i}:r1",
                               position_x=None, position_y=None))
    wal.append(LocateRecord(t=9.0, query_count=4))
    return wal


class TestConfig:
    def test_probabilities_validated(self):
        for name in ("wal_torn_tail", "wal_dropped_flush", "snapshot_corruption"):
            with pytest.raises(ConfigError):
                StorageFaultConfig(**{name: 1.5}).validate()
            with pytest.raises(ConfigError):
                StorageFaultConfig(**{name: -0.1}).validate()
        StorageFaultConfig(snapshot_corruption=1.0).validate()

    def test_count_fields_validated(self):
        with pytest.raises(ConfigError):
            StorageFaultConfig(max_dropped_flushes=0).validate()
        with pytest.raises(ConfigError):
            StorageFaultConfig(max_damaged_generations=0).validate()
        StorageFaultConfig(max_damaged_generations=1).validate()

    def test_enabled_and_wal_loss_flags(self):
        assert not StorageFaultConfig().enabled
        assert StorageFaultConfig(snapshot_corruption=0.2).enabled
        assert not StorageFaultConfig(snapshot_corruption=0.2).loses_wal_data
        assert StorageFaultConfig(wal_torn_tail=0.1).loses_wal_data
        assert StorageFaultConfig(wal_dropped_flush=0.1).loses_wal_data


class TestInjector:
    def test_enabled_requires_rng(self):
        with pytest.raises(SimulationError):
            StorageFaultInjector(StorageFaultConfig(wal_torn_tail=0.5))
        StorageFaultInjector(StorageFaultConfig())  # disabled: rng optional

    def test_disabled_config_does_no_damage(self):
        wal = _journal()
        before = wal.to_bytes()
        injector = StorageFaultInjector(StorageFaultConfig())
        report = injector.inject(wal, Snapshotter(wal), crash_t=5.0)
        assert not report.any_damage
        assert report.wal_records_before == 7
        assert wal.to_bytes() == before

    def test_injection_is_seed_deterministic(self):
        def run():
            wal = _journal()
            injector = StorageFaultInjector(
                StorageFaultConfig(wal_torn_tail=0.6, wal_dropped_flush=0.6),
                rng=RngStream(7, "test/storage"),
            )
            return injector.inject(wal, Snapshotter(wal), crash_t=5.0), wal.to_bytes()

        (report_a, bytes_a), (report_b, bytes_b) = run(), run()
        assert report_a == report_b
        assert bytes_a == bytes_b

    def test_torn_tail_leaves_a_decodable_prefix(self):
        registry = MetricsRegistry()
        wal = WriteAheadLog(metrics=registry)
        for record in _journal().records():
            wal.append(record)
        injector = StorageFaultInjector(
            StorageFaultConfig(wal_torn_tail=1.0),
            rng=RngStream(3, "test/storage"),
            metrics=registry,
        )
        report = injector.inject(wal, Snapshotter(wal), crash_t=5.0)
        assert report.wal_torn
        assert report.wal_dropped_records >= 1
        assert report.loses_wal_data
        assert wal.position == 7 - report.wal_dropped_records
        # The surviving journal is a clean prefix: reloadable, untorn.
        _, load = WriteAheadLog.from_bytes(wal.to_bytes())
        assert not load.torn
        assert load.records == wal.position
        torn = registry.counter("repro.persist.wal.torn_records").value
        assert torn == report.wal_dropped_records
        assert registry.counter("repro.persist.faults.wal_torn").value == 1

    def test_dropped_flush_cuts_at_a_clean_boundary(self):
        wal = _journal()
        injector = StorageFaultInjector(
            StorageFaultConfig(wal_dropped_flush=1.0, max_dropped_flushes=3),
            rng=RngStream(5, "test/storage"),
        )
        original = wal.records()
        report = injector.inject(wal, Snapshotter(wal), crash_t=5.0)
        assert not report.wal_torn  # the lying-fsync mode: no visible tear
        assert 1 <= report.wal_dropped_records <= 3
        assert wal.records() == original[: 7 - report.wal_dropped_records]
        _, load = WriteAheadLog.from_bytes(wal.to_bytes())
        assert not load.torn  # nothing below the ledger layer can notice

    def test_cascade_damages_newest_first(self, media):
        store = _fork_store(media.host)
        injector = StorageFaultInjector(
            StorageFaultConfig(snapshot_corruption=1.0),
            rng=RngStream(9, "test/storage"),
        )
        generations = [snap.seq for snap in store.generations()]
        report = injector.inject(media.host.wal, store, crash_t=5.0)
        assert list(report.damaged_snapshot_seqs) == generations  # all, in order
        assert set(report.damage_modes) <= set(SNAPSHOT_DAMAGE_MODES)
        for snap in store.generations():
            assert verify_snapshot(snap) is not None, snap.seq

    def test_cascade_depth_cap(self, media):
        store = _fork_store(media.host)
        newest = store.generations()[0].seq
        injector = StorageFaultInjector(
            StorageFaultConfig(snapshot_corruption=1.0, max_damaged_generations=1),
            rng=RngStream(9, "test/storage"),
        )
        report = injector.inject(media.host.wal, store, crash_t=5.0)
        assert report.damaged_snapshot_seqs == (newest,)
        assert verify_snapshot(store.generations()[0]) is not None
        for snap in store.generations()[1:]:
            assert verify_snapshot(snap) is None, snap.seq


class TestRecoveryLadder:
    def _recover(self, media, store):
        result = RecoveryManager(media.host.wal, store).recover(media.simulator)
        result.server.fence()  # probe servers must never act
        return result

    def test_clean_store_restores_from_the_newest_generation(self, media):
        store = _fork_store(media.host)
        newest = store.generations()[0].seq
        result = self._recover(media, store)
        assert result.snapshot_seq == newest
        assert result.generations_tried == 1
        assert not result.fallback
        assert result.quarantined_seqs == ()

    def test_damaged_newest_falls_back_with_an_identical_digest(self, media):
        baseline = self._recover(media, _fork_store(media.host))
        store = _fork_store(media.host)
        newest, older = (snap.seq for snap in store.generations()[:2])
        store.damage_seal(newest, b"not a seal")
        result = self._recover(media, store)
        assert result.fallback
        assert result.snapshot_seq == older
        assert result.quarantined_seqs == (newest,)
        assert result.quarantined_bytes == len(b"not a seal")
        assert result.replayed_records > baseline.replayed_records
        # The headline equivalence: the longer WAL replay from the older
        # generation reconstructs byte-for-byte the same logical state.
        assert result.digest == baseline.digest
        # The damaged generation is gone from the store: the next
        # crash's ladder never re-examines known-bad media.
        assert store.get(newest) is None

    def test_state_tamper_is_caught_semantically(self, media):
        baseline = self._recover(media, _fork_store(media.host))
        store = _fork_store(media.host)
        newest = store.generations()[0]
        newest.state["_admit_watermark"] = newest.state["_admit_watermark"] + 1
        assert verify_snapshot(newest) == "state/seal digest mismatch"
        result = self._recover(media, store)
        assert result.fallback
        assert result.quarantine_reasons == ("state/seal digest mismatch",)
        assert result.digest == baseline.digest

    def test_all_generations_damaged_fails_closed(self, media):
        store = _fork_store(media.host)
        seqs = [snap.seq for snap in store.generations()]
        for seq in seqs:
            store.damage_seal(seq, b"")
        with pytest.raises(UnrecoverableStateError) as excinfo:
            RecoveryManager(media.host.wal, store).recover(media.simulator)
        report = excinfo.value.report
        assert [q["seq"] for q in report["quarantined"]] == seqs
        assert report["generations"] == len(seqs)
        assert report["wal_records"] == media.host.wal.position
        assert all(q["reason"] for q in report["quarantined"])

    def test_retention_keeps_genesis(self, media):
        """Pruning keeps the newest ``retain`` plus generation 0 — the
        ladder's deepest rung (full WAL-only replay) always exists."""
        snapshotter = media.host.snapshotter
        assert snapshotter.taken > snapshotter.retain  # pruning happened
        seqs = [snap.seq for snap in snapshotter.generations()]
        assert 0 in seqs
        assert len(seqs) <= snapshotter.retain + 1
        newest = seqs[: snapshotter.retain]
        assert newest == sorted(newest, reverse=True)
        # Genesis-only recovery (every newer rung quarantined) works.
        store = _fork_store(media.host)
        for seq in seqs:
            if seq != 0:
                store.damage_seal(seq, b"")
        baseline = RecoveryManager(media.host.wal, _fork_store(media.host)).recover(
            media.simulator
        )
        baseline.server.fence()
        result = RecoveryManager(media.host.wal, store).recover(media.simulator)
        result.server.fence()
        assert result.snapshot_seq == 0
        assert result.replayed_records == media.host.wal.position
        assert result.digest == baseline.digest


class TestEveryByteSealCorruption:
    """ISSUE satellite: any single-point seal corruption is quarantine-
    or-clean-restore — the recovered state never silently diverges.

    Derandomized like the codec properties: DST treats the suite as a
    pure function of the tree.
    """

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(offset=st.floats(0.0, 1.0), flip=st.integers(1, 255))
    def test_flip_any_byte(self, media, offset, flip):
        baseline = RecoveryManager(media.host.wal, _fork_store(media.host)).recover(
            media.simulator
        )
        baseline.server.fence()
        store = _fork_store(media.host)
        newest = store.generations()[0]
        seal = bytearray(newest.seal)
        pos = min(int(offset * len(seal)), len(seal) - 1)
        seal[pos] ^= flip
        store.damage_seal(newest.seq, bytes(seal))
        result = RecoveryManager(media.host.wal, store).recover(media.simulator)
        result.server.fence()
        assert result.quarantined_seqs == (newest.seq,)
        assert result.digest == baseline.digest

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(offset=st.floats(0.0, 1.0))
    def test_truncate_at_any_byte(self, media, offset):
        baseline = RecoveryManager(media.host.wal, _fork_store(media.host)).recover(
            media.simulator
        )
        baseline.server.fence()
        store = _fork_store(media.host)
        newest = store.generations()[0]
        cut = min(int(offset * (len(newest.seal) + 1)), len(newest.seal))
        store.damage_seal(newest.seq, newest.seal[:cut])
        result = RecoveryManager(media.host.wal, store).recover(media.simulator)
        result.server.fence()
        if cut == len(newest.seal):  # the identity cut: clean restore
            assert result.quarantined_seqs == ()
        else:
            assert result.quarantined_seqs == (newest.seq,)
        assert result.digest == baseline.digest


class TestStorageFaultCampaigns:
    def test_fail_closed_probe_is_an_ok_outcome(self):
        """All generations damaged -> refusal is correct behaviour."""
        result = run_scenario(storage_probe(), check_determinism=False)
        assert result.ok
        assert result.fail_closed
        assert result.label == "fail-closed"
        assert "UnrecoverableStateError" in result.crash

    def test_skip_digest_verify_mutation_is_caught(self):
        """The ladder without verification restores damaged media — the
        recovery-integrity invariant must fail the run on ground truth."""
        result = run_scenario(
            storage_probe(), mutation="skip-digest-verify", check_determinism=False
        )
        assert not result.ok
        assert result.failure_kind == "invariant"
        assert result.violation.invariant == "recovery-integrity"

    def test_fallback_campaign_converges_like_the_crash_free_twin(self):
        """A sampled-style corruption campaign whose newest generation is
        damaged at the crash: recovery falls back a generation, the run
        stays invariant-clean, and the harness's crash-twin diff holds."""
        scenario = replace(
            BASE,
            seed=FALLBACK_SEED,
            persist=True,
            snapshot_every=2,
            backend_crashes=((900.0, 30.0),),
            snapshot_corruption=FALLBACK_CORRUPTION,
        )
        assert scenario.crash_twin_eligible  # corruption keeps eligibility
        deployment = scenario.make_deployment()
        report = deployment.run(
            until_s=scenario.until_s, max_events=scenario.max_events
        )
        assert report.venue_covered
        audits = deployment.host.recovery_audits
        assert any(a.fallback for a in audits), "no fallback exercised"
        assert all(a.audit_ok for a in audits)
        # The harness run: invariants + the crash-twin equivalence diff.
        result = run_scenario(scenario, check_determinism=False)
        assert result.ok, result.determinism_detail or result.label

    def test_wal_damage_forfeits_twin_eligibility(self):
        scenario = replace(
            BASE,
            persist=True,
            backend_crashes=((900.0, 30.0),),
            wal_torn_tail=0.5,
        )
        assert scenario.storage_faults_enabled
        assert scenario.loses_wal_data
        assert not scenario.crash_twin_eligible

    def test_with_storage_faults_arms_the_axes(self):
        forced = BASE.with_storage_faults()
        assert forced.backend_crashes  # chains with_crashes()
        assert forced.persist
        assert forced.storage_faults_enabled
        assert forced.snapshot_corruption > 0  # always armed
        assert forced.make_storage_faults() is not None
        assert forced.with_storage_faults() == forced  # idempotent
