"""Seeded random deployment scenarios for the DST campaign fuzzer.

A :class:`Scenario` is the complete, JSON-serialisable description of
one simulated deployment: venue geometry, crowd mix and dropout
hazards, the network fault schedule, protocol timeouts and batch sizes,
and the run/checkpoint bounds. ``Scenario.sample(seed)`` derives every
field from named :class:`~repro.simkit.rng.RngStream` draws, so the
scenario space is explored reproducibly and any point in it can be
reconstructed from its seed alone — which is what makes failing-seed
artifacts replayable and shrinkable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional, Tuple

from ..config import BackendConfig, FaultConfig, SnapTaskConfig, paper_config
from ..persist.faults import StorageFaultConfig
from ..simkit.rng import RngStream

#: Artifact schema version for serialised scenarios.
SCENARIO_SCHEMA = "repro.testkit.scenario/v1"


@dataclass(frozen=True)
class Scenario:
    """One fully specified fuzz deployment (see module docstring).

    Defaults describe the smallest quiet deployment; the sampler widens
    every axis. All fields are primitives/tuples so ``to_dict`` round-
    trips through JSON exactly.
    """

    seed: int = 0
    # -- venue geometry (parametric office replica) --
    venue_seed: int = 0
    venue_width_m: float = 9.0
    venue_depth_m: float = 7.5
    glass_walls: int = 0
    n_furniture: int = 2
    n_hotspots: int = 2
    # -- crowd mix --
    n_clients: int = 2
    dropout_hazard: float = 0.0
    #: Explicit mid-campaign abandonment: ((client_id, sim_time_s), ...).
    dropouts: Tuple[Tuple[str, float], ...] = ()
    # -- network fault schedule --
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    jitter_s: float = 0.0
    disconnect_windows: Tuple[Tuple[float, float], ...] = ()
    # -- backend durability / crash-restart schedule --
    #: Seeded backend crashes: ((at_s, downtime_s), ...). Requires persist.
    backend_crashes: Tuple[Tuple[float, float], ...] = ()
    #: WAL + snapshot persistence on (exercised with or without crashes).
    persist: bool = False
    #: Snapshot cadence in committed photo batches.
    snapshot_every: int = 8
    #: Checkpoint generations retained (newest N + genesis).
    snapshot_retain: int = 3
    # -- storage fault axes (per-crash damage probabilities; require
    #    backend_crashes, drawn from the independent "storage" child so
    #    existing seeds' scenarios are unperturbed) --
    wal_torn_tail: float = 0.0
    wal_dropped_flush: float = 0.0
    snapshot_corruption: float = 0.0
    # -- protocol / batch-size parameters --
    lease_duration_s: float = 600.0
    rto_initial_s: float = 4.0
    upload_subbatch: int = 45
    poll_jitter_s: float = 0.0
    # -- backend SfM lane (None/None = legacy infinite-server model) --
    sfm_workers: Optional[int] = None
    sfm_queue_limit: Optional[int] = None
    #: Parallel photo tasks the backend may issue per processed batch;
    #: >1 lets several clients upload concurrently (overload pressure).
    max_tasks: int = 1
    # -- run bounds + checking cadence --
    until_s: float = 12_000.0
    max_events: int = 40_000
    #: Oracle (map/SOR exactness) checks run every N processed batches.
    checkpoint_every: int = 4
    #: Also diff the whole run against its twin on the from-scratch SfM
    #: oracle (:class:`~repro.sfm.scratch.ScratchSfm`).
    scratch_twin: bool = False

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    @classmethod
    def sample(cls, seed: int) -> "Scenario":
        """Draw one scenario from the campaign distribution for ``seed``."""
        rng = RngStream(seed, "testkit/scenario")
        venue = rng.child("venue")
        crowd = rng.child("crowd")
        faults = rng.child("faults")
        proto = rng.child("protocol")
        # Independent child: adding the backend axes never perturbs the
        # draws (and thus the scenarios) of the streams above.
        backend = rng.child("backend")
        # Same trick again for the durability axes (PR-8).
        crashes = rng.child("crashes")
        # And once more for the storage fault axes: media damage draws
        # come from their own child, so arming them never perturbs the
        # crash schedules (or anything else) of existing seeds.
        storage = rng.child("storage")

        n_clients = crowd.integers(1, 5)
        dropouts: Tuple[Tuple[str, float], ...] = ()
        if crowd.chance(0.3) and n_clients > 1:
            victim = crowd.integers(0, n_clients)
            dropouts = ((f"client-{victim}", round(crowd.uniform(200.0, 3000.0), 3)),)

        windows: Tuple[Tuple[float, float], ...] = ()
        if faults.chance(0.3):
            n_windows = faults.integers(1, 3)
            cursor = faults.uniform(100.0, 1500.0)
            acc = []
            for _ in range(n_windows):
                length = faults.uniform(30.0, 300.0)
                acc.append((round(cursor, 3), round(cursor + length, 3)))
                cursor += length + faults.uniform(200.0, 2000.0)
            windows = tuple(acc)

        sfm_workers: Optional[int] = None
        sfm_queue_limit: Optional[int] = None
        if backend.chance(0.35):
            sfm_workers = int(backend.integers(1, 5))
            if backend.chance(0.5):
                sfm_queue_limit = int(backend.choice([0, 2, 8]))
        max_tasks = int(backend.choice([1, 1, 2, 3]))
        poll_jitter_s = (
            round(backend.uniform(0.5, 4.0), 3) if backend.chance(0.3) else 0.0
        )

        backend_crashes: Tuple[Tuple[float, float], ...] = ()
        persist = False
        snapshot_every = 8
        if crashes.chance(0.25):
            # Crash-restart campaign: persistence on, 1-2 seeded crashes.
            persist = True
            snapshot_every = int(crashes.choice([1, 2, 4, 8]))
            n_crashes = crashes.integers(1, 3)
            cursor = crashes.uniform(150.0, 1500.0)
            acc = []
            for _ in range(n_crashes):
                downtime = round(crashes.uniform(10.0, 90.0), 3)
                acc.append((round(cursor, 3), downtime))
                cursor += downtime + crashes.uniform(500.0, 3000.0)
            backend_crashes = tuple(acc)
        elif crashes.chance(0.15):
            # Persistence-on, zero-crash: the WAL/snapshot machinery must
            # be behaviourally invisible (the differential pin, fuzzed).
            persist = True
            snapshot_every = int(crashes.choice([1, 2, 4, 8]))

        snapshot_retain = 3
        wal_torn_tail = 0.0
        wal_dropped_flush = 0.0
        snapshot_corruption = 0.0
        if backend_crashes and storage.chance(0.35):
            # Storage-fault campaign: the crash also damages the media.
            snapshot_retain = int(storage.choice([1, 2, 3, 4]))
            if storage.chance(0.6):
                snapshot_corruption = round(storage.uniform(0.2, 1.0), 4)
            if storage.chance(0.3):
                wal_torn_tail = round(storage.uniform(0.2, 1.0), 4)
            if storage.chance(0.3):
                wal_dropped_flush = round(storage.uniform(0.2, 1.0), 4)
            if not (snapshot_corruption or wal_torn_tail or wal_dropped_flush):
                # At least one mechanism must be armed for the campaign
                # to actually exercise the recovery ladder.
                snapshot_corruption = round(storage.uniform(0.2, 1.0), 4)

        return cls(
            seed=seed,
            venue_seed=venue.integers(0, 2**31),
            venue_width_m=round(venue.uniform(8.0, 12.0), 2),
            venue_depth_m=round(venue.uniform(7.0, 10.0), 2),
            glass_walls=venue.integers(0, 3),
            n_furniture=venue.integers(0, 5),
            n_hotspots=venue.integers(2, 5),
            n_clients=n_clients,
            dropout_hazard=(
                round(crowd.uniform(0.01, 0.08), 4) if crowd.chance(0.35) else 0.0
            ),
            dropouts=dropouts,
            drop_probability=(
                round(faults.uniform(0.02, 0.25), 4) if faults.chance(0.5) else 0.0
            ),
            duplicate_probability=(
                round(faults.uniform(0.02, 0.15), 4) if faults.chance(0.4) else 0.0
            ),
            jitter_s=round(faults.uniform(0.1, 2.0), 3) if faults.chance(0.4) else 0.0,
            disconnect_windows=windows,
            backend_crashes=backend_crashes,
            persist=persist,
            snapshot_every=snapshot_every,
            snapshot_retain=snapshot_retain,
            wal_torn_tail=wal_torn_tail,
            wal_dropped_flush=wal_dropped_flush,
            snapshot_corruption=snapshot_corruption,
            lease_duration_s=float(proto.choice([120.0, 300.0, 600.0])),
            rto_initial_s=float(proto.choice([2.0, 4.0])),
            upload_subbatch=int(proto.choice([15, 30, 45])),
            poll_jitter_s=poll_jitter_s,
            sfm_workers=sfm_workers,
            sfm_queue_limit=sfm_queue_limit,
            max_tasks=max_tasks,
            until_s=float(proto.choice([6_000.0, 10_000.0, 16_000.0])),
            max_events=40_000,
            checkpoint_every=int(proto.choice([2, 4])),
        )

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------

    def make_config(self) -> SnapTaskConfig:
        """The :class:`SnapTaskConfig` this scenario deploys under."""
        config = paper_config(seed=self.seed)
        config = replace(
            config,
            protocol=replace(
                config.protocol,
                lease_duration_s=self.lease_duration_s,
                rto_initial_s=self.rto_initial_s,
                poll_jitter_s=self.poll_jitter_s,
            ),
            tasks=replace(
                config.tasks,
                upload_subbatch=self.upload_subbatch,
                max_tasks=self.max_tasks,
            ),
            backend=BackendConfig(
                sfm_workers=self.sfm_workers,
                queue_limit=self.sfm_queue_limit,
            ),
        )
        if self.persist or self.backend_crashes:
            config = config.with_persistence(
                snapshot_every_batches=self.snapshot_every,
                snapshot_retain=self.snapshot_retain,
                storage_faults=self.make_storage_faults(),
            )
        return config.validate()

    def make_storage_faults(self) -> Optional[StorageFaultConfig]:
        """The storage damage config, or None with all axes at zero."""
        faults = StorageFaultConfig(
            wal_torn_tail=self.wal_torn_tail,
            wal_dropped_flush=self.wal_dropped_flush,
            snapshot_corruption=self.snapshot_corruption,
        )
        return faults if faults.enabled else None

    def make_faults(self) -> Optional[FaultConfig]:
        faults = FaultConfig(
            drop_probability=self.drop_probability,
            duplicate_probability=self.duplicate_probability,
            jitter_s=self.jitter_s,
            disconnect_windows=tuple(tuple(w) for w in self.disconnect_windows),
            backend_crashes=tuple(tuple(c) for c in self.backend_crashes),
        )
        return faults if (faults.enabled or faults.backend_crashes) else None

    def make_bench(self):
        """A fresh workbench on this scenario's venue (never cached)."""
        from ..eval import Workbench
        from ..venue import OfficeSpec, generate_office

        spec = OfficeSpec(
            width_m=self.venue_width_m,
            depth_m=self.venue_depth_m,
            glass_walls=self.glass_walls,
            n_furniture=self.n_furniture,
            n_hotspots=self.n_hotspots,
        )
        venue = generate_office(spec, RngStream(self.venue_seed, "testkit/office"))
        return Workbench(venue, self.make_config())

    def make_deployment(self, telemetry=None):
        """Build the deployment (bench + clients + faults) for this scenario."""
        from ..server import Deployment

        return Deployment(
            self.make_bench(),
            n_clients=self.n_clients,
            faults=self.make_faults(),
            dropouts=dict(self.dropouts) or None,
            dropout_hazard=self.dropout_hazard,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    # durability helpers
    # ------------------------------------------------------------------

    def with_crashes(self) -> "Scenario":
        """Force a seeded crash schedule (``repro fuzz --crashes``).

        Scenarios that already crash are returned unchanged; everything
        else gets 1-2 crashes drawn from a dedicated stream of this
        scenario's seed, so the forced schedule is as reproducible as a
        sampled one.
        """
        if self.backend_crashes:
            return self
        rng = RngStream(self.seed, "testkit/forced-crashes")
        n_crashes = rng.integers(1, 3)
        cursor = rng.uniform(150.0, 1500.0)
        acc = []
        for _ in range(n_crashes):
            downtime = round(rng.uniform(10.0, 90.0), 3)
            acc.append((round(cursor, 3), downtime))
            cursor += downtime + rng.uniform(500.0, 3000.0)
        return replace(
            self,
            backend_crashes=tuple(acc),
            persist=True,
            snapshot_every=int(rng.choice([1, 2, 4, 8])),
        )

    def with_storage_faults(self) -> "Scenario":
        """Force storage damage at crashes (``repro fuzz --storage-faults``).

        Ensures a crash schedule exists (via :meth:`with_crashes`), then
        arms the media damage axes from a dedicated stream of this
        scenario's seed. Snapshot corruption is always armed (the
        recovery ladder's headline case); the WAL-loss axes join with
        moderate probability since they forfeit crash-twin eligibility.
        """
        base = self.with_crashes()
        if base.storage_faults_enabled:
            return base
        rng = RngStream(self.seed, "testkit/forced-storage")
        return replace(
            base,
            snapshot_retain=int(rng.choice([2, 3, 4])),
            # Moderate corruption keeps a healthy mix of outcomes: early
            # crashes retain few generations, so a high probability here
            # would fail-close most campaigns instead of exercising the
            # older-generation fallback + post-recovery behaviour.
            snapshot_corruption=round(rng.uniform(0.3, 0.8), 4),
            wal_torn_tail=(
                round(rng.uniform(0.2, 0.8), 4) if rng.chance(0.3) else 0.0
            ),
            wal_dropped_flush=(
                round(rng.uniform(0.2, 0.8), 4) if rng.chance(0.3) else 0.0
            ),
        )

    @property
    def storage_faults_enabled(self) -> bool:
        return bool(
            self.wal_torn_tail or self.wal_dropped_flush or self.snapshot_corruption
        )

    @property
    def loses_wal_data(self) -> bool:
        """Whether crashes can destroy acknowledged WAL records."""
        return bool(self.wal_torn_tail or self.wal_dropped_flush)

    @property
    def crash_twin_eligible(self) -> bool:
        """Whether the crash-free twin must converge identically.

        Crash-restart recovery is behaviourally exact only when no
        *other* nondeterministic timing interacts with the outage: a
        lost in-flight message is retransmitted on a timer, shifting
        every subsequent event. With a single client and no link faults
        the retry timeline is itself deterministic and the recovered
        campaign must reach the crash-free twin's converged state.

        Snapshot corruption keeps eligibility — the WAL holds everything
        from genesis, so the ladder's older-generation fallback must
        reach the *same* state with a longer replay. WAL damage does
        not: torn tails and dropped flushes destroy acknowledged records
        that clients will never retransmit, so state equivalence is
        impossible by construction (the system self-heals at the task
        level via lease expiry instead).
        """
        return bool(
            self.backend_crashes
            and self.n_clients == 1
            and not self.drop_probability
            and not self.duplicate_probability
            and not self.jitter_s
            and not self.disconnect_windows
            and not self.dropouts
            and not self.dropout_hazard
            and not self.loses_wal_data
        )

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        doc = asdict(self)
        doc["schema"] = SCENARIO_SCHEMA
        return doc

    @classmethod
    def from_dict(cls, doc: Dict) -> "Scenario":
        doc = dict(doc)
        schema = doc.pop("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ValueError(f"unsupported scenario schema {schema!r}")
        doc["dropouts"] = tuple((str(c), float(t)) for c, t in doc.get("dropouts", ()))
        doc["disconnect_windows"] = tuple(
            (float(a), float(b)) for a, b in doc.get("disconnect_windows", ())
        )
        doc["backend_crashes"] = tuple(
            (float(a), float(b)) for a, b in doc.get("backend_crashes", ())
        )
        return cls(**doc)

    def describe(self) -> str:
        """One-line scenario summary for fuzz progress output."""
        fault_bits = []
        if self.drop_probability:
            fault_bits.append(f"drop={self.drop_probability:.2f}")
        if self.duplicate_probability:
            fault_bits.append(f"dup={self.duplicate_probability:.2f}")
        if self.jitter_s:
            fault_bits.append(f"jit={self.jitter_s:.1f}s")
        if self.disconnect_windows:
            fault_bits.append(f"disc x{len(self.disconnect_windows)}")
        if self.dropout_hazard:
            fault_bits.append(f"hazard={self.dropout_hazard:.2f}")
        if self.dropouts:
            fault_bits.append(f"dropouts x{len(self.dropouts)}")
        if self.sfm_workers is not None:
            limit = "inf" if self.sfm_queue_limit is None else self.sfm_queue_limit
            fault_bits.append(f"workers={self.sfm_workers} q={limit}")
        if self.max_tasks != 1:
            fault_bits.append(f"max_tasks={self.max_tasks}")
        if self.poll_jitter_s:
            fault_bits.append(f"poll_jit={self.poll_jitter_s:.1f}s")
        if self.backend_crashes:
            fault_bits.append(
                f"crashes x{len(self.backend_crashes)} snap={self.snapshot_every}"
            )
        elif self.persist:
            fault_bits.append(f"persist snap={self.snapshot_every}")
        if self.storage_faults_enabled:
            storage_bits = [f"retain={self.snapshot_retain}"]
            if self.snapshot_corruption:
                storage_bits.append(f"corrupt={self.snapshot_corruption:.2f}")
            if self.wal_torn_tail:
                storage_bits.append(f"tear={self.wal_torn_tail:.2f}")
            if self.wal_dropped_flush:
                storage_bits.append(f"unflushed={self.wal_dropped_flush:.2f}")
            fault_bits.append(f"storage[{' '.join(storage_bits)}]")
        return (
            f"venue {self.venue_width_m:.0f}x{self.venue_depth_m:.0f}m "
            f"clients={self.n_clients} lease={self.lease_duration_s:.0f}s "
            f"batch={self.upload_subbatch} until={self.until_s:.0f}s "
            f"[{' '.join(fault_bits) or 'lossless'}]"
        )
