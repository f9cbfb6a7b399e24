"""Live invariant registry: checks that run *during* the simulation.

The registry attaches to a deployment's :class:`Simulator` as a
post-dispatch probe (``Simulator.add_probe``). Between any two events
every subsystem is quiescent, so the probe sees exactly the states a
real distributed system would expose between message deliveries —
without races and without perturbing the run (probes schedule nothing
and draw no RNG).

Two cadences:

* **per-event invariants** (cheap ledger/lease/coverage consistency)
  run after every dispatched event;
* **checkpoint invariants** (incremental-vs-oracle exactness: the map
  stack against Algorithm 2+3 rebuilt from scratch, the SOR-filtered
  cloud against the batch ``sor_filter`` oracle) run every
  ``checkpoint_every``-th processed photo batch.

A violation is recorded and raised as :class:`InvariantViolationError`
at the exact event that broke the invariant — the simulated time and
event label land in the violation record, which is what makes shrunk
failing-seed artifacts actionable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List

import numpy as np

from ..core.tasks import TaskStatus
from ..mapping import calculate_obstacles_map, calculate_visibility_map
from ..server.backend import LEDGER_RETENTION_S
from ..sfm.filters import sor_filter


class InvariantViolationError(AssertionError):
    """Raised from the probe at the first event that breaks an invariant."""

    def __init__(self, violation: "Violation"):
        super().__init__(str(violation))
        self.violation = violation


@dataclass(frozen=True)
class Violation:
    """One invariant failure, pinned to the event that exposed it."""

    invariant: str
    sim_time_s: float
    event_label: str
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.invariant}] at t={self.sim_time_s:.3f}s "
            f"(event {self.event_label!r}): {self.detail}"
        )

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict) -> "Violation":
        return cls(
            invariant=str(doc["invariant"]),
            sim_time_s=float(doc["sim_time_s"]),
            event_label=str(doc["event_label"]),
            detail=str(doc["detail"]),
        )


class InvariantRegistry:
    """All live invariants for one deployment run.

    Usage::

        registry = InvariantRegistry(checkpoint_every=4)
        registry.attach(deployment)
        deployment.run(...)        # raises InvariantViolationError on breakage
        registry.detach()
    """

    #: Names of the per-event invariants this registry enforces.
    LIVE_INVARIANTS = (
        "lease-exclusivity",
        "ledger-idempotency",
        "coverage-monotonicity",
        "admission-bound",
        "recovery-idempotency",
        "recovery-integrity",
    )
    #: Names of the checkpointed incremental-vs-oracle invariants.
    CHECKPOINT_INVARIANTS = (
        "map-oracle-exactness",
        "sor-oracle-exactness",
    )

    def __init__(self, checkpoint_every: int = 4, oracle_checks: bool = True):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every
        self.oracle_checks = oracle_checks
        self.violations: List[Violation] = []
        self.checks_run = 0
        self.checkpoints_run = 0
        self._deployment = None
        self._server = None
        self._sim = None
        # incremental cursors
        self._seen_results = 0
        #: batch_id -> (result index, sim time first observed committed).
        self._seen_batch_ids: Dict[str, "tuple[int, float]"] = {}
        self._audits_seen = 0  # consumed prefix of host.recovery_audits
        self._fault_reports_seen = 0  # consumed prefix of storage_fault_reports
        #: Snapshot generations the injector damaged and recovery has not
        #: yet quarantined (recovery-integrity bookkeeping).
        self._damaged_seqs: set = set()
        #: ACKed WAL records were destroyed since the last recovery; the
        #: next recovery legitimately rolls observable state back.
        self._wal_loss_pending = False
        self._service_cursor = 0  # consumed prefix of the FIFO audit log
        self._last_service_seq = 0
        self._last_raw_points = 0
        self._last_iteration = 0
        self._grid_cells = 0
        self._covered_latched = False
        self._batches_since_checkpoint = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self, deployment) -> "InvariantRegistry":
        if self._deployment is not None:
            raise RuntimeError("registry already attached")
        self._deployment = deployment
        self._server = deployment.server
        self._sim = deployment.simulator
        self._grid_cells = int(np.prod(self._pipeline.spec.shape))
        self._sim.add_probe(self._on_event)
        return self

    def detach(self) -> None:
        if self._sim is not None:
            self._sim.remove_probe(self._on_event)
        self._deployment = self._server = self._sim = None

    @property
    def _pipeline(self):
        """The *current* pipeline — crash recovery replaces the instance."""
        return self._server.pipeline if self._server is not None else None

    # ------------------------------------------------------------------
    # probe
    # ------------------------------------------------------------------

    def _on_event(self, token) -> None:
        self.checks_run += 1
        # Recovery bookkeeping first: it audits fresh recoveries
        # (idempotency + ladder integrity) and — after a legitimate
        # WAL-data-loss rollback — rebases the incremental cursors the
        # later checks compare against.
        self._note_recoveries(token)
        self._check_lease_exclusivity(token)
        new_batches = self._check_ledger_idempotency(token)
        self._check_coverage_monotonicity(token)
        self._check_admission_bound(token)
        if new_batches and self.oracle_checks:
            self._batches_since_checkpoint += new_batches
            if self._batches_since_checkpoint >= self.checkpoint_every:
                self._batches_since_checkpoint = 0
                self.checkpoints_run += 1
                self._check_map_oracle(token)
                self._check_sor_oracle(token)

    def _fail(self, token, invariant: str, detail: str) -> None:
        violation = Violation(
            invariant=invariant,
            sim_time_s=self._sim.now,
            event_label=token.label,
            detail=detail,
        )
        self.violations.append(violation)
        raise InvariantViolationError(violation)

    # ------------------------------------------------------------------
    # per-event invariants
    # ------------------------------------------------------------------

    def _check_lease_exclusivity(self, token) -> None:
        """No lease without exactly one live ASSIGNED holder.

        The store keys leases by task id, so *two leases on one task*
        is structurally impossible — what can break is the lease/status
        ledger agreement: a lease on a task that is no longer ASSIGNED
        (two effective holders once the task is reissued), a lease whose
        client is not the recorded assignee, or an ASSIGNED task with no
        lease backing it (an assignment the reaper can never recover).
        """
        store = self._server.store
        leased = set()
        for lease in store.active_leases():
            leased.add(lease.task_id)
            task = store.maybe_task(lease.task_id)
            if task is None:
                self._fail(
                    token,
                    "lease-exclusivity",
                    f"live lease for unknown task {lease.task_id}",
                )
            if task.status != TaskStatus.ASSIGNED:
                self._fail(
                    token,
                    "lease-exclusivity",
                    f"task {lease.task_id} holds a live lease (client "
                    f"{lease.client_id!r}) but is {task.status.value}, not assigned",
                )
            assignee = store.assignee_of(lease.task_id)
            if assignee != lease.client_id:
                self._fail(
                    token,
                    "lease-exclusivity",
                    f"task {lease.task_id} leased to {lease.client_id!r} but "
                    f"assigned to {assignee!r}",
                )
        for task in store.tasks_with_status(TaskStatus.ASSIGNED):
            if task.task_id not in leased:
                self._fail(
                    token,
                    "lease-exclusivity",
                    f"task {task.task_id} is assigned with no live lease",
                )

    def _check_ledger_idempotency(self, token) -> int:
        """Replayed batch ids must never double-apply.

        Each distinct ``batch_id`` may produce at most one
        :class:`ProcessingResult`, and once a result exists the dedup
        ledger must keep answering with it for ``LEDGER_RETENTION_S`` —
        a ledger entry that *reopens* (goes back to in-flight after
        completing) or vanishes inside that window is the precursor of a
        double-apply and is flagged at the event where it happens, before
        the second application can corrupt the model.

        Returns the number of newly processed (non-deduped) batches, so
        the registry can pace its oracle checkpoints.
        """
        results = self._server.results
        fresh = results[self._seen_results:]
        for offset, result in enumerate(fresh):
            index = self._seen_results + offset
            bid = result.batch_id
            if bid in self._seen_batch_ids:
                self._fail(
                    token,
                    "ledger-idempotency",
                    f"batch {bid!r} applied twice (results "
                    f"#{self._seen_batch_ids[bid][0]} and #{index})",
                )
            self._seen_batch_ids[bid] = (index, self._sim.now)
        self._seen_results = len(results)
        for bid, (_index, seen_t) in self._seen_batch_ids.items():
            if self._server.ledger_contains(bid):
                if self._server.ledger_entry(bid) is None:
                    self._fail(
                        token,
                        "ledger-idempotency",
                        f"ledger entry for completed batch {bid!r} reopened "
                        f"(dedup bypassed; replay would double-apply)",
                    )
            elif self._sim.now < seen_t + LEDGER_RETENTION_S:
                # The GC evicts an entry ``LEDGER_RETENTION_S`` after its
                # task turns terminal, which is never before the result
                # was first seen; inside that window a vanished entry
                # means dedup protection is simply gone.
                self._fail(
                    token,
                    "ledger-idempotency",
                    f"ledger entry for completed batch {bid!r} vanished "
                    f"inside the retention window (replay would "
                    f"double-apply)",
                )
        return len(fresh)

    def _check_admission_bound(self, token) -> None:
        """The SfM lane respects its declared bounds and serves FIFO.

        With a bounded pool configured: never more busy workers than the
        pool size, never a deeper admission queue than the bound (excess
        must be shed, not queued), no idle worker while batches wait
        (work conservation), and service starts in admission order.
        """
        server = self._server
        limit = server.sfm_worker_limit
        if limit is None:
            return
        busy = server.sfm_busy_workers
        if busy > limit:
            self._fail(
                token,
                "admission-bound",
                f"{busy} busy SfM workers exceed the pool bound {limit}",
            )
        depth = server.sfm_queue_depth
        queue_limit = server.sfm_queue_limit
        if queue_limit is not None and depth > queue_limit:
            self._fail(
                token,
                "admission-bound",
                f"admission queue depth {depth} exceeds bound {queue_limit} "
                f"(overflow must be shed, not queued)",
            )
        if depth > 0 and busy < limit:
            self._fail(
                token,
                "admission-bound",
                f"{depth} batches queued while only {busy}/{limit} workers busy "
                f"(lane is not work-conserving)",
            )
        order = server.sfm_service_order()
        if self._service_cursor > len(order):
            # A crash dropped in-flight (uncommitted) service entries; the
            # recovered audit log is a checked prefix of what we saw live.
            self._service_cursor = len(order)
        for seq in order[self._service_cursor:]:
            if seq <= self._last_service_seq:
                self._fail(
                    token,
                    "admission-bound",
                    f"service started for admission #{seq} after #"
                    f"{self._last_service_seq} (FIFO order violated)",
                )
            self._last_service_seq = seq
        self._service_cursor = len(order)

    def _check_coverage_monotonicity(self, token) -> None:
        """Mapping knowledge only grows; the covered verdict latches.

        Instantaneous *covered-cell counts* are deliberately not required
        to be monotone: the fuzzer falsified that assumption (seed
        1529914845, shrunk to one lossless client) — adding points shifts
        SOR's global neighbour statistics, which can retract previously
        kept inliers and with them a few map cells. What the stack does
        guarantee, and what this invariant pins:

        * the raw registered cloud never loses points (SfM only adds);
        * the Algorithm 1 iteration counter never runs backwards;
        * the coverage count stays within the venue grid;
        * ``venue_covered``, once declared, stays declared (the campaign
          stop condition must not flap).
        """
        pipeline = self._pipeline
        raw_points = len(pipeline.model().cloud)
        if raw_points < self._last_raw_points:
            self._fail(
                token,
                "coverage-monotonicity",
                f"registered cloud shrank {self._last_raw_points} -> "
                f"{raw_points} points",
            )
        self._last_raw_points = raw_points
        iteration = pipeline.iteration
        if iteration < self._last_iteration:
            self._fail(
                token,
                "coverage-monotonicity",
                f"iteration ran backwards {self._last_iteration} -> {iteration}",
            )
        self._last_iteration = iteration
        coverage = pipeline.coverage_cells
        if coverage < 0 or coverage > self._grid_cells:
            self._fail(
                token,
                "coverage-monotonicity",
                f"coverage {coverage} outside venue grid [0, {self._grid_cells}]",
            )
        covered = pipeline.venue_covered
        if self._covered_latched and not covered:
            self._fail(
                token,
                "coverage-monotonicity",
                "venue_covered unlatched (True -> False)",
            )
        self._covered_latched = covered

    def _note_recoveries(self, token) -> None:
        """Audit fresh crashes and recoveries (two invariants + rebasing).

        **recovery-idempotency** — the durable host audits every
        restart: it restores the state twice from the same snapshot +
        WAL suffix and digests both. A digest mismatch means
        recovery is not a pure function of the durable media — replaying
        it again (or on another host) would yield a different backend.

        **recovery-integrity** — the verify-then-fallback ladder must
        make exactly the right quarantine calls against the injector's
        ground truth (``host.storage_fault_reports``): every generation
        it restored from must be undamaged, every generation it
        quarantined must actually have been damaged, and no damaged
        generation newer than the chosen one may survive unquarantined.
        This is the check that catches a recovery that skips (or fakes)
        digest verification.

        After a recovery that follows genuine WAL data loss (torn tail /
        dropped flushes destroyed acknowledged records), the observable
        state legitimately rolls back: completed ledger entries vanish,
        the registered cloud shrinks, admission seqs are reissued. The
        incremental cursors are rebased onto the recovered state so the
        rolled-back timeline is checked on its own terms; the system
        must still self-heal from it without violating any invariant.
        """
        host = getattr(self._deployment, "host", None)
        if host is None:
            return
        reports = host.storage_fault_reports
        wal_loss = False
        for report in reports[self._fault_reports_seen:]:
            self._damaged_seqs.update(report.damaged_snapshot_seqs)
            if report.wal_dropped_records > 0:
                wal_loss = True
        self._fault_reports_seen = len(reports)
        if wal_loss:
            self._wal_loss_pending = True
        audits = host.recovery_audits
        for result in audits[self._audits_seen:]:
            if not result.audit_ok:
                self._fail(
                    token,
                    "recovery-idempotency",
                    f"recovery digest mismatch after restart (snapshot "
                    f"#{result.snapshot_seq}, {result.replayed_records} "
                    f"records replayed): {result.digest[:12]} != "
                    f"{(result.audit_digest or '')[:12]}",
                )
            quarantined = set(result.quarantined_seqs)
            false_quarantine = quarantined - self._damaged_seqs
            if false_quarantine:
                self._fail(
                    token,
                    "recovery-integrity",
                    f"recovery quarantined undamaged snapshot generation(s) "
                    f"{sorted(false_quarantine)} (verification rejects clean "
                    f"media)",
                )
            if result.snapshot_seq in self._damaged_seqs:
                self._fail(
                    token,
                    "recovery-integrity",
                    f"recovery restored from damaged snapshot generation "
                    f"#{result.snapshot_seq} (digest verification bypassed "
                    f"or broken)",
                )
            self._damaged_seqs -= quarantined
            # Generations pruned by retention can never be restored
            # from; stop tracking their damage.
            retained = {s.seq for s in host.snapshotter.generations()}
            self._damaged_seqs &= retained
            missed = {s for s in self._damaged_seqs if s > result.snapshot_seq}
            if missed:
                self._fail(
                    token,
                    "recovery-integrity",
                    f"recovery restored from generation #{result.snapshot_seq} "
                    f"but left newer damaged generation(s) {sorted(missed)} "
                    f"unquarantined",
                )
            if self._wal_loss_pending:
                self._rebase_cursors()
                self._wal_loss_pending = False
        self._audits_seen = len(audits)

    def _rebase_cursors(self) -> None:
        """Re-anchor incremental cursors after a data-loss rollback."""
        server = self._server
        pipeline = self._pipeline
        results = server.results
        self._seen_results = len(results)
        # Keep tracking only batches whose dedup protection still exists;
        # entries destroyed with the lost WAL suffix were never recovered,
        # so their vanishing is the rollback itself, not a GC bug.
        self._seen_batch_ids = {
            bid: seen
            for bid, seen in self._seen_batch_ids.items()
            if server.ledger_contains(bid)
        }
        self._last_raw_points = len(pipeline.model().cloud)
        self._last_iteration = pipeline.iteration
        self._covered_latched = pipeline.venue_covered
        order = server.sfm_service_order()
        self._service_cursor = len(order)
        self._last_service_seq = order[-1] if order else 0

    # ------------------------------------------------------------------
    # checkpoint invariants (incremental vs from-scratch oracles)
    # ------------------------------------------------------------------

    def _check_map_oracle(self, token) -> None:
        """Incremental maps must be cell-exact vs Algorithm 2+3 rebuilds."""
        pipeline = self._pipeline
        outcome = pipeline.last_outcome
        if outcome is None:
            return
        model = outcome.model  # carries the SOR-filtered cloud
        config = pipeline.config
        obstacles = calculate_obstacles_map(
            model.cloud, pipeline.spec, config.tasks.obstacle_threshold
        )
        visibility = calculate_visibility_map(
            model, obstacles, config.sfm.visibility_range_m
        )
        if not np.array_equal(outcome.maps.obstacles.data, obstacles.data):
            bad = int(np.sum(outcome.maps.obstacles.data != obstacles.data))
            self._fail(
                token,
                "map-oracle-exactness",
                f"obstacles map diverged from from-scratch rebuild in {bad} "
                f"cells at iteration {outcome.iteration}",
            )
        if not np.array_equal(outcome.maps.visibility.data, visibility.data):
            bad = int(np.sum(outcome.maps.visibility.data != visibility.data))
            self._fail(
                token,
                "map-oracle-exactness",
                f"visibility map diverged from from-scratch rebuild in {bad} "
                f"cells at iteration {outcome.iteration}",
            )
        covered = obstacles.nonzero_mask() | visibility.nonzero_mask()
        if pipeline.site_mask is not None:
            covered = covered & pipeline.site_mask
        expected = int(covered.sum())
        if outcome.coverage_cells != expected:
            self._fail(
                token,
                "map-oracle-exactness",
                f"coverage count {outcome.coverage_cells} != oracle {expected} "
                f"at iteration {outcome.iteration}",
            )

    def _check_sor_oracle(self, token) -> None:
        """Incremental SOR must be bit-identical to the batch oracle."""
        pipeline = self._pipeline
        outcome = pipeline.last_outcome
        if outcome is None:
            return
        config = pipeline.config.sfm
        raw = pipeline.model().cloud  # the unfiltered incremental model
        oracle = sor_filter(raw, config.sor_neighbors, config.sor_std_ratio)
        got = outcome.model.cloud
        if len(got) != len(oracle) or not (
            np.array_equal(got.feature_ids, oracle.feature_ids)
            and np.array_equal(got.xyz, oracle.xyz)
            and np.array_equal(got.view_counts, oracle.view_counts)
        ):
            self._fail(
                token,
                "sor-oracle-exactness",
                f"SOR-filtered cloud diverged from sor_filter oracle at "
                f"iteration {outcome.iteration} "
                f"({len(got)} vs {len(oracle)} points)",
            )

    # ------------------------------------------------------------------

    def summary(self) -> Dict:
        return {
            "checks_run": self.checks_run,
            "checkpoints_run": self.checkpoints_run,
            "violations": [v.to_dict() for v in self.violations],
        }
