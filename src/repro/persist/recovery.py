"""Recovery: verified snapshot + WAL replay -> a fresh, live backend.

Recovery is a **verify-then-fallback ladder** over the retained
snapshot generations (DESIGN §10), newest first:

1. Verify the generation's seal — structural (frame CRC/length) and
   semantic (recompute the canonical state projection, compare to the
   seal body byte-for-byte).
2. On damage: quarantine the generation (drop it from the store, count
   its bytes) and step down to the next older generation — which costs
   a longer WAL-suffix replay, nothing more.
3. The genesis image (generation 0, WAL position 0) is the deepest
   rung: recovering from it is a full WAL-only replay.
4. If *every* generation is damaged, recovery fails closed with a
   structured :class:`~repro.errors.UnrecoverableStateError` carrying
   the quarantine report — never a silently wrong state.

Restoring one generation (unchanged from the happy path):

1. Deep-copy the snapshot image with ``copy.deepcopy`` (the stored
   image stays pristine, which is what makes recovery re-runnable — and
   auditable). Photos and recovered cameras copy as themselves, exactly
   as they did into the checkpoint.
2. Construct a fresh :class:`BackendServer` on the live simulator and
   install the copied state graph.
3. Replay the WAL suffix past the snapshot's position through
   ``replay_record`` — the real handlers, replay clock pinned to each
   record's commit time, persistence detached (no re-logging).
4. Drop in-flight remnants (admitted-but-uncommitted batches died with
   the process; clients retransmit them).
5. Re-arm one lease-reap timer per surviving lease at
   ``max(expires_at, now)``.

The optional audit performs steps 1–4 a second time into a throwaway
server (never armed, never attached to the simulator's future) and
compares logical digests — the recovered-state *idempotency* half of
the equivalence invariant.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import PersistenceError, UnrecoverableStateError
from ..obs.metrics import MetricsRegistry
from ..obs.wallclock import wall_now_s
from .digest import state_digest
from .snapshot import Snapshot, Snapshotter, verify_snapshot

__all__ = ["RecoveryManager", "RecoveryResult"]


@dataclass(frozen=True)
class RecoveryResult:
    """What one recovery did, for reports and invariant checks."""

    server: object
    snapshot_seq: int
    replayed_records: int
    dropped_remnants: int
    armed_leases: int
    digest: str
    audit_digest: Optional[str] = None
    #: Ladder bookkeeping: generations examined (1 = newest was clean),
    #: the damaged generation seqs quarantined on the way down with the
    #: reasons verification gave, and their seal bytes quarantined.
    generations_tried: int = 1
    quarantined_seqs: Tuple[int, ...] = ()
    quarantine_reasons: Tuple[str, ...] = ()
    quarantined_bytes: int = 0

    @property
    def audit_ok(self) -> bool:
        """True when no audit ran or the audit digest matched."""
        return self.audit_digest is None or self.audit_digest == self.digest

    @property
    def fallback(self) -> bool:
        """True when the newest generation was rejected."""
        return self.generations_tried > 1


class RecoveryManager:
    """Restores a backend from a (snapshot store, WAL) media pair."""

    def __init__(self, wal, snapshots, metrics=None):
        if snapshots is None:
            raise PersistenceError("cannot recover without a snapshot (genesis missing)")
        if isinstance(snapshots, Snapshot):
            # Single-image convenience: wrap it as a one-rung ladder.
            self._generations: List[Snapshot] = [snapshots]
            self._store: Optional[Snapshotter] = None
        else:
            self._generations = snapshots.generations()
            self._store = snapshots
        if not self._generations:
            raise PersistenceError("cannot recover without a snapshot (genesis missing)")
        self._wal = wal
        if metrics is None:
            metrics = MetricsRegistry()
        self._h_replay = metrics.histogram(
            "repro.persist.recovery.replay_records", base=1.0, growth=2.0
        )
        self._h_wall = metrics.histogram(
            "repro.persist.wall.recovery_s", base=0.001, growth=2.0
        )
        self._h_generations = metrics.histogram(
            "repro.persist.recovery.generations_tried", base=1.0, growth=2.0
        )
        self._m_quarantined = metrics.counter(
            "repro.persist.recovery.quarantined_snapshots"
        )
        self._m_quarantined_bytes = metrics.counter(
            "repro.persist.recovery.quarantined_bytes"
        )
        self._m_fallbacks = metrics.counter("repro.persist.recovery.fallbacks")
        self._m_failed_closed = metrics.counter("repro.persist.recovery.failed_closed")

    def _verify(self, snapshot: Snapshot) -> Optional[str]:
        """Damage reason or None. (The skip-digest-verify mutation's
        patch point: bypassing this must be caught by the DST
        recovery-integrity invariant.)"""
        return verify_snapshot(snapshot)

    def recover(self, simulator, audit: bool = False) -> RecoveryResult:
        """Ladder-restore onto ``simulator``; optionally audit.

        Raises :class:`UnrecoverableStateError` (with the quarantine
        report attached) when every retained generation fails
        verification.
        """
        t0 = wall_now_s()
        quarantined: List[Tuple[int, str, int]] = []
        chosen: Optional[Snapshot] = None
        for snapshot in self._generations:
            reason = self._verify(snapshot)
            if reason is None:
                chosen = snapshot
                break
            quarantined.append((snapshot.seq, reason, len(snapshot.seal)))
        q_seqs = tuple(seq for seq, _, _ in quarantined)
        q_reasons = tuple(reason for _, reason, _ in quarantined)
        q_bytes = sum(n for _, _, n in quarantined)
        if quarantined:
            self._m_quarantined.inc(len(quarantined))
            self._m_quarantined_bytes.inc(q_bytes)
        if chosen is None:
            self._m_failed_closed.inc()
            raise UnrecoverableStateError(
                "every snapshot generation failed verification; refusing to "
                "restore a state that cannot be trusted",
                report={
                    "quarantined": [
                        {"seq": seq, "reason": reason, "seal_bytes": n}
                        for seq, reason, n in quarantined
                    ],
                    "generations": len(self._generations),
                    "quarantined_bytes": q_bytes,
                    "wal_records": self._wal.position,
                    "wal_bytes": self._wal.size_bytes,
                },
            )
        if quarantined:
            self._m_fallbacks.inc()
            if self._store is not None:
                # Drop damaged generations from the store so the next
                # crash's ladder never re-examines known-bad media.
                for seq, _, _ in quarantined:
                    self._store.quarantine(seq)
        records = self._wal.records(chosen.wal_position)
        server, dropped = self._restore(simulator, chosen, records)
        digest = state_digest(server)
        audit_digest = None
        if audit:
            twin, _ = self._restore(simulator, chosen, records)
            audit_digest = state_digest(twin)
            # The twin exists only to be digested; fence it so nothing
            # (not even a misrouted call) can ever act through it.
            twin.fence()
        armed = server.arm_recovered_leases()
        self._h_replay.record(len(records))
        self._h_generations.record(len(quarantined) + 1)
        self._h_wall.record(wall_now_s() - t0)
        return RecoveryResult(
            server=server,
            snapshot_seq=chosen.seq,
            replayed_records=len(records),
            dropped_remnants=dropped,
            armed_leases=armed,
            digest=digest,
            audit_digest=audit_digest,
            generations_tried=len(quarantined) + 1,
            quarantined_seqs=q_seqs,
            quarantine_reasons=q_reasons,
            quarantined_bytes=q_bytes,
        )

    def _restore(self, simulator, snapshot: Snapshot, records):
        """Steps 1–4: fresh server, installed image, replayed suffix."""
        from ..server.backend import BackendServer  # lazy: avoids import cycle

        state = copy.deepcopy(snapshot.state)
        server = BackendServer(
            pipeline=state["_pipeline"],
            simulator=simulator,
            venue_id=state["_store"].venue_id,
            localizer=state["_localizer"],
            annotation_processor=state["_annotation"],
            protocol=state["_protocol"],
            backend=state["_backend"],
        )
        server.install_state(state)
        for record in records:
            server.replay_record(record)
        server.end_replay()
        dropped = server.drop_inflight_remnants()
        return server, dropped
