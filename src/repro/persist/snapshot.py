"""Checkpointing: periodic deep-copy snapshots of backend state.

A checkpoint is one ``copy.deepcopy`` of the backend's ``export_state()``
dict — a single memo pass, so objects shared inside the live graph (e.g.
a Task sitting in both the dispatch queue and the store ledger) stay
shared in the copy. The image holds current state only: the pipeline
keeps its last batch outcome, not every past one. Two kinds of object are
shared with the live graph instead of copied, through ``__deepcopy__``
hooks that return ``self``: values that never change after they are
built, and live handles.

* uploaded photos (:class:`~repro.camera.photo.Photo`), recovered
  cameras (:class:`~repro.sfm.model.RecoveredCamera`) and the map
  engine's cached camera wedges (a refresh caches a new entry) — their
  arrays are read-only, so a write through either graph raises,
* ``Vec2`` and ``Vec3`` values (frozen dataclasses of floats),
* the venue and feature world (write-once geometry),
* telemetry instruments and the tracer (live process-lifetime handles,
  see ``obs.metrics`` / ``obs.tracing``).

The columnar SfM store's append arrays memcpy via numpy.

Snapshot cadence is counted in *committed batches* (the unit of real
state growth), not sim seconds, so an idle backend takes no
checkpoints.

The store is **multi-generation**: the newest ``retain`` checkpoints
plus the genesis image (generation 0, WAL position 0) are kept, each
carrying a *seal* — a CRC-framed canonical-JSON projection of its state
(see :mod:`repro.persist.digest`). Recovery verifies generations newest
first, quarantining any whose seal is unreadable or whose state graph
no longer matches it, and falls back to the next older generation with
a longer WAL-suffix replay; keeping genesis guarantees the deepest rung
of that ladder is a full WAL-only replay.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.wallclock import wall_now_s
from .codec import decode_seal, encode_seal
from .digest import canonical_state_bytes

__all__ = ["Snapshot", "Snapshotter", "verify_snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """One checkpoint: a state image, its WAL position, and its seal."""

    seq: int
    sim_time: float
    wal_position: int
    state: Dict[str, object] = field(repr=False)
    seal: bytes = field(repr=False, default=b"")

    @property
    def digest(self) -> str:
        """SHA-256 of the seal bytes (stable id for reports)."""
        return hashlib.sha256(self.seal).hexdigest()


def verify_snapshot(snapshot: Snapshot) -> Optional[str]:
    """Damage reason for a snapshot generation, or ``None`` when clean.

    Two rungs: (a) structural — the seal frame must decode (catches
    truncation and byte flips via length + CRC); (b) semantic — the
    canonical projection recomputed from the stored state graph must
    equal the seal body byte-for-byte (catches tampering of the object
    graph itself, which no frame checksum over the seal can see).
    """
    body = decode_seal(snapshot.seal)
    if body is None:
        return "seal unreadable (truncated or corrupt frame)"
    try:
        current = canonical_state_bytes(snapshot.state)
    except Exception as exc:  # projection walks the whole graph
        return f"state graph undigestable: {exc!r}"
    if current != body:
        return "state/seal digest mismatch"
    return None


def structural_size(state: Dict[str, object]) -> int:
    """Deterministic entry-count proxy for a snapshot's size.

    Counts the growing collections of the state graph (tasks, results,
    ledgers, GC queue, service order). Sim-deterministic, so it
    may feed a digested histogram — byte sizes would depend on host
    pointer widths and allocator behaviour.
    """
    size = state["_store"].recorded_task_count()
    size += len(state["_task_queue"])
    size += len(state["_result_log"])
    size += len(state["_request_ledger"]) + len(state["_batch_ledger"])
    size += len(state["_gc_queue"]) + len(state["_service_order"])
    return size


class Snapshotter:
    """Takes and retains backend checkpoints on a commit cadence."""

    def __init__(
        self, wal, every_batches: int = 8, metrics=None, retain: int = 3
    ):
        if metrics is None:
            metrics = MetricsRegistry()
        if every_batches < 1:
            raise ValueError("snapshot cadence must be >= 1 committed batch")
        if retain < 1:
            raise ValueError("snapshot retention must keep >= 1 generation")
        self._wal = wal
        self._every = every_batches
        self._retain = retain
        self._commits_since = 0
        self._next_seq = 0
        self._snapshots: List[Snapshot] = []
        self._m_snapshots = metrics.counter("repro.persist.snapshots")
        self._m_pruned = metrics.counter("repro.persist.snapshots_pruned")
        self._h_size = metrics.histogram(
            "repro.persist.snapshot.size", base=8.0, growth=2.0
        )
        self._h_wall = metrics.histogram(
            "repro.persist.wall.snapshot_s", base=0.001, growth=2.0
        )

    @property
    def latest(self) -> Optional[Snapshot]:
        return self._snapshots[-1] if self._snapshots else None

    @property
    def count(self) -> int:
        """Number of generations currently retained."""
        return len(self._snapshots)

    @property
    def taken(self) -> int:
        """Total checkpoints ever taken (pruning does not rewind this)."""
        return self._next_seq

    @property
    def every_batches(self) -> int:
        return self._every

    @property
    def retain(self) -> int:
        return self._retain

    def generations(self) -> List[Snapshot]:
        """Retained generations, newest first (the recovery ladder order)."""
        return list(reversed(self._snapshots))

    def get(self, seq: int) -> Optional[Snapshot]:
        for snap in self._snapshots:
            if snap.seq == seq:
                return snap
        return None

    def replace_generation(self, seq: int, snapshot: Snapshot) -> None:
        """Swap one retained generation in place (crash injection)."""
        for i, snap in enumerate(self._snapshots):
            if snap.seq == seq:
                self._snapshots[i] = snapshot
                return
        raise KeyError(f"no retained snapshot generation {seq}")

    def quarantine(self, seq: int) -> int:
        """Drop a damaged generation; returns its seal bytes quarantined."""
        for i, snap in enumerate(self._snapshots):
            if snap.seq == seq:
                del self._snapshots[i]
                return len(snap.seal)
        return 0

    def damage_seal(self, seq: int, new_seal: bytes) -> None:
        """Corrupt a generation's seal bytes (crash injection)."""
        snap = self.get(seq)
        if snap is None:
            raise KeyError(f"no retained snapshot generation {seq}")
        self.replace_generation(seq, replace(snap, seal=new_seal))

    def note_commit(self, server, sim_time: float) -> Optional[Snapshot]:
        """Count one committed batch; checkpoint when the cadence is due."""
        self._commits_since += 1
        if self._commits_since < self._every:
            return None
        return self.checkpoint(server, sim_time)

    def checkpoint(self, server, sim_time: float) -> Snapshot:
        """Capture one sealed snapshot of ``server`` at the WAL position."""
        t0 = wall_now_s()
        state = copy.deepcopy(server.export_state())
        snapshot = Snapshot(
            seq=self._next_seq,
            sim_time=sim_time,
            wal_position=self._wal.position,
            state=state,
            seal=encode_seal(canonical_state_bytes(state)),
        )
        self._next_seq += 1
        self._snapshots.append(snapshot)
        self._commits_since = 0
        self._m_snapshots.inc()
        self._h_size.record(structural_size(state))
        self._h_wall.record(wall_now_s() - t0)
        self._prune()
        return snapshot

    def _prune(self) -> None:
        """Keep genesis (generation 0) plus the newest ``retain`` images."""
        if len(self._snapshots) <= self._retain:
            return
        keep_tail = self._snapshots[-self._retain:]
        genesis = [
            s for s in self._snapshots[: -self._retain] if s.seq == 0
        ]
        pruned = len(self._snapshots) - len(genesis) - len(keep_tail)
        if pruned > 0:
            self._m_pruned.inc(pruned)
        self._snapshots = genesis + keep_tail
