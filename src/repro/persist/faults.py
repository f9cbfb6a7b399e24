"""Seeded storage fault injection at crash instants.

Mirrors the :mod:`repro.simkit.network` fault plumbing for the durable
media: a frozen :class:`StorageFaultConfig` describes *what can go
wrong with the disk when the process dies*, an injector applies it to
the WAL + snapshot store at each crash, and a per-crash
:class:`StorageFaultReport` records exactly what was damaged so the
DST recovery-integrity invariant can check the recovery ladder made
the right calls (quarantined everything damaged, nothing clean).

Fault mechanisms (each an independent seeded draw per crash):

* **torn WAL tail** — the journal is cut at a byte offset strictly
  inside its final frame, exactly what a crash mid-``write(2)`` leaves;
  the framing CRC catches it at load.
* **dropped flushes** — the last *k* whole records vanish at a clean
  frame boundary (an lying-fsync medium): the journal still decodes
  cleanly, so nothing below the ledger/digest layer can notice.
* **snapshot damage cascade** — the newest generation's seal is
  truncated, byte-flipped, or its state graph tampered; with the same
  probability the damage continues to the next older generation, so a
  high setting can reach genesis and force a fail-closed recovery.

All draws come from a dedicated :class:`~repro.simkit.rng.RngStream`
(an independent DST child), and a disabled config performs **no draws
at all** — existing seeds' fault patterns and scenarios are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigError, SimulationError
from ..obs.metrics import MetricsRegistry

__all__ = [
    "StorageFaultConfig",
    "StorageFaultReport",
    "StorageFaultInjector",
    "SNAPSHOT_DAMAGE_MODES",
]

#: How a snapshot generation can be damaged. ``state-tamper`` is the
#: mode only the semantic (recompute-and-compare) rung of verification
#: can catch — the seal frame itself stays pristine.
SNAPSHOT_DAMAGE_MODES = ("seal-truncate", "seal-flip", "state-tamper")


@dataclass(frozen=True)
class StorageFaultConfig:
    """Per-crash storage damage probabilities (all default off)."""

    #: P(the WAL's final frame is cut mid-write at a crash).
    wal_torn_tail: float = 0.0
    #: P(the last flushes silently vanish at a clean frame boundary).
    wal_dropped_flush: float = 0.0
    #: Max whole records lost per dropped flush (uniform in [1, max]).
    max_dropped_flushes: int = 3
    #: P(the newest snapshot generation is damaged); the same draw
    #: repeats per older generation, so damage cascades geometrically
    #: and ``1.0`` deterministically damages every retained generation.
    snapshot_corruption: float = 0.0
    #: Cascade depth cap: at most this many generations are damaged per
    #: crash (``None`` = unbounded). ``snapshot_corruption=1.0`` with a
    #: cap of 1 deterministically damages *exactly* the newest
    #: generation — the forced older-generation-fallback configuration
    #: ``repro recover --storage-faults`` uses.
    max_damaged_generations: Optional[int] = None

    @property
    def enabled(self) -> bool:
        return (
            self.wal_torn_tail > 0.0
            or self.wal_dropped_flush > 0.0
            or self.snapshot_corruption > 0.0
        )

    @property
    def loses_wal_data(self) -> bool:
        """True when acknowledged records can vanish (twin-equivalence
        is then impossible by construction: clients hold ACKs they will
        never retransmit; the system must self-heal via lease expiry)."""
        return self.wal_torn_tail > 0.0 or self.wal_dropped_flush > 0.0

    def validate(self) -> None:
        for name in ("wal_torn_tail", "wal_dropped_flush", "snapshot_corruption"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"storage fault {name} must be in [0, 1], got {p}")
        if self.max_dropped_flushes < 1:
            raise ConfigError(
                f"max_dropped_flushes must be >= 1, got {self.max_dropped_flushes}"
            )
        if self.max_damaged_generations is not None and self.max_damaged_generations < 1:
            raise ConfigError(
                "max_damaged_generations must be >= 1 or None, "
                f"got {self.max_damaged_generations}"
            )


@dataclass(frozen=True)
class StorageFaultReport:
    """Exactly what one crash did to the durable media."""

    crash_t: float
    wal_records_before: int
    wal_torn: bool = False
    wal_dropped_records: int = 0
    damaged_snapshot_seqs: Tuple[int, ...] = ()
    damage_modes: Tuple[str, ...] = ()

    @property
    def any_damage(self) -> bool:
        return (
            self.wal_torn
            or self.wal_dropped_records > 0
            or bool(self.damaged_snapshot_seqs)
        )

    @property
    def loses_wal_data(self) -> bool:
        return self.wal_dropped_records > 0


class StorageFaultInjector:
    """Applies seeded storage damage to (WAL, snapshot store) at crashes."""

    def __init__(self, config: StorageFaultConfig, rng=None, metrics=None):
        config.validate()
        if metrics is None:
            metrics = MetricsRegistry()
        if config.enabled and rng is None:
            raise SimulationError(
                "storage fault injection enabled but no RNG stream supplied"
            )
        self._config = config
        self._rng = rng
        self._m_torn = metrics.counter("repro.persist.faults.wal_torn")
        self._m_dropped = metrics.counter("repro.persist.faults.wal_dropped_records")
        self._m_damaged = metrics.counter("repro.persist.faults.snapshots_damaged")

    @property
    def config(self) -> StorageFaultConfig:
        return self._config

    def inject(self, wal, snapshotter, crash_t: float) -> StorageFaultReport:
        """Damage the media for one crash; returns the exact damage done."""
        cfg = self._config
        records_before = wal.position
        if not cfg.enabled:
            return StorageFaultReport(crash_t=crash_t, wal_records_before=records_before)
        rng = self._rng
        torn = False
        dropped = 0
        # Torn tail: cut strictly inside the final frame so the framing
        # CRC sees a short/corrupt body (exactly one record destroyed).
        if wal.position > 0 and rng.chance(cfg.wal_torn_tail):
            boundaries = wal.frame_boundaries()
            start = boundaries[-2] if len(boundaries) > 1 else 0
            cut = rng.integers(start + 1, boundaries[-1])
            dropped += wal.damage_truncate(cut)
            torn = True
            self._m_torn.inc()
        # Dropped flushes: clean-boundary loss of the last k records.
        if wal.position > 0 and rng.chance(cfg.wal_dropped_flush):
            k = rng.integers(1, cfg.max_dropped_flushes + 1)
            dropped += wal.damage_drop_records(k)
        if dropped > 0:
            self._m_dropped.inc(dropped)
        # Snapshot damage cascade, newest generation first.
        damaged: List[int] = []
        modes: List[str] = []
        cap = cfg.max_damaged_generations
        for snap in snapshotter.generations():
            if cap is not None and len(damaged) >= cap:
                break
            if not rng.chance(cfg.snapshot_corruption):
                break
            mode = rng.choice(SNAPSHOT_DAMAGE_MODES)
            self._damage_snapshot(snapshotter, snap, mode, rng)
            damaged.append(snap.seq)
            modes.append(mode)
            self._m_damaged.inc()
        return StorageFaultReport(
            crash_t=crash_t,
            wal_records_before=records_before,
            wal_torn=torn,
            wal_dropped_records=dropped,
            damaged_snapshot_seqs=tuple(damaged),
            damage_modes=tuple(modes),
        )

    @staticmethod
    def _damage_snapshot(snapshotter, snap, mode: str, rng) -> None:
        if mode == "seal-truncate":
            cut = rng.integers(0, max(len(snap.seal), 1))
            snapshotter.damage_seal(snap.seq, snap.seal[:cut])
        elif mode == "seal-flip":
            seal = bytearray(snap.seal)
            if seal:
                pos = rng.integers(0, len(seal))
                seal[pos] ^= rng.integers(1, 256)
            snapshotter.damage_seal(snap.seq, bytes(seal))
        elif mode == "state-tamper":
            # Deterministic object-graph corruption: the seal frame
            # stays valid, so only the semantic verification rung
            # (recompute projection, compare to seal body) can see it.
            snap.state["_admit_watermark"] = snap.state["_admit_watermark"] + 1
        else:  # pragma: no cover - modes are a closed tuple
            raise SimulationError(f"unknown snapshot damage mode {mode!r}")
