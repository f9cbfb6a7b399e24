"""The durable backend host: WAL hookup, crash fencing, restart glue.

:class:`BackendHost` stands between the deployment and the
:class:`~repro.server.backend.BackendServer` when persistence is
enabled. It owns the durable media (WAL + multi-generation snapshot
store), injects crashes (fence the live server, schedule a restart
after the configured downtime) and performs recovery through
:class:`~repro.persist.recovery.RecoveryManager`'s verify-then-fallback
ladder. Attribute access forwards to the *current* server instance, so
clients keep calling the same object across restarts — exactly like
reconnecting to a respawned process at the same address.

When a :class:`~repro.persist.faults.StorageFaultConfig` is supplied,
each crash additionally damages the durable media through the seeded
injector *at the crash instant* (that is when real media tear), and the
exact damage is recorded in ``storage_fault_reports`` — one report per
crash, index-aligned with ``recovery_audits`` — so the DST
recovery-integrity invariant can audit the ladder's quarantine calls.

During downtime the current server is the fenced pre-crash instance:
every handler call raises ``BackendUnavailableError``, the message is
lost, and the client's existing retransmission machinery retries it —
no special client-side crash handling exists or is needed.
"""

from __future__ import annotations

from typing import List, Optional

from .faults import StorageFaultInjector, StorageFaultReport
from .hooks import PersistenceLog
from .recovery import RecoveryManager, RecoveryResult
from .snapshot import Snapshotter
from .wal import WriteAheadLog

__all__ = ["BackendHost"]


class BackendHost:
    """Owns the durable media and the (replaceable) live server."""

    def __init__(self, server, simulator, persist_config, storage_rng=None):
        self._sim = simulator
        obs = simulator.telemetry
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._metrics = metrics
        self._wal = WriteAheadLog(metrics=metrics)
        self._snapshotter = Snapshotter(
            self._wal,
            every_batches=persist_config.snapshot_every_batches,
            metrics=metrics,
            retain=persist_config.snapshot_retain,
        )
        self._log = PersistenceLog(self._wal, self._snapshotter)
        self._injector: Optional[StorageFaultInjector] = None
        faults = persist_config.storage_faults
        if faults is not None and faults.enabled:
            self._injector = StorageFaultInjector(
                faults, rng=storage_rng, metrics=metrics
            )
        self._m_crashes = metrics.counter("repro.persist.crashes")
        self._m_recoveries = metrics.counter("repro.persist.recoveries")
        #: One RecoveryResult per restart (digest audits, replay sizes).
        self.recovery_audits: List[RecoveryResult] = []
        #: One StorageFaultReport per crash, index-aligned with
        #: ``recovery_audits`` (overlapping crash schedules are no-ops
        #: for both).
        self.storage_fault_reports: List[StorageFaultReport] = []
        self._crash_count = 0
        self._down = False
        self._server = server
        self._bind(server)

    def _bind(self, server) -> None:
        self._log.bind(server)
        server.attach_persistence(self._log)
        self._server = server

    # -- forwarding -------------------------------------------------------------------

    def __getattr__(self, name: str):
        # Only reached for attributes the host does not define itself;
        # private names never forward (they would mask init-order bugs).
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.__dict__["_server"], name)

    @property
    def server(self):
        """The current live (or fenced, while down) backend instance."""
        return self._server

    @property
    def down(self) -> bool:
        return self._down

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def snapshotter(self) -> Snapshotter:
        return self._snapshotter

    @property
    def crash_count(self) -> int:
        return self._crash_count

    @property
    def recovery_count(self) -> int:
        return len(self.recovery_audits)

    # -- lifecycle ----------------------------------------------------------------------

    def genesis(self) -> None:
        """Checkpoint the bootstrapped state (snapshot 0, WAL position 0).

        Taken once before the campaign starts, so recovery always has a
        base image — a crash before the first cadence checkpoint replays
        the whole WAL from genesis, and the ladder's deepest rung always
        exists (retention never prunes generation 0).
        """
        self._snapshotter.checkpoint(self._server, self._sim.now)

    def crash(self, downtime_s: float) -> None:
        """Kill the backend now; schedule its restart ``downtime_s`` later.

        In-flight processing and timers die with the fence; durable
        media (WAL + snapshots) survive — unless storage fault injection
        is armed, in which case the media take their seeded damage at
        this instant. Calls landing during the outage raise through the
        fenced server and are lost (clients retransmit).
        """
        if self._down:
            return  # overlapping schedules: already down, restart pending
        self._crash_count += 1
        self._m_crashes.inc()
        self._down = True
        self._server.fence()
        if self._injector is not None:
            report = self._injector.inject(
                self._wal, self._snapshotter, self._sim.now
            )
        else:
            report = StorageFaultReport(
                crash_t=self._sim.now, wal_records_before=self._wal.position
            )
        self.storage_fault_reports.append(report)
        self._tracer.instant(
            "persist.backend_crash",
            category="persist",
            downtime_s=downtime_s,
            wal_records=self._wal.position,
            snapshots=self._snapshotter.count,
            wal_torn=report.wal_torn,
            wal_dropped_records=report.wal_dropped_records,
            snapshots_damaged=len(report.damaged_snapshot_seqs),
        )
        self._sim.schedule(downtime_s, self.restart, label="backend-restart")

    def restart(self) -> RecoveryResult:
        """Recover a fresh server from the durable media and go live.

        Walks the verify-then-fallback ladder; raises
        :class:`~repro.errors.UnrecoverableStateError` (fail closed)
        when every retained generation is damaged.
        """
        with self._tracer.span("persist.recovery", category="persist") as span:
            manager = RecoveryManager(
                self._wal, self._snapshotter, metrics=self._metrics
            )
            result = manager.recover(self._sim, audit=True)
            self._bind(result.server)
            self._down = False
            self._m_recoveries.inc()
            self.recovery_audits.append(result)
            span.set_attr("replayed_records", result.replayed_records)
            span.set_attr("armed_leases", result.armed_leases)
            span.set_attr("audit_ok", result.audit_ok)
            span.set_attr("snapshot_seq", result.snapshot_seq)
            span.set_attr("generations_tried", result.generations_tried)
            span.set_attr("quarantined_bytes", result.quarantined_bytes)
        return result
