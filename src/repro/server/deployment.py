"""A full simulated deployment: backend + N mobile clients + network.

This is the distributed-system harness the ICDCS audience cares about:
several phones concurrently requesting tasks, walking, capturing and
uploading over latency/bandwidth-limited links to one backend whose SfM
processing is itself time-consuming. Everything runs on one
discrete-event loop, so runs are deterministic and timings measurable.

Fault experiments layer on top without perturbing the lossless baseline:

* ``faults`` — a :class:`~repro.config.FaultConfig` applied to every
  client link (seeded per-link RNG streams keep runs reproducible);
* ``dropouts`` — ``{client_id: sim_time_s}`` scheduling deterministic
  mid-campaign abandonment;
* ``dropout_hazard`` — per-task stochastic abandonment probability
  applied to every participant.

With all three left at their defaults the deployment is event-for-event
identical to the lossless protocol (verified by the differential test in
``tests/test_fault_tolerance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional

from ..annotation.processor import AnnotationProcessor
from ..annotation.tool import AnnotationCampaign
from ..config import FaultConfig
from ..crowd.guided import GuidedCampaign
from ..crowd.participants import guided_participants
from ..errors import ConfigError, ProtocolError
from ..nav.localization import ImageLocalizer
from ..obs import Telemetry
from ..persist.host import BackendHost
from ..simkit.events import Simulator
from ..simkit.network import DuplexLink
from .backend import BackendServer
from .client import MobileClient


@dataclass(frozen=True)
class DeploymentReport:
    """Summary of one simulated deployment run.

    The first seven fields predate the fault-tolerance layer and stay
    byte-for-byte identical under a zero-fault configuration; the rest
    quantify the protocol's fault/retry/requeue behaviour and are all
    zero in a lossless run.
    """

    sim_time_s: float
    events_processed: int
    venue_covered: bool
    tasks_completed: int
    photos_uploaded: int
    total_traffic_mb: float
    coverage_cells: int
    # -- fault-tolerance accounting (all zero in a lossless run) --
    messages_lost: int = 0
    messages_duplicated: int = 0
    client_retries: int = 0
    uploads_abandoned: int = 0
    batches_deduped: int = 0
    requests_deduped: int = 0
    tasks_requeued: int = 0
    tasks_failed: int = 0
    leases_expired: int = 0
    dropouts: int = 0
    # -- SfM-lane accounting (all zero under the infinite-server model) --
    batches_shed: int = 0
    client_backpressure: int = 0
    sfm_queue_wait_s: float = 0.0
    sfm_peak_queue_depth: int = 0
    sfm_service_time_s: float = 0.0
    # -- durability accounting (all zero with persistence off) --
    backend_crashes: int = 0
    backend_recoveries: int = 0
    wal_records: int = 0
    snapshots_taken: int = 0
    # -- storage-fault accounting (all zero with pristine media) --
    wal_records_torn: int = 0
    snapshots_quarantined: int = 0
    recovery_fallbacks: int = 0


class Deployment:
    """Builds and runs a client/server SnapTask deployment."""

    def __init__(
        self,
        bench,
        n_clients: int = 2,
        faults: Optional[FaultConfig] = None,
        dropouts: Optional[Mapping[str, float]] = None,
        dropout_hazard: float = 0.0,
        telemetry: Optional[Telemetry] = None,
    ):
        """``bench`` is an :class:`repro.eval.workbench.Workbench`.

        ``faults`` overrides ``bench.config.network.faults`` for every
        client link; ``dropouts`` maps client ids to the simulated time
        at which they abandon the campaign; ``dropout_hazard`` gives all
        participants a per-task abandonment probability. ``telemetry``
        instruments the whole stack — event loop, links, protocol,
        pipeline — without changing any behaviour; the default is a
        fresh untraced bundle, whose registry still records every
        metric.
        """
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.simulator = Simulator(telemetry=self.telemetry)
        pipeline = bench.make_pipeline(telemetry=self.telemetry)
        server = BackendServer(
            pipeline,
            self.simulator,
            venue_id=bench.venue.name,
            localizer=ImageLocalizer(
                bench.config.nav, bench.rng.stream("deploy-localizer")
            ),
            annotation_processor=AnnotationProcessor(
                bench.venue, bench.config, bench.rng.stream("deploy-processor")
            ),
            protocol=bench.config.protocol,
            backend=bench.config.backend,
        )
        # The durable host wraps the server only when persistence is on —
        # the persistence-off object graph (and its event trace) stays
        # byte-for-byte the pre-durability one.
        persist_config = bench.config.persist
        # The storage-fault RNG is only materialised when injection is
        # armed, so pristine-media deployments draw nothing new and
        # their traces stay byte-for-byte identical.
        storage_rng = (
            bench.rng.stream("deploy-storage-faults")
            if persist_config.enabled
            and persist_config.storage_faults is not None
            and persist_config.storage_faults.enabled
            else None
        )
        self._host: Optional[BackendHost] = (
            BackendHost(server, self.simulator, persist_config, storage_rng=storage_rng)
            if persist_config.enabled
            else None
        )
        self.server = self._host if self._host is not None else server
        annotation = AnnotationCampaign(
            bench.venue, bench.capture, bench.config, bench.rng.stream("deploy-annot")
        )
        participants = guided_participants(
            max(2, n_clients), bench.rng.stream("deploy-participants")
        )
        network = bench.config.network
        if faults is not None:
            faults.validate()
            network = replace(network, faults=faults)
        self._crash_schedule = tuple(network.faults.backend_crashes)
        if self._crash_schedule and self._host is None:
            raise ConfigError(
                "backend_crashes requires persistence "
                "(config.persist.enabled / with_persistence())"
            )
        fault_mode = network.faults.enabled
        self.links: List[DuplexLink] = []
        self.clients: List[MobileClient] = []
        for i in range(n_clients):
            link_rng = bench.rng.stream(f"deploy-net-{i}") if fault_mode else None
            link = DuplexLink(self.simulator, network, name=f"client-{i}", rng=link_rng)
            self.links.append(link)
            participant = participants[i]
            if dropout_hazard > 0.0:
                participant = replace(participant, dropout_hazard=dropout_hazard)
            client_rng = (
                bench.rng.stream(f"deploy-dropout-{i}")
                if participant.dropout_hazard > 0.0
                else None
            )
            # Only materialised when jitter is on: the zero-jitter trace
            # must stay identical to the poll-herd baseline.
            poll_rng = (
                bench.rng.stream(f"deploy-poll-{i}")
                if bench.config.protocol.poll_jitter_s > 0.0
                else None
            )
            self.clients.append(
                MobileClient(
                    client_id=f"client-{i}",
                    participant=participant,
                    server=self.server,
                    capture=bench.capture,
                    navigator=bench.make_navigator(f"deploy-nav-{i}"),
                    annotation=annotation,
                    simulator=self.simulator,
                    link=link,
                    start_position=bench.venue.entrance,
                    photo_size_mb=network.photo_size_mb,
                    protocol=bench.config.protocol,
                    rng=client_rng,
                    poll_rng=poll_rng,
                )
            )
        self._dropouts: Dict[str, float] = dict(dropouts or {})
        known = {client.client_id for client in self.clients}
        unknown = set(self._dropouts) - known
        if unknown:
            raise ProtocolError(f"dropout schedule names unknown clients: {sorted(unknown)}")
        self._bench = bench

    @property
    def pipeline(self):
        """The *current* backend pipeline (recovery replaces the instance)."""
        return self.server.pipeline

    @property
    def host(self) -> Optional[BackendHost]:
        """The durable backend host, or None with persistence off."""
        return self._host

    def client(self, client_id: str) -> MobileClient:
        for candidate in self.clients:
            if candidate.client_id == client_id:
                return candidate
        raise ProtocolError(f"unknown client {client_id!r}")

    def bootstrap(self) -> None:
        """Seed the initial model (entrance video + geo-calibration)."""
        campaign = GuidedCampaign(
            venue=self._bench.venue,
            capture=self._bench.capture,
            pipeline=self.pipeline,
            navigator=self._bench.make_navigator("deploy-bootstrap-nav"),
            annotation=AnnotationCampaign(
                self._bench.venue,
                self._bench.capture,
                self._bench.config,
                self._bench.rng.stream("deploy-bootstrap-annot"),
            ),
            participants=guided_participants(2, self._bench.rng.stream("deploy-bsp")),
            rng=self._bench.rng.stream("deploy-bootstrap"),
        )
        outcome = campaign.bootstrap()
        for task in outcome.new_tasks:
            self.server.enqueue_task(task)

    def run(self, until_s: float = 20_000.0, max_events: int = 200_000) -> DeploymentReport:
        """Bootstrap, start all clients, and drive the event loop."""
        self.bootstrap()
        if self._host is not None:
            # Genesis checkpoint: recovery always has a base image, even
            # for a crash before the first cadence snapshot.
            self._host.genesis()
            for at_s, downtime_s in self._crash_schedule:
                self.simulator.schedule(
                    at_s,
                    lambda d=downtime_s: self._host.crash(d),
                    label="backend-crash",
                )
        for client in self.clients:
            client.start()
        for client_id, at_s in sorted(self._dropouts.items()):
            target = self.client(client_id)
            self.simulator.schedule(
                at_s, target.drop_out, label=f"{client_id}:dropout"
            )
        self.simulator.run(until=until_s, max_events=max_events)
        store = self.server.store
        return DeploymentReport(
            sim_time_s=self.simulator.now,
            events_processed=self.simulator.processed_events,
            venue_covered=self.pipeline.venue_covered,
            tasks_completed=sum(c.stats.tasks_completed for c in self.clients),
            photos_uploaded=sum(c.stats.photos_uploaded for c in self.clients),
            total_traffic_mb=sum(link.total_traffic_mb() for link in self.links),
            coverage_cells=self.pipeline.coverage_cells,
            messages_lost=sum(link.messages_lost for link in self.links),
            messages_duplicated=sum(link.messages_duplicated for link in self.links),
            client_retries=sum(c.stats.retries for c in self.clients),
            uploads_abandoned=sum(c.stats.uploads_abandoned for c in self.clients),
            batches_deduped=store.counter("batches_deduped"),
            requests_deduped=store.counter("requests_deduped"),
            tasks_requeued=store.counter("tasks_requeued"),
            tasks_failed=store.counter("tasks_failed"),
            leases_expired=store.counter("leases_expired"),
            dropouts=sum(1 for c in self.clients if c.stats.dropped_out),
            batches_shed=store.counter("batches_shed"),
            client_backpressure=sum(c.stats.backpressure for c in self.clients),
            sfm_queue_wait_s=self.server.sfm_queue_wait_total_s,
            sfm_peak_queue_depth=self.server.sfm_peak_queue_depth,
            sfm_service_time_s=self.server.sfm_service_time_total_s,
            backend_crashes=self._host.crash_count if self._host else 0,
            backend_recoveries=self._host.recovery_count if self._host else 0,
            wal_records=self._host.wal.position if self._host else 0,
            snapshots_taken=self._host.snapshotter.taken if self._host else 0,
            wal_records_torn=sum(
                r.wal_dropped_records for r in self._host.storage_fault_reports
            )
            if self._host
            else 0,
            snapshots_quarantined=sum(
                len(a.quarantined_seqs) for a in self._host.recovery_audits
            )
            if self._host
            else 0,
            recovery_fallbacks=sum(
                1 for a in self._host.recovery_audits if a.fallback
            )
            if self._host
            else 0,
        )
