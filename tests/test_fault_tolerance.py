"""Fault-tolerant crowd protocol: leases, idempotent uploads, fault injection.

Covers the four contract points of the fault-tolerance layer:

1. seeded network fault injection (drop / duplicate / jitter / disconnect);
2. task leases — an abandoned assignment is reaped and requeued, never lost;
3. idempotent exchanges — duplicated requests and uploads are deduplicated,
   retransmissions follow the exponential-backoff schedule;
4. the differential guarantee — with a zero-fault config the deployment is
   byte-for-byte identical to the pre-lease lossless protocol.
"""

import dataclasses

import pytest

from repro.camera import GALAXY_S7
from repro.config import FaultConfig, NetworkConfig, ProtocolConfig
from repro.core import TaskFactory
from repro.errors import SimulationError
from repro.geometry import Vec2
from repro.server import (
    BackendServer,
    Deployment,
    PhotoBatch,
    TaskRequest,
)
from repro.simkit import Channel, DuplexLink, RngStream, Simulator


def faulty_network(**fault_kwargs) -> NetworkConfig:
    return NetworkConfig(
        latency_s=0.1,
        bandwidth_mbps=8.0,
        photo_size_mb=2.0,
        faults=FaultConfig(**fault_kwargs),
    )


class TestFaultInjection:
    def setup_method(self):
        self.sim = Simulator()
        self.rng = RngStream(7, "faults")

    def test_zero_fault_config_is_disabled(self):
        assert not FaultConfig().enabled
        assert FaultConfig(drop_probability=0.1).enabled
        assert FaultConfig(disconnect_windows=((0.0, 1.0),)).enabled

    def test_enabled_faults_require_rng(self):
        with pytest.raises(SimulationError):
            Channel(self.sim, faulty_network(drop_probability=0.5))

    def test_certain_drop_loses_everything(self):
        channel = Channel(
            self.sim, faulty_network(drop_probability=0.999999), rng=self.rng
        )
        got = []
        for _ in range(20):
            channel.send("x", got.append, size_mb=1.0)
        self.sim.run()
        assert got == []
        assert channel.fault_stats.dropped == 20
        # Lost messages still consumed airtime: traffic is accounted.
        assert channel.total_bytes_mb() == pytest.approx(20.0)
        statuses = {d.status for d in channel.deliveries}
        assert statuses == {"dropped"}

    def test_certain_duplicate_delivers_twice(self):
        channel = Channel(
            self.sim, faulty_network(duplicate_probability=0.999999), rng=self.rng
        )
        got = []
        channel.send("x", got.append, size_mb=1.0)
        self.sim.run()
        assert got == ["x", "x"]
        assert channel.fault_stats.duplicated == 1
        # The duplicate copy crossed the network too.
        assert channel.total_bytes_mb() == pytest.approx(2.0)

    def test_jitter_delays_within_bound(self):
        channel = Channel(self.sim, faulty_network(jitter_s=2.0), rng=self.rng)
        times = []
        channel.send("x", lambda _: times.append(self.sim.now), size_mb=1.0)
        self.sim.run()
        base = 0.1 + 1.0  # latency + 1 MB over 8 Mbps
        assert base <= times[0] <= base + 2.0

    def test_disconnect_window_drops_messages(self):
        channel = Channel(
            self.sim,
            faulty_network(disconnect_windows=((5.0, 10.0),)),
            rng=self.rng,
        )
        got = []
        channel.send("early", got.append)
        self.sim.schedule(6.0, lambda: channel.send("inside", got.append))
        self.sim.schedule(11.0, lambda: channel.send("late", got.append))
        self.sim.run()
        assert got == ["early", "late"]
        assert channel.fault_stats.dropped_disconnect == 1

    def test_fault_pattern_is_deterministic(self):
        def run(seed: int):
            sim = Simulator()
            channel = Channel(
                sim,
                faulty_network(drop_probability=0.3, duplicate_probability=0.2, jitter_s=1.0),
                rng=RngStream(seed, "net"),
            )
            seen = []
            for i in range(40):
                channel.send(i, seen.append, size_mb=0.5)
            sim.run()
            return seen, dataclasses.asdict(channel.fault_stats)

        a = run(11)
        b = run(11)
        c = run(12)
        assert a == b
        assert a != c  # different seed, different fault pattern

    def test_zero_bandwidth_raises_simulation_error(self):
        config = NetworkConfig(bandwidth_mbps=0.0)  # unvalidated on purpose
        channel = Channel(self.sim, config)
        with pytest.raises(SimulationError):
            channel.transfer_time(1.0)
        negative = Channel(self.sim, NetworkConfig(bandwidth_mbps=-4.0))
        with pytest.raises(SimulationError):
            negative.send("x", lambda _: None, size_mb=1.0)

    def test_duplex_link_fault_accounting(self):
        link = DuplexLink(
            self.sim,
            faulty_network(drop_probability=0.999999),
            rng=RngStream(3, "link"),
        )
        link.uplink.send("a", lambda _: None, size_mb=1.0)
        link.downlink.send("b", lambda _: None, size_mb=1.0)
        self.sim.run()
        assert link.messages_lost == 2
        assert link.messages_duplicated == 0


class TestRetryBackoff:
    def test_exponential_schedule_with_cap(self):
        protocol = ProtocolConfig(rto_initial_s=4.0, rto_backoff=2.0, rto_max_s=60.0)
        schedule = [protocol.timeout_for(attempt) for attempt in range(7)]
        assert schedule == [4.0, 8.0, 16.0, 32.0, 60.0, 60.0, 60.0]

    def test_floor_covers_ack_estimate(self):
        protocol = ProtocolConfig(rto_initial_s=4.0, rto_backoff=2.0, rto_max_s=60.0)
        assert protocol.timeout_for(0, floor_s=45.0) == pytest.approx(49.0)
        assert protocol.timeout_for(3, floor_s=45.0) == pytest.approx(77.0)

    def test_negative_attempt_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ProtocolConfig().timeout_for(-1)


class TestTaskLeases:
    def make_server(self, bench, protocol=None):
        sim = Simulator()
        pipeline = bench.make_pipeline()
        server = BackendServer(pipeline, sim, "venue", protocol=protocol)
        return sim, pipeline, server

    def test_assignment_carries_lease(self, bench):
        protocol = ProtocolConfig(lease_duration_s=120.0)
        sim, _pipeline, server = self.make_server(bench, protocol)
        server.enqueue_task(TaskFactory().photo_task(Vec2(1, 1), 1))
        assignment = server.handle_task_request(TaskRequest("c0", request_id="c0:req-1"))
        assert assignment.task is not None
        assert assignment.lease_expires_at == pytest.approx(120.0)
        lease = server.store.lease_of(assignment.task.task_id)
        assert lease is not None and lease.client_id == "c0"

    def test_expired_lease_is_reaped_and_requeued(self, bench):
        protocol = ProtocolConfig(lease_duration_s=60.0)
        sim, _pipeline, server = self.make_server(bench, protocol)
        server.enqueue_task(TaskFactory().photo_task(Vec2(1, 1), 1))
        assignment = server.handle_task_request(TaskRequest("c0", request_id="c0:req-1"))
        task_id = assignment.task.task_id
        # The client never uploads; the reaper fires at the lease expiry.
        sim.run(until=61.0)
        assert server.store.lease_of(task_id) is None
        assert server.store.task(task_id).status.value == "pending"
        assert server.store.counter("tasks_requeued") == 1
        # The task is reassignable to another client.
        again = server.handle_task_request(TaskRequest("c1", request_id="c1:req-1"))
        assert again.task is not None and again.task.task_id == task_id
        assert server.store.assignee_of(task_id) == "c1"

    def test_completed_upload_cancels_the_reaper(self, bench):
        protocol = ProtocolConfig(lease_duration_s=60.0)
        sim, pipeline, server = self.make_server(bench, protocol)
        server.enqueue_task(TaskFactory().photo_task(Vec2(3, 3), 1))
        assignment = server.handle_task_request(TaskRequest("c0", request_id="c0:req-1"))
        task_id = assignment.task.task_id
        photos = tuple(bench.capture.sweep(Vec2(3, 3), GALAXY_S7, 8.0, blur=0.0))
        server.handle_photo_batch(
            PhotoBatch("c0", task_id, photos, batch_id="c0:batch-1")
        )
        sim.run(until=500.0)
        assert server.store.task(task_id).status.value == "completed"
        # No spurious requeue after the lease horizon passed.
        assert server.store.counter("tasks_requeued") == 0
        assert server.store.counter("leases_expired") == 0

    def test_manual_reap_sweep(self, bench):
        protocol = ProtocolConfig(lease_duration_s=60.0)
        sim, _pipeline, server = self.make_server(bench, protocol)
        factory = TaskFactory()
        server.enqueue_task(factory.photo_task(Vec2(1, 1), 1))
        server.enqueue_task(factory.photo_task(Vec2(2, 2), 1))
        a = server.handle_task_request(TaskRequest("c0", request_id="c0:r1"))
        b = server.handle_task_request(TaskRequest("c1", request_id="c1:r1"))
        assert a.task is not None and b.task is not None
        # Jump past expiry without draining the queue (manual stepping).
        sim.schedule(70.0, lambda: None)
        while sim.now < 70.0 and sim.step():
            pass
        # The event-driven reaper already ran: no expired lease is left
        # for a sweep to find.
        assert not [
            lease for lease in server.store.active_leases() if lease.expired(sim.now)
        ]
        assert server.store.counter("tasks_requeued") == 2

    def test_duplicate_request_does_not_leak_a_second_lease(self, bench):
        sim, _pipeline, server = self.make_server(bench)
        server.enqueue_task(TaskFactory().photo_task(Vec2(1, 1), 1))
        first = server.handle_task_request(TaskRequest("c0", request_id="c0:req-1"))
        replay = server.handle_task_request(TaskRequest("c0", request_id="c0:req-1"))
        assert replay is first  # served from the request ledger
        assert server.store.counter("requests_deduped") == 1
        assert len(server.store.active_leases()) == 1


class TestIdempotentUploads:
    def make_server(self, bench):
        sim = Simulator()
        pipeline = bench.make_pipeline()
        return sim, pipeline, BackendServer(pipeline, sim, "venue")

    def test_duplicate_in_flight_batch_processed_once(self, bench):
        sim, pipeline, server = self.make_server(bench)
        photos = tuple(bench.capture.sweep(Vec2(3, 3), GALAXY_S7, 8.0, blur=0.0))
        batch = PhotoBatch("c0", None, photos, batch_id="c0:batch-1")
        results = []
        server.handle_photo_batch(batch, on_done=results.append)
        server.handle_photo_batch(batch, on_done=results.append)  # network dup
        sim.run()
        assert pipeline.iteration == 1  # processed exactly once
        assert len(results) == 1
        assert server.store.counter("batches_deduped") == 1

    def test_late_duplicate_replays_the_ack(self, bench):
        sim, pipeline, server = self.make_server(bench)
        photos = tuple(bench.capture.sweep(Vec2(3, 3), GALAXY_S7, 8.0, blur=0.0))
        batch = PhotoBatch("c0", None, photos, batch_id="c0:batch-1")
        results = []
        server.handle_photo_batch(batch, on_done=results.append)
        sim.run()
        assert len(results) == 1
        # A retransmission arriving after processing is re-ACKed, not reprocessed.
        server.handle_photo_batch(batch, on_done=results.append)
        assert pipeline.iteration == 1
        assert len(results) == 2
        assert results[0] is results[1]

    def test_empty_batch_gets_failure_reply_not_crash(self, bench):
        sim, _pipeline, server = self.make_server(bench)
        results = []
        server.handle_photo_batch(
            PhotoBatch("c0", None, (), batch_id="c0:batch-1"), on_done=results.append
        )
        assert len(results) == 1
        assert not results[0].ok
        assert results[0].error == "empty photo batch upload"
        assert server.store.counter("empty_batches_rejected") == 1

    def test_empty_batch_requeues_the_leased_task(self, bench):
        sim, _pipeline, server = self.make_server(bench)
        server.enqueue_task(TaskFactory().photo_task(Vec2(1, 1), 1))
        assignment = server.handle_task_request(TaskRequest("c0", request_id="c0:r1"))
        task_id = assignment.task.task_id
        server.handle_photo_batch(PhotoBatch("c0", task_id, (), batch_id="c0:b1"))
        assert server.store.task(task_id).status.value == "pending"
        assert server.store.counter("tasks_requeued") == 1
        again = server.handle_task_request(TaskRequest("c1", request_id="c1:r1"))
        assert again.task is not None and again.task.task_id == task_id


#: Pre-PR DeploymentReport for ``Deployment(Workbench.for_library(),
#: n_clients=2).run(until_s=2000.0)``, recorded at commit 51f70b0 before the
#: fault-tolerance layer landed. The zero-fault protocol must reproduce it
#: byte-for-byte. Re-pin only when campaign dynamics change *deliberately*.
PRE_PR_BASELINE = {
    "sim_time_s": 2000.0,
    "events_processed": 885,
    "venue_covered": False,
    "tasks_completed": 18,
    "photos_uploaded": 820,
    "total_traffic_mb": 2050.415,
    "coverage_cells": 9213,
}


class TestZeroFaultDifferential:
    def test_zero_fault_reproduces_pre_pr_deployment(self):
        from repro.eval import Workbench

        report = Deployment(Workbench.for_library(), n_clients=2).run(until_s=2000.0)
        assert report.sim_time_s == PRE_PR_BASELINE["sim_time_s"]
        assert report.events_processed == PRE_PR_BASELINE["events_processed"]
        assert report.venue_covered == PRE_PR_BASELINE["venue_covered"]
        assert report.tasks_completed == PRE_PR_BASELINE["tasks_completed"]
        assert report.photos_uploaded == PRE_PR_BASELINE["photos_uploaded"]
        assert report.total_traffic_mb == pytest.approx(
            PRE_PR_BASELINE["total_traffic_mb"], abs=1e-9
        )
        assert report.coverage_cells == PRE_PR_BASELINE["coverage_cells"]
        # The whole fault machinery stayed silent.
        assert report.messages_lost == 0
        assert report.messages_duplicated == 0
        assert report.client_retries == 0
        assert report.uploads_abandoned == 0
        assert report.batches_deduped == 0
        assert report.requests_deduped == 0
        assert report.tasks_requeued == 0
        assert report.leases_expired == 0
        assert report.dropouts == 0


class TestFaultCampaign:
    """Acceptance scenario: 15% loss, 5% duplication, one mid-task dropout."""

    def test_campaign_survives_faults_and_dropout(self):
        from repro.eval import Workbench

        deployment = Deployment(
            Workbench.for_library(),
            n_clients=3,
            faults=FaultConfig(drop_probability=0.15, duplicate_probability=0.05),
            # client-1 holds a freshly granted lease at t=1000 (task granted
            # ~977s in); dropping it mid-task strands the lease for the reaper.
            dropouts={"client-1": 1000.0},
        )
        report = deployment.run(until_s=60000.0)
        store = deployment.server.store

        # The campaign still reaches full coverage.
        assert report.venue_covered
        assert report.dropouts == 1

        # The faults actually fired, and the protocol absorbed them.
        assert report.messages_lost > 0
        assert report.messages_duplicated > 0
        assert report.client_retries > 0

        # The abandoned lease was reaped and its task reissued.
        assert report.leases_expired >= 1
        assert report.tasks_requeued >= 1

        # No task is permanently lost: every issued task is accounted for by
        # a terminal or live status, nothing is stuck in a dead lease.
        statuses = store.tasks_by_status()
        assert sum(statuses.values()) == store.recorded_task_count()
        assert statuses.get("assigned", 0) == len(store.active_leases())
        assert deployment.server.queued_tasks == 0  # drained by coverage

        # No photo batch was double-processed: one pipeline result per
        # distinct batch id, duplicates answered from the ledger.
        batch_ids = [r.batch_id for r in deployment.server.results]
        assert len(batch_ids) == len(set(batch_ids))

    def test_fault_runs_are_deterministic(self):
        from repro.eval import Workbench

        def run():
            return Deployment(
                Workbench.for_library(),
                n_clients=2,
                faults=FaultConfig(
                    drop_probability=0.2, duplicate_probability=0.1, jitter_s=0.5
                ),
            ).run(until_s=1500.0)

        a = run()
        b = run()
        assert a == b


class TestClientDropout:
    def test_scheduled_dropout_stops_the_client(self):
        from repro.eval import Workbench

        deployment = Deployment(
            Workbench.for_library(), n_clients=2, dropouts={"client-1": 50.0}
        )
        report = deployment.run(until_s=1200.0)
        dropped = deployment.client("client-1")
        assert dropped.stats.dropped_out
        assert not dropped.active
        assert report.dropouts == 1
        # The survivor keeps the campaign moving.
        assert deployment.client("client-0").stats.tasks_completed > 0

    def test_unknown_dropout_client_rejected(self):
        from repro.errors import ProtocolError
        from repro.eval import Workbench

        with pytest.raises(ProtocolError):
            Deployment(
                Workbench.for_library(), n_clients=2, dropouts={"client-9": 1.0}
            )

    def test_unreliable_participants_cohort(self):
        from repro.crowd import unreliable_participants

        cohort = unreliable_participants(4, RngStream(5, "cohort"), dropout_hazard=0.2)
        assert len(cohort) == 4
        assert all(p.dropout_hazard == 0.2 for p in cohort)
        with pytest.raises(ValueError):
            unreliable_participants(2, RngStream(5, "x"), dropout_hazard=1.5)
