"""Bounded SfM lane: worker pool, admission control, ledger GC, poll jitter.

Covers the backend-overload contract points:

1. the bounded worker pool serves admitted batches FIFO (completion =
   queue wait + deterministic service time), never exceeding the pool;
2. admission control — a full pool with a full queue sheds the upload
   with a ``retry_after_s`` hint the client honors via its existing
   backoff machinery, and the campaign still converges;
3. bounded ledgers — dedup entries are evicted ``LEDGER_RETENTION_S``
   after their task turns terminal; a duplicate inside that window is
   re-ACKed from the ledger with the recorded result, without
   reprocessing, and the window outlasts the longest retransmission
   span; the ``ledger-idempotency`` invariant flags an entry that
   vanishes inside it;
4. poll-herd decorrelation — idle re-polls jitter deterministically when
   configured, and the zero-jitter trace is unchanged (the byte-for-byte
   differential in ``test_fault_tolerance.py`` pins the default path);
5. layering — the client learns the per-photo service time from its
   ``TaskAssignment``, not from backend internals;
6. DST — the ``skip-admission-bound`` mutation is caught by the
   ``admission-bound`` invariant on the crafted overload probe.
"""

import pathlib
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.camera import GALAXY_S7
from repro.config import (
    BackendConfig,
    ConfigError,
    NetworkConfig,
    ProtocolConfig,
    paper_config,
)
from repro.core import TaskFactory
from repro.eval import Workbench
from repro.geometry import Vec2
from repro.server import (
    LEDGER_RETENTION_S,
    PROCESSING_S_PER_PHOTO,
    BackendServer,
    Deployment,
    PhotoBatch,
    TaskRequest,
)
from repro.simkit import Simulator
from repro.testkit import (
    MUTATIONS,
    InvariantRegistry,
    InvariantViolationError,
    overload_probe,
    run_scenario,
)


def make_server(bench, backend=None):
    sim = Simulator()
    pipeline = bench.make_pipeline()
    server = BackendServer(pipeline, sim, "venue", backend=backend)
    return sim, pipeline, server


def sweep_at(bench, x, y):
    return tuple(bench.capture.sweep(Vec2(x, y), GALAXY_S7, 8.0, blur=0.0))


def overloaded_config(queue_limit=0, max_tasks=3):
    config = paper_config()
    return replace(
        config,
        tasks=replace(config.tasks, max_tasks=max_tasks),
        backend=BackendConfig(sfm_workers=1, queue_limit=queue_limit),
    )


class TestBackendConfig:
    def test_defaults_are_the_infinite_server_model(self):
        config = BackendConfig()
        config.validate()
        assert config.sfm_workers is None
        assert config.queue_limit is None
        assert paper_config().backend == config

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            BackendConfig(sfm_workers=0).validate()
        with pytest.raises(ConfigError):
            BackendConfig(queue_limit=2).validate()  # queue without pool
        with pytest.raises(ConfigError):
            BackendConfig(sfm_workers=1, queue_limit=-1).validate()
        with pytest.raises(ConfigError):
            BackendConfig(sfm_workers=1, retry_after_floor_s=0.0).validate()
        with pytest.raises(ConfigError):
            replace(ProtocolConfig(), poll_interval_s=0.0).validate()
        with pytest.raises(ConfigError):
            replace(ProtocolConfig(), poll_jitter_s=-1.0).validate()

    def test_with_backend_helper(self):
        config = paper_config().with_backend(sfm_workers=2, queue_limit=4)
        assert config.backend.sfm_workers == 2
        assert config.backend.queue_limit == 4
        assert config.sfm_workers == 2
        bench = Workbench.for_library().with_backend(sfm_workers=3)
        assert bench.config.backend.sfm_workers == 3


class TestWorkerPool:
    def test_single_worker_serves_fifo(self, bench):
        sim, _pipeline, server = make_server(
            bench, backend=BackendConfig(sfm_workers=1)
        )
        results = []
        for i, pos in enumerate([(2, 2), (4, 4), (6, 3)]):
            batch = PhotoBatch(
                "c0", None, sweep_at(bench, *pos), batch_id=f"c0:b{i + 1}"
            )
            server.handle_photo_batch(batch, on_done=results.append)
        # All three arrived at t=0: one in service, two queued.
        assert server.sfm_busy_workers == 1
        assert server.sfm_queue_depth == 2
        assert server.sfm_peak_queue_depth == 2
        sim.run()
        assert [r.batch_id for r in results] == ["c0:b1", "c0:b2", "c0:b3"]
        assert server.sfm_service_order() == [1, 2, 3]
        assert server.sfm_busy_workers == 0
        assert server.sfm_queue_depth == 0
        # Queue wait is real: b2 waited one service time, b3 two.
        service = PROCESSING_S_PER_PHOTO * 45  # one 360-sweep batch
        assert server.sfm_queue_wait_total_s == pytest.approx(3 * service)
        assert server.sfm_service_time_total_s == pytest.approx(3 * service)
        # Completion = queue wait + service: last batch lands at 3x.
        assert sim.now == pytest.approx(3 * service)

    def test_pool_runs_batches_concurrently(self, bench):
        sim, _pipeline, server = make_server(
            bench, backend=BackendConfig(sfm_workers=2)
        )
        done = []
        for i, pos in enumerate([(2, 2), (4, 4)]):
            server.handle_photo_batch(
                PhotoBatch("c0", None, sweep_at(bench, *pos), batch_id=f"c0:b{i}"),
                on_done=done.append,
            )
        assert server.sfm_busy_workers == 2
        assert server.sfm_queue_depth == 0
        sim.run()
        assert len(done) == 2
        assert server.sfm_queue_wait_total_s == 0.0
        # Both served in parallel: wall time is one service, not two.
        assert sim.now == pytest.approx(PROCESSING_S_PER_PHOTO * 45)

    def test_infinite_model_never_queues_or_waits(self, bench):
        sim, _pipeline, server = make_server(bench)  # default BackendConfig
        assert server.sfm_worker_limit is None
        for i, pos in enumerate([(2, 2), (4, 4), (6, 3)]):
            server.handle_photo_batch(
                PhotoBatch("c0", None, sweep_at(bench, *pos), batch_id=f"c0:b{i}")
            )
        assert server.sfm_busy_workers == 0  # lane bookkeeping untouched
        assert server.sfm_queue_depth == 0
        sim.run()
        assert server.sfm_queue_wait_total_s == 0.0
        assert server.sfm_peak_queue_depth == 0
        assert sim.now == pytest.approx(PROCESSING_S_PER_PHOTO * 45)


class TestAdmissionControl:
    def test_full_queue_sheds_with_retry_after(self, bench):
        sim, _pipeline, server = make_server(
            bench, backend=BackendConfig(sfm_workers=1, queue_limit=0)
        )
        results = []
        server.handle_photo_batch(
            PhotoBatch("c0", None, sweep_at(bench, 2, 2), batch_id="c0:b1"),
            on_done=results.append,
        )
        server.handle_photo_batch(
            PhotoBatch("c1", None, sweep_at(bench, 4, 4), batch_id="c1:b1"),
            on_done=results.append,
        )
        # The second upload was refused immediately, nothing queued.
        assert len(results) == 1
        shed = results[0]
        assert not shed.ok
        assert shed.error == "backend overloaded"
        assert shed.batch_id == "c1:b1"
        # The hint points at the in-service batch's completion.
        assert shed.retry_after_s == pytest.approx(PROCESSING_S_PER_PHOTO * 45)
        assert server.store.counter("batches_shed") == 1
        # A shed is no verdict: the id stays fresh for the real attempt.
        assert not server.ledger_contains("c1:b1")
        assert all(r.batch_id != "c1:b1" for r in server.results)
        sim.run()
        # Retransmitting after the hint gets the batch processed for real.
        server.handle_photo_batch(
            PhotoBatch("c1", None, sweep_at(bench, 4, 4), batch_id="c1:b1"),
            on_done=results.append,
        )
        sim.run()
        assert [r.batch_id for r in results] == ["c1:b1", "c0:b1", "c1:b1"]
        assert results[-1].error is None

    def test_bounded_queue_admits_up_to_the_bound(self, bench):
        sim, _pipeline, server = make_server(
            bench, backend=BackendConfig(sfm_workers=1, queue_limit=1)
        )
        outcomes = []
        for i, pos in enumerate([(2, 2), (4, 4), (6, 3)]):
            server.handle_photo_batch(
                PhotoBatch("c0", None, sweep_at(bench, *pos), batch_id=f"c0:b{i}"),
                on_done=outcomes.append,
            )
        # b0 in service, b1 queued (at the bound), b2 shed.
        assert server.sfm_queue_depth == 1
        assert [r.batch_id for r in outcomes] == ["c0:b2"]
        assert outcomes[0].error == "backend overloaded"
        sim.run()
        assert server.store.counter("batches_shed") == 1
        assert server.sfm_peak_queue_depth == 1

    def test_empty_assignment_hints_while_saturated(self, bench):
        sim, _pipeline, server = make_server(
            bench, backend=BackendConfig(sfm_workers=1, queue_limit=0)
        )
        # Idle lane: no hint on an empty assignment.
        idle = server.handle_task_request(TaskRequest("c0", request_id="c0:r1"))
        assert idle.task is None and idle.retry_after_s is None
        server.handle_photo_batch(
            PhotoBatch("c0", None, sweep_at(bench, 2, 2), batch_id="c0:b1")
        )
        busy = server.handle_task_request(TaskRequest("c0", request_id="c0:r2"))
        assert busy.task is None
        assert busy.retry_after_s == pytest.approx(PROCESSING_S_PER_PHOTO * 45)
        sim.run()

    def test_overloaded_deployment_sheds_and_converges(self):
        deployment = Deployment(
            Workbench.for_library(overloaded_config(queue_limit=0)), n_clients=4
        )
        report = deployment.run(until_s=1200.0)
        # The lane actually refused work, and the clients absorbed every
        # refusal with retry_after backoff — nothing queued past the bound.
        assert report.batches_shed > 0
        assert report.client_backpressure == report.batches_shed
        assert report.sfm_peak_queue_depth == 0
        assert report.tasks_completed > 0
        # Every shed batch was eventually processed exactly once: one
        # pipeline result per distinct batch id.
        batch_ids = [r.batch_id for r in deployment.server.results]
        assert len(batch_ids) == len(set(batch_ids))

    def test_unbounded_queue_waits_instead_of_shedding(self):
        config = replace(
            overloaded_config(), backend=BackendConfig(sfm_workers=1)
        )
        report = Deployment(Workbench.for_library(config), n_clients=4).run(
            until_s=1200.0
        )
        assert report.batches_shed == 0
        assert report.sfm_queue_wait_s > 0.0
        assert report.sfm_peak_queue_depth >= 1
        assert report.sfm_service_time_s > 0.0


class TestLedgerEviction:
    def make_completed_task(self, bench, registry=None):
        sim, _pipeline, server = make_server(bench)
        if registry is not None:
            registry.attach(SimpleNamespace(server=server, simulator=sim))
        server.enqueue_task(TaskFactory().photo_task(Vec2(3, 3), 1))
        assignment = server.handle_task_request(TaskRequest("c0", request_id="c0:r1"))
        task_id = assignment.task.task_id
        server.handle_photo_batch(
            PhotoBatch("c0", task_id, sweep_at(bench, 3, 3), batch_id="c0:b1")
        )
        sim.run()
        assert server.store.task(task_id).status.value == "completed"
        return sim, server, task_id

    def advance(self, sim, delay, action=lambda: None):
        sim.schedule(delay, action, label="advance")
        sim.run()

    def test_ledgers_evict_after_retention(self, bench):
        sim, server, _task_id = self.make_completed_task(bench)
        assert server.ledger_contains("c0:b1")
        assert server.request_ledger_size == 1
        self.advance(sim, LEDGER_RETENTION_S + 1.0)  # past the window
        # GC is an inline sweep at handler entry, not an event.
        server.handle_task_request(TaskRequest("c0", request_id="c0:r2"))
        assert not server.ledger_contains("c0:b1")
        assert server.request_ledger_size == 1  # only the fresh r2
        assert server.store.counter("ledger_evictions") == 2

    def test_late_duplicate_reacks_recorded_result_from_ledger(self, bench):
        sim, server, task_id = self.make_completed_task(bench)
        recorded = server.ledger_entry("c0:b1")
        processed_before = server.store.counter("photos_processed")
        self.advance(sim, 1000.0)  # past 600 s, inside the retention window
        acks = []
        server.handle_photo_batch(
            PhotoBatch("c0", task_id, sweep_at(bench, 3, 3), batch_id="c0:b1"),
            on_done=acks.append,
        )
        sim.run()
        # Answered synchronously from the ledger with the recorded result:
        # no reprocessing, no new result, task untouched.
        assert len(acks) == 1 and acks[0] is recorded
        assert server.ledger_contains("c0:b1")
        assert server.store.counter("photos_processed") == processed_before
        assert server.store.counter("batches_deduped") == 1
        assert len(server.results) == 1
        assert server.store.task(task_id).status.value == "completed"

    def test_retention_keeps_entries_alive(self, bench):
        sim, server, task_id = self.make_completed_task(bench)
        self.advance(sim, LEDGER_RETENTION_S - 1.0)  # just inside the window
        # A duplicate request is still deduped, not granted a new task.
        again = server.handle_task_request(TaskRequest("c0", request_id="c0:r1"))
        assert again.task.task_id == task_id
        assert server.store.counter("requests_deduped") == 1
        assert server.ledger_contains("c0:b1")
        assert server.store.counter("ledger_evictions") == 0

    def test_window_outlasts_longest_retransmission_span(self):
        # The upload RTO floor for a 45-photo sub-batch: transfer time
        # plus the server's per-photo service estimate.
        protocol, network = ProtocolConfig(), NetworkConfig()
        photos = paper_config().tasks.upload_subbatch
        transfer = photos * network.photo_size_mb * 8.0 / network.bandwidth_mbps
        floor = transfer + PROCESSING_S_PER_PHOTO * photos
        assert floor == pytest.approx(60.75)
        # The last of max_retries retransmissions leaves this long after
        # the first send (backoff capped at rto_max_s).
        last_copy = sum(
            protocol.timeout_for(attempt, floor_s=floor)
            for attempt in range(protocol.max_retries)
        )
        assert last_copy == pytest.approx(786.0)
        assert last_copy + floor > 600.0  # a 600 s window would not cover it
        assert LEDGER_RETENTION_S == 2400.0
        assert LEDGER_RETENTION_S > last_copy + floor

    def test_invariant_flags_entry_vanishing_inside_window(self, bench):
        registry = InvariantRegistry(oracle_checks=False)
        sim, server, _task_id = self.make_completed_task(bench, registry)
        with pytest.raises(InvariantViolationError, match="vanished"):
            self.advance(
                sim, 1000.0, lambda: server._batch_ledger.pop("c0:b1", None)
            )
        assert registry.violations[0].invariant == "ledger-idempotency"

    def test_invariant_allows_eviction_after_window(self, bench):
        registry = InvariantRegistry(oracle_checks=False)
        sim, server, _task_id = self.make_completed_task(bench, registry)
        poll = TaskRequest("c0", request_id="c0:r2")
        self.advance(
            sim, LEDGER_RETENTION_S + 1.0, lambda: server.handle_task_request(poll)
        )
        assert not server.ledger_contains("c0:b1")
        assert registry.violations == []


class TestPollJitter:
    def test_zero_jitter_draws_nothing(self):
        deployment = Deployment(Workbench.for_library(), n_clients=2)
        for client in deployment.clients:
            assert client._poll_rng is None
            assert client._poll_delay() == ProtocolConfig().poll_interval_s

    def test_jitter_decorrelates_clients_deterministically(self):
        config = replace(
            paper_config(), protocol=replace(ProtocolConfig(), poll_jitter_s=3.0)
        )

        def delays():
            deployment = Deployment(Workbench.for_library(config), n_clients=3)
            return [client._poll_delay() for client in deployment.clients]

        first = delays()
        base = ProtocolConfig().poll_interval_s
        for delay in first:
            assert base < delay <= base + 3.0
        # Distinct per client (the herd is broken), reproducible per seed.
        assert len(set(first)) == len(first)
        assert delays() == first


class TestLayering:
    def test_client_module_does_not_import_service_model(self):
        import repro.server.client as client_module

        source = pathlib.Path(client_module.__file__).read_text()
        assert "PROCESSING_S_PER_PHOTO" not in source

    def test_assignment_carries_the_service_hint(self, bench):
        sim, _pipeline, server = make_server(bench)
        server.enqueue_task(TaskFactory().photo_task(Vec2(1, 1), 1))
        assignment = server.handle_task_request(TaskRequest("c0", request_id="c0:r1"))
        assert assignment.processing_s_per_photo == PROCESSING_S_PER_PHOTO

    def test_client_uses_the_hint_for_ack_floors(self):
        deployment = Deployment(Workbench.for_library(), n_clients=2)
        client = deployment.clients[0]
        batch = PhotoBatch("client-0", None, (object(),) * 10, batch_id="x")
        transfer = client._link.uplink.transfer_time(
            client._photo_size_mb * 10
        )
        # Before any assignment the hint is zero (pure transfer floor)...
        assert client._ack_estimate_s(batch) == pytest.approx(transfer)
        # ...and tracks whatever the server advertises afterwards.
        client._service_hint_spp = 0.5
        assert client._ack_estimate_s(batch) == pytest.approx(transfer + 5.0)


class TestAdmissionMutation:
    def test_catalogue_lists_the_admission_mutation(self):
        assert set(MUTATIONS) == {
            "skip-batch-dedupe",
            "leak-completed-lease",
            "skip-map-dirty-marking",
            "skip-wedge-invalidation",
            "skip-admission-bound",
            "skip-digest-verify",
        }
        mutation = MUTATIONS["skip-admission-bound"]
        assert mutation.expected_invariant == "admission-bound"
        assert mutation.probe is not None

    def test_overload_probe_passes_clean(self):
        result = run_scenario(overload_probe(), check_determinism=False)
        assert result.ok, result.label
        # The probe genuinely saturates the lane: work was refused and
        # retried, so the admission-bound invariant saw real pressure.
        assert result.report.batches_shed > 0
        assert result.report.client_backpressure > 0

    def test_mutation_is_caught_by_admission_bound(self):
        result = run_scenario(
            overload_probe(),
            mutation="skip-admission-bound",
            check_determinism=False,
        )
        assert not result.ok
        assert result.label == "invariant:admission-bound"
