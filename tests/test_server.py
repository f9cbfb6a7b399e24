"""Tests for the client/server deployment layer."""

import pytest

from repro.camera import GALAXY_S7
from repro.core import TaskFactory
from repro.errors import ProtocolError
from repro.geometry import Vec2
from repro.server import (
    BackendServer,
    BackendStore,
    Deployment,
    PhotoBatch,
    TaskAssignment,
    TaskRequest,
)
from repro.simkit import Simulator


class TestBackendStore:
    def test_task_ledger(self):
        store = BackendStore("venue")
        task = TaskFactory().photo_task(Vec2(1, 1), 1)
        store.record_task(task)
        assigned = store.assign_task(task.task_id, "client-0")
        assert store.assignee_of(task.task_id) == "client-0"
        with pytest.raises(ProtocolError):
            store.assign_task(task.task_id, "client-1")  # already assigned
        done = store.complete_task(task.task_id)
        assert done.status.value == "completed"
        assert store.tasks_by_status() == {"completed": 1}

    def test_unknown_task_rejected(self):
        store = BackendStore("venue")
        with pytest.raises(ProtocolError):
            store.task(42)
        with pytest.raises(ProtocolError):
            store.assign_task(42, "x")

    def test_counters(self):
        store = BackendStore("venue")
        assert store.counter("photos") == 0
        store.bump("photos", 5)
        store.bump("photos")
        assert store.counter("photos") == 6


class TestBackendServer:
    def make_server(self, bench):
        sim = Simulator()
        pipeline = bench.make_pipeline()
        return sim, pipeline, BackendServer(pipeline, sim, "venue")

    def test_task_request_empty_queue(self, bench):
        _sim, _pipeline, server = self.make_server(bench)
        assignment = server.handle_task_request(TaskRequest("c0", request_id="c0:r1"))
        assert assignment.task is None
        assert not assignment.venue_covered

    def test_batch_processing_creates_tasks(self, bench):
        sim, pipeline, server = self.make_server(bench)
        photos = tuple(bench.capture.sweep(Vec2(3, 3), GALAXY_S7, 8.0, blur=0.0))
        results = []
        server.handle_photo_batch(
            PhotoBatch("c0", None, photos, batch_id="c0:b1"), on_done=results.append
        )
        assert pipeline.iteration == 0  # processing is queued, not immediate
        sim.run()
        assert pipeline.iteration == 1
        assert results and results[0].photos_added
        # Growth queued a follow-up task for the next requester.
        assignment = server.handle_task_request(TaskRequest("c1", request_id="c1:r1"))
        assert assignment.task is not None
        assert server.store.assignee_of(assignment.task.task_id) == "c1"

    def test_empty_batch_rejected(self, bench):
        # An empty upload gets a failure reply instead of a server-side
        # exception: crashing the handler would take the backend down for
        # every other connected client.
        _sim, _pipeline, server = self.make_server(bench)
        results = []
        server.handle_photo_batch(
            PhotoBatch("c0", None, (), batch_id="c0:b1"), on_done=results.append
        )
        assert len(results) == 1
        assert not results[0].ok
        assert not results[0].photos_added
        assert results[0].error == "empty photo batch upload"

    def test_processing_time_scales_with_batch(self, bench):
        sim, _pipeline, server = self.make_server(bench)
        photos = tuple(bench.capture.sweep(Vec2(3, 3), GALAXY_S7, 8.0, blur=0.0))
        server.handle_photo_batch(PhotoBatch("c0", None, photos, batch_id="c0:b1"))
        sim.run()
        from repro.server import PROCESSING_S_PER_PHOTO

        assert sim.now == pytest.approx(PROCESSING_S_PER_PHOTO * len(photos))


class TestDeployment:
    def test_short_deployment_run(self, bench):
        deployment = Deployment(bench, n_clients=2)
        report = deployment.run(until_s=3000.0)
        assert report.tasks_completed >= 1
        assert report.photos_uploaded >= 45
        assert report.total_traffic_mb > 0
        assert report.coverage_cells > 0
        assert report.events_processed > 10

    def test_deployment_deterministic(self):
        from repro.eval import Workbench

        a = Deployment(Workbench.for_library(), n_clients=2).run(until_s=2000.0)
        b = Deployment(Workbench.for_library(), n_clients=2).run(until_s=2000.0)
        assert a.photos_uploaded == b.photos_uploaded
        assert a.coverage_cells == b.coverage_cells
        assert a.events_processed == b.events_processed
