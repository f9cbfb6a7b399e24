"""Telemetry inertness: traced vs untraced is byte-for-byte identical.

The observability layer promises it never schedules events, never draws
RNG, and never touches simulated time. This differential pins that
promise on the full client/server deployment: two runs from the same
seed, one traced (``Telemetry.enable()``) and one with the default
untraced bundle (a capacity-0 tracer), must produce *identical*
DeploymentReports — including the event count, which would differ if
instrumentation enqueued anything — and identical sim-driven metrics.
"""

import dataclasses

import pytest

from repro.config import paper_config
from repro.eval import Workbench
from repro.obs import Telemetry
from repro.server import Deployment
from repro.testkit.digests import metrics_projection

UNTIL_S = 2000.0

#: The PR-2 deployment fingerprint (same constants as
#: tests/test_fault_tolerance.py); the obs layer must not move it.
PINNED = {
    "sim_time_s": 2000.0,
    "events_processed": 885,
    "venue_covered": False,
    "tasks_completed": 18,
    "photos_uploaded": 820,
    "total_traffic_mb": 2050.415,
    "coverage_cells": 9213,
}


def _run(telemetry):
    bench = Workbench.for_library(paper_config())
    deployment = Deployment(bench, n_clients=2, telemetry=telemetry)
    return deployment, deployment.run(until_s=UNTIL_S)


class TestTracingDifferential:
    @pytest.fixture(scope="class")
    def runs(self):
        telemetry = Telemetry.enable()
        dep_off, report_off = _run(None)
        dep_on, report_on = _run(telemetry)
        return telemetry, dep_off, report_off, dep_on, report_on

    def test_reports_identical_on_vs_off(self, runs):
        _telemetry, _dep_off, report_off, _dep_on, report_on = runs
        assert dataclasses.asdict(report_on) == dataclasses.asdict(report_off)

    def test_pinned_baseline(self, runs):
        _telemetry, _dep_off, report_off, _dep_on, _report_on = runs
        assert report_off.sim_time_s == PINNED["sim_time_s"]
        assert report_off.events_processed == PINNED["events_processed"]
        assert report_off.venue_covered == PINNED["venue_covered"]
        assert report_off.tasks_completed == PINNED["tasks_completed"]
        assert report_off.photos_uploaded == PINNED["photos_uploaded"]
        assert report_off.total_traffic_mb == pytest.approx(
            PINNED["total_traffic_mb"], abs=1e-9
        )
        assert report_off.coverage_cells == PINNED["coverage_cells"]

    def test_traced_run_actually_observed_things(self, runs):
        telemetry, _dep_off, _report_off, _dep_on, report_on = runs
        tracer = telemetry.tracer
        assert tracer.finished_count > 0
        categories = {s.category for s in tracer.spans()}
        assert {"sim.event", "net", "server", "client", "pipeline"} <= categories
        # Metrics agree with the report where they count the same thing.
        metrics = telemetry.metrics
        assert (
            metrics.get("repro.client.photos_uploaded").value
            == report_on.photos_uploaded
        )
        assert (
            metrics.get("repro.sim.events.dispatched").value
            == report_on.events_processed
        )
        assert metrics.get("repro.net.dropped").value == 0
        # Every Algorithm-1 phase histogram saw every processed batch.
        counts = {
            name: metrics.get(f"repro.pipeline.phase.{name}").count
            for name in ("registration", "map_merge", "task_gen", "total")
        }
        assert len(set(counts.values())) == 1 and counts["total"] > 0

    def test_untraced_run_records_the_same_metrics(self, runs):
        telemetry, dep_off, report_off, _dep_on, _report_on = runs
        metrics = dep_off.telemetry.metrics
        assert metrics is not telemetry.metrics
        assert dep_off.telemetry.tracer.spans() == []
        assert metrics_projection(metrics) == metrics_projection(telemetry.metrics)
        assert (
            metrics.get("repro.client.photos_uploaded").value
            == report_off.photos_uploaded
        )
        assert (
            metrics.get("repro.sim.events.dispatched").value
            == report_off.events_processed
        )
        batches = metrics.get("repro.pipeline.batches").value
        assert batches > 0
        for name in ("registration", "map_merge", "task_gen", "total"):
            assert metrics.get(f"repro.pipeline.phase.{name}").count == batches

    def test_lease_and_exchange_spans_closed(self, runs):
        telemetry, *_ = runs
        for name in ("server.task_lease", "client.upload", "client.request"):
            spans = telemetry.tracer.spans(name=name)
            assert spans, f"no {name!r} spans recorded"
            assert all(s.finished for s in spans)

    def test_exported_trace_is_schema_valid(self, runs, tmp_path):
        from repro.obs.bench import (
            BENCH_PIPELINE_SCHEMA,
            load_bench,
            phase_rows,
            write_bench,
        )
        from repro.obs.export import validate_chrome_trace, write_chrome_trace

        telemetry, *_ = runs
        import json

        path = write_chrome_trace(telemetry.tracer, tmp_path / "trace.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []
        bench_path = write_bench(
            tmp_path / "BENCH_pipeline.json",
            BENCH_PIPELINE_SCHEMA,
            phase_rows(telemetry.metrics),
            telemetry.metrics.snapshot(),
        )
        doc = load_bench(bench_path)
        assert doc["phases"]["total"]["count"] > 0
