"""Exporter schemas: Chrome trace JSON, metrics JSON, BENCH_*.json."""

import copy
import json
import pathlib

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.bench import (
    BENCH_BACKEND_SCHEMA,
    BENCH_DST_SCHEMA,
    BENCH_PIPELINE_SCHEMA,
    BENCH_RECOVERY_SCHEMA,
    BENCH_SFM_SCHEMA,
    bench_document,
    load_bench,
    phase_rows,
    validate_bench,
    write_bench,
)
from repro.obs.export import (
    METRICS_SCHEMA,
    assert_valid_chrome_trace,
    chrome_trace,
    chrome_trace_events,
    metrics_document,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.tracing import Tracer


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("server.process_batch", category="server", photos=4):
        tracer.record("net.photo-batch", 1.0, 3.5, category="net", size_mb=10.0)
    tracer.instant("pipeline.registration", category="pipeline")
    tracer.counter("repro.sim.queue.depth", 3.0)
    return tracer


class TestChromeTrace:
    def test_events_schema_valid(self):
        doc = chrome_trace(_sample_tracer())
        assert validate_chrome_trace(doc) == []
        assert_valid_chrome_trace(doc)

    def test_x_events_use_sim_microseconds(self):
        events = chrome_trace_events(_sample_tracer())
        net = [e for e in events if e["name"] == "net.photo-batch"][0]
        assert net["ph"] == "X"
        assert net["ts"] == pytest.approx(1.0e6)
        assert net["dur"] == pytest.approx(2.5e6)
        assert net["args"]["size_mb"] == 10.0
        assert "span_id" in net["args"]

    def test_zero_width_spans_widened_to_one_us(self):
        events = chrome_trace_events(_sample_tracer())
        inst = [e for e in events if e["name"] == "pipeline.registration"][0]
        assert inst["dur"] == 1.0

    def test_parent_id_exported(self):
        events = chrome_trace_events(_sample_tracer())
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        child = by_name["net.photo-batch"]
        parent = by_name["server.process_batch"]
        assert child["args"]["parent_id"] == parent["args"]["span_id"]

    def test_counter_events_and_metadata(self):
        events = chrome_trace_events(_sample_tracer())
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and counters[0]["name"] == "repro.sim.queue.depth"
        metas = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metas)
        thread_names = {
            e["args"]["name"] for e in metas if e["name"] == "thread_name"
        }
        assert {"server", "net", "pipeline"} <= thread_names

    def test_wall_ms_rides_along(self):
        events = chrome_trace_events(_sample_tracer())
        x = [e for e in events if e["ph"] == "X"][0]
        assert x["args"]["wall_ms"] >= 0.0

    def test_write_roundtrip(self, tmp_path):
        path = write_chrome_trace(_sample_tracer(), tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["spans_recorded"] == 3

    def test_validator_rejects_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": 3}) != []
        bad_phase = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1}]}
        assert validate_chrome_trace(bad_phase) != []
        no_dur = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "ts": 0.0, "args": {}}
            ]
        }
        assert validate_chrome_trace(no_dur) != []
        with pytest.raises(ObservabilityError):
            assert_valid_chrome_trace(no_dur)

    def test_non_json_attr_values_stringified(self):
        tracer = Tracer()
        tracer.record("x", 0.0, 1.0, obj=object())
        events = chrome_trace_events(tracer)
        x = [e for e in events if e["ph"] == "X"][0]
        assert isinstance(x["args"]["obj"], str)
        json.dumps(events)  # must be serialisable


class TestMetricsJson:
    def test_document_schema(self):
        reg = MetricsRegistry()
        reg.counter("repro.net.messages").inc(5)
        doc = metrics_document(reg)
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["metrics"]["repro.net.messages"]["value"] == 5

    def test_write_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.histogram("repro.client.walk_s", base=1.0).record(12.0)
        path = write_metrics_json(reg, tmp_path / "metrics.json")
        doc = json.loads(path.read_text())
        assert doc["metrics"]["repro.client.walk_s"]["count"] == 1


def _registry_with_phases() -> MetricsRegistry:
    reg = MetricsRegistry()
    for name in ("registration", "map_merge", "unvisited", "task_gen", "total"):
        h = reg.histogram(f"repro.pipeline.phase.{name}")
        h.record(0.01)
        h.record(0.03)
    reg.counter("repro.pipeline.batches").inc(2)
    return reg


def _pipeline_document(reg, campaign=None):
    return bench_document(
        BENCH_PIPELINE_SCHEMA, phase_rows(reg), reg.snapshot(), campaign
    )


class TestBenchPipelineDocument:
    def test_document_valid_and_phase_rows(self):
        doc = _pipeline_document(_registry_with_phases(), campaign={"seed": 2018})
        assert validate_bench(doc) == []
        assert doc["schema"] == BENCH_PIPELINE_SCHEMA
        assert set(doc["phases"]) == {
            "registration", "map_merge", "unvisited", "task_gen", "total",
        }
        row = doc["phases"]["registration"]
        assert row["count"] == 2
        assert row["total_s"] == pytest.approx(0.04)
        assert row["mean_s"] == pytest.approx(0.02)
        assert row["max_s"] == pytest.approx(0.03)
        assert doc["campaign"] == {"seed": 2018}

    def test_write_validates_and_roundtrips(self, tmp_path):
        reg = _registry_with_phases()
        path = write_bench(
            tmp_path / "BENCH_pipeline.json",
            BENCH_PIPELINE_SCHEMA,
            phase_rows(reg),
            reg.snapshot(),
        )
        doc = load_bench(path)
        assert doc["phases"]["total"]["count"] == 2

    def test_validator_rejects_mutations(self, tmp_path):
        doc = _pipeline_document(_registry_with_phases())
        bad = dict(doc, schema="something/else")
        assert validate_bench(bad) != []
        bad = dict(doc)
        bad["phases"] = {"registration": {"count": "two"}}
        assert validate_bench(bad) != []
        bad = dict(doc)
        del bad["generated_at"]
        assert validate_bench(bad) != []
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ObservabilityError):
            load_bench(path)

    def test_writer_refuses_an_invalid_document(self, tmp_path):
        path = tmp_path / "BENCH_sfm.json"
        with pytest.raises(ObservabilityError):
            write_bench(path, BENCH_SFM_SCHEMA, [], {})
        assert not path.exists()

    def test_empty_registry_still_valid(self):
        doc = _pipeline_document(MetricsRegistry())
        assert validate_bench(doc) == []
        assert doc["phases"] == {}


#: One valid document per BENCH schema; every rejection case below edits
#: a deep copy of one of these.
_VALID = {
    BENCH_PIPELINE_SCHEMA: {
        "schema": BENCH_PIPELINE_SCHEMA,
        "generated_at": "2026-01-01T00:00:00Z",
        "campaign": {"command": "trace"},
        "phases": {
            "registration": {
                "count": 2, "total_s": 0.04, "mean_s": 0.02,
                "p50_s": 0.02, "max_s": 0.03,
            },
        },
        "metrics": {"repro.pipeline.batches": {"type": "counter", "value": 2}},
    },
    BENCH_SFM_SCHEMA: {
        "schema": BENCH_SFM_SCHEMA,
        "generated_at": "2026-01-01T00:00:00Z",
        "campaign": {"max_tasks": 20},
        "batches": [
            {
                "batch": 1, "points": 120, "cameras": 8, "pending": 0,
                "scratch_ms": 4.5, "incremental_ms": 1.5, "speedup": 3.0,
            },
        ],
        "summary": {
            "late_from_batch": 1, "late_batches": 1, "late_scratch_ms": 4.5,
            "late_incremental_ms": 1.5, "late_speedup": 3.0,
            "target_speedup": 3.0,
        },
    },
    BENCH_BACKEND_SCHEMA: {
        "schema": BENCH_BACKEND_SCHEMA,
        "generated_at": "2026-01-01T00:00:00Z",
        "campaign": {"n_clients": 4},
        "rows": [
            {
                "workers": 0, "queue_limit": -1, "sim_time_s": 1500.0,
                "tasks_completed": 3, "photos_uploaded": 60, "batches_shed": 0,
                "client_backpressure": 0, "queue_wait_s": 0.0,
                "peak_queue_depth": 0, "service_time_s": 12.5,
            },
        ],
        "summary": {
            "rows": 1, "baseline_tasks_completed": 3,
            "max_queue_wait_s": 0.0, "total_shed": 0,
        },
    },
    BENCH_DST_SCHEMA: {
        "schema": BENCH_DST_SCHEMA,
        "generated_at": "2026-01-01T00:00:00Z",
        "campaign": {"master_seed": 2},
        "runs": [
            {
                "mode": "serial", "jobs": 1, "wall_s": 10.0, "campaigns": 6,
                "passed": 6, "failed": 0, "checks_run": 120,
            },
            {
                "mode": "parallel", "jobs": 2, "wall_s": 14.0, "campaigns": 6,
                "passed": 6, "failed": 0, "checks_run": 120,
            },
        ],
        "summary": {
            "campaigns": 6, "jobs": 2, "cpu_count": 1, "serial_wall_s": 10.0,
            "parallel_wall_s": 14.0, "wall_speedup": 0.71, "total_busy_s": 9.0,
            "critical_path_s": 5.0, "critical_path_speedup": 1.8,
            "target_speedup": 2.5, "byte_identical": True,
        },
    },
    BENCH_RECOVERY_SCHEMA: {
        "schema": BENCH_RECOVERY_SCHEMA,
        "generated_at": "2026-01-01T00:00:00Z",
        "campaign": {"seed": 7},
        "rows": [
            {
                "depth": 0, "snapshot_seq": 3, "generations_tried": 1,
                "quarantined": 0, "quarantined_bytes": 0,
                "replayed_records": 4, "wall_s": 0.5,
            },
            {
                "depth": 1, "snapshot_seq": 0, "generations_tried": 2,
                "quarantined": 1, "quarantined_bytes": 512,
                "replayed_records": 30, "wall_s": 0.9,
            },
        ],
        "summary": {
            "generations": 2, "wal_records": 30, "newest_replayed_records": 4,
            "genesis_replayed_records": 30, "newest_wall_s": 0.5,
            "genesis_wall_s": 0.9, "replay_amplification": 7.5,
            "wall_amplification": 1.8, "digest_identical": True,
        },
    },
}

#: Where each schema keeps its rows, the key of its first row, and the
#: object its numeric summary fields live in.
_ROWS = {
    BENCH_PIPELINE_SCHEMA: ("phases", "registration", "metrics"),
    BENCH_SFM_SCHEMA: ("batches", 0, "summary"),
    BENCH_BACKEND_SCHEMA: ("rows", 0, "summary"),
    BENCH_DST_SCHEMA: ("runs", 0, "summary"),
    BENCH_RECOVERY_SCHEMA: ("rows", 0, "summary"),
}

_MISSING = object()


def _numeric_fields(obj):
    return [
        key for key, value in obj.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]


def _rejections(schema):
    """(case id, edits) pairs that must each make the document invalid.

    An edit is a (key path, value) pair; ``_MISSING`` deletes the key and
    the empty path replaces the whole document.
    """
    doc = _VALID[schema]
    rows, first, summary = _ROWS[schema]
    wrong_rows_type = [] if isinstance(doc[rows], dict) else {}
    cases = [
        ("not-an-object", [((), [])]),
        ("wrong-schema-id", [(("schema",), "repro.bench.unknown/v1")]),
        ("unhashable-schema-id", [(("schema",), ["repro.bench"])]),
        ("generated_at-missing", [(("generated_at",), _MISSING)]),
        ("generated_at-not-string", [(("generated_at",), 20260101)]),
        ("campaign-missing", [(("campaign",), _MISSING)]),
        ("campaign-not-object", [(("campaign",), [])]),
        (f"{rows}-missing", [((rows,), _MISSING)]),
        (f"{rows}-wrong-type", [((rows,), wrong_rows_type)]),
        ("row-not-object", [((rows, first), 3)]),
        (f"{summary}-missing", [((summary,), _MISSING)]),
        (f"{summary}-not-object", [((summary,), [])]),
    ]
    if isinstance(doc[rows], list):
        cases.append((f"{rows}-empty", [((rows,), [])]))
    for where, obj in (((rows, first), doc[rows][first]), ((summary,), doc[summary])):
        for field in _numeric_fields(obj):
            path = where + (field,)
            cases += [
                (f"{field}-missing", [(path, _MISSING)]),
                (f"{field}-string", [(path, "1")]),
                (f"{field}-bool", [(path, True)]),
            ]
    metric = ("metrics", "repro.pipeline.batches")
    cases += {
        BENCH_PIPELINE_SCHEMA: [
            ("negative-phase-count", [((rows, first, "count"), -1)]),
            ("metric-bad-type", [(metric + ("type",), "timer")]),
            ("metric-not-object", [(metric, 2)]),
        ],
        BENCH_SFM_SCHEMA: [],
        BENCH_BACKEND_SCHEMA: [
            ("negative-workers", [((rows, first, "workers"), -1)]),
            ("queue_limit-below-minus-one", [((rows, first, "queue_limit"), -2)]),
        ],
        BENCH_DST_SCHEMA: [
            ("mode-unknown", [((rows, first, "mode"), "threaded")]),
            ("mode-missing", [((rows, first, "mode"), _MISSING)]),
            ("byte_identical-not-bool", [(("summary", "byte_identical"), 1)]),
            ("byte_identical-missing", [(("summary", "byte_identical"), _MISSING)]),
            ("wall_speedup-zero", [(("summary", "wall_speedup"), 0)]),
            ("wall_speedup-negative", [(("summary", "wall_speedup"), -0.5)]),
        ],
        BENCH_RECOVERY_SCHEMA: [
            (
                "negative-depth",
                [((rows, first, "depth"), -1), ((rows, first, "generations_tried"), 0)],
            ),
            ("tried-not-depth-plus-one", [((rows, 1, "generations_tried"), 3)]),
            ("digest_identical-not-bool", [(("summary", "digest_identical"), "yes")]),
            ("digest_identical-missing", [(("summary", "digest_identical"), _MISSING)]),
            ("amplification-below-one", [(("summary", "replay_amplification"), 0.99)]),
        ],
    }[schema]
    return cases


def _edited(schema, edits):
    doc = copy.deepcopy(_VALID[schema])
    for path, value in edits:
        if not path:
            doc = value
            continue
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is _MISSING:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    return doc


def _kind(schema):
    return schema.split(".")[-1].split("/")[0]


#: Edits that leave a document valid: bounds met exactly, empty keyed
#: rows, fields the schema does not know.
_ACCEPTED = [
    (BENCH_PIPELINE_SCHEMA, "empty-phases", [(("phases",), {})]),
    (BENCH_PIPELINE_SCHEMA, "empty-metrics", [(("metrics",), {})]),
    (BENCH_BACKEND_SCHEMA, "unbounded-lane", [(("rows", 0, "queue_limit"), -1)]),
    (
        BENCH_RECOVERY_SCHEMA,
        "replay_amplification-one",
        [(("summary", "replay_amplification"), 1.0)],
    ),
    (BENCH_DST_SCHEMA, "extra-summary-field", [(("summary", "note"), "1-core host")]),
] + [(schema, "valid", []) for schema in _VALID]


class TestBenchValidatorCases:
    @pytest.mark.parametrize(
        "schema,edits",
        [
            pytest.param(schema, edits, id=f"{_kind(schema)}-{name}")
            for schema, name, edits in _ACCEPTED
        ],
    )
    def test_accepts(self, schema, edits):
        assert validate_bench(_edited(schema, edits)) == []

    @pytest.mark.parametrize(
        "schema,edits",
        [
            pytest.param(schema, edits, id=f"{_kind(schema)}-{name}")
            for schema in _VALID
            for name, edits in _rejections(schema)
        ],
    )
    def test_rejects(self, schema, edits):
        assert validate_bench(_edited(schema, edits)) != []

    @pytest.mark.parametrize("schema", sorted(_VALID), ids=_kind)
    def test_committed_document_loads(self, schema):
        results = pathlib.Path(__file__).parents[1] / "benchmarks" / "results"
        doc = load_bench(results / f"BENCH_{_kind(schema)}.json")
        assert doc["schema"] == schema


class TestTelemetryBundle:
    def test_default_bundles_are_fresh(self):
        a = Telemetry()
        b = Telemetry()
        assert a.tracer is not b.tracer
        assert a.metrics is not b.metrics
        assert a.tracer.capacity == 0
        a.metrics.counter("repro.t.c").inc()
        assert b.metrics.names() == []

    def test_enable_builds_live_pair(self):
        t = Telemetry.enable(span_capacity=16)
        assert t.tracer.capacity == 16
        assert isinstance(t.metrics, MetricsRegistry)
