"""``BENCH_*.json``: the machine-readable benchmark documents.

Every ``benchmarks/results/BENCH_*.json`` document, and the
``BENCH_pipeline.json`` that ``repro trace`` writes, has one shape::

    {"schema": <id>, "generated_at": <UTC ISO time>, "campaign": {...},
     <rows key>: <rows>, <summary key>: {...}}

:data:`SCHEMAS` holds, per schema id, where the rows and the summary
live, which of their fields must be numbers, and the checks particular
to that schema. One builder, one validator, one writer and one loader
serve every schema; the validator dispatches on the document's
``schema``. Validation is in-repo (no jsonschema dependency), and CI
loads every committed document through :func:`load_bench`.
"""

from __future__ import annotations

import json
import pathlib
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from ..errors import ObservabilityError
from .wallclock import utc_now_iso

PathLike = Union[str, pathlib.Path]

BENCH_PIPELINE_SCHEMA = "repro.bench.pipeline/v1"
BENCH_SFM_SCHEMA = "repro.bench.sfm/v1"
BENCH_BACKEND_SCHEMA = "repro.bench.backend/v1"
BENCH_DST_SCHEMA = "repro.bench.dst/v1"
BENCH_RECOVERY_SCHEMA = "repro.bench.recovery/v1"

#: Histogram-name prefix the phase table is derived from.
PHASE_PREFIX = "repro.pipeline.phase."


def phase_rows(registry) -> Dict[str, dict]:
    """BENCH_pipeline rows: one per ``repro.pipeline.phase.*`` histogram."""
    phases: Dict[str, dict] = {}
    for name in registry.names():
        if not name.startswith(PHASE_PREFIX):
            continue
        hist = registry.get(name)
        if hist is None or not hasattr(hist, "quantile"):
            continue
        phases[name[len(PHASE_PREFIX):]] = {
            "count": hist.count,
            "total_s": round(hist.total, 9),
            "mean_s": round(hist.mean, 9),
            "p50_s": round(hist.quantile(0.5), 9),
            "max_s": round(hist.max if hist.max is not None else 0.0, 9),
        }
    return phases


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int(value) -> bool:
    return isinstance(value, int)


_METRIC_TYPES = ("counter", "gauge", "histogram")


#: Extra checks on one row or one summary: problem message -> predicate
#: that is true when the object violates it.
Checks = Dict[str, Callable[[dict], bool]]


class Schema(NamedTuple):
    """Where one schema keeps its rows and summary, and what it checks."""

    rows_key: str
    row_fields: Tuple[str, ...]
    summary_fields: Tuple[str, ...] = ()
    row_checks: Checks = {}
    summary_checks: Checks = {}
    summary_key: str = "summary"
    #: Rows form an object keyed by name, which may be empty, rather than
    #: a non-empty list.
    keyed_rows: bool = False


SCHEMAS: Dict[str, Schema] = {
    # Algorithm-1 phase timings (registration, map merge, unvisited
    # flood-fill, task generation) from the repro.pipeline.phase.*
    # histograms, keyed by phase, next to the full metrics snapshot.
    BENCH_PIPELINE_SCHEMA: Schema(
        rows_key="phases",
        row_fields=("count", "total_s", "mean_s", "p50_s", "max_s"),
        row_checks={
            "has negative count": lambda r: _number(r.get("count")) and r["count"] < 0,
        },
        summary_checks={
            "hold a metric with no valid type": lambda m: not all(
                isinstance(snap, dict) and snap.get("type") in _METRIC_TYPES
                for snap in m.values()
            ),
        },
        summary_key="metrics",
        keyed_rows=True,
    ),
    # Scratch-vs-incremental SfM registration-phase timings, one row per
    # photo batch.
    BENCH_SFM_SCHEMA: Schema(
        rows_key="batches",
        row_fields=(
            "batch", "points", "cameras", "pending",
            "scratch_ms", "incremental_ms", "speedup",
        ),
        summary_fields=(
            "late_from_batch", "late_batches", "late_scratch_ms",
            "late_incremental_ms", "late_speedup", "target_speedup",
        ),
    ),
    # SfM-lane overload sweep, one row per lane shape. workers=0 encodes
    # the infinite-server model and queue_limit=-1 an unbounded admission
    # queue (JSON has no None).
    BENCH_BACKEND_SCHEMA: Schema(
        rows_key="rows",
        row_fields=(
            "workers", "queue_limit", "sim_time_s", "tasks_completed",
            "photos_uploaded", "batches_shed", "client_backpressure",
            "queue_wait_s", "peak_queue_depth", "service_time_s",
        ),
        summary_fields=(
            "rows", "baseline_tasks_completed", "max_queue_wait_s", "total_shed",
        ),
        row_checks={
            "has negative workers": (
                lambda r: _int(r.get("workers")) and r["workers"] < 0
            ),
            "queue_limit below -1": (
                lambda r: _int(r.get("queue_limit")) and r["queue_limit"] < -1
            ),
        },
    ),
    # Serial vs sharded fuzz executor, one row per run. wall_speedup is
    # the measured serial/parallel wall ratio on the generating host;
    # critical_path_speedup (total worker busy seconds / slowest worker
    # lane) is the speedup the sharding achieves however many cores that
    # host had. The two coincide on an unloaded machine with >= jobs
    # cores, and cpu_count records which regime the document came from.
    # byte_identical asserts the serial and parallel runs produced
    # identical summaries.
    BENCH_DST_SCHEMA: Schema(
        rows_key="runs",
        row_fields=("jobs", "wall_s", "campaigns", "passed", "failed", "checks_run"),
        summary_fields=(
            "campaigns", "jobs", "cpu_count", "serial_wall_s",
            "parallel_wall_s", "wall_speedup", "total_busy_s",
            "critical_path_s", "critical_path_speedup", "target_speedup",
        ),
        row_checks={
            "mode must be 'serial' or 'parallel'": (
                lambda r: r.get("mode") not in ("serial", "parallel")
            ),
        },
        summary_checks={
            "field 'byte_identical' not a bool": (
                lambda s: not isinstance(s.get("byte_identical"), bool)
            ),
            "wall_speedup must be positive": (
                lambda s: _number(s.get("wall_speedup")) and s["wall_speedup"] <= 0
            ),
        },
    ),
    # Recovery-ladder cost, one row per forced fallback depth (the number
    # of newest generations damaged before recovery; 0 is the clean
    # path). replay_amplification is the genesis rung's replay length
    # over the newest rung's: the price, in replayed records, of falling
    # all the way down the ladder. wall_amplification is the same ratio
    # in wall seconds. digest_identical asserts every rung recovered the
    # same logical state digest, so the ladder trades replay work for
    # nothing else.
    BENCH_RECOVERY_SCHEMA: Schema(
        rows_key="rows",
        row_fields=(
            "depth", "snapshot_seq", "generations_tried", "quarantined",
            "quarantined_bytes", "replayed_records", "wall_s",
        ),
        summary_fields=(
            "generations", "wal_records", "newest_replayed_records",
            "genesis_replayed_records", "newest_wall_s", "genesis_wall_s",
            "replay_amplification", "wall_amplification",
        ),
        row_checks={
            "has negative depth": lambda r: _int(r.get("depth")) and r["depth"] < 0,
            "generations_tried != depth + 1": (
                lambda r: _int(r.get("depth"))
                and _int(r.get("generations_tried"))
                and r["generations_tried"] != r["depth"] + 1
            ),
        },
        summary_checks={
            "field 'digest_identical' not a bool": (
                lambda s: not isinstance(s.get("digest_identical"), bool)
            ),
            "replay_amplification below 1.0": (
                lambda s: _number(s.get("replay_amplification"))
                and s["replay_amplification"] < 1.0
            ),
        },
    ),
}


def bench_document(
    schema: str, rows, summary: dict, campaign: Optional[dict] = None
) -> dict:
    """Build a ``schema`` document from its rows and summary."""
    spec = SCHEMAS[schema]
    return {
        "schema": schema,
        "generated_at": utc_now_iso(),
        "campaign": dict(campaign or {}),
        spec.rows_key: rows,
        spec.summary_key: summary,
    }


def validate_bench(doc) -> List[str]:
    """Return the document's schema violations (empty == valid)."""
    if not isinstance(doc, dict):
        return ["document is not an object"]
    schema = doc.get("schema")
    spec = SCHEMAS.get(schema) if isinstance(schema, str) else None
    if spec is None:
        return [f"schema is {schema!r}, expected one of {sorted(SCHEMAS)}"]
    problems: List[str] = []
    if not isinstance(doc.get("generated_at"), str):
        problems.append("generated_at missing or not a string")
    if not isinstance(doc.get("campaign"), dict):
        problems.append("campaign missing or not an object")
    key, rows = spec.rows_key, doc.get(spec.rows_key)
    if spec.keyed_rows and isinstance(rows, dict):
        labelled = [(f"{key}[{name!r}]", row) for name, row in rows.items()]
    elif not spec.keyed_rows and isinstance(rows, list) and rows:
        labelled = [(f"{key}[{i}]", row) for i, row in enumerate(rows)]
    else:
        labelled = []
        shape = "an object" if spec.keyed_rows else "a non-empty list"
        problems.append(f"{key} missing or not {shape}")
    for label, row in labelled:
        if isinstance(row, dict):
            problems += _object_problems(label, row, spec.row_fields, spec.row_checks)
        else:
            problems.append(f"{label} is not an object")
    key, summary = spec.summary_key, doc.get(spec.summary_key)
    if isinstance(summary, dict):
        problems += _object_problems(
            key, summary, spec.summary_fields, spec.summary_checks
        )
    else:
        problems.append(f"{key} missing or not an object")
    return problems


def _object_problems(
    label: str, obj: dict, fields: Tuple[str, ...], checks: Checks
) -> List[str]:
    problems = [
        f"{label} field {field!r} not numeric"
        for field in fields
        if not _number(obj.get(field))
    ]
    return problems + [
        f"{label} {message}" for message, violated in checks.items() if violated(obj)
    ]


def _checked(doc) -> dict:
    problems = validate_bench(doc)
    if problems:
        raise ObservabilityError(
            "invalid BENCH document: " + "; ".join(problems[:10])
        )
    return doc


def write_bench(
    path: PathLike,
    schema: str,
    rows,
    summary: dict,
    campaign: Optional[dict] = None,
) -> pathlib.Path:
    """Build, validate and write a ``schema`` document to ``path``."""
    doc = _checked(bench_document(schema, rows, summary, campaign))
    path = pathlib.Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def load_bench(path: PathLike) -> dict:
    """Load the document at ``path`` and return it if it is valid."""
    return _checked(json.loads(pathlib.Path(path).read_text()))
