"""Deterministic digests of a deployment run's observable outputs.

The end-of-run determinism invariant needs "same seed twice -> the same
run" to be checkable cheaply and explainably. These helpers project the
three run outputs — :class:`DeploymentReport`, the metrics registry and
the span trace — onto their *simulation-deterministic* content (wall-
clock measurements are observability about the host, not the run, and
are excluded) and hash the canonical JSON encoding.

``diff_projections`` pinpoints the first diverging entry, so a
determinism failure names the leaking subsystem instead of just two
hashes that differ.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Tuple

from ..persist.digest import _canonical

#: Metric-name prefixes measuring host wall time (nondeterministic by
#: design); everything else in the registry is simulation-driven.
WALL_METRIC_PREFIXES: Tuple[str, ...] = (
    "repro.pipeline.phase.",
    "repro.persist.wall.",
)

#: Span attribute keys carrying wall-clock measurements.
_WALL_ATTR_MARKER = "wall"


def _digest(doc) -> str:
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()


def report_projection(report) -> Dict:
    """The full DeploymentReport as an exact, ordered field map."""
    return {
        field.name: repr(getattr(report, field.name))
        for field in dataclasses.fields(report)
    }


def metrics_projection(registry) -> Dict[str, dict]:
    """Registry snapshot minus wall-clock metrics (sim-deterministic)."""
    return {
        name: snap
        for name, snap in registry.snapshot().items()
        if not any(name.startswith(p) for p in WALL_METRIC_PREFIXES)
    }


def trace_projection(tracer) -> List[list]:
    """Finished spans as (name, category, sim interval, parent, attrs).

    Wall-time span fields and any ``*wall*`` attribute are dropped;
    span/parent ids are kept (they are sequence-derived, deterministic).
    """
    rows: List[list] = []
    for span in tracer.spans():
        attrs = {
            k: span.attrs[k]
            for k in sorted(span.attrs)
            if _WALL_ATTR_MARKER not in k
        }
        rows.append(
            [
                span.name,
                span.category,
                repr(span.start_sim_s),
                repr(span.end_sim_s),
                span.span_id,
                span.parent_id,
                attrs,
            ]
        )
    rows.append(["__dropped__", tracer.dropped_spans])
    return rows


def run_digests(report, telemetry) -> Dict[str, str]:
    """The three output digests of one instrumented run."""
    return {
        "report": _digest(report_projection(report)),
        "metrics": _digest(metrics_projection(telemetry.metrics)),
        "trace": _digest(trace_projection(telemetry.tracer)),
    }


def diff_projections(a, b, limit: int = 3) -> Optional[str]:
    """Human-readable first divergences between two projections.

    Returns ``None`` when equal. Works on the dict/list shapes the
    projection helpers emit.
    """
    diffs: List[str] = []

    def walk(path: str, x, y) -> None:
        if len(diffs) >= limit:
            return
        if type(x) is not type(y):
            diffs.append(f"{path}: type {type(x).__name__} != {type(y).__name__}")
            return
        if isinstance(x, dict):
            for key in sorted(set(x) | set(y)):
                if key not in x:
                    diffs.append(f"{path}.{key}: only in second")
                elif key not in y:
                    diffs.append(f"{path}.{key}: only in first")
                else:
                    walk(f"{path}.{key}", x[key], y[key])
                if len(diffs) >= limit:
                    return
        elif isinstance(x, (list, tuple)):
            if len(x) != len(y):
                diffs.append(f"{path}: length {len(x)} != {len(y)}")
            for i, (xi, yi) in enumerate(zip(x, y)):
                walk(f"{path}[{i}]", xi, yi)
                if len(diffs) >= limit:
                    return
        elif x != y:
            diffs.append(f"{path}: {x!r} != {y!r}")

    walk("$", a, b)
    return "; ".join(diffs) if diffs else None
