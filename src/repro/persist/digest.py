"""Logical digest of a backend's durable state (recovery audits, seals).

Recovery must be *idempotent*: running latest-snapshot + WAL-replay
twice from the same media must yield the same backend. The audit pins
that with a digest over the recovered state's observable content — the
task ledger, dedup ledgers, result log, pipeline progress, localizer
counter — everything ``export_state()`` persists, projected onto
primitives and hashed as canonical JSON.

The same projection doubles as the snapshot *seal*: at checkpoint time
the snapshotter canonicalises the captured state dict and frames it
(CRC-protected, see :mod:`repro.persist.codec`); at recovery time the
ladder recomputes the projection from the stored object graph and
compares it byte-for-byte against the seal body, catching both media
damage (flips, truncation — already caught by the frame CRC) and
object-graph tampering that the frame alone cannot see.

Telemetry handles are excluded by construction (they are process
scoped, not state), as is anything keyed on live event tokens. Floats
travel as ``repr`` (exact round-trip); ``testkit.digests`` hashes run
outputs with the same ``_canonical`` encoding.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

__all__ = [
    "canonical_state_bytes",
    "digest_of_state",
    "projection_of_state",
    "state_projection",
    "state_digest",
]


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=repr)


def projection_of_state(state: Dict[str, object]) -> Dict[str, object]:
    """Primitive projection of an ``export_state()``-shaped dict.

    Works on the captured state graph directly so snapshot images can be
    digested without a live server (seal verification during recovery).
    """
    store = state["_store"]
    pipeline = state["_pipeline"]
    cloud = pipeline.model().cloud
    feature_ids = sorted(int(fid) for fid in cloud.feature_ids)
    localizer = state["_localizer"]
    return {
        "store": store.digest_view(),
        "task_queue": [t.task_id for t in state["_task_queue"]],
        "result_log": [repr(r) for r in state["_result_log"]],
        "request_ledger": {
            rid: repr(a) for rid, a in sorted(state["_request_ledger"].items())
        },
        "batch_ledger": {
            bid: repr(r) for bid, r in state["_batch_ledger"].items()
        },
        "inflight": {
            str(tid): n for tid, n in sorted(state["_inflight_batches"].items())
        },
        "admit_watermark": state["_admit_watermark"],
        "service_order": list(state["_service_order"]),
        "queue_wait_total": repr(state["_queue_wait_total"]),
        "peak_queue_depth": state["_peak_queue_depth"],
        "service_time_total": repr(state["_service_time_total"]),
        "gc_queue": [
            [repr(due), list(rids), list(bids)]
            for due, rids, bids in state["_gc_queue"]
        ],
        "rids_by_task": {
            str(tid): list(rids)
            for tid, rids in sorted(state["_rids_by_task"].items())
        },
        "bids_by_task": {
            str(tid): list(bids)
            for tid, bids in sorted(state["_bids_by_task"].items())
        },
        "pipeline": {
            "iteration": pipeline.iteration,
            "coverage_cells": pipeline.coverage_cells,
            "venue_covered": pipeline.venue_covered,
            "cloud_points": len(feature_ids),
            "cloud_ids_sha": hashlib.sha256(
                ",".join(map(str, feature_ids)).encode("ascii")
            ).hexdigest(),
        },
        "localizer_queries": (
            localizer.query_count if localizer is not None else None
        ),
        "protocol": repr(state["_protocol"]),
        "backend": repr(state["_backend"]),
    }


def canonical_state_bytes(state: Dict[str, object]) -> bytes:
    """Canonical-JSON encoding of the state projection (seal body)."""
    return _canonical(projection_of_state(state)).encode("utf-8")


def digest_of_state(state: Dict[str, object]) -> str:
    """SHA-256 of a state dict's canonical projection."""
    return hashlib.sha256(canonical_state_bytes(state)).hexdigest()


def state_projection(server) -> Dict[str, object]:
    """Primitive projection of every persisted backend field."""
    return projection_of_state(server.export_state())


def state_digest(server) -> str:
    """SHA-256 of the canonical state projection."""
    return hashlib.sha256(
        _canonical(state_projection(server)).encode("utf-8")
    ).hexdigest()
