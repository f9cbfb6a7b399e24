"""WAL record types: one frozen dataclass per logged commit point.

The write-ahead log is a *command log*: each record captures the inputs
of one state-mutating backend handler invocation at its commit point,
plus the sim-time it ran at. Recovery replays records by re-invoking the
real handlers with a pinned replay clock, so there is exactly one code
path that mutates backend state — the handlers themselves — and the
recovered state cannot drift from what a crash-free run would hold.

Records carry only primitives (str/int/float/bytes/None) so the codec
round-trips them exactly; photo payloads travel as an opaque pickled
blob (``BatchRecord.photos_blob``) because photos are the one input the
backend cannot re-derive.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple, Type

__all__ = [
    "GrantRecord",
    "AdmitRecord",
    "BatchRecord",
    "EmptyBatchRecord",
    "ReapRecord",
    "LocateRecord",
    "RECORD_KINDS",
    "record_kind",
]


@dataclass(frozen=True)
class GrantRecord:
    """One ``handle_task_request`` arrival (grants *and* dedupes).

    Every invocation is logged — including retransmissions answered from
    the request ledger — so replay reproduces the ledger, the GC queue
    and the dedupe counters exactly.
    """

    t: float
    client_id: str
    request_id: str
    position_x: Optional[float]
    position_y: Optional[float]


@dataclass(frozen=True)
class AdmitRecord:
    """A photo batch was admitted to the SfM lane (ledgered, in flight).

    Replay restores the in-flight bookkeeping — the ``None`` ledger
    entry and the per-task in-flight count — so a later ``ReapRecord``
    replays as the same *deferral* it was live, and the admission-seq
    watermark resumes strictly above every seq ever issued. Batches
    still in flight at the crash are dropped after replay (their
    ``BatchRecord`` never committed); clients retransmit them.
    """

    t: float
    batch_id: str
    task_id: Optional[int]
    seq: Optional[int]


@dataclass(frozen=True)
class BatchRecord:
    """A photo batch *committed* (``_process`` ran to completion).

    ``photos_blob`` is the pickled photo tuple; ``seq``/``wait_s``/
    ``service_s`` reproduce the bounded-lane accounting for the batch
    (``None`` under the infinite-server model).
    """

    arrived_t: float
    done_t: float
    client_id: str
    task_id: Optional[int]
    batch_id: str
    photos_blob: bytes
    seq: Optional[int]
    wait_s: Optional[float]
    service_s: Optional[float]


@dataclass(frozen=True)
class EmptyBatchRecord:
    """An empty batch committed synchronously in ``handle_photo_batch``."""

    t: float
    client_id: str
    task_id: Optional[int]
    batch_id: str


@dataclass(frozen=True)
class ReapRecord:
    """The lease reaper fired for ``task_id`` (expiry *or* deferral).

    Replay re-invokes ``_reap_lease`` at the pinned time; whether that
    expires the lease or defers on in-flight uploads is decided by the
    recovered state, exactly as it was live.
    """

    t: float
    task_id: int


@dataclass(frozen=True)
class LocateRecord:
    """A localization query advanced the localizer's query counter.

    The localizer's error draws are keyed by absolute query count (its
    RNG never advances state), so the absolute count is the whole
    durable state — which also makes this record idempotent.
    """

    t: float
    query_count: int


#: kind-tag -> record class; the codec's dispatch table. Tags are part
#: of the on-disk format: never reuse or renumber, only append.
RECORD_KINDS: Dict[str, Type] = {
    "grant": GrantRecord,
    "admit": AdmitRecord,
    "batch": BatchRecord,
    "empty": EmptyBatchRecord,
    "reap": ReapRecord,
    "locate": LocateRecord,
}

_KIND_BY_CLASS = {cls: kind for kind, cls in RECORD_KINDS.items()}


def record_kind(record: object) -> str:
    """The wire kind-tag for a record instance."""
    try:
        return _KIND_BY_CLASS[type(record)]
    except KeyError:
        raise TypeError(f"not a WAL record: {type(record).__name__}") from None


def record_fields(cls: Type) -> Tuple[str, ...]:
    """Field names of a record class, in declaration order."""
    return tuple(f.name for f in fields(cls))
