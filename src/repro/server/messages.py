"""Wire messages between the mobile client and the backend server.

The SnapTask deployment is a distributed system (Sec. III): the client
requests tasks, streams photo batches up, and receives task assignments
and navigation data down. These dataclasses are the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..camera.photo import Photo
from ..core.tasks import Task
from ..geometry import Vec2


@dataclass(frozen=True)
class TaskRequest:
    """Client asks for work.

    ``request_id`` makes the exchange idempotent: a retransmitted or
    network-duplicated request with the same id is answered with the
    original assignment instead of leaking a second task lease. Every
    request carries one; the client mints a fresh id per exchange and
    reuses it on retransmission.
    """

    client_id: str
    request_id: str
    position: Optional[Vec2] = None


@dataclass(frozen=True)
class TaskAssignment:
    """Server assigns a task (or signals completion with task=None).

    Assignments are *leases*: ``lease_expires_at`` is the simulated time
    at which the backend reaps the assignment and requeues the task if
    the photos have not arrived. ``request_id`` echoes the request so the
    client can discard stale or duplicated responses.

    ``processing_s_per_photo`` is the server's expected per-photo SfM
    service time — the client derives its upload RTO floor from it
    instead of importing backend internals. ``retry_after_s`` is set on
    empty assignments when the processing lane is saturated: a hint for
    when re-polling is worthwhile.
    """

    client_id: str
    task: Optional[Task]
    request_id: str
    venue_covered: bool = False
    lease_expires_at: Optional[float] = None
    processing_s_per_photo: Optional[float] = None
    retry_after_s: Optional[float] = None


@dataclass(frozen=True)
class PhotoBatch:
    """Client streams captured photos for one task.

    ``batch_id`` identifies the *logical* batch across retransmissions:
    the backend keeps a dedup ledger keyed on it, so a duplicated or
    retried upload is processed exactly once (and re-ACKed from the
    ledger). Every batch carries one.
    """

    client_id: str
    task_id: Optional[int]
    photos: Tuple[Photo, ...]
    batch_id: str


@dataclass(frozen=True)
class ProcessingResult:
    """Server reports the outcome of one processed batch.

    Doubles as the upload ACK: ``batch_id`` echoes the batch so the
    client can cancel its retransmission timer. ``error`` is set instead
    of raising when a remote client's upload is malformed — a bad upload
    must never crash the event loop.

    ``retry_after_s`` marks a *backpressure* reply: the admission queue
    was full, the batch was shed unprocessed, and the client should
    retransmit no sooner than the hint. Shed replies are not verdicts —
    they are never ledgered or logged, and the batch id stays live for
    the eventual real processing.
    """

    client_id: str
    task_id: Optional[int]
    photos_added: bool
    coverage_cells: int
    venue_covered: bool
    batch_id: str
    error: Optional[str] = None
    retry_after_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None
