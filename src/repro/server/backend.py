"""The backend server: SnapTask's cloud side over the simulated network.

Wraps a :class:`SnapTaskPipeline` behind the message protocol: it hands
out tasks from its queue, processes uploaded photo batches with
Algorithm 1 as they arrive, and answers localization queries against
the current model. The pipeline holds the current model and maps.

Fault tolerance (this layer's contract with unreliable clients):

* **Task leases** — every assignment expires after
  ``ProtocolConfig.lease_duration_s`` of simulated time. The reaper
  requeues expired tasks, so a participant who wanders off mid-task
  (Sec. III runs on real volunteers) costs latency, never coverage. In a
  discrete-event simulation the periodic reaper degenerates to one exact
  event per lease expiry, cancelled early when the upload lands.
* **Idempotent exchanges** — task requests and photo batches carry ids;
  duplicated or retransmitted messages are answered from dedup ledgers
  instead of double-assigning tasks or double-processing batches.
* **Failure replies, not crashes** — a malformed remote upload yields a
  failure :class:`ProcessingResult`; only successful batches complete
  their task, failed attempts release the lease (feeding the paper's
  TT-attempt annotation escalation, Sec. IV).
* **Bounded SfM lane** — processing capacity is explicit: a
  :class:`~repro.config.BackendConfig` worker pool serves batches FIFO
  from an admission queue (completion = queue wait + deterministic
  service time). A bounded queue sheds overflow with a ``retry_after_s``
  hint instead of queueing without limit; ``sfm_workers=None`` keeps the
  legacy infinite-server model byte-for-byte.
* **Bounded ledgers** — dedup entries are evicted ``LEDGER_RETENTION_S``
  after their owning task turns terminal. Inside that window every
  duplicate is answered from the ledger with the recorded result; the
  window outlasts the clients' longest retransmission span.
* **Durability hooks** — when a :mod:`repro.persist` log is attached,
  every state-mutating handler outcome is appended to the WAL at its
  commit point, and :meth:`replay_record` re-applies records during
  recovery with a pinned replay clock (``_now``). A crashed server is
  *fenced*: its still-scheduled events become no-ops so they cannot act
  on (or ghost-ACK against) post-recovery state.
"""

from __future__ import annotations

import bisect
import pickle
from collections import deque
from dataclasses import replace
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..annotation.processor import AnnotationProcessor
from ..config import BackendConfig, ProtocolConfig
from ..core.pipeline import SnapTaskPipeline
from ..core.tasks import Task, TaskKind, TaskStatus
from ..errors import BackendUnavailableError, PersistenceError, ProtocolError
from ..geometry import Vec2
from ..nav.localization import ImageLocalizer, PositionFix
from ..persist.records import (
    AdmitRecord,
    BatchRecord,
    EmptyBatchRecord,
    GrantRecord,
    LocateRecord,
    ReapRecord,
)
from ..simkit.events import EventToken, Simulator
from .messages import PhotoBatch, ProcessingResult, TaskAssignment, TaskRequest
from .storage import BackendStore

#: Simulated server-side processing time per uploaded photo (SfM is the
#: paper's acknowledged bottleneck, Sec. II-A).
PROCESSING_S_PER_PHOTO = 0.35

#: How long the dedup ledgers keep an entry after its owning task turns
#: terminal (simulated seconds). A duplicate request or batch arriving
#: inside the window is answered with the recorded reply. The window is
#: about three times the clients' longest retransmission span (~786 s
#: for a 45-photo upload under the default ``ProtocolConfig``).
LEDGER_RETENTION_S = 2400.0

#: Backend state captured by durability snapshots (deep-copied as one
#: graph so shared objects — e.g. Task instances living in both the
#: dispatch queue and the store — stay shared in the copy). Live lane
#: scheduling (``_sfm_queue``/``_busy_until``), reap timers and open
#: spans are deliberately absent: in-flight work dies with the crash and
#: timers are re-armed from store leases on recovery.
PERSISTED_FIELDS = (
    "_pipeline",
    "_store",
    "_localizer",
    "_annotation",
    "_protocol",
    "_backend",
    "_task_queue",
    "_result_log",
    "_request_ledger",
    "_batch_ledger",
    "_inflight_batches",
    "_admit_watermark",
    "_service_order",
    "_queue_wait_total",
    "_peak_queue_depth",
    "_service_time_total",
    "_gc_queue",
    "_rids_by_task",
    "_bids_by_task",
)


class BackendServer:
    """Single-venue SnapTask backend."""

    def __init__(
        self,
        pipeline: SnapTaskPipeline,
        simulator: Simulator,
        venue_id: str,
        localizer: Optional[ImageLocalizer] = None,
        annotation_processor: Optional[AnnotationProcessor] = None,
        protocol: Optional[ProtocolConfig] = None,
        backend: Optional[BackendConfig] = None,
    ):
        self._pipeline = pipeline
        self._sim = simulator
        self._store = BackendStore(venue_id)
        self._localizer = localizer
        self._annotation = annotation_processor
        self._protocol = protocol if protocol is not None else ProtocolConfig()
        self._backend = backend if backend is not None else BackendConfig()
        self._backend.validate()
        self._task_queue: Deque[Task] = deque()
        self._result_log: List[ProcessingResult] = []
        #: request_id -> assignment already granted (idempotent requests).
        self._request_ledger: Dict[str, TaskAssignment] = {}
        #: batch_id -> result (None while the batch is still processing).
        self._batch_ledger: Dict[str, Optional[ProcessingResult]] = {}
        #: task_id -> pending lease-expiry event.
        self._lease_reaps: Dict[int, EventToken] = {}
        #: task_id -> number of uploaded batches currently in simulated
        #: SfM processing. A lease whose task has an in-flight batch is
        #: *not* reaped: the photos arrived inside the lease window, so
        #: the upload outcome (complete / fail), not the reaper, resolves
        #: the assignment. This also pins the expiry==completion tie —
        #: the reap event dispatches first (FIFO at equal timestamps) but
        #: defers to the in-flight upload deterministically.
        self._inflight_batches: Dict[int, int] = {}
        # -- SfM processing lane (bounded worker pool + admission queue) --
        #: Parallel workers; ``None`` keeps the infinite-server model.
        self._workers = self._backend.sfm_workers
        self._queue_limit = self._backend.queue_limit
        #: Admitted batches waiting for a worker, FIFO.
        self._sfm_queue: Deque[tuple] = deque()
        #: Service-completion times of the currently busy workers.
        self._busy_until: List[float] = []
        #: Highest admission seq ever issued (next admit gets +1). A plain
        #: int so snapshots capture it and recovery resumes *strictly
        #: above* every seq a pre-crash batch may have carried — the FIFO
        #: service-order audit must keep seeing increasing seqs.
        self._admit_watermark = 0
        #: Admission sequence numbers in service-start order (FIFO audit).
        self._service_order: List[int] = []
        self._queue_wait_total = 0.0
        self._peak_queue_depth = 0
        self._service_time_total = 0.0
        # -- ledger garbage collection (bounded dedup memory) --
        #: (evict_at, request_ids, batch_ids), evict_at non-decreasing.
        self._gc_queue: Deque[Tuple[float, tuple, tuple]] = deque()
        self._rids_by_task: Dict[int, List[str]] = {}
        self._bids_by_task: Dict[int, List[str]] = {}
        # -- durability (repro.persist; all dormant when detached) --
        #: Attached persistence log (WAL + snapshotter), or None.
        self._persist = None
        #: Pinned replay clock during recovery (None = live sim time).
        self._replay_now: Optional[float] = None
        #: True once this instance crashed: every still-scheduled event
        #: belonging to it must become a no-op (a recovered twin owns the
        #: state now).
        self._fenced = False
        # Telemetry (shared with everything on this event loop).
        obs = simulator.telemetry
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._m_requests = metrics.counter("repro.server.task_requests")
        self._m_requests_deduped = metrics.counter("repro.server.requests_deduped")
        self._m_batches = metrics.counter("repro.server.photo_batches")
        self._m_batches_deduped = metrics.counter("repro.server.batches_deduped")
        self._m_empty_rejected = metrics.counter("repro.server.empty_batches_rejected")
        self._m_leases_granted = metrics.counter("repro.server.leases_granted")
        self._m_leases_expired = metrics.counter("repro.server.leases_expired")
        self._m_tasks_requeued = metrics.counter("repro.server.tasks_requeued")
        self._h_process = metrics.histogram(
            "repro.server.process_batch_s", base=0.1, growth=2.0
        )
        self._g_queue = metrics.gauge("repro.server.task_queue_depth")
        self._m_shed = metrics.counter("repro.server.batches_shed")
        self._h_queue_wait = metrics.histogram(
            "repro.server.sfm_queue_wait_s", base=0.1, growth=2.0
        )
        self._h_service = metrics.histogram(
            "repro.server.sfm_service_s", base=0.1, growth=2.0
        )
        self._g_sfm_queue = metrics.gauge("repro.server.sfm_queue_depth")
        self._g_sfm_busy = metrics.gauge("repro.server.sfm_busy_workers")
        #: task_id -> open lease span (request -> upload ACK / expiry).
        self._lease_spans: Dict[int, object] = {}

    def _now(self) -> float:
        """Handler-visible time: live sim time, or the pinned replay time.

        WAL replay re-invokes the real handlers after a restart, when the
        simulator clock has already advanced past the recorded commit
        times; pinning the clock makes replayed mutations (lease expiry
        times, GC deadlines) identical to the live run's.
        """
        return self._replay_now if self._replay_now is not None else self._sim.now

    # -- durability hooks (repro.persist) --------------------------------------------

    @property
    def persistence(self):
        """The attached persistence log, or None."""
        return self._persist

    def attach_persistence(self, log) -> None:
        """Attach a :class:`repro.persist.host.PersistenceLog` (WAL hook)."""
        self._persist = log

    def export_state(self) -> Dict[str, object]:
        """Live references to every persisted field (see PERSISTED_FIELDS).

        The caller (the snapshotter) deep-copies the returned dict as one
        graph; nothing here copies.
        """
        return {name: getattr(self, name) for name in PERSISTED_FIELDS}

    def install_state(self, state: Dict[str, object]) -> None:
        """Adopt a recovered state graph (recovery glue; no copying)."""
        missing = set(PERSISTED_FIELDS) - set(state)
        if missing:
            raise PersistenceError(f"snapshot missing fields: {sorted(missing)}")
        for name in PERSISTED_FIELDS:
            setattr(self, name, state[name])

    def fence(self) -> None:
        """Mark this (crashed) instance dead to the simulation.

        Its already-scheduled events — service completions, lease reaps —
        still sit in the event heap; fencing turns them into no-ops so a
        stale twin can neither mutate recovered state (it holds the old
        object graph) nor append to the shared WAL / ghost-ACK clients.
        Open lease spans are closed as ``crashed`` and reap timers
        cancelled (satellite: cancelled-but-pending timers must not fire
        against post-recovery state).
        """
        self._fenced = True
        self._persist = None
        for token in self._lease_reaps.values():
            if not token.executed:
                token.cancel()
        self._lease_reaps.clear()
        for task_id in list(self._lease_spans):
            self._end_lease_span(task_id, "crashed")

    @property
    def fenced(self) -> bool:
        return self._fenced

    def arm_recovered_leases(self) -> int:
        """Re-arm one reap timer per live lease after recovery.

        A lease that expired during the outage fires immediately
        (``max(expires_at, now)``) — the grace the client lost to the
        crash is not extended, but time cannot run backwards either.
        """
        armed = 0
        for lease in self._store.active_leases():
            self._schedule_lease_reap(
                lease.task_id, max(lease.expires_at, self._sim.now)
            )
            armed += 1
        return armed

    def replay_record(self, record) -> None:
        """Re-apply one WAL record during recovery.

        Must run with persistence detached (no re-logging) on a freshly
        restored server; mutations go through the *real* handlers with
        the replay clock pinned to the record's commit time, so replayed
        state is handler-for-handler what the live run produced.
        """
        if self._persist is not None:
            raise PersistenceError("replay with persistence attached would re-log")
        if isinstance(record, GrantRecord):
            self._replay_now = record.t
            position = (
                Vec2(record.position_x, record.position_y)
                if record.position_x is not None and record.position_y is not None
                else None
            )
            self.handle_task_request(
                TaskRequest(
                    client_id=record.client_id,
                    position=position,
                    request_id=record.request_id,
                )
            )
        elif isinstance(record, AdmitRecord):
            # Admission bookkeeping only — the photos (if they committed)
            # arrive with the matching BatchRecord; if they did not, the
            # remnants are dropped after replay.
            self._replay_now = record.t
            self._gc_ledgers()
            self._batch_ledger[record.batch_id] = None
            if record.task_id is not None:
                self._inflight_batches[record.task_id] = (
                    self._inflight_batches.get(record.task_id, 0) + 1
                )
            if record.seq is not None and record.seq > self._admit_watermark:
                self._admit_watermark = record.seq
        elif isinstance(record, BatchRecord):
            self._replay_now = record.done_t
            photos = pickle.loads(record.photos_blob)
            if record.seq is not None:
                # The bounded lane's service accounting happened at
                # service start; re-apply it from the record before the
                # commit itself — unless the snapshot already captured
                # it (service started before the checkpoint, commit
                # landed after), in which case re-applying would
                # duplicate the seq in the start-order audit log and
                # double-count the wait/service totals. Seqs strictly
                # increase with service-start order while commits can
                # land out of start order with >1 worker, so a sorted
                # insert reconstructs the true start order.
                pos = bisect.bisect_left(self._service_order, record.seq)
                already_started = (
                    pos < len(self._service_order)
                    and self._service_order[pos] == record.seq
                )
                if not already_started:
                    self._service_order.insert(pos, record.seq)
                    self._queue_wait_total += record.wait_s
                    self._h_queue_wait.record(record.wait_s)
                    self._service_time_total += record.service_s
                    self._h_service.record(record.service_s)
            self._process(
                PhotoBatch(
                    client_id=record.client_id,
                    task_id=record.task_id,
                    photos=tuple(photos),
                    batch_id=record.batch_id,
                ),
                None,
                arrived_at=record.arrived_t,
            )
        elif isinstance(record, EmptyBatchRecord):
            self._replay_now = record.t
            self.handle_photo_batch(
                PhotoBatch(
                    client_id=record.client_id,
                    task_id=record.task_id,
                    photos=(),
                    batch_id=record.batch_id,
                ),
                None,
            )
        elif isinstance(record, ReapRecord):
            self._replay_now = record.t
            self._reap_lease(record.task_id)
        elif isinstance(record, LocateRecord):
            self._replay_now = record.t
            if self._localizer is not None:
                self._localizer.restore_query_count(record.query_count)
        else:
            raise PersistenceError(f"unknown WAL record {type(record).__name__}")

    def end_replay(self) -> None:
        """Unpin the replay clock (handlers read live sim time again)."""
        self._replay_now = None

    def drop_inflight_remnants(self) -> int:
        """Forget batches admitted but never committed before the crash.

        Their photos died with the process; the clients' retransmission
        timers are still running and will re-upload them, at which point
        the fresh ledger entries admit them as new batches.
        """
        dropped = 0
        for bid, entry in list(self._batch_ledger.items()):
            if entry is None:
                del self._batch_ledger[bid]
                dropped += 1
        self._inflight_batches.clear()
        return dropped

    @property
    def store(self) -> BackendStore:
        return self._store

    @property
    def pipeline(self) -> SnapTaskPipeline:
        return self._pipeline

    @property
    def protocol(self) -> ProtocolConfig:
        return self._protocol

    @property
    def results(self) -> List[ProcessingResult]:
        return list(self._result_log)

    @property
    def queued_tasks(self) -> int:
        return len(self._task_queue)

    def enqueue_task(self, task: Task) -> None:
        """Put a task on the dispatch queue (deployment bootstrap glue)."""
        self._task_queue.append(task)

    # -- read-only ledger views (DST invariant checking) ---------------------------

    def ledger_entry(self, batch_id: str) -> Optional[ProcessingResult]:
        """The ledgered result for ``batch_id`` (``None`` while in flight)."""
        return self._batch_ledger.get(batch_id)

    def ledger_contains(self, batch_id: str) -> bool:
        """Whether the dedup ledger still holds an entry for ``batch_id``."""
        return batch_id in self._batch_ledger

    @property
    def request_ledger_size(self) -> int:
        return len(self._request_ledger)

    # -- read-only SfM-lane views (DST invariants + benchmarks) ---------------------

    @property
    def sfm_worker_limit(self) -> Optional[int]:
        """Configured worker count (``None`` = infinite-server model)."""
        return self._workers

    @property
    def sfm_queue_limit(self) -> Optional[int]:
        return self._queue_limit

    @property
    def sfm_busy_workers(self) -> int:
        return len(self._busy_until)

    @property
    def sfm_queue_depth(self) -> int:
        return len(self._sfm_queue)

    @property
    def sfm_queue_wait_total_s(self) -> float:
        """Total time admitted batches spent waiting for a worker."""
        return self._queue_wait_total

    @property
    def sfm_peak_queue_depth(self) -> int:
        return self._peak_queue_depth

    @property
    def sfm_service_time_total_s(self) -> float:
        """Total service time delivered by the bounded pool."""
        return self._service_time_total

    def sfm_service_order(self) -> List[int]:
        """Admission sequence numbers in service-start order (FIFO audit)."""
        return list(self._service_order)

    # -- protocol handlers ---------------------------------------------------------

    def handle_task_request(self, request: TaskRequest) -> TaskAssignment:
        """Assign the next pending task, or report completion.

        Requests are idempotent on their ``request_id``: a duplicate
        (network-level copy or client retransmission) is answered with
        the original assignment instead of leaking a second lease.
        """
        if self._fenced:
            raise BackendUnavailableError("backend crashed; request lost")
        if self._persist is not None:
            # Every arrival is logged (dedupes included): replay then
            # reproduces the request ledger, its GC queue and the dedupe
            # accounting exactly.
            self._persist.log_grant(request, self._now())
        self._gc_ledgers()
        self._m_requests.inc()
        rid = request.request_id
        if rid in self._request_ledger:
            self._store.bump("requests_deduped")
            self._m_requests_deduped.inc()
            return self._request_ledger[rid]
        with self._tracer.span(
            "server.task_request", category="server", client=request.client_id
        ) as span:
            assignment = self._next_assignment(request)
            span.set_attr("assigned", assignment.task is not None)
            if assignment.task is not None:
                span.set_attr("task_id", assignment.task.task_id)
        self._request_ledger[rid] = assignment
        if assignment.task is not None:
            self._rids_by_task.setdefault(assignment.task.task_id, []).append(rid)
        else:
            # No task owns this exchange; retention alone bounds it.
            self._gc_queue.append((self._now() + LEDGER_RETENTION_S, (rid,), ()))
        return assignment

    def _next_assignment(self, request: TaskRequest) -> TaskAssignment:
        if self._pipeline.venue_covered:
            return TaskAssignment(
                client_id=request.client_id,
                task=None,
                venue_covered=True,
                request_id=request.request_id,
            )
        task = self._pop_next_task()
        if task is None:
            return TaskAssignment(
                client_id=request.client_id,
                task=None,
                venue_covered=False,
                request_id=request.request_id,
                retry_after_s=self._poll_hint(),
            )
        self._store.record_task(task)
        expires_at = self._now() + self._protocol.lease_duration_s
        assigned = self._store.assign_task(
            task.task_id,
            request.client_id,
            granted_at=self._now(),
            expires_at=expires_at,
        )
        self._schedule_lease_reap(task.task_id, expires_at)
        self._m_leases_granted.inc()
        self._g_queue.set(len(self._task_queue))
        # Open span surviving every event hop until the upload ACK (or
        # the reaper) closes it — the task's whole server life.
        self._lease_spans[task.task_id] = self._tracer.begin(
            "server.task_lease",
            category="server",
            task_id=task.task_id,
            client=request.client_id,
            expires_at=expires_at,
        )
        return TaskAssignment(
            client_id=request.client_id,
            task=assigned,
            request_id=request.request_id,
            lease_expires_at=expires_at,
            processing_s_per_photo=PROCESSING_S_PER_PHOTO,
        )

    def _pop_next_task(self) -> Optional[Task]:
        """Explicitly pop the next *dispatchable* task (O(1) deque pop).

        Skips queue entries that were finished or re-leased through
        another path while they waited (e.g. a late upload completed a
        requeued task): their recorded status is no longer PENDING.
        """
        while self._task_queue:
            task = self._task_queue.popleft()
            recorded = self._store.maybe_task(task.task_id)
            if recorded is not None and recorded.status != TaskStatus.PENDING:
                self._store.bump("stale_queue_entries_skipped")
                continue
            return recorded if recorded is not None else task
        return None

    def handle_photo_batch(
        self,
        batch: PhotoBatch,
        on_done: Optional[Callable[[ProcessingResult], None]] = None,
    ) -> None:
        """Queue SfM processing of an uploaded batch (simulated latency).

        ``on_done`` fires when processing completes, carrying the result
        the server would push back to the client. Batches are idempotent
        on their ``batch_id``: duplicates of an in-flight batch are
        dropped, duplicates of a finished batch are re-ACKed from the
        ledger with the recorded result for ``LEDGER_RETENTION_S`` after
        its task turns terminal — the pipeline never processes the same
        batch twice.

        With a bounded :class:`~repro.config.BackendConfig` pool the
        batch is admitted to the FIFO processing lane; when every worker
        is busy and the admission queue is at its bound, the batch is
        *shed* with a backpressure reply instead (``retry_after_s`` set,
        nothing ledgered — the client retransmits later).
        """
        if self._fenced:
            raise BackendUnavailableError("backend crashed; upload lost")
        self._gc_ledgers()
        self._m_batches.inc()
        bid = batch.batch_id
        if bid in self._batch_ledger:
            self._store.bump("batches_deduped")
            self._m_batches_deduped.inc()
            prior = self._batch_ledger[bid]
            if prior is not None and on_done is not None:
                on_done(prior)  # replay the lost/raced ACK
            return
        if not batch.photos:
            # A remote client's malformed upload must not crash the event
            # loop: reply with a failure result and requeue the task.
            # Commit point: the whole path is synchronous, so logging the
            # arrival is logging the outcome (replay re-runs this path).
            if self._persist is not None:
                self._persist.log_empty_batch(batch, self._now())
            self._store.bump("empty_batches_rejected")
            self._m_empty_rejected.inc()
            result = ProcessingResult(
                client_id=batch.client_id,
                task_id=batch.task_id,
                photos_added=False,
                coverage_cells=self._pipeline.coverage_cells,
                venue_covered=self._pipeline.venue_covered,
                batch_id=bid,
                error="empty photo batch upload",
            )
            self._batch_ledger[bid] = result
            self._note_ledgered(bid, batch.task_id)
            if batch.task_id is not None:
                self._requeue_task(batch.task_id)
            self._result_log.append(result)
            if on_done is not None:
                on_done(result)
            return
        if self._overloaded():
            self._shed(batch, on_done)
            return
        self._batch_ledger[bid] = None
        arrived_at = self._now()
        if batch.task_id is not None:
            self._inflight_batches[batch.task_id] = (
                self._inflight_batches.get(batch.task_id, 0) + 1
            )
        seq = self._admit(batch, on_done, arrived_at)
        if self._persist is not None:
            # Admission is durable bookkeeping even though the *photos*
            # are not yet: replay restores the in-flight marks so a later
            # logged lease-reap defers exactly as it did live, and the
            # seq watermark so post-recovery admissions stay FIFO-ordered
            # above every pre-crash seq.
            self._persist.log_admit(batch, seq, arrived_at)

    def handle_localization_query(self, photo) -> Optional[PositionFix]:
        """Image-based positioning against the current model."""
        if self._fenced:
            raise BackendUnavailableError("backend crashed; query lost")
        if self._localizer is None:
            raise ProtocolError("backend has no localizer configured")
        model_ids = {int(f) for f in self._pipeline.model().cloud.feature_ids}
        fix = self._localizer.locate(photo, model_ids)
        if self._persist is not None:
            # The localizer's error draws are keyed by absolute query
            # count (its stream never advances), so the count *is* its
            # durable state.
            self._persist.log_locate(self._localizer.query_count, self._now())
        return fix

    # -- SfM processing lane -----------------------------------------------------------

    def _admit(self, batch: PhotoBatch, on_done, arrived_at: float) -> Optional[int]:
        """Hand an accepted batch to the processing lane.

        Returns the admission seq under a bounded pool (``None`` under
        the infinite-server model) — the WAL records it.
        """
        if self._workers is None:
            # Legacy infinite-server model: every batch gets a dedicated
            # simulated worker (byte-for-byte the pre-queueing trace).
            delay = PROCESSING_S_PER_PHOTO * len(batch.photos)
            self._sim.schedule(
                delay,
                lambda: self._process(batch, on_done, arrived_at),
                label=f"process-batch:{batch.client_id}",
            )
            return None
        self._admit_watermark += 1
        seq = self._admit_watermark
        entry = (seq, batch, on_done, arrived_at)
        if len(self._busy_until) < self._workers:
            self._start_service(entry)
        else:
            self._sfm_queue.append(entry)
            depth = len(self._sfm_queue)
            self._peak_queue_depth = max(self._peak_queue_depth, depth)
            self._g_sfm_queue.set(depth)
        return seq

    def _start_service(self, entry: tuple) -> None:
        seq, batch, on_done, arrived_at = entry
        now = self._sim.now
        wait = now - arrived_at
        self._service_order.append(seq)
        self._queue_wait_total += wait
        self._h_queue_wait.record(wait)
        if wait > 0:
            self._tracer.record(
                "server.sfm_queue_wait",
                arrived_at,
                now,
                category="server",
                client=batch.client_id,
                batch_id=batch.batch_id,
            )
        service_s = PROCESSING_S_PER_PHOTO * len(batch.photos)
        self._h_service.record(service_s)
        self._service_time_total += service_s
        end = now + service_s
        self._busy_until.append(end)
        self._g_sfm_busy.set(len(self._busy_until))
        self._sim.schedule(
            service_s,
            lambda: self._finish_service(entry, end, wait, service_s),
            label=f"process-batch:{batch.client_id}",
        )

    def _finish_service(
        self, entry: tuple, end: float, wait: float, service_s: float
    ) -> None:
        if self._fenced:
            return  # stale completion from before a crash
        seq, batch, on_done, arrived_at = entry
        self._busy_until.remove(end)
        self._g_sfm_busy.set(len(self._busy_until))
        self._process(batch, on_done, arrived_at, lane=(seq, wait, service_s))
        if self._sfm_queue and len(self._busy_until) < self._workers:
            head = self._sfm_queue.popleft()
            self._g_sfm_queue.set(len(self._sfm_queue))
            self._start_service(head)

    def _overloaded(self) -> bool:
        """Admission control: full pool *and* full queue means shed."""
        if self._workers is None or self._queue_limit is None:
            return False
        if len(self._busy_until) < self._workers:
            return False
        return len(self._sfm_queue) >= self._queue_limit

    def _retry_after(self) -> float:
        """When retrying is worthwhile: the earliest service completion."""
        earliest = min(self._busy_until) if self._busy_until else self._sim.now
        return max(self._backend.retry_after_floor_s, earliest - self._sim.now)

    def _poll_hint(self) -> Optional[float]:
        """Re-poll hint for empty assignments while the lane is saturated."""
        if self._workers is None or len(self._busy_until) < self._workers:
            return None
        return self._retry_after()

    def _shed(self, batch: PhotoBatch, on_done) -> None:
        """Refuse an upload under overload with a backpressure reply.

        Deliberately *not* ledgered and *not* logged: a shed is no
        verdict on the batch, so its id must stay fresh for the eventual
        real processing (and the idempotency invariant must not see a
        second result for it).
        """
        self._store.bump("batches_shed")
        self._m_shed.inc()
        retry_after = self._retry_after()
        self._tracer.instant(
            "server.batch_shed",
            category="server",
            client=batch.client_id,
            batch_id=batch.batch_id,
            retry_after_s=retry_after,
        )
        if on_done is not None:
            on_done(
                ProcessingResult(
                    client_id=batch.client_id,
                    task_id=batch.task_id,
                    photos_added=False,
                    coverage_cells=self._pipeline.coverage_cells,
                    venue_covered=self._pipeline.venue_covered,
                    batch_id=batch.batch_id,
                    error="backend overloaded",
                    retry_after_s=retry_after,
                )
            )

    # -- ledger garbage collection -----------------------------------------------------

    def _gc_ledgers(self) -> None:
        """Evict due ledger entries (inline sweep; schedules nothing).

        Entries become due ``LEDGER_RETENTION_S`` after their owning task
        turned terminal (or after they were recorded, for an exchange no
        task owns). Until then a duplicate is answered from the ledger;
        after it, the entry and its memory are gone.
        """
        now = self._now()
        queue = self._gc_queue
        while queue and queue[0][0] <= now:
            _, rids, bids = queue.popleft()
            for rid in rids:
                if self._request_ledger.pop(rid, None) is not None:
                    self._store.bump("ledger_evictions")
            for bid in bids:
                if self._batch_ledger.get(bid) is None:
                    continue  # in flight again or already gone; keep safe
                del self._batch_ledger[bid]
                self._store.bump("ledger_evictions")

    def _note_ledgered(self, bid: str, task_id: Optional[int]) -> None:
        """Attach a ledgered batch id to its owning task for later GC."""
        if task_id is None:
            self._gc_queue.append((self._now() + LEDGER_RETENTION_S, (), (bid,)))
        else:
            self._bids_by_task.setdefault(task_id, []).append(bid)

    def _maybe_schedule_gc(self, task_id: Optional[int]) -> None:
        """Queue a task's ledger entries for eviction once it is terminal."""
        if task_id is None:
            return
        task = self._store.maybe_task(task_id)
        if task is None or task.status not in (
            TaskStatus.COMPLETED,
            TaskStatus.FAILED,
        ):
            return
        if self._store.lease_of(task_id) is not None:
            return
        rids = tuple(self._rids_by_task.pop(task_id, ()))
        bids = tuple(self._bids_by_task.pop(task_id, ()))
        if not rids and not bids:
            return
        self._gc_queue.append((self._now() + LEDGER_RETENTION_S, rids, bids))

    # -- lease reaper ------------------------------------------------------------------

    def _schedule_lease_reap(self, task_id: int, expires_at: float) -> None:
        if self._replay_now is not None:
            # Replayed grants must not schedule on the live (post-restart)
            # simulator; recovery re-arms every surviving lease afterwards
            # via arm_recovered_leases().
            return
        token = self._sim.schedule_at(
            expires_at,
            lambda: self._reap_lease(task_id),
            label=f"lease-reap:{task_id}",
        )
        self._lease_reaps[task_id] = token

    def _reap_lease(self, task_id: int) -> bool:
        """Requeue one task whose lease expired (client presumed gone)."""
        if self._fenced:
            return False  # stale timer from before a crash
        if self._persist is not None:
            # Logged unconditionally: whether this expires the lease or
            # defers to an in-flight upload is decided by the recovered
            # state at replay, exactly as it was live.
            self._persist.log_reap(task_id, self._now())
        if self._inflight_batches.get(task_id, 0) > 0:
            # The photos made it to the server before (or exactly at) the
            # expiry instant; the client did its job. Deterministically
            # defer to the upload outcome — ``_process`` completes, fails
            # or requeues the task and releases the lease either way.
            self._store.bump("lease_reaps_deferred")
            return False
        token = self._lease_reaps.pop(task_id, None)
        if token is not None and not token.executed:
            token.cancel()
        requeued = self._store.expire_lease(task_id, now=self._now())
        if requeued is None:
            return False
        self._m_leases_expired.inc()
        self._end_lease_span(task_id, "expired")
        # Abandoned work goes to the front: it blocks campaign progress
        # (MAX_TASKS=1 keeps the task stream serial), so retry it first.
        self._task_queue.appendleft(requeued)
        self._g_queue.set(len(self._task_queue))
        return True

    def _release_lease(self, task_id: int) -> None:
        token = self._lease_reaps.pop(task_id, None)
        if token is not None:
            token.cancel()
        self._store.release_lease(task_id)
        self._end_lease_span(task_id, "released")

    def _end_lease_span(self, task_id: int, outcome: str) -> None:
        span = self._lease_spans.pop(task_id, None)
        if span is not None:
            span.end(outcome=outcome)

    def _requeue_task(self, task_id: int) -> None:
        """Hand a leased task straight back to the queue (failed upload)."""
        task = self._store.maybe_task(task_id)
        if task is None or task.status != TaskStatus.ASSIGNED:
            return
        self._release_lease(task_id)
        pending = replace(task, status=TaskStatus.PENDING)
        self._store.record_task(pending)
        self._store.bump("tasks_requeued")
        self._m_tasks_requeued.inc()
        self._task_queue.appendleft(pending)
        self._g_queue.set(len(self._task_queue))

    # -- internals --------------------------------------------------------------------

    def _process(
        self,
        batch: PhotoBatch,
        on_done: Optional[Callable[[ProcessingResult], None]],
        arrived_at: float,
        lane: Optional[Tuple[int, float, float]] = None,
    ) -> None:
        if self._fenced:
            return  # stale completion from before a crash
        if batch.task_id is not None:
            live = self._inflight_batches.get(batch.task_id, 0) - 1
            if live > 0:
                self._inflight_batches[batch.task_id] = live
            else:
                self._inflight_batches.pop(batch.task_id, None)
        span = self._tracer.begin(
            "server.process_batch",
            category="server",
            client=batch.client_id,
            photos=len(batch.photos),
            batch_id=batch.batch_id,
        )
        span.start_sim_s = arrived_at  # covers queueing + simulated SfM time
        task = self._store.maybe_task(batch.task_id) if batch.task_id is not None else None
        photos = list(batch.photos)
        if (
            task is not None
            and task.kind == TaskKind.ANNOTATION
            and self._annotation is not None
        ):
            # The online annotation tool runs server-side (Sec. III):
            # label the uploaded frames, fuse with Algorithm 5, imprint
            # with Algorithm 6, then reconstruct.
            annotated, context = AnnotationProcessor.split_batch(photos)
            if annotated:
                processed = self._annotation.process(annotated)
                self._pipeline.register_artificial_features(
                    processed.imprint.all_feature_ids(),
                    processed.imprint.all_feature_positions(),
                )
                photos = list(processed.imprint.photos) + context
                self._store.bump("annotations_collected", processed.n_annotations)
                self._store.bump("surfaces_identified", len(processed.objects))
        outcome = self._pipeline.process_batch(photos, task)
        self._store.bump("photos_processed", len(batch.photos))
        if batch.task_id is not None and task is not None:
            if outcome.photos_added:
                # Only successful batches complete the task.
                self._release_lease(batch.task_id)
                self._store.complete_task(batch.task_id)
            else:
                # The batch registered zero photos: the attempt failed.
                # Release the lease and mark the attempt failed; Algorithm 1
                # already escalated (reissue / annotation task) via
                # ``outcome.new_tasks``, so the location is re-covered.
                self._release_lease(batch.task_id)
                current = self._store.maybe_task(batch.task_id)
                if current is not None and current.status == TaskStatus.ASSIGNED:
                    self._store.fail_task(batch.task_id)
        for new_task in outcome.new_tasks:
            self._task_queue.append(new_task)
        result = ProcessingResult(
            client_id=batch.client_id,
            task_id=batch.task_id,
            photos_added=outcome.photos_added,
            coverage_cells=outcome.coverage_cells,
            venue_covered=outcome.venue_covered,
            batch_id=batch.batch_id,
        )
        self._batch_ledger[batch.batch_id] = result
        self._note_ledgered(batch.batch_id, batch.task_id)
        self._result_log.append(result)
        self._maybe_schedule_gc(batch.task_id)
        if self._persist is not None:
            # Commit point: ledger + store + pipeline mutations above are
            # now fact; log them (and take a checkpoint if one is due)
            # before the ACK leaves. A crash before this line loses the
            # batch entirely (client retransmits); a crash after it loses
            # nothing.
            self._persist.log_batch(
                batch, arrived_at=arrived_at, done_t=self._now(), lane=lane
            )
        self._h_process.record(self._now() - arrived_at)
        span.end(
            photos_added=outcome.photos_added,
            coverage_cells=outcome.coverage_cells,
            new_tasks=len(outcome.new_tasks),
        )
        if on_done is not None:
            on_done(result)
