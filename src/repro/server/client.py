"""The mobile client: requests tasks, captures, uploads over the network.

One :class:`MobileClient` models the app of Sec. III / Fig. 3: it asks the
backend for a task, walks there with AR navigation, performs the 360°
capture (or the annotation flow), and streams the batch up through the
simulated channel. Driving several clients against one backend on one
event loop exercises the full distributed deployment.

The client end of the fault-tolerant protocol:

* every task request carries a fresh ``request_id`` and every upload a
  stable ``batch_id``; un-ACKed exchanges are retransmitted with
  exponential backoff (``ProtocolConfig``) until ``max_retries`` is
  exhausted, at which point the batch is abandoned (the backend's lease
  reaper requeues the task);
* duplicate or stale responses (replayed ACKs, reordered deliveries) are
  recognised by id and dropped, so faults never double-count work;
* :meth:`drop_out` models the participant who simply leaves — volunteers
  do (arXiv:1901.09264) — cancelling all client-side timers and letting
  the lease expire server-side.

With fault injection disabled every retransmission timer is cancelled by
the in-order ACK before it fires, leaving the event trace identical to
the lossless protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..annotation.tool import AnnotationCampaign
from ..camera.capture import CaptureSimulator
from ..camera.pose import CameraPose
from ..config import ProtocolConfig
from ..core.tasks import Task, TaskKind
from ..crowd.participants import Participant
from ..errors import BackendUnavailableError, ProtocolError
from ..geometry import Vec2
from ..nav.navigation import Navigator
from ..simkit.events import EventToken, Simulator
from ..simkit.network import DuplexLink
from ..simkit.rng import RngStream
from .backend import BackendServer
from .messages import PhotoBatch, ProcessingResult, TaskAssignment, TaskRequest

#: Guided captures are steady (same value the crowd simulator uses).
CLIENT_CAPTURE_BLUR = 0.03

#: Seconds per captured photo during a sweep.
CAPTURE_INTERVAL_S = 1.0

@dataclass
class ClientStats:
    tasks_completed: int = 0
    photo_tasks: int = 0
    annotation_tasks: int = 0
    photos_uploaded: int = 0
    walk_time_s: float = 0.0
    localization_queries: int = 0
    localization_misses: int = 0
    retries: int = 0
    requests_abandoned: int = 0
    uploads_abandoned: int = 0
    stale_responses: int = 0
    duplicate_results: int = 0
    failed_results: int = 0
    backpressure: int = 0
    dropped_out: bool = False


class MobileClient:
    """One participant's phone connected to the backend."""

    def __init__(
        self,
        client_id: str,
        participant: Participant,
        server: BackendServer,
        capture: CaptureSimulator,
        navigator: Navigator,
        annotation: AnnotationCampaign,
        simulator: Simulator,
        link: DuplexLink,
        start_position: Vec2,
        photo_size_mb: float = 2.5,
        protocol: Optional[ProtocolConfig] = None,
        rng: Optional[RngStream] = None,
        poll_rng: Optional[RngStream] = None,
    ):
        self._client_id = client_id
        self._participant = participant
        self._server = server
        self._capture = capture
        self._navigator = navigator
        self._annotation = annotation
        self._sim = simulator
        self._link = link
        self._position = start_position
        self._photo_size_mb = photo_size_mb
        self._protocol = protocol if protocol is not None else ProtocolConfig()
        self._rng = rng
        self._poll_rng = poll_rng
        #: Per-photo service-time hint carried by task assignments; feeds
        #: the upload RTO floor without importing backend internals.
        self._service_hint_spp = 0.0
        self._active = False
        # Request / upload exchange state (one outstanding of each).
        self._request_seq = itertools.count(1)
        self._batch_seq = itertools.count(1)
        self._pending_request_id: Optional[str] = None
        self._request_attempt = 0
        self._request_rto: Optional[EventToken] = None
        self._pending_batch: Optional[PhotoBatch] = None
        self._upload_attempt = 0
        self._upload_rto: Optional[EventToken] = None
        self._acked_batches: set = set()
        self.stats = ClientStats()
        # Telemetry (shared bundle from the simulator).
        obs = simulator.telemetry
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._m_retries = metrics.counter("repro.client.retries")
        self._m_requests_abandoned = metrics.counter("repro.client.requests_abandoned")
        self._m_uploads_abandoned = metrics.counter("repro.client.uploads_abandoned")
        self._m_stale = metrics.counter("repro.client.stale_responses")
        self._m_dup_results = metrics.counter("repro.client.duplicate_results")
        self._m_backpressure = metrics.counter("repro.client.backpressure")
        self._m_photos = metrics.counter("repro.client.photos_uploaded")
        self._h_walk = metrics.histogram("repro.client.walk_s", base=1.0, growth=2.0)
        #: Open exchange spans (request -> assignment, upload -> ACK).
        self._request_span = None
        self._upload_span = None

    @property
    def client_id(self) -> str:
        return self._client_id

    @property
    def position(self) -> Vec2:
        return self._position

    @property
    def active(self) -> bool:
        return self._active

    def start(self) -> None:
        """Begin the request/capture/upload loop on the event queue."""
        if self._active:
            raise ProtocolError(f"client {self._client_id} already started")
        self._active = True
        self._sim.schedule(0.0, self._request_task, label=f"{self._client_id}:request")

    def stop(self) -> None:
        self._active = False
        self._cancel_timers()
        self._end_span("_request_span", outcome="stopped")
        self._end_span("_upload_span", outcome="stopped")

    def drop_out(self) -> None:
        """The participant abandons the campaign mid-task.

        Nothing is sent to the backend — a real volunteer just leaves.
        The task lease expires server-side and the reaper requeues it.
        """
        if not self._active:
            return
        self._active = False
        self.stats.dropped_out = True
        self._cancel_timers()
        self._end_span("_request_span", outcome="dropped")
        self._end_span("_upload_span", outcome="dropped")
        self._pending_request_id = None
        self._pending_batch = None

    # -- loop steps -----------------------------------------------------------------

    def _request_task(self) -> None:
        if not self._active:
            return
        self._pending_request_id = f"{self._client_id}:req-{next(self._request_seq)}"
        self._request_attempt = 0
        self._end_span("_request_span", outcome="superseded")
        self._request_span = self._tracer.begin(
            "client.request",
            category="client",
            client=self._client_id,
            request_id=self._pending_request_id,
        )
        self._send_task_request()

    def _send_task_request(self) -> None:
        if not self._active or self._pending_request_id is None:
            return
        request = TaskRequest(
            client_id=self._client_id,
            position=self._position,
            request_id=self._pending_request_id,
        )
        self._link.uplink.send(
            request,
            self._deliver_task_request,
            size_mb=0.001,
            label="task-request",
        )
        timeout = self._protocol.timeout_for(self._request_attempt)
        self._request_rto = self._sim.schedule(
            timeout, self._on_request_timeout, label=f"{self._client_id}:rto-request"
        )

    def _deliver_task_request(self, msg: TaskRequest) -> None:
        """Uplink delivery of a task request to the (live?) backend.

        A crashed backend swallows the message exactly like the network
        losing it: nothing happens now, and the request RTO retransmits
        until a recovered instance answers.
        """
        try:
            assignment = self._server.handle_task_request(msg)
        except BackendUnavailableError:
            return
        self._on_assignment(assignment)

    def _on_request_timeout(self) -> None:
        if not self._active or self._pending_request_id is None:
            return
        if self._request_attempt >= self._protocol.max_retries:
            # Give up on this exchange; start a fresh one after a poll wait.
            self.stats.requests_abandoned += 1
            self._m_requests_abandoned.inc()
            self._end_span("_request_span", outcome="abandoned")
            self._pending_request_id = None
            self._sim.schedule(
                self._poll_delay(), self._request_task, label=f"{self._client_id}:poll"
            )
            return
        self._request_attempt += 1
        self.stats.retries += 1
        self._m_retries.inc()
        self._send_task_request()

    def _on_assignment(self, assignment: TaskAssignment) -> None:
        if not self._active:
            return
        if assignment.request_id != self._pending_request_id:
            # Duplicate or reordered response to an exchange we already
            # settled; the backend's request ledger kept it idempotent.
            self.stats.stale_responses += 1
            self._m_stale.inc()
            return
        if self._request_rto is not None:
            self._request_rto.cancel()
            self._request_rto = None
        self._pending_request_id = None
        if assignment.task is None:
            if assignment.venue_covered:
                self._end_span("_request_span", outcome="covered")
                self._active = False
                self._cancel_timers()
                return
            # Nothing to do right now; poll again shortly. An overloaded
            # backend hints when re-polling is worthwhile.
            self._end_span("_request_span", outcome="empty")
            delay = (
                assignment.retry_after_s
                if assignment.retry_after_s is not None
                else self._poll_delay()
            )
            self._sim.schedule(
                delay, self._request_task, label=f"{self._client_id}:poll"
            )
            return
        if assignment.processing_s_per_photo is not None:
            self._service_hint_spp = assignment.processing_s_per_photo
        self._end_span(
            "_request_span", outcome="assigned", task_id=assignment.task.task_id
        )
        self._execute(assignment.task)

    def _execute(self, task: Task) -> None:
        if (
            self._rng is not None
            and self._participant.dropout_hazard > 0.0
            and self._rng.chance(self._participant.dropout_hazard)
        ):
            # The participant wanders off mid-walk; the lease will expire.
            self.drop_out()
            return
        start = self._localize()
        nav = self._navigator.navigate(start, task.location)
        self._position = nav.arrived
        self.stats.walk_time_s += nav.walk_time_s
        self._h_walk.record(nav.walk_time_s)

        if task.kind == TaskKind.PHOTO_COLLECTION:
            photos = list(
                self._capture.sweep(
                    nav.arrived,
                    self._participant.device,
                    step_deg=8.0,
                    blur=CLIENT_CAPTURE_BLUR,
                    start_timestamp_s=self._sim.now + nav.walk_time_s,
                    source=f"client:{self._client_id}",
                )
            )
            self.stats.photo_tasks += 1
        else:
            _surface, photos = self._annotation.collect_photos(
                task.location, self._participant.device, timestamp_s=self._sim.now
            )
            photos = photos + self._annotation.collect_context_photos(
                task.location, self._participant.device, timestamp_s=self._sim.now
            )
            self.stats.annotation_tasks += 1

        capture_time = nav.walk_time_s + CAPTURE_INTERVAL_S * len(photos)
        batch = PhotoBatch(
            client_id=self._client_id,
            task_id=task.task_id,
            photos=tuple(photos),
            batch_id=f"{self._client_id}:batch-{next(self._batch_seq)}",
        )
        self.stats.photos_uploaded += len(photos)
        self._m_photos.inc(len(photos))
        # The walk + sweep occupies a known sim interval; record it as a
        # pre-timed span (no event-queue interaction).
        self._tracer.record(
            "client.capture_walk",
            self._sim.now,
            self._sim.now + capture_time,
            category="client",
            client=self._client_id,
            task_id=task.task_id,
            photos=len(photos),
            walk_s=nav.walk_time_s,
        )
        self._sim.schedule(
            capture_time,
            lambda: self._begin_upload(batch),
            label=f"{self._client_id}:capture",
        )

    def _localize(self) -> Vec2:
        """Image-based positioning before navigation (Sec. III).

        The client takes a query photo and asks the backend to match it
        against the model; on failure it falls back to dead reckoning
        (its last known position).
        """
        query = self._capture.take_photo(
            CameraPose(self._position, 0.0),
            self._participant.device,
            blur=CLIENT_CAPTURE_BLUR,
            timestamp_s=self._sim.now,
            source=f"query:{self._client_id}",
        )
        try:
            fix = self._server.handle_localization_query(query)
        except ProtocolError:
            fix = None
        self.stats.localization_queries += 1
        if fix is None:
            self.stats.localization_misses += 1
            return self._position
        return fix.position

    # -- upload path ----------------------------------------------------------------

    def _begin_upload(self, batch: PhotoBatch) -> None:
        if not self._active:
            return
        self._pending_batch = batch
        self._upload_attempt = 0
        self._end_span("_upload_span", outcome="superseded")
        self._upload_span = self._tracer.begin(
            "client.upload",
            category="client",
            client=self._client_id,
            batch_id=batch.batch_id,
            photos=len(batch.photos),
        )
        self._transmit_batch()

    def _transmit_batch(self) -> None:
        if not self._active or self._pending_batch is None:
            return
        batch = self._pending_batch
        self._link.uplink.send(
            batch,
            self._deliver_photo_batch,
            size_mb=self._photo_size_mb * len(batch.photos),
            label="photo-batch",
        )
        timeout = self._protocol.timeout_for(
            self._upload_attempt, floor_s=self._ack_estimate_s(batch)
        )
        self._upload_rto = self._sim.schedule(
            timeout, self._on_upload_timeout, label=f"{self._client_id}:rto-upload"
        )

    def _deliver_photo_batch(self, msg: PhotoBatch) -> None:
        """Uplink delivery of a photo batch (lost if the backend is down).

        The upload RTO retransmits; the recovered backend's dedup ledger
        keeps the retries idempotent.
        """
        try:
            self._server.handle_photo_batch(msg, self._on_result)
        except BackendUnavailableError:
            return

    def _poll_delay(self) -> float:
        """Idle re-poll wait, with seeded jitter when configured.

        A bare constant synchronises every idle client into a polling
        herd hitting the backend in the same tick; positive
        ``poll_jitter_s`` decorrelates them with a deterministic
        per-client draw. Zero jitter (the default) draws nothing and
        leaves the event trace unchanged.
        """
        base = self._protocol.poll_interval_s
        if self._poll_rng is not None and self._protocol.poll_jitter_s > 0.0:
            return base + self._poll_rng.uniform(0.0, self._protocol.poll_jitter_s)
        return base

    def _ack_estimate_s(self, batch: PhotoBatch) -> float:
        """Deterministic lower bound on the upload's ACK round trip.

        The per-photo service term comes from the assignment's
        ``processing_s_per_photo`` hint — the server owns its service
        model; the client no longer imports backend internals.
        """
        transfer = self._link.uplink.transfer_time(
            self._photo_size_mb * len(batch.photos)
        )
        return transfer + self._service_hint_spp * len(batch.photos)

    def _on_upload_timeout(self) -> None:
        if not self._active or self._pending_batch is None:
            return
        if self._upload_attempt >= self._protocol.max_retries:
            # The network ate every copy; abandon the batch. The lease
            # reaper will requeue the task for someone else.
            self.stats.uploads_abandoned += 1
            self._m_uploads_abandoned.inc()
            self._end_span("_upload_span", outcome="abandoned")
            self._pending_batch = None
            self._sim.schedule(
                self._poll_delay(), self._request_task, label=f"{self._client_id}:poll"
            )
            return
        self._upload_attempt += 1
        self.stats.retries += 1
        self._m_retries.inc()
        self._transmit_batch()

    def _on_result(self, result: ProcessingResult) -> None:
        if not self._active:
            return
        if result.retry_after_s is not None and not result.ok:
            # Backpressure: the backend shed the upload unprocessed. Not
            # a verdict on the batch — honor the hint and retransmit.
            if (
                self._pending_batch is not None
                and result.batch_id == self._pending_batch.batch_id
            ):
                self._handle_backpressure(result)
            else:
                self.stats.stale_responses += 1
                self._m_stale.inc()
            return
        if result.batch_id in self._acked_batches:
            self.stats.duplicate_results += 1
            self._m_dup_results.inc()
            return
        self._acked_batches.add(result.batch_id)
        # A late ACK for a batch we already gave up on records the
        # outcome but does not fork a second request loop.
        advances_loop = (
            self._pending_batch is not None
            and result.batch_id == self._pending_batch.batch_id
        )
        if advances_loop:
            if self._upload_rto is not None:
                self._upload_rto.cancel()
                self._upload_rto = None
            self._pending_batch = None
            self._end_span("_upload_span", outcome="ok" if result.ok else "failed")
        if result.ok:
            self.stats.tasks_completed += 1
        else:
            self.stats.failed_results += 1
        if result.venue_covered:
            self._active = False
            self._cancel_timers()
            return
        if advances_loop:
            self._sim.schedule(1.0, self._request_task, label=f"{self._client_id}:next")

    def _handle_backpressure(self, result: ProcessingResult) -> None:
        """Shed upload: back off for at least the server's hint, resend."""
        self.stats.backpressure += 1
        self._m_backpressure.inc()
        if self._upload_rto is not None:
            self._upload_rto.cancel()
            self._upload_rto = None
        if self._upload_attempt >= self._protocol.max_retries:
            # Persistently overloaded; give the batch up like a timeout
            # would — the lease reaper requeues the task.
            self.stats.uploads_abandoned += 1
            self._m_uploads_abandoned.inc()
            self._end_span("_upload_span", outcome="abandoned")
            self._pending_batch = None
            self._sim.schedule(
                self._poll_delay(), self._request_task, label=f"{self._client_id}:poll"
            )
            return
        self._upload_attempt += 1
        self.stats.retries += 1
        self._m_retries.inc()
        delay = self._protocol.timeout_for(
            self._upload_attempt, floor_s=result.retry_after_s
        )
        self._sim.schedule(
            delay, self._transmit_batch, label=f"{self._client_id}:backoff-upload"
        )

    # -- internals -------------------------------------------------------------------

    def _cancel_timers(self) -> None:
        for token in (self._request_rto, self._upload_rto):
            if token is not None and token.active:
                token.cancel()
        self._request_rto = None
        self._upload_rto = None

    def _end_span(self, attr: str, **outcome_attrs) -> None:
        """Seal an open exchange span (no-op when none is open)."""
        span = getattr(self, attr)
        if span is not None:
            span.end(**outcome_attrs)
            setattr(self, attr, None)
