"""A small discrete-event simulation kernel.

SnapTask is a distributed system: mobile clients upload photo batches over
a network, the backend processes them and issues new tasks. The kernel here
gives those interactions explicit simulated time — upload durations,
processing delays and task round-trips are all events on one queue — so the
server/client layer can be tested deterministically and the benchmarks can
report end-to-end latencies.

Observability (DESIGN.md "Observability"): a :class:`~repro.obs.Telemetry`
bundle passed at construction (a fresh untraced one by default)
instruments the kernel itself —

* every dispatched event becomes a ``sim.event`` span keyed by simulated
  time (ring-buffered, bounded; a capacity-0 tracer keeps none);
* **span context propagates across event-queue hops**: :meth:`schedule`
  captures the ambient span, :meth:`step` re-activates it around the
  handler, so spans opened inside a handler parent correctly even when
  the work continues several events later;
* counters ``repro.sim.events.dispatched`` / ``repro.sim.events.cancelled``
  and the ``repro.sim.queue.depth`` gauge account for every event — a
  cancelled event is counted, never silently skipped.

Telemetry is inert: it schedules no events, draws no RNG, and never
changes ``now``/``processed_events`` — campaign outputs are byte-for-byte
identical traced or untraced (pinned by the differential test).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..errors import SimulationError
from ..obs import Telemetry

EventHandler = Callable[[], None]


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    sequence: int
    label: str = field(compare=False)
    handler: EventHandler = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    executed: bool = field(default=False, compare=False)
    #: Span context captured at schedule time (cross-hop propagation).
    ctx: Optional[int] = field(default=None, compare=False)


class EventToken:
    """Handle to a scheduled event allowing cancellation."""

    def __init__(self, event: _ScheduledEvent):
        self._event = event

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def label(self) -> str:
        return self._event.label

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def executed(self) -> bool:
        return self._event.executed

    @property
    def active(self) -> bool:
        """True while the event is still pending (not run, not cancelled).

        Retry timers use this to distinguish "the timeout is still armed"
        from "it already fired / was ACK-cancelled" without extra state.
        """
        return not self._event.cancelled and not self._event.executed

    def cancel(self) -> None:
        self._event.cancelled = True


class Simulator:
    """Single-threaded discrete-event loop with deterministic ordering.

    Events at equal timestamps run in scheduling order (FIFO), which keeps
    runs reproducible without relying on handler side effects.
    """

    def __init__(self, start_time: float = 0.0, telemetry: Optional[Telemetry] = None):
        self._now = start_time
        self._queue: List[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._obs = telemetry if telemetry is not None else Telemetry()
        #: Post-dispatch probes (DST invariant checking). Probes run
        #: synchronously after every executed event; they must be pure
        #: observers — never schedule events, draw RNG, or mutate sim
        #: state — so an attached probe cannot perturb the run it checks.
        self._probes: List[Callable[[EventToken], None]] = []
        self._tracer = self._obs.tracer
        self._tracer.bind_clock(lambda: self._now)
        metrics = self._obs.metrics
        self._m_dispatched = metrics.counter("repro.sim.events.dispatched")
        self._m_cancelled = metrics.counter("repro.sim.events.cancelled")
        self._g_depth = metrics.gauge("repro.sim.queue.depth")

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def telemetry(self) -> Telemetry:
        """The telemetry bundle shared by everything on this event loop."""
        return self._obs

    @property
    def tracer(self):
        return self._obs.tracer

    @property
    def metrics(self):
        return self._obs.metrics

    def add_probe(self, probe: Callable[[EventToken], None]) -> None:
        """Attach a post-dispatch observer (see ``_probes`` contract).

        The probe receives the :class:`EventToken` of the event that just
        ran. Probes are the simulation-testing hook: the DST invariant
        registry (``repro.testkit``) attaches one to check system
        invariants *during* the run, between events, when every subsystem
        is in a quiescent state.
        """
        self._probes.append(probe)

    def remove_probe(self, probe: Callable[[EventToken], None]) -> None:
        """Detach a previously added probe (no-op if absent)."""
        if probe in self._probes:
            self._probes.remove(probe)

    def schedule(self, delay: float, handler: EventHandler, label: str = "") -> EventToken:
        """Schedule ``handler`` to run ``delay`` seconds from now.

        The ambient span context is captured into the event, so spans
        created by ``handler`` parent to the span that was active
        *here*, across the queue hop.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = _ScheduledEvent(
            time=self._now + delay,
            sequence=next(self._sequence),
            label=label,
            handler=handler,
            ctx=self._tracer.capture(),
        )
        heapq.heappush(self._queue, event)
        return EventToken(event)

    def schedule_at(self, time: float, handler: EventHandler, label: str = "") -> EventToken:
        """Schedule ``handler`` at an absolute simulated time."""
        return self.schedule(time - self._now, handler, label)

    def step(self) -> bool:
        """Run the next pending event. Returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                # Visible, not silent: cancelled events are accounted.
                self._m_cancelled.inc()
                continue
            if event.time < self._now - 1e-12:
                raise SimulationError("event queue time went backwards")
            self._now = event.time
            self._processed += 1
            event.executed = True
            self._m_dispatched.inc()
            self._g_depth.set(len(self._queue))
            tracer = self._tracer
            tracer.counter("repro.sim.queue.depth", len(self._queue))
            span = tracer.begin(event.label, category="sim.event", parent=event.ctx)
            with tracer.activate(span.span_id):
                event.handler()
            span.end()
            if self._probes:
                token = EventToken(event)
                for probe in self._probes:
                    probe(token)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> None:
        """Drain the event queue, optionally stopping at time ``until``.

        ``max_events`` guards against accidental infinite event loops.
        """
        executed = 0
        while self._queue:
            next_time = self._peek_time()
            if until is not None and next_time is not None and next_time > until:
                self._now = until
                return
            if not self.step():
                # The queue held only cancelled events; fall through so the
                # clock still advances to ``until`` like a normal drain.
                break
            executed += 1
            if executed > max_events:
                raise SimulationError(
                    f"simulation exceeded max_events={max_events}; likely an event loop"
                )
        if until is not None and until > self._now:
            self._now = until

    def _peek_time(self) -> Optional[float]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
            self._m_cancelled.inc()
        return self._queue[0].time if self._queue else None

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for e in self._queue if not e.cancelled)
