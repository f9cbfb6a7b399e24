"""Structured spans keyed by simulated time, with wall time alongside.

A :class:`Span` records a named interval on the **simulation clock**
(``start_sim_s`` / ``end_sim_s``) plus the wall-clock cost of the code
that ran inside it (``wall_ms``) — the two questions the paper's
evaluation asks ("how long did the campaign take?" vs "how expensive is
the backend?") answered by one record.

Three span shapes cover every call site:

* ``with tracer.span("pipeline.registration", category="pipeline"):`` —
  scoped spans for synchronous sections; nesting gives parentage.
* ``span = tracer.begin(...); ...; span.end()`` — detached spans for
  lifecycles that cross event-queue hops (a task lease, an upload
  exchange). ``begin`` inherits the ambient parent unless given one.
* ``tracer.record(name, start_sim_s, end_sim_s, ...)`` — pre-computed
  intervals whose endpoints are already known (a network transfer whose
  delivery time the channel just scheduled).

**Context propagation across scheduled events**: the tracer keeps an
active-span stack. ``Simulator.schedule`` captures :meth:`capture` into
the event and re-activates it (:meth:`activate`) around the handler, so
a span opened in one handler is the ambient parent of spans created
when a *later* event fires — the chain from a task request to its upload
ACK survives every hop through the event queue.

Finished spans land in a bounded ring buffer (``capacity``): a
long-running campaign keeps the most recent spans and counts what it
dropped instead of growing without bound (the failure mode of the old
``Simulator`` label trace).

The capacity is also the only tracing switch. An untraced run uses a
``capacity=0`` tracer: every call site runs the same code, spans still
nest and propagate, but the ring keeps nothing (every finished span is
counted in ``dropped_spans``) and no counter sample is kept.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..errors import ObservabilityError
from .wallclock import wall_now_s


class Span:
    """One named interval; ``end()`` seals it into the tracer's ring."""

    __slots__ = (
        "name", "category", "span_id", "parent_id",
        "start_sim_s", "end_sim_s", "start_wall_s", "end_wall_s",
        "attrs", "_tracer", "_scoped",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        span_id: int,
        parent_id: Optional[int],
        start_sim_s: float,
        attrs: Dict[str, Any],
    ):
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_sim_s = start_sim_s
        self.end_sim_s: Optional[float] = None
        self.start_wall_s = wall_now_s()
        self.end_wall_s: Optional[float] = None
        self.attrs = attrs
        self._tracer = tracer
        self._scoped = False

    # -- lifecycle ---------------------------------------------------------

    def set_attr(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def end(self, **attrs: Any) -> None:
        """Seal the span at the current sim/wall time (idempotent)."""
        if self.end_sim_s is not None:
            return
        if attrs:
            self.attrs.update(attrs)
        self.end_sim_s = self._tracer._clock()
        self.end_wall_s = wall_now_s()
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        self._scoped = True
        self._tracer._push(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self.span_id)
        self.end()

    # -- derived views -----------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end_sim_s is not None

    @property
    def sim_duration_s(self) -> float:
        if self.end_sim_s is None:
            raise ObservabilityError(f"span {self.name!r} not finished")
        return self.end_sim_s - self.start_sim_s

    @property
    def wall_ms(self) -> float:
        if self.end_wall_s is None:
            raise ObservabilityError(f"span {self.name!r} not finished")
        return (self.end_wall_s - self.start_wall_s) * 1e3

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end_sim_s:.6f}" if self.end_sim_s is not None else "…"
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"sim=[{self.start_sim_s:.6f}, {end}], id={self.span_id}, "
            f"parent={self.parent_id})"
        )


#: A counter time-series sample: (sim_time_s, metric_name, value).
CounterSample = Tuple[float, str, float]


class Tracer:
    """Span factory + bounded ring of finished spans + counter samples.

    ``capacity=0`` keeps no spans and no counter samples (untraced runs).
    """

    def __deepcopy__(self, memo: dict) -> "Tracer":
        return self  # live telemetry handle, shared by snapshots

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = 65536,
    ):
        if capacity < 0:
            raise ObservabilityError("tracer capacity must be >= 0")
        self._clock: Callable[[], float] = clock if clock is not None else lambda: 0.0
        self.capacity = int(capacity)
        self._spans: Deque[Span] = deque(maxlen=self.capacity)
        self._samples: Deque[CounterSample] = deque(maxlen=self.capacity)
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self.dropped_spans = 0
        self.finished_count = 0

    # -- clock -------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulation clock (the :class:`Simulator` does this)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # -- span creation -----------------------------------------------------

    def span(self, name: str, category: str = "app", **attrs: Any) -> Span:
        """A scoped span: use as a context manager for nesting/parentage."""
        return self._make(name, category, self.current_id(), attrs)

    def begin(
        self,
        name: str,
        category: str = "app",
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """A detached span; the caller ends it explicitly (maybe much
        later, in a different event handler). Inherits the ambient parent
        unless ``parent`` is given."""
        pid = parent if parent is not None else self.current_id()
        return self._make(name, category, pid, attrs)

    def record(
        self,
        name: str,
        start_sim_s: float,
        end_sim_s: float,
        category: str = "app",
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Record an interval with known endpoints (may end in the sim
        future — e.g. a transfer whose delivery is already scheduled)."""
        pid = parent if parent is not None else self.current_id()
        span = Span(self, name, category, next(self._ids), pid, start_sim_s, attrs)
        span.end_sim_s = end_sim_s
        span.end_wall_s = span.start_wall_s
        self._finish(span)
        return span

    def instant(self, name: str, category: str = "app", **attrs: Any) -> Span:
        now = self._clock()
        return self.record(name, now, now, category=category, **attrs)

    def counter(self, name: str, value: float) -> None:
        """Append one sample to the ``name`` time-series (Perfetto "C")."""
        self._samples.append((self._clock(), name, float(value)))

    def _make(
        self, name: str, category: str, parent: Optional[int], attrs: Dict[str, Any]
    ) -> Span:
        return Span(self, name, category, next(self._ids), parent, self._clock(), attrs)

    # -- ambient context ---------------------------------------------------

    def current_id(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def capture(self) -> Optional[int]:
        """Snapshot the ambient context for cross-event propagation."""
        return self.current_id()

    def activate(self, ctx: Optional[int]) -> "_Activation":
        """Re-enter a captured context (no-op for ``ctx=None``)."""
        return _Activation(self, ctx)

    def _push(self, span_id: int) -> None:
        self._stack.append(span_id)

    def _pop(self, span_id: int) -> None:
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()
        elif span_id in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span_id)

    # -- ring --------------------------------------------------------------

    def _finish(self, span: Span) -> None:
        if len(self._spans) == self.capacity:
            self.dropped_spans += 1
        self._spans.append(span)
        self.finished_count += 1

    def spans(
        self, category: Optional[str] = None, name: Optional[str] = None
    ) -> List[Span]:
        """Finished spans still in the ring, oldest first."""
        out = list(self._spans)
        if category is not None:
            out = [s for s in out if s.category == category]
        if name is not None:
            out = [s for s in out if s.name == name]
        return out

    def counter_samples(self, name: Optional[str] = None) -> List[CounterSample]:
        out = list(self._samples)
        if name is not None:
            out = [s for s in out if s[1] == name]
        return out

    def clear(self) -> None:
        self._spans.clear()
        self._samples.clear()
        self.dropped_spans = 0
        self.finished_count = 0


class _Activation:
    __slots__ = ("_tracer", "_ctx")

    def __init__(self, tracer: Tracer, ctx: Optional[int]):
        self._tracer = tracer
        self._ctx = ctx

    def __enter__(self) -> "_Activation":
        if self._ctx is not None:
            self._tracer._push(self._ctx)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._ctx is not None:
            self._tracer._pop(self._ctx)

