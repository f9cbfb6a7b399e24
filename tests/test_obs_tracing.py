"""Tracer spans: sim-time intervals, cross-event context propagation,
the bounded ring, and the simulator's dispatch spans."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import Telemetry
from repro.obs.tracing import Tracer
from repro.simkit.events import Simulator


def _span_by_name(tracer, name):
    spans = tracer.spans(name=name)
    assert len(spans) == 1, f"expected exactly one {name!r} span, got {spans}"
    return spans[0]


class TestSpanShapes:
    def test_scoped_span_records_sim_interval(self):
        clock = {"t": 10.0}
        tracer = Tracer(clock=lambda: clock["t"])
        with tracer.span("work", category="app", foo=1) as span:
            clock["t"] = 12.5
        assert span.finished
        assert span.start_sim_s == 10.0
        assert span.end_sim_s == 12.5
        assert span.sim_duration_s == pytest.approx(2.5)
        assert span.attrs["foo"] == 1
        assert span.wall_ms >= 0.0

    def test_nested_scoped_spans_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_detached_begin_end_with_outcome_attrs(self):
        tracer = Tracer()
        span = tracer.begin("lease", category="server", task_id=7)
        assert not span.finished
        span.end(outcome="released")
        assert span.finished
        assert span.attrs == {"task_id": 7, "outcome": "released"}

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("once")
        span.end()
        span.end(outcome="again")
        assert "outcome" not in span.attrs
        assert tracer.finished_count == 1

    def test_record_known_endpoints(self):
        tracer = Tracer()
        span = tracer.record("net.msg", 5.0, 8.0, category="net", size_mb=2.5)
        assert span.start_sim_s == 5.0 and span.end_sim_s == 8.0
        assert tracer.spans(category="net") == [span]

    def test_instant(self):
        clock = {"t": 3.0}
        tracer = Tracer(clock=lambda: clock["t"])
        span = tracer.instant("tick")
        assert span.start_sim_s == span.end_sim_s == 3.0


class TestContextPropagation:
    def test_span_context_crosses_event_queue_hops(self):
        """A span opened in one handler is the ancestor of spans created
        when a later event (scheduled inside it) fires."""
        telemetry = Telemetry.enable()
        sim = Simulator(telemetry=telemetry)
        tracer = telemetry.tracer
        seen = {}

        def later():
            span = tracer.begin("work.later")
            span.end()
            seen["later"] = span

        def first():
            with tracer.span("work.first") as span:
                seen["first"] = span
                sim.schedule(5.0, later, label="ev-later")

        sim.schedule(1.0, first, label="ev-first")
        sim.run()

        # The dispatch span of ev-later parents to work.first (captured at
        # schedule time), and work.later parents to that dispatch span.
        dispatch_later = _span_by_name(tracer, "ev-later")
        assert dispatch_later.parent_id == seen["first"].span_id
        assert seen["later"].parent_id == dispatch_later.span_id

    def test_no_ambient_context_means_no_parent(self):
        telemetry = Telemetry.enable()
        sim = Simulator(telemetry=telemetry)
        sim.schedule(1.0, lambda: None, label="root-ev")
        sim.run()
        assert _span_by_name(telemetry.tracer, "root-ev").parent_id is None

    def test_capture_activate_roundtrip(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            ctx = tracer.capture()
        assert tracer.current_id() is None
        with tracer.activate(ctx):
            assert tracer.current_id() == outer.span_id
        assert tracer.current_id() is None

    def test_activate_none_is_noop(self):
        tracer = Tracer()
        with tracer.activate(None):
            assert tracer.current_id() is None


class TestRingBuffer:
    def test_ring_is_bounded_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.record(f"s{i}", 0.0, 1.0)
        spans = tracer.spans()
        assert len(spans) == 4
        assert [s.name for s in spans] == ["s6", "s7", "s8", "s9"]
        assert tracer.dropped_spans == 6
        assert tracer.finished_count == 10

    def test_clear(self):
        tracer = Tracer(capacity=4)
        tracer.record("s", 0.0, 1.0)
        tracer.counter("repro.q", 1.0)
        tracer.clear()
        assert tracer.spans() == [] and tracer.counter_samples() == []


class TestSimulatorIntegration:
    def test_dispatch_spans_and_queue_metrics(self):
        telemetry = Telemetry.enable()
        sim = Simulator(telemetry=telemetry)
        sim.schedule(1.0, lambda: None, label="a")
        sim.schedule(2.0, lambda: None, label="b")
        sim.run()
        names = [s.name for s in telemetry.tracer.spans(category="sim.event")]
        assert names == ["a", "b"]
        assert telemetry.metrics.get("repro.sim.events.dispatched").value == 2
        samples = telemetry.tracer.counter_samples("repro.sim.queue.depth")
        assert len(samples) == 2

    def test_cancelled_events_are_counted_not_silent(self):
        telemetry = Telemetry.enable()
        sim = Simulator(telemetry=telemetry)
        token = sim.schedule(1.0, lambda: None, label="doomed")
        sim.schedule(2.0, lambda: None, label="kept")
        token.cancel()
        sim.run()
        assert telemetry.metrics.get("repro.sim.events.cancelled").value == 1
        assert telemetry.metrics.get("repro.sim.events.dispatched").value == 1

    def test_default_simulator_traces_at_capacity_zero(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None, label="a")
        sim.run()
        assert sim.tracer.capacity == 0
        assert sim.tracer.spans() == []
        assert sim.tracer.dropped_spans == 1
        assert sim.metrics.get("repro.sim.events.dispatched").value == 1


class TestCapacityZero:
    """The untraced tracer: the same code path, a ring that keeps nothing."""

    def test_keeps_nothing_and_counts_every_drop(self):
        tracer = Tracer(capacity=0)
        tracer.begin("x").end(outcome="dropped")
        with tracer.span("y"):
            pass
        tracer.record("z", 0.0, 1.0)
        tracer.instant("w")
        tracer.counter("repro.q", 1.0)
        assert tracer.spans() == []
        assert tracer.counter_samples() == []
        assert tracer.capture() is None
        assert tracer.finished_count == 4
        assert tracer.dropped_spans == 4

    def test_spans_still_nest_and_propagate(self):
        tracer = Tracer(capacity=0)
        with tracer.span("outer") as outer:
            ctx = tracer.capture()
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert ctx == outer.span_id
        assert outer.finished and inner.set_attr("k", "v") is inner
        with tracer.activate(ctx):
            assert tracer.begin("later").parent_id == outer.span_id

    def test_negative_capacity_raises(self):
        with pytest.raises(ObservabilityError, match="capacity"):
            Tracer(capacity=-1)
