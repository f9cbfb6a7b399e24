"""Tests for the discrete-event simulator and the network channel."""

import pytest

from repro.config import NetworkConfig
from repro.errors import SimulationError
from repro.obs import Telemetry
from repro.simkit import Channel, DuplexLink, Simulator


class TestSimulator:
    def test_time_advances(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]
        assert sim.now == 5.0

    def test_fifo_at_same_time(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(1.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b"]

    def test_ordering_across_times(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        token = sim.schedule(1.0, lambda: fired.append(1))
        token.cancel()
        sim.run()
        assert fired == []
        assert token.cancelled

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(2.0, lambda: fired.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 3.0)]

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 2]

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert not Simulator().step()

    def test_tracing(self):
        sim = Simulator(telemetry=Telemetry.enable())
        sim.schedule(1.0, lambda: None, label="tick")
        sim.run()
        spans = sim.tracer.spans(category="sim.event")
        assert [(span.start_sim_s, span.name) for span in spans] == [(1.0, "tick")]

    def test_pending_counts_live_events(self):
        sim = Simulator()
        t1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        t1.cancel()
        assert sim.pending() == 1

    def test_token_lifecycle_flags(self):
        sim = Simulator()
        token = sim.schedule(1.0, lambda: None)
        assert token.active and not token.executed
        sim.run()
        assert token.executed and not token.active
        stale = sim.schedule(1.0, lambda: None)
        stale.cancel()
        assert not stale.active and not stale.executed

    def test_run_until_advances_past_trailing_cancelled_events(self):
        # A queue holding only cancelled events (e.g. retry timers ACKed
        # before firing) must not stop the clock short of ``until``.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        ghost = sim.schedule(5.0, lambda: None)
        ghost.cancel()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_cancelled_events_not_counted_as_processed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.run()
        assert sim.processed_events == 1


class TestChannel:
    def setup_method(self):
        self.sim = Simulator()
        self.config = NetworkConfig(latency_s=0.1, bandwidth_mbps=8.0, photo_size_mb=2.0)

    def test_latency_plus_transfer(self):
        channel = Channel(self.sim, self.config)
        got = []
        # 2 MB at 8 Mbps = 2 s transfer + 0.1 s latency.
        channel.send("photo", got.append, size_mb=2.0)
        self.sim.run()
        assert got == ["photo"]
        assert self.sim.now == pytest.approx(2.1)

    def test_fifo_serialisation(self):
        channel = Channel(self.sim, self.config)
        times = []
        channel.send("a", lambda _: times.append(self.sim.now), size_mb=2.0)
        channel.send("b", lambda _: times.append(self.sim.now), size_mb=2.0)
        self.sim.run()
        # Second message starts after the first finishes.
        assert times[0] == pytest.approx(2.1)
        assert times[1] == pytest.approx(4.2)

    def test_zero_size_message(self):
        channel = Channel(self.sim, self.config)
        got = []
        channel.send("ping", got.append)
        self.sim.run()
        assert got == ["ping"]
        assert self.sim.now == pytest.approx(0.1)

    def test_negative_size_rejected(self):
        channel = Channel(self.sim, self.config)
        with pytest.raises(SimulationError):
            channel.send("x", lambda _: None, size_mb=-1.0)

    def test_traffic_accounting(self):
        link = DuplexLink(self.sim, self.config)
        link.uplink.send("up", lambda _: None, size_mb=3.0)
        link.downlink.send("down", lambda _: None, size_mb=1.0)
        self.sim.run()
        assert link.total_traffic_mb() == pytest.approx(4.0)

    def test_delivery_records(self):
        channel = Channel(self.sim, self.config)
        record = channel.send("x", lambda _: None, size_mb=2.0, label="batch")
        self.sim.run()
        assert record.label == "batch"
        assert record.transfer_time_s == pytest.approx(2.1)
