"""Simulated network channel between mobile clients and the backend.

Models the two costs the paper's deployment pays when "the phone
simultaneously sends the captured images to a cloud server": a fixed
per-message latency and a bandwidth-limited transfer time proportional to
payload size. Delivery order on one channel is FIFO, matching TCP streams.

On top of the lossless model, a :class:`~repro.config.FaultConfig` turns
the channel into the network the paper actually deployed on (phones over
Wi-Fi, Sec. III): messages can be dropped, duplicated, delayed by jitter,
or lost wholesale during client disconnect windows. All fault draws come
from a seeded :class:`~repro.simkit.rng.RngStream`, so fault patterns are
deterministic, and a disabled ``FaultConfig`` leaves the channel
byte-for-byte identical to the lossless model (no RNG draws, no extra
events). Jitter is applied after the airtime model, so heavily jittered
messages may arrive out of order — the protocol layer above must (and
does) tolerate reordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..config import FaultConfig, NetworkConfig
from ..errors import SimulationError
from .events import Simulator
from .rng import RngStream

MessageHandler = Callable[[Any], None]

#: Delivery status labels.
DELIVERED = "delivered"
DROPPED = "dropped"
DROPPED_DISCONNECT = "dropped-disconnect"
DUPLICATE = "duplicate"


@dataclass(frozen=True)
class Delivery:
    """Bookkeeping record for one transmitted message (or copy of one)."""

    sent_at: float
    delivered_at: float
    size_mb: float
    label: str
    status: str = DELIVERED

    @property
    def transfer_time_s(self) -> float:
        return self.delivered_at - self.sent_at

    @property
    def delivered(self) -> bool:
        return self.status in (DELIVERED, DUPLICATE)


@dataclass
class FaultStats:
    """Per-channel fault-injection counters."""

    dropped: int = 0
    dropped_disconnect: int = 0
    duplicated: int = 0
    jittered: int = 0

    @property
    def total_lost(self) -> int:
        return self.dropped + self.dropped_disconnect


class Channel:
    """One-directional FIFO channel with latency + bandwidth delays.

    With ``config.faults`` enabled the channel additionally injects
    seeded faults; ``rng`` is then mandatory so runs stay reproducible.
    """

    def __init__(
        self,
        simulator: Simulator,
        config: NetworkConfig,
        name: str = "channel",
        rng: Optional[RngStream] = None,
    ):
        self._sim = simulator
        self._config = config
        self._faults: FaultConfig = config.faults
        if self._faults.enabled and rng is None:
            raise SimulationError(
                f"channel {name!r} has fault injection enabled but no RNG stream"
            )
        self._rng = rng
        self._name = name
        self._busy_until = 0.0
        self._deliveries: List[Delivery] = []
        self.fault_stats = FaultStats()
        # Telemetry rides on the simulator's bundle; handles resolved once.
        obs = simulator.telemetry
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._m_messages = metrics.counter("repro.net.messages")
        self._m_traffic = metrics.counter("repro.net.traffic_mb")
        self._m_dropped = metrics.counter("repro.net.dropped")
        self._m_dropped_disconnect = metrics.counter("repro.net.dropped_disconnect")
        self._m_duplicated = metrics.counter("repro.net.duplicated")
        self._m_jittered = metrics.counter("repro.net.jittered")
        self._h_transfer = metrics.histogram("repro.net.transfer_s")

    def _trace_transfer(
        self, label: str, sent_at: float, delivered_at: float, size_mb: float, status: str
    ) -> None:
        """One ``net`` span per copy on the air (sim interval = airtime)."""
        self._tracer.record(
            f"net.{label}",
            sent_at,
            delivered_at,
            category="net",
            channel=self._name,
            size_mb=size_mb,
            status=status,
        )

    @property
    def name(self) -> str:
        return self._name

    @property
    def deliveries(self) -> List[Delivery]:
        return list(self._deliveries)

    def transfer_time(self, size_mb: float) -> float:
        """Seconds to push ``size_mb`` through the configured bandwidth."""
        if size_mb < 0:
            raise SimulationError("negative payload size")
        if self._config.bandwidth_mbps <= 0:
            raise SimulationError(
                f"channel {self._name!r} has non-positive bandwidth "
                f"({self._config.bandwidth_mbps} Mbps)"
            )
        return (size_mb * 8.0) / self._config.bandwidth_mbps

    def send(
        self,
        payload: Any,
        handler: MessageHandler,
        size_mb: float = 0.0,
        label: str = "msg",
    ) -> Delivery:
        """Send ``payload``; ``handler`` fires when delivery completes.

        Transfers are serialised: a message starts only after the channel
        finishes the previous one (FIFO), then takes latency + size/bw.
        Under fault injection the message may instead be lost (recorded
        with a ``dropped`` status, handler never fires), duplicated
        (handler fires twice), or delayed by jitter. A disabled
        :class:`FaultConfig` has no window to check and no probability to
        draw against, so the channel then draws nothing from its RNG.
        """
        sent_at = self._sim.now
        transfer = self.transfer_time(size_mb)
        self._m_messages.inc()
        self._m_traffic.inc(size_mb)
        faults = self._faults
        rng = self._rng

        if faults.in_disconnect(sent_at):
            # The radio is off: the message never makes it onto the air.
            self.fault_stats.dropped_disconnect += 1
            self._m_dropped_disconnect.inc()
            record = Delivery(
                sent_at=sent_at,
                delivered_at=sent_at,
                size_mb=size_mb,
                label=label,
                status=DROPPED_DISCONNECT,
            )
            self._deliveries.append(record)
            self._trace_transfer(label, sent_at, sent_at, size_mb, DROPPED_DISCONNECT)
            return record

        # Airtime is consumed whether or not the network then loses the
        # message: the sender transmitted the bytes either way.
        start = max(sent_at, self._busy_until)
        arrival = start + self._config.latency_s + transfer
        self._busy_until = arrival

        if faults.drop_probability > 0 and rng.chance(faults.drop_probability):
            self.fault_stats.dropped += 1
            self._m_dropped.inc()
            record = Delivery(
                sent_at=sent_at,
                delivered_at=arrival,
                size_mb=size_mb,
                label=label,
                status=DROPPED,
            )
            self._deliveries.append(record)
            self._trace_transfer(label, sent_at, arrival, size_mb, DROPPED)
            return record

        jitter = 0.0
        if faults.jitter_s > 0:
            jitter = rng.uniform(0.0, faults.jitter_s)
            if jitter > 0:
                self.fault_stats.jittered += 1
                self._m_jittered.inc()
        delivered_at = arrival + jitter
        record = Delivery(
            sent_at=sent_at, delivered_at=delivered_at, size_mb=size_mb, label=label
        )
        self._deliveries.append(record)
        self._h_transfer.record(delivered_at - sent_at)
        self._trace_transfer(label, sent_at, delivered_at, size_mb, DELIVERED)
        self._sim.schedule_at(
            delivered_at, lambda: handler(payload), label=f"{self._name}:{label}"
        )

        if faults.duplicate_probability > 0 and rng.chance(faults.duplicate_probability):
            # A lower layer retransmitted: a second copy arrives after an
            # extra latency (+ independent jitter) — and consumes traffic.
            self.fault_stats.duplicated += 1
            self._m_duplicated.inc()
            self._m_traffic.inc(size_mb)
            extra = self._config.latency_s
            if faults.jitter_s > 0:
                extra += rng.uniform(0.0, faults.jitter_s)
            dup_at = delivered_at + extra
            dup_record = Delivery(
                sent_at=sent_at,
                delivered_at=dup_at,
                size_mb=size_mb,
                label=label,
                status=DUPLICATE,
            )
            self._deliveries.append(dup_record)
            self._trace_transfer(label, sent_at, dup_at, size_mb, DUPLICATE)
            self._sim.schedule_at(
                dup_at, lambda: handler(payload), label=f"{self._name}:{label}:dup"
            )
        return record

    def total_bytes_mb(self) -> float:
        """All bytes that crossed the air, including lost and duplicate copies."""
        return sum(d.size_mb for d in self._deliveries)


class DuplexLink:
    """A pair of channels modelling a client <-> server connection."""

    def __init__(
        self,
        simulator: Simulator,
        config: NetworkConfig,
        name: str = "link",
        rng: Optional[RngStream] = None,
    ):
        up_rng = rng.child("up") if rng is not None else None
        down_rng = rng.child("down") if rng is not None else None
        self.uplink = Channel(simulator, config, name=f"{name}:up", rng=up_rng)
        self.downlink = Channel(simulator, config, name=f"{name}:down", rng=down_rng)

    def total_traffic_mb(self) -> float:
        return self.uplink.total_bytes_mb() + self.downlink.total_bytes_mb()

    @property
    def messages_lost(self) -> int:
        return self.uplink.fault_stats.total_lost + self.downlink.fault_stats.total_lost

    @property
    def messages_duplicated(self) -> int:
        return self.uplink.fault_stats.duplicated + self.downlink.fault_stats.duplicated
