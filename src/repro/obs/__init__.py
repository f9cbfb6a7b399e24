"""Observability: sim-time spans, always-on metrics, Chrome-trace export.

One :class:`Telemetry` bundle (a tracer + a metrics registry) threads
through the whole stack — event loop, network, protocol, pipeline, SfM,
map engine. Metrics are always recorded: every bundle carries a live
registry, so every run keeps Algorithm 1's phase histograms and the
layer counters. Tracing is the tracer's span capacity: the default
bundle's tracer has ``capacity=0`` and keeps nothing, and
:meth:`Telemetry.enable` gives it a ring. Every instrumented line runs
the same way either way. Telemetry never changes behaviour (no extra
events, no RNG draws), which the traced/untraced differential test pins
byte-for-byte.

Quickstart::

    from repro.obs import Telemetry
    from repro.obs.export import write_chrome_trace, write_metrics_json

    telemetry = Telemetry.enable()
    deployment = Deployment(bench, n_clients=3, telemetry=telemetry)
    report = deployment.run()
    write_chrome_trace(telemetry.tracer, "trace.json")   # -> Perfetto
    write_metrics_json(telemetry.metrics, "metrics.json")

or simply ``python -m repro trace --out obs-out``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracing import Span, Tracer


@dataclass(frozen=True)
class Telemetry:
    """The tracer + registry pair every instrumented layer receives.

    ``Telemetry()`` is untraced: a fresh registry and a capacity-0
    tracer. No two default bundles share either.
    """

    tracer: Tracer = field(default_factory=lambda: Tracer(capacity=0))
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @staticmethod
    def enable(span_capacity: int = 262144) -> "Telemetry":
        """A traced bundle: a tracer with a ring of ``span_capacity``.

        The tracer's clock starts at 0 and is rebound to simulated time
        by the first :class:`~repro.simkit.events.Simulator` built with
        this bundle.
        """
        return Telemetry(tracer=Tracer(capacity=span_capacity))


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "Telemetry",
]
