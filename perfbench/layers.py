"""Outside-in per-layer tracing for the benchmark's traced samples.

The program is not changed: each layer's public entry point is wrapped
from here, at the attribute its callers resolve (a method on its class,
or a venue builder in ``repro.eval.workbench``'s namespace, where
``Workbench`` looks it up). A wrapper records one span -- name, start,
end, parent -- in memory, plus counts taken from the call and its return
value. A layer's self time is the time of its spans minus the time of
their child spans. The process is single-threaded, so spans nest
strictly and a faster layer can save at most its self time on the
workload's ``wall_s``.

Layers: venue (set-up only), camera, nav, sfm, mapping, core
(``process_batch`` minus its sfm and mapping children), annotation,
crowd (guided-campaign orchestration), server, simkit (event loop plus
client glue) and persist.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from typing import Callable, Dict, List, Optional

#: Layers whose self times, with ``unattributed_s``, add up to the traced
#: campaign wall time.
CAMPAIGN_LAYERS = (
    "camera", "nav", "sfm", "mapping", "core", "annotation", "crowd",
    "server", "simkit", "persist",
)
LAYERS = ("venue",) + CAMPAIGN_LAYERS

#: Per-layer metrics that are exact counts of simulated work: two traced
#: samples at one seed must give identical values for every one of them.
COUNT_METRICS = (
    "camera.photos", "nav.plans", "sfm.photos_in", "sfm.registered_ratio",
    "sfm.points", "mapping.updates", "mapping.wedge_reuse_ratio",
    "core.batches", "core.batch_n", "annotation.tasks", "server.requests",
    "simkit.events", "persist.wal_appends", "persist.wal_bytes",
    "persist.checkpoints", "persist.recoveries", "persist.replayed_records",
)

#: Per-layer metric -> (unit, better). The order is the report order.
PER_LAYER = {
    "venue.ground_truth_s": ("s", "lower"),
    "venue.feature_world_s": ("s", "lower"),
    "camera.self_s": ("s", "lower"),
    "camera.photos": ("count", "lower"),
    "nav.self_s": ("s", "lower"),
    "nav.plans": ("count", "lower"),
    "sfm.self_s": ("s", "lower"),
    "sfm.photos_in": ("count", "lower"),
    "sfm.registered_ratio": ("ratio", "higher"),
    "sfm.points": ("count", "higher"),
    "mapping.self_s": ("s", "lower"),
    "mapping.updates": ("count", "lower"),
    "mapping.wedge_reuse_ratio": ("ratio", "higher"),
    "core.self_s": ("s", "lower"),
    "core.batches": ("count", "lower"),
    "core.batch_p50_ms": ("ms", "lower"),
    "core.batch_tail_ms": ("ms", "lower"),
    "core.batch_n": ("count", "higher"),
    "annotation.self_s": ("s", "lower"),
    "annotation.tasks": ("count", "lower"),
    "crowd.self_s": ("s", "lower"),
    "server.self_s": ("s", "lower"),
    "server.requests": ("count", "lower"),
    "simkit.self_s": ("s", "lower"),
    "simkit.events": ("count", "lower"),
    "persist.self_s": ("s", "lower"),
    "persist.wal_appends": ("count", "lower"),
    "persist.wal_bytes": ("bytes", "lower"),
    "persist.checkpoints": ("count", "lower"),
    "persist.checkpoint_s": ("s", "lower"),
    "persist.recoveries": ("count", "lower"),
    "persist.recovery_s": ("s", "lower"),
    "persist.replayed_records": ("count", "lower"),
    "unattributed_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "process.minor_faults": ("count", "lower"),
    "process.sys_s": ("s", "lower"),
}


class Recorder:
    """In-memory span stack and per-entry-point accounting."""

    def __init__(self):
        #: Finished spans: (name, layer, start, end, parent index, self).
        self.spans: List[Optional[tuple]] = []
        self._stack: List[list] = []  # [span index, child time]
        #: Wrapped entry point -> its layer.
        self.wrapped: Dict[str, str] = {}
        self.calls: Dict[str, int] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.batch_ms: List[float] = []
        #: Counts taken from return values.
        self.counts: Dict[str, float] = {}

    def wrap(self, layer: str, name: str, fn: Callable, on_result=None) -> Callable:
        recorder = self
        clock = time.perf_counter
        self.wrapped[name] = layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(recorder.spans), 0.0]
            recorder.spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                recorder.spans[frame[0]] = (
                    name, layer, start, end, parent, duration - frame[1]
                )
                if stack:
                    stack[-1][1] += duration
                recorder.calls[name] = recorder.calls.get(name, 0) + 1
                recorder.inclusive_s[name] = (
                    recorder.inclusive_s.get(name, 0.0) + duration
                )
            if on_result is not None:
                on_result(recorder, result, duration)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- summary ---------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if span is not None and span[1] == layer)

    def self_times(self, start: float, end: float) -> Dict[str, float]:
        """Self time per layer over spans that began inside [start, end]."""
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            if span is not None and start <= span[2] <= end:
                totals[span[1]] += span[5]
        return totals

    def write(self, path) -> None:
        """Write the spans as JSON rows [name, start_s, end_s, parent]."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [[s[0], s[2], s[3], s[4]] for s in self.spans if s is not None],
                handle,
            )


def _on_registration(recorder: Recorder, report, _duration) -> None:
    recorder.add("sfm.photos_in", report.batch_size)
    recorder.add("sfm.registered", report.newly_registered)
    recorder.counts["sfm.points"] = report.total_points


def _on_map_update(recorder: Recorder, update, _duration) -> None:
    recorder.add("mapping.cameras_reused", update.cameras_reused)
    recorder.add("mapping.cameras_total", update.cameras_total)


def _on_batch(recorder: Recorder, _outcome, duration) -> None:
    recorder.batch_ms.append(duration * 1e3)


def _on_recovery(recorder: Recorder, result, _duration) -> None:
    recorder.add("persist.replayed_records", result.replayed_records)


def _entry_points():
    """(layer, module, attribute path, on_result) for every wrapped call."""
    from repro.server.backend import BackendServer

    handlers = [
        ("server", "repro.server.backend", f"BackendServer.{name}", None)
        for name in sorted(vars(BackendServer))
        if name.startswith("handle_")
    ]
    return [
        ("venue", "repro.eval.workbench", "build_ground_truth", None),
        ("venue", "repro.eval.workbench", "build_feature_world", None),
        ("camera", "repro.camera.capture", "CaptureSimulator.take_photo", None),
        ("nav", "repro.nav.navigation", "Navigator.navigate", None),
        ("sfm", "repro.sfm.reconstruction", "IncrementalSfm.add_photos",
         _on_registration),
        ("mapping", "repro.mapping.incremental", "IncrementalMapEngine.update",
         _on_map_update),
        ("core", "repro.core.pipeline", "SnapTaskPipeline.process_batch", _on_batch),
        ("annotation", "repro.annotation.tool", "AnnotationCampaign.run", None),
        ("crowd", "repro.crowd.guided", "GuidedCampaign.run", None),
        *handlers,
        ("simkit", "repro.simkit.events", "Simulator.run", None),
        ("persist", "repro.persist.wal", "WriteAheadLog.append", None),
        ("persist", "repro.persist.snapshot", "Snapshotter.checkpoint", None),
        ("persist", "repro.persist.host", "BackendHost.restart", _on_recovery),
    ]


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point so that calls record into ``recorder``."""
    for layer, module_name, path, on_result in _entry_points():
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, recorder.wrap(layer, path, getattr(owner, attr), on_result))


def tail(values: List[float]) -> float:
    """The highest percentile with ten samples beyond it -- the
    eleventh-largest value, at percentile 100 * (n - 10) / n -- or 0.0
    when there are ten samples or fewer."""
    n = len(values)
    return sorted(values)[n - 11] if n > 10 else 0.0


def layer_metrics(
    recorder: Recorder, start: float, end: float, end_state: Dict[str, int]
) -> Dict[str, float]:
    """Every per-layer metric of one traced campaign except the
    run-level ones (``trace.overhead_ratio`` and the process counters)."""
    wall = end - start
    self_s = recorder.self_times(start, end)
    calls = recorder.calls
    counts = recorder.counts
    inclusive = recorder.inclusive_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    batches = recorder.batch_ms
    out = {
        "venue.ground_truth_s": inclusive.get("build_ground_truth", 0.0),
        "venue.feature_world_s": inclusive.get("build_feature_world", 0.0),
        "camera.photos": calls.get("CaptureSimulator.take_photo", 0),
        "nav.plans": calls.get("Navigator.navigate", 0),
        "sfm.photos_in": counts.get("sfm.photos_in", 0),
        "sfm.registered_ratio": ratio(
            counts.get("sfm.registered", 0), counts.get("sfm.photos_in", 0)
        ),
        "sfm.points": counts.get("sfm.points", 0),
        "mapping.updates": calls.get("IncrementalMapEngine.update", 0),
        "mapping.wedge_reuse_ratio": ratio(
            counts.get("mapping.cameras_reused", 0), counts.get("mapping.cameras_total", 0)
        ),
        "core.batches": calls.get("SnapTaskPipeline.process_batch", 0),
        "core.batch_p50_ms": statistics.median(batches) if batches else 0.0,
        "core.batch_tail_ms": tail(batches),
        "core.batch_n": len(batches),
        "annotation.tasks": calls.get("AnnotationCampaign.run", 0),
        "server.requests": sum(
            n for name, n in calls.items() if name.startswith("BackendServer.handle_")
        ),
        "simkit.events": end_state["simkit.events"],
        "persist.wal_appends": calls.get("WriteAheadLog.append", 0),
        "persist.wal_bytes": end_state["persist.wal_bytes"],
        "persist.checkpoints": calls.get("Snapshotter.checkpoint", 0),
        "persist.checkpoint_s": inclusive.get("Snapshotter.checkpoint", 0.0),
        "persist.recoveries": calls.get("BackendHost.restart", 0),
        "persist.recovery_s": inclusive.get("BackendHost.restart", 0.0),
        "persist.replayed_records": counts.get("persist.replayed_records", 0),
        "trace.wall_s": wall,
    }
    for layer in CAMPAIGN_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    # Everything inside the campaign that no wrapped entry point covers.
    # Venue spans belong to set-up; one inside the campaign window would
    # break the identity that ``completeness_problems`` checks.
    out["unattributed_s"] = wall - sum(self_s.values())
    return out


def completeness_problems(
    recorder: Recorder, metrics: Dict[str, float], expected, bypassed
) -> List[str]:
    """Entry points of expected layers that recorded no calls (a wrapper on
    a name its caller does not resolve records none), bypassed layers
    that recorded calls, and a broken self-time identity."""
    problems = [
        f"{name} ({layer}) recorded no calls"
        for name, layer in recorder.wrapped.items()
        if layer in expected and recorder.calls.get(name, 0) == 0
    ]
    for layer in bypassed:
        if recorder.layer_calls(layer) != 0:
            problems.append(f"bypassed layer {layer} recorded calls")
    if "persist" in bypassed:
        nonzero = [
            name for name in PER_LAYER
            if name.startswith("persist.") and metrics.get(name, 0) != 0
        ]
        if nonzero:
            problems.append(f"persist metrics non-zero: {nonzero}")
    attributed = sum(metrics[f"{layer}.self_s"] for layer in CAMPAIGN_LAYERS)
    if abs(attributed + metrics["unattributed_s"] - metrics["trace.wall_s"]) > 1e-6:
        problems.append("layer self times plus unattributed_s != traced wall time")
    if metrics["unattributed_s"] < 0 or min(
        metrics[f"{layer}.self_s"] for layer in CAMPAIGN_LAYERS
    ) < 0:
        problems.append("negative self time: spans overlap")
    return problems
