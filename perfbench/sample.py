"""One benchmark sample, in a fresh process started by ``run.py``.

    python3 perfbench/sample.py --workload NAME --seed N --trace 0|1 [--setup-only]
                                [--spans PATH]

Prints one JSON line: ``ready_at`` (``time.monotonic()`` when the
Workbench is ready; the parent subtracts its spawn time to get
``setup_s``), ``wall_s`` (the campaign's elapsed time), ``peak_rss_mb``,
the report digest and the seed-independent check results. With
``--trace 0`` a ``probe.HostProbe`` runs from before set-up until the
sample ends, and ``probe`` holds (handler seconds, speed factor) for the
set-up and campaign windows, from which the parent corrects both times.
With ``--trace 1`` the layers are wrapped before set-up instead and the
line carries their metrics. Exits 1 with an ``error`` line if the
workload raises.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import threading
import time
import traceback


def _threads() -> int:
    """Threads of this process, native ones included where /proc has them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _usage():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_minflt, usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    host = None
    if not args.trace and not args.setup_only:
        from probe import HostProbe

        host = HostProbe()
        host.start()
    try:
        return _sample(args, host)
    finally:
        if host is not None:
            host.stop()


def _sample(args, host) -> int:
    from workloads import WORKLOADS, report_digest

    workload = WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)

    prepared = workload.setup(args.seed)
    ready_at = time.monotonic()
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    gc.collect()
    faults0, sys0 = _usage()
    start = time.perf_counter()
    outcome = workload.campaign(prepared)
    end = time.perf_counter()
    faults1, sys1 = _usage()

    import numpy

    result = {
        "ready_at": ready_at,
        "wall_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _threads(),
        "digest": report_digest(workload.report(outcome)),
        "problems": workload.problems(outcome),
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    if host is not None:
        result["probe"] = {
            "setup": host.window(float("-inf"), ready),
            "campaign": host.window(start, end),
        }
    if recorder is not None:
        metrics = layers.layer_metrics(recorder, start, end, workload.end_state(outcome))
        metrics["process.minor_faults"] = faults1 - faults0
        metrics["process.sys_s"] = sys1 - sys0
        result["layers"] = metrics
        result["problems"] += layers.completeness_problems(
            recorder, metrics, workload.expected_layers, workload.bypassed_layers
        )
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # reported to the parent, which counts a failed sample
        print(json.dumps({"error": traceback.format_exc(limit=8)}))
        sys.exit(1)
