"""Before/after timings for the columnar SfM core.

The registration phase of Algorithm 1 (``add_photos`` + ``model()`` +
the SOR filter) used to be O(model) per batch: every pending photo was
re-tested against a per-feature dict every fixpoint round, triangulation
scanned the whole observation table, ``model()`` rebuilt the point cloud
from per-point Python objects, and the SOR filter re-queried a fresh
KD-tree over the entire cloud. The columnar engine keys all four off the
batch *delta* (dense interning + vectorized bitmask registration, the
wavefront, O(delta) snapshots, cached-kNN SOR).

This bench records one guided fig10 campaign's exact SfM event stream
(photo batches + artificial-feature registrations, captured by wrapping
the live engine), then replays it twice — once through the preserved
from-scratch engine (:class:`~repro.sfm.scratch.ScratchSfm` plus
``sor_filter``), once through the columnar path — timing the full
registration-phase composition per batch and asserting inline that both
replays stay bit-identical. The committed artefacts are
``benchmarks/results/perf_sfm_core.txt`` (human-readable table) and
``benchmarks/results/BENCH_sfm.json`` (machine-readable, schema
``repro.bench.sfm/v1``, validated by CI).

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI): a short campaign whose
artefacts go to a temporary directory, equivalence + schema assertions
only — shared-runner timing is too noisy for a speedup floor.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.eval import Workbench
from repro.obs.bench import BENCH_SFM_SCHEMA, write_bench
from repro.sfm import IncrementalSfm, IncrementalSorFilter, sor_filter
from repro.sfm.scratch import ScratchSfm
from repro.simkit import RngStream

from .conftest import write_result

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Late-campaign window (ISSUE acceptance: batch >= 40 on the full run).
LATE_FROM_BATCH = 4 if SMOKE else 40
MAX_TASKS = 20 if SMOKE else 120
TARGET_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def recorded_events():
    """One guided campaign with the engine's SfM event stream captured."""
    bench = Workbench.for_library()
    pipeline = bench.make_pipeline()
    engine = pipeline.sfm
    events = []
    orig_add = engine.add_photos
    orig_register = engine.register_artificial_features

    def recording_add(photos):
        batch = list(photos)
        events.append(("add", batch))
        return orig_add(batch)

    def recording_register(ids, positions):
        ids, positions = [int(f) for f in ids], list(positions)
        events.append(("artificial", ids, positions))
        return orig_register(ids, positions)

    engine.add_photos = recording_add
    engine.register_artificial_features = recording_register
    campaign = bench.make_guided_campaign(pipeline, 10)
    campaign.run(max_tasks=MAX_TASKS)
    n_batches = sum(1 for e in events if e[0] == "add")
    assert n_batches > LATE_FROM_BATCH + 2, "campaign too short to compare"
    return bench, events


def _replay(bench, events, scratch):
    """Replay the event stream, timing the registration-phase composition.

    Per batch: ``add_photos`` + ``model()`` + SOR filter — exactly what
    ``SnapTaskPipeline.process_batch`` runs before the map merge.
    """
    cfg = bench.config.sfm
    engine_cls = ScratchSfm if scratch else IncrementalSfm
    engine = engine_cls(bench.world, cfg, RngStream(31337, "sfm-perf-replay"))
    sor = IncrementalSorFilter(cfg.sor_neighbors, cfg.sor_std_ratio)
    rows = []
    for event in events:
        if event[0] == "artificial":
            engine.register_artificial_features(event[1], event[2])
            continue
        batch = event[1]
        t0 = time.perf_counter()
        report = engine.add_photos(batch)
        model = engine.model()
        if scratch:
            filtered = sor_filter(model.cloud, cfg.sor_neighbors, cfg.sor_std_ratio)
        else:
            filtered = sor.filter(model.cloud)
        ms = (time.perf_counter() - t0) * 1e3
        rows.append(
            {
                "ms": ms,
                "points": len(model.cloud),
                "cameras": model.n_cameras,
                "pending": report.still_pending,
                "report": report,
                "filtered": filtered,
            }
        )
    return rows


def test_perf_columnar_vs_scratch(recorded_events, results_dir):
    bench, events = recorded_events
    scratch = _replay(bench, events, scratch=True)
    columnar = _replay(bench, events, scratch=False)
    assert len(scratch) == len(columnar)

    # Inline differential oracle: the replay being timed is the replay
    # being verified — per-batch reports and filtered clouds bit-identical.
    for s, c in zip(scratch, columnar):
        assert s["report"] == c["report"]
        np.testing.assert_array_equal(
            s["filtered"].feature_ids, c["filtered"].feature_ids
        )
        np.testing.assert_array_equal(s["filtered"].xyz, c["filtered"].xyz)
        np.testing.assert_array_equal(
            s["filtered"].view_counts, c["filtered"].view_counts
        )

    batches = [
        {
            "batch": i + 1,
            "points": s["points"],
            "cameras": s["cameras"],
            "pending": s["pending"],
            "scratch_ms": round(s["ms"], 3),
            "incremental_ms": round(c["ms"], 3),
            "speedup": round(s["ms"] / max(c["ms"], 1e-9), 2),
        }
        for i, (s, c) in enumerate(zip(scratch, columnar))
    ]
    late = [row for row in batches if row["batch"] >= LATE_FROM_BATCH]
    late_scratch = sum(row["scratch_ms"] for row in late)
    late_columnar = sum(row["incremental_ms"] for row in late)
    late_speedup = late_scratch / max(late_columnar, 1e-9)
    summary = {
        "late_from_batch": LATE_FROM_BATCH,
        "late_batches": len(late),
        "late_scratch_ms": round(late_scratch, 3),
        "late_incremental_ms": round(late_columnar, 3),
        "late_speedup": round(late_speedup, 2),
        "target_speedup": TARGET_SPEEDUP,
    }
    campaign = {
        "command": "bench:perf-sfm",
        "max_tasks": MAX_TASKS,
        "batches": len(batches),
        "smoke": SMOKE,
    }

    rows = [
        "batch  points  cameras  pending  scratch_ms  incremental_ms  speedup",
        "-----  ------  -------  -------  ----------  --------------  -------",
    ]
    for row in late:
        rows.append(
            f"{row['batch']:5d}  {row['points']:6d}  {row['cameras']:7d}  "
            f"{row['pending']:7d}  {row['scratch_ms']:10.2f}  "
            f"{row['incremental_ms']:14.2f}  {row['speedup']:6.1f}x"
        )
    total_scratch = sum(row["scratch_ms"] for row in batches)
    total_columnar = sum(row["incremental_ms"] for row in batches)
    rows.append("")
    rows.append(
        f"late batches (>= {LATE_FROM_BATCH}): scratch {late_scratch:.1f} ms vs "
        f"columnar {late_columnar:.1f} ms ({late_speedup:.1f}x)"
    )
    rows.append(
        f"full campaign ({len(batches)} batches): scratch {total_scratch:.1f} ms "
        f"vs columnar {total_columnar:.1f} ms "
        f"({total_scratch / max(total_columnar, 1e-9):.1f}x)"
    )
    write_result(results_dir, "perf_sfm_core", "\n".join(rows))
    # The writer validates the document in both modes.
    write_bench(
        results_dir / "BENCH_sfm.json", BENCH_SFM_SCHEMA, batches, summary, campaign
    )
    if SMOKE:
        return  # no timing floor on shared runners

    # Acceptance criterion (ISSUE): >= 3x on the late-campaign window,
    # where the asymptotic O(model)-vs-O(delta) gap dominates.
    assert late_speedup >= TARGET_SPEEDUP, (
        f"late-campaign speedup {late_speedup:.2f}x below the "
        f"{TARGET_SPEEDUP:.1f}x target"
    )
