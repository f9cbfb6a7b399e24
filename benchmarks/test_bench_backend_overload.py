"""Extension bench: backend overload under a bounded SfM lane.

The paper's backend processes every upload the moment it arrives — an
infinite-server model with no queueing and no admission control. This
bench sweeps the SfM lane shape (worker count x admission-queue bound)
over one crowded deployment (four clients fed from a parallel task
stream) and measures what finite capacity costs: queue wait folded into
batch completion, shed uploads, client backpressure retries, and the
campaign outcome.

The four lane shapes are independent deployments, so they fan out
across the executor pool (``benchmarks/sweep.py``); a checkpoint-copy
microbench on a real exported state graph times the copy a checkpoint
makes (``copy.deepcopy``, as ``Snapshotter.checkpoint`` takes it) and
checks what that copy shares with the live graph: every photo and
recovered camera, and no task.

Rows encode the lane shape with ``workers=0`` for the infinite-server
model and ``queue_limit=-1`` for an unbounded admission queue (JSON has
no ``None``). Results land in ``overload_backend.txt`` (human-readable)
and ``BENCH_backend.json`` (``repro.bench.backend/v1``, CI-validated).

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI): a shorter horizon,
same sweep, same artefacts, written to a temporary directory.
"""

import copy
import os

from repro.camera.photo import Photo
from repro.config import paper_config
from repro.core.tasks import Task
from repro.eval import Workbench
from repro.obs.bench import BENCH_BACKEND_SCHEMA, write_bench
from repro.obs.wallclock import wall_now_s
from repro.persist.snapshot import structural_size
from repro.server import Deployment
from repro.sfm.model import RecoveredCamera
from tests.test_persist_sharing import objects, reachable

from .conftest import write_result
from .sweep import run_deployment_sweep

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SIM_HORIZON_S = 1_500.0 if SMOKE else 4_000.0
N_CLIENTS = 4
MAX_TASKS = 3  # parallel task stream: several clients upload concurrently

#: (sfm_workers, queue_limit) lane shapes; None/None is today's model.
SWEEP = ((None, None), (2, None), (1, None), (1, 0))

CHECKPOINT_REPS = 3 if SMOKE else 10


def _row(workers, queue_limit, report):
    return {
        "workers": 0 if workers is None else workers,
        "queue_limit": -1 if queue_limit is None else queue_limit,
        "sim_time_s": round(report["sim_time_s"], 3),
        "tasks_completed": report["tasks_completed"],
        "photos_uploaded": report["photos_uploaded"],
        "batches_shed": report["batches_shed"],
        "client_backpressure": report["client_backpressure"],
        "queue_wait_s": round(report["sfm_queue_wait_s"], 6),
        "peak_queue_depth": report["sfm_peak_queue_depth"],
        "service_time_s": round(report["sfm_service_time_s"], 6),
    }


def _checkpoint_copy():
    """Time one real checkpoint copy and sort what it shares.

    Copies the state graph a crowded deployment actually exports, the
    way ``Snapshotter.checkpoint`` does, so the datapoint measures the
    copy the durability lane pays on every snapshot cadence. Returns the
    mean copy time and, per kind, the ids reachable from the live graph
    and from the copy.
    """
    deployment = Deployment(
        Workbench.for_library(paper_config()), n_clients=N_CLIENTS
    )
    deployment.run(until_s=SIM_HORIZON_S / 2, max_events=250_000)
    server = deployment.server
    kinds = (Photo, RecoveredCamera, Task)
    state = server.export_state()
    t0 = wall_now_s()
    for _ in range(CHECKPOINT_REPS):
        image = copy.deepcopy(state)
    copy_s = (wall_now_s() - t0) / CHECKPOINT_REPS
    live, copied = reachable(state, kinds), reachable(image, kinds)
    # The copy must capture the same logical state.
    assert structural_size(image) == structural_size(state)
    ids = {
        kind: (objects(live, kind).keys(), objects(copied, kind).keys())
        for kind in kinds
    }
    return copy_s, ids


def test_bench_backend_overload_sweep(benchmark, results_dir):
    specs = [
        {
            "n_clients": N_CLIENTS,
            "max_tasks": MAX_TASKS,
            "sfm_workers": workers,
            "sfm_queue_limit": queue_limit,
            "until_s": SIM_HORIZON_S,
            "max_events": 500_000,
        }
        for workers, queue_limit in SWEEP
    ]

    def sweep():
        payloads = run_deployment_sweep(specs)
        return {
            shape: payload["report"]
            for shape, payload in zip(SWEEP, payloads)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    copy_s, ids = _checkpoint_copy()
    shared = {kind: len(live & copied) for kind, (live, copied) in ids.items()}

    baseline = results[(None, None)]
    lines = [
        "Extension: bounded SfM lane under a crowded deployment",
        f"({N_CLIENTS} clients, max_tasks={MAX_TASKS}, horizon "
        f"{SIM_HORIZON_S:.0f} s; workers=inf is the paper's model)",
        "",
        f"{'workers':>7} {'qlimit':>6} {'tasks':>6} {'photos':>7} "
        f"{'shed':>5} {'backpr':>7} {'q wait s':>9} {'peak q':>7}",
    ]
    rows = []
    for (workers, queue_limit), report in results.items():
        w = "inf" if workers is None else str(workers)
        q = "inf" if queue_limit is None else str(queue_limit)
        lines.append(
            f"{w:>7} {q:>6} {report['tasks_completed']:>6} "
            f"{report['photos_uploaded']:>7} {report['batches_shed']:>5} "
            f"{report['client_backpressure']:>7} {report['sfm_queue_wait_s']:>9.2f} "
            f"{report['sfm_peak_queue_depth']:>7}"
        )
        rows.append(_row(workers, queue_limit, report))
    lines.append("")
    lines.append(
        "finite capacity folds queue wait into completion (workers=1), and "
        "a zero-length admission queue converts that wait into shed uploads "
        "the clients absorb with retry_after backoff — the campaign keeps "
        "converging either way."
    )
    lines.append("")
    lines.append(
        f"checkpoint copy of one exported state graph "
        f"({CHECKPOINT_REPS} reps): copy.deepcopy {copy_s * 1e3:.2f} ms; it "
        f"shares {shared[Photo]} photos and {shared[RecoveredCamera]} recovered "
        f"cameras with the live graph and copies all {len(ids[Task][1])} tasks"
    )
    write_result(results_dir, "overload_backend", "\n".join(lines))

    summary = {
        "rows": len(rows),
        "baseline_tasks_completed": baseline["tasks_completed"],
        "max_queue_wait_s": round(
            max(r["sfm_queue_wait_s"] for r in results.values()), 6
        ),
        "total_shed": sum(r["batches_shed"] for r in results.values()),
        "checkpoint_copy_ms": round(copy_s * 1e3, 3),
        "checkpoint_shared_photos": shared[Photo],
        "checkpoint_shared_cameras": shared[RecoveredCamera],
        "checkpoint_copied_tasks": len(ids[Task][1]),
    }
    write_bench(
        results_dir / "BENCH_backend.json",
        BENCH_BACKEND_SCHEMA,
        rows,
        summary,
        campaign={
            "n_clients": N_CLIENTS,
            "max_tasks": MAX_TASKS,
            "horizon_s": SIM_HORIZON_S,
            "smoke": SMOKE,
        },
    )

    # The infinite-server model never queues, waits, or sheds.
    assert baseline["batches_shed"] == 0
    assert baseline["client_backpressure"] == 0
    assert baseline["sfm_queue_wait_s"] == 0.0
    assert baseline["sfm_peak_queue_depth"] == 0

    # A single worker with an unbounded queue makes batches actually wait.
    squeezed = results[(1, None)]
    assert squeezed["sfm_queue_wait_s"] > 0.0
    assert squeezed["sfm_peak_queue_depth"] >= 1
    assert squeezed["batches_shed"] == 0  # unbounded queue never sheds

    # A zero-length admission queue sheds instead of queueing; clients
    # honor retry_after and the campaign still makes progress.
    shedding = results[(1, 0)]
    assert shedding["batches_shed"] > 0
    assert shedding["client_backpressure"] > 0
    assert shedding["sfm_peak_queue_depth"] == 0
    for report in results.values():
        assert report["tasks_completed"] > 0

    # The checkpoint copy shares every photo and recovered camera with
    # the live graph (they are never written after they are built), and
    # copies every task.
    for kind in (Photo, RecoveredCamera):
        live, copied = ids[kind]
        assert copied and copied == live, kind.__name__
    live, copied = ids[Task]
    assert copied and not copied & live
