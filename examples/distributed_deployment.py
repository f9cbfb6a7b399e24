#!/usr/bin/env python3
"""A distributed SnapTask deployment: backend + concurrent mobile clients.

Runs the full client/server system of Sec. III on a discrete-event
simulation: three phones concurrently request tasks, walk to them with AR
navigation, capture 360° photo sets and stream them over latency- and
bandwidth-limited links to one backend whose SfM processing takes real
(simulated) time. Prints system-level metrics a distributed-systems
reader cares about: makespan, uploaded traffic, per-client workload.

Run:  python examples/distributed_deployment.py
"""

from repro.eval import Workbench
from repro.server import Deployment


def main() -> None:
    bench = Workbench.for_library()
    print(bench.venue.describe())
    print()

    deployment = Deployment(bench, n_clients=3)
    print("running deployment with 3 concurrent mobile clients...")
    report = deployment.run(until_s=40_000.0)

    print()
    print(f"venue covered:        {report.venue_covered}")
    print(f"simulated makespan:   {report.sim_time_s / 60:.1f} minutes")
    print(f"events processed:     {report.events_processed}")
    print(f"tasks completed:      {report.tasks_completed}")
    print(f"photos uploaded:      {report.photos_uploaded}")
    print(f"uplink traffic:       {report.total_traffic_mb / 1024:.2f} GB")
    print()

    print(f"{'client':>10} {'tasks':>6} {'photo':>6} {'annot':>6} {'photos':>7} {'walk s':>8}")
    for client in deployment.clients:
        s = client.stats
        print(
            f"{client.client_id:>10} {s.tasks_completed:>6} {s.photo_tasks:>6} "
            f"{s.annotation_tasks:>6} {s.photos_uploaded:>7} {s.walk_time_s:>8.1f}"
        )

    store = deployment.server.store
    pipeline = deployment.pipeline
    print()
    print(f"backend processed photos: {store.counter('photos_processed')}")
    print(f"batches processed:        {pipeline.iteration}")
    print(f"task ledger:              {store.tasks_by_status()}")
    if pipeline.iteration:
        region = bench.ground_truth.region_cells
        covered = int(
            (pipeline.maps.covered_mask() & bench.ground_truth.region_mask).sum()
        )
        print(f"final coverage:           {100.0 * covered / region:.2f}% of the venue")


if __name__ == "__main__":
    main()
