"""The benchmark's three workloads.

Each workload is a batch job with a fixed input: the seed and the horizon
decide everything it does, so its wall time is the host time to finish a
known amount of work. A workload is split into the parts the benchmark
times separately:

* ``setup(seed)`` -- imports plus a ready ``Workbench`` (``setup_s``);
* ``campaign(prepared)`` -- build the campaign objects and run them to
  the final report (``wall_s``);
* ``report(outcome)`` -- the frozen report whose ``report_projection``
  digest is checked against the one pinned for its campaign;
* ``problems(outcome)`` -- the seed-independent checks, run at every
  seed;
* ``end_state(outcome)`` -- public end-of-run counters for the trace.

Imports of ``repro`` happen inside ``setup`` so that the imports a
workload needs are part of its set-up time, as they are for a CLI user.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Tuple

DEFAULT_SEED = 2018
#: A second pinned seed, kept out of tuning so that a claim can be
#: re-checked on a seed not used while writing it.
HELD_OUT_SEED = 55
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: Deployment horizon (simulated seconds): early in the campaign, while
#: the model is still small (the ROADMAP reference run).
DEPLOY_UNTIL_S = 2000.0
DEPLOY_CLIENTS = 2

#: deploy-durable's single backend crash: (sim time, downtime) seconds.
DURABLE_CRASH = (1000.0, 60.0)

#: The fig10 guided campaign: task budget and crowd size.
GUIDED_MAX_TASKS = 120
GUIDED_PARTICIPANTS = 10


def campaign_seed(seed: int) -> int:
    """The campaign seed that benchmark seed ``seed`` runs.

    How much work a campaign does depends on its seed: over seeds 0-62 a
    guided campaign took 32 to 60 photo tasks, and by the deploy horizon
    the model held 4,247 to 10,630 points over seeds 0-59. So the held-out
    seed runs its own campaign and every other seed runs the default
    seed's, and runs at different seeds do the same work.
    """
    return HELD_OUT_SEED if seed == HELD_OUT_SEED else DEFAULT_SEED


@dataclasses.dataclass(frozen=True)
class GuidedReport:
    """What the guided campaign produced, in exactly comparable fields."""

    venue_covered: bool
    photo_tasks: int
    annotation_tasks: int
    collection_photos: int
    coverage_cells: int
    model_points: int
    model_cameras: int
    task_locations: Tuple[Tuple[str, float, float], ...]


def report_digest(report) -> str:
    """sha256 of the canonical JSON of ``report_projection(report)``."""
    from repro.testkit.digests import report_projection

    text = json.dumps(
        report_projection(report), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DeployWorkload:
    """``repro deploy --clients 2 --until 2000``, optionally durable."""

    def __init__(self, name: str, durable: bool):
        self.name = name
        self.durable = durable
        # Layers whose entry points must record calls (completeness check)
        # and layers this workload bypasses (must record none).
        self.expected_layers = (
            "venue", "camera", "nav", "sfm", "mapping", "core", "server", "simkit",
        ) + (("persist",) if durable else ())
        self.bypassed_layers = () if durable else ("persist",)

    def setup(self, seed: int):
        from repro.config import paper_config
        from repro.eval import Workbench
        from repro.server import Deployment

        config = paper_config(seed=campaign_seed(seed))
        faults = None
        if self.durable:
            config = config.with_persistence()
            faults = dataclasses.replace(
                config.network.faults, backend_crashes=(DURABLE_CRASH,)
            )
        return Deployment, Workbench.for_library(config), faults

    def campaign(self, prepared):
        deployment_cls, bench, faults = prepared
        deployment = deployment_cls(bench, n_clients=DEPLOY_CLIENTS, faults=faults)
        return deployment, deployment.run(until_s=DEPLOY_UNTIL_S)

    def report(self, outcome):
        return outcome[1]

    def problems(self, outcome) -> List[str]:
        deployment, report = outcome
        found = []
        if report.photos_uploaded <= 0:
            found.append("no photos uploaded")
        if not self.durable:
            if report.wal_records or report.backend_crashes:
                found.append("persistence ran with persistence off")
            return found
        if report.backend_crashes != 1:
            found.append(f"expected 1 crash, saw {report.backend_crashes}")
        if report.backend_recoveries != report.backend_crashes:
            found.append(
                f"{report.backend_recoveries} recoveries for "
                f"{report.backend_crashes} crashes"
            )
        bad = [i for i, a in enumerate(deployment.host.recovery_audits) if not a.audit_ok]
        if bad:
            found.append(f"recovery audits failed: {bad}")
        return found

    def end_state(self, outcome) -> Dict[str, int]:
        deployment = outcome[0]
        host = deployment.host
        return {
            "simkit.events": deployment.simulator.processed_events,
            "persist.wal_bytes": host.wal.size_bytes if host is not None else 0,
        }


class GuidedWorkload:
    """The fig10 guided campaign, run until the venue is covered."""

    name = "guided-full"
    expected_layers = (
        "venue", "camera", "nav", "sfm", "mapping", "core", "annotation", "crowd",
    )
    bypassed_layers = ("server", "simkit", "persist")

    def setup(self, seed: int):
        from repro.config import paper_config
        from repro.eval import Workbench

        return Workbench.for_library(
            paper_config(seed=campaign_seed(seed))
        )

    def campaign(self, bench):
        pipeline = bench.make_pipeline()
        campaign = bench.make_guided_campaign(pipeline, GUIDED_PARTICIPANTS)
        return pipeline, campaign.run(max_tasks=GUIDED_MAX_TASKS)

    def report(self, outcome) -> GuidedReport:
        pipeline, run = outcome
        model = pipeline.model()
        return GuidedReport(
            venue_covered=run.venue_covered,
            photo_tasks=len(run.photo_tasks),
            annotation_tasks=len(run.annotation_tasks),
            collection_photos=run.n_collection_photos,
            coverage_cells=pipeline.coverage_cells,
            model_points=model.n_points,
            model_cameras=model.n_cameras,
            task_locations=tuple(
                (c.task.kind.value, c.task.location.x, c.task.location.y)
                for c in run.completed
            ),
        )

    def problems(self, outcome) -> List[str]:
        return [] if outcome[1].venue_covered else ["venue not covered"]

    def end_state(self, outcome) -> Dict[str, int]:
        return {"simkit.events": 0, "persist.wal_bytes": 0}


WORKLOADS = {
    w.name: w
    for w in (
        DeployWorkload("deploy-ref", durable=False),
        GuidedWorkload(),
        DeployWorkload("deploy-durable", durable=True),
    )
}
