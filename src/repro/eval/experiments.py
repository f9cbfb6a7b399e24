"""Experiment runners: one function per paper table/figure.

Each runner reproduces the corresponding evaluation procedure of Sec. V on
the simulated library and returns structured results the benchmark
harness formats. See DESIGN.md's experiment index for the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..camera.photo import Photo
from ..core.tasks import TaskKind
from ..crowd.guided import GuidedRunResult
from ..mapping.coverage import CoverageMaps
from .datasets import (
    IncrementalMapEvaluator,
    IncrementalSeries,
    evaluate_incrementally,
    split_photos,
)
from .metrics import (
    FeaturelessTaskMetrics,
    MapEvaluation,
    evaluate_maps,
    featureless_surface_metrics,
)
from .workbench import Workbench


# --------------------------------------------------------------------------
# Guided experiment (SnapTask itself): Figs. 9-12 + Table I source data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GuidedExperimentResult:
    """The full guided campaign with per-task evaluation samples."""

    run: GuidedRunResult
    series: IncrementalSeries
    final_maps: CoverageMaps
    featureless: Tuple[FeaturelessTaskMetrics, ...]
    task_locations: Tuple[Tuple[str, float, float], ...]  # (kind, x, y)

    @property
    def final(self) -> MapEvaluation:
        return self.series.final

    @property
    def n_photo_tasks(self) -> int:
        return len([k for k, _x, _y in self.task_locations if k == "photo_collection"])

    @property
    def n_annotation_tasks(self) -> int:
        return len([k for k, _x, _y in self.task_locations if k == "annotation"])


def run_guided_experiment(
    bench: Workbench, max_tasks: int = 60, n_participants: int = 10
) -> GuidedExperimentResult:
    """Run the guided campaign and evaluate after every photo task."""
    pipeline = bench.make_pipeline()
    campaign = bench.make_guided_campaign(pipeline, n_participants)
    run = campaign.run(max_tasks=max_tasks)

    # Per-photo-task evaluation samples (Fig. 10 / Fig. 11 guided curve).
    samples: List[MapEvaluation] = []
    n_photos = 0
    for record in run.completed:
        if record.task.kind != TaskKind.PHOTO_COLLECTION:
            continue
        n_photos += record.n_photos
        samples.append(
            evaluate_maps(
                bench.venue,
                bench.ground_truth,
                record.outcome.maps,
                n_photos,
                bench.config.eval.bounds_merge_threshold_m,
            )
        )
    series = IncrementalSeries(label="SnapTask", samples=tuple(samples))

    model = pipeline.model()
    featureless: List[FeaturelessTaskMetrics] = []
    for i, record in enumerate(run.annotation_tasks, start=1):
        assert record.annotation is not None
        featureless.append(
            featureless_surface_metrics(
                record.annotation,
                model,
                bench.venue,
                task_number=i,
                merge_threshold_m=bench.config.eval.bounds_merge_threshold_m,
            )
        )
    locations = tuple(
        (record.task.kind.value, record.task.location.x, record.task.location.y)
        for record in run.completed
    )
    return GuidedExperimentResult(
        run=run,
        series=series,
        final_maps=pipeline.maps,
        featureless=tuple(featureless),
        task_locations=locations,
    )


# --------------------------------------------------------------------------
# Baseline experiments: opportunistic / unguided participatory
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BaselineExperimentResult:
    """A baseline campaign with its incremental S_i series."""

    label: str
    series: IncrementalSeries
    final_maps: CoverageMaps
    final_model: object
    n_photos_collected: int


def run_opportunistic_experiment(
    bench: Workbench,
    n_videos: int = 20,
    n_participants: int = 10,
    max_photos: Optional[int] = 700,
) -> BaselineExperimentResult:
    """Sec. V-B1: daily-activity videos -> sharpest frames -> S_i curve."""
    from ..crowd.participants import make_participants

    collector = bench.make_opportunistic_collector()
    participants = make_participants(
        n_participants, bench.rng.stream("opportunistic-participants")
    )
    dataset = collector.collect(participants, n_videos=n_videos)
    photos = list(dataset.photos)
    if max_photos is not None:
        photos = photos[:max_photos]
    return _evaluate_baseline(bench, photos, "Opportunistic", "opportunistic-eval")


def run_unguided_experiment(
    bench: Workbench,
    n_participants: int = 10,
    photos_per_participant: int = 100,
) -> BaselineExperimentResult:
    """Sec. V-B2: arbitrary photos, blur-filtered -> S_i curve."""
    from ..crowd.participants import make_participants

    collector = bench.make_unguided_collector()
    participants = make_participants(
        n_participants, bench.rng.stream("unguided-participants")
    )
    dataset = collector.collect(participants, photos_per_participant)
    return _evaluate_baseline(
        bench, list(dataset.photos), "Unguided participatory", "unguided-eval"
    )


def _evaluate_baseline(
    bench: Workbench, photos: List[Photo], label: str, rng_name: str
) -> BaselineExperimentResult:
    evaluator = IncrementalMapEvaluator(
        bench.world,
        bench.venue,
        bench.ground_truth,
        bench.config,
        bench.spec,
        bench.rng.stream(rng_name),
    )
    pipeline = bench.make_pipeline()  # only for bootstrap photo generation
    initial = bench.make_guided_campaign(pipeline, 2).bootstrap_photos()
    parts = split_photos(photos, bench.config.eval.photos_per_split)
    series = evaluate_incrementally(evaluator, initial, parts, label)
    return BaselineExperimentResult(
        label=label,
        series=series,
        final_maps=evaluator.current_maps(),
        final_model=evaluator.current_model(),
        n_photos_collected=len(photos),
    )
