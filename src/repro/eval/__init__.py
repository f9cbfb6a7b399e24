"""Evaluation: metrics, dataset splits, experiment runners, reporting."""

from .datasets import (
    IncrementalMapEvaluator,
    IncrementalSeries,
    evaluate_incrementally,
    split_photos,
)
from .experiments import (
    BaselineExperimentResult,
    GuidedExperimentResult,
    run_guided_experiment,
    run_opportunistic_experiment,
    run_unguided_experiment,
)
from .metrics import (
    FeaturelessTaskMetrics,
    MapEvaluation,
    evaluate_maps,
    featureless_surface_metrics,
    visible_extent_intervals,
)
from .paths import (
    path_statistics,
    render_photo_positions,
    render_task_positions,
)
from .reporting import (
    format_final_comparison,
    format_series_rows,
    format_series_table,
    format_table1,
)
from .workbench import Workbench

__all__ = [
    "BaselineExperimentResult",
    "FeaturelessTaskMetrics",
    "GuidedExperimentResult",
    "IncrementalMapEvaluator",
    "IncrementalSeries",
    "MapEvaluation",
    "Workbench",
    "evaluate_incrementally",
    "evaluate_maps",
    "featureless_surface_metrics",
    "format_final_comparison",
    "path_statistics",
    "render_photo_positions",
    "render_task_positions",
    "format_series_rows",
    "format_series_table",
    "format_table1",
    "run_guided_experiment",
    "run_opportunistic_experiment",
    "run_unguided_experiment",
    "split_photos",
    "visible_extent_intervals",
]
