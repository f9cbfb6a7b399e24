"""Mapping substrate: grids, octomap, obstacle/visibility maps, coverage."""

from .aspects import AspectCoverage, calculate_aspect_coverage
from .boundary import BoundsReport, outer_bounds_report, wall_covered_length
from .export import (
    floorplan_to_csv,
    floorplan_to_json,
    floorplan_to_pgm,
    read_pgm,
    spec_metadata,
)
from .coverage import CoverageMaps, CoverageScore, score_against_ground_truth
from .floorplan import export_layers, render_ascii
from .grid import Grid2D, GridSpec
from .incremental import IncrementalMapEngine, MapUpdate
from .obstacles import calculate_obstacles_map
from .octomap import OctoMap
from .visibility import calculate_visibility_map, camera_visible_cells

__all__ = [
    "AspectCoverage",
    "BoundsReport",
    "calculate_aspect_coverage",
    "CoverageMaps",
    "CoverageScore",
    "Grid2D",
    "GridSpec",
    "IncrementalMapEngine",
    "MapUpdate",
    "OctoMap",
    "calculate_obstacles_map",
    "calculate_visibility_map",
    "camera_visible_cells",
    "floorplan_to_csv",
    "floorplan_to_json",
    "floorplan_to_pgm",
    "read_pgm",
    "spec_metadata",
    "export_layers",
    "outer_bounds_report",
    "render_ascii",
    "score_against_ground_truth",
    "wall_covered_length",
]
