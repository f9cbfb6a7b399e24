"""Evaluation metrics beyond plain coverage.

* :func:`evaluate_maps` — coverage% + outer-bounds% of one model state
  against ground truth (the Fig. 11 y-axes).
* :func:`featureless_surface_metrics` — per-annotation-task precision /
  recall / F-score of reconstructed featureless surfaces (Table I):
  "Precision, recall and F-score illustrates how well and how much of the
  ground truth wall did the annotated obstacles cover."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..annotation.tool import AnnotationTaskResult
from ..camera.photo import Photo
from ..geometry import merge_intervals, total_interval_length
from ..mapping.boundary import BoundsReport, outer_bounds_report
from ..mapping.coverage import CoverageMaps, CoverageScore, score_against_ground_truth
from ..sfm.model import SfmModel
from ..venue.ground_truth import GroundTruth
from ..venue.model import Venue
from ..venue.surfaces import Surface

#: Perpendicular tolerance for a reconstructed point to count as "on" the
#: ground-truth surface (metres).
SURFACE_TOLERANCE_M = 0.25


@dataclass(frozen=True)
class MapEvaluation:
    """Coverage% and bounds% of one model state (one Fig. 11 sample)."""

    n_photos: int
    coverage: CoverageScore
    bounds: BoundsReport

    @property
    def coverage_percent(self) -> float:
        return self.coverage.coverage_percent

    @property
    def bounds_percent(self) -> float:
        return self.bounds.percent


def evaluate_maps(
    venue: Venue,
    ground_truth: GroundTruth,
    maps: CoverageMaps,
    n_photos: int,
    merge_threshold_m: float = 0.15,
) -> MapEvaluation:
    """Score one (obstacles, visibility) pair against ground truth."""
    return MapEvaluation(
        n_photos=n_photos,
        coverage=score_against_ground_truth(
            maps, ground_truth.region_mask, ground_truth.obstacle_mask
        ),
        bounds=outer_bounds_report(venue, maps.obstacles, merge_threshold_m),
    )


@dataclass(frozen=True)
class FeaturelessTaskMetrics:
    """One Table I row."""

    task_number: int
    identified_surfaces: int
    reconstructed_surfaces: int
    precision: float
    recall: float

    @property
    def f_score(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)


def visible_extent_intervals(
    surface: Surface,
    photos: Sequence[Photo],
    venue: Venue,
    sample_step_m: float = 0.05,
) -> List[Tuple[float, float]]:
    """Portions of ``surface`` (as [t0, t1] metres along it) visible in
    at least one photo — Table I's recall denominator: "ground truth
    lengths of featureless obstacles visible in the photosets"."""
    seg = surface.segment
    n = max(2, int(np.ceil(seg.length / sample_step_m)) + 1)
    ts = np.linspace(0.0, 1.0, n)
    samples = np.array([[p.x, p.y] for p in (seg.point_at(float(t)) for t in ts)])

    seen = np.zeros(n, dtype=bool)
    for photo in photos:
        pose = photo.true_pose
        intr = photo.exif.intrinsics()
        rel = samples - np.array([pose.position.x, pose.position.y])
        bearings = np.arctan2(rel[:, 1], rel[:, 0]) - pose.yaw_rad
        bearings = (bearings + np.pi) % (2 * np.pi) - np.pi
        in_fov = np.abs(bearings) <= intr.hfov_rad / 2.0
        if not in_fov.any():
            continue
        mid_z = surface.base_z + surface.height / 2.0
        vis = venue.opaque_soup.visible(
            pose.position,
            samples[in_fov],
            target_margin=5e-3,
            origin_z=pose.height_m,
            target_z=np.full(int(in_fov.sum()), mid_z),
        )
        idx = np.nonzero(in_fov)[0][vis]
        seen[idx] = True

    intervals: List[Tuple[float, float]] = []
    half = (seg.length / (n - 1)) / 2.0
    for i in np.nonzero(seen)[0]:
        center = float(ts[i]) * seg.length
        intervals.append((max(0.0, center - half), min(seg.length, center + half)))
    return merge_intervals(intervals, gap=2.0 * half + 1e-9)


def featureless_surface_metrics(
    result: AnnotationTaskResult,
    model: SfmModel,
    venue: Venue,
    task_number: int,
    merge_threshold_m: float = 0.15,
) -> FeaturelessTaskMetrics:
    """Compute one Table I row for an executed annotation task."""
    cloud = model.cloud
    cloud_ids = cloud.feature_ids
    xy = cloud.floor_xy()

    reconstructed = 0
    inlier_points = 0
    total_points = 0
    recall_num = 0.0
    recall_den = 0.0

    for obj in result.imprint.objects:
        surface = venue.surface(obj.surface_id)
        seg = surface.segment
        obj_ids = np.asarray(obj.feature_ids, dtype=int)
        mask = np.isin(cloud_ids, obj_ids)
        if not mask.any():
            continue
        reconstructed += 1
        points = xy[mask]
        total_points += points.shape[0]

        a = np.array([seg.a.x, seg.a.y])
        d = np.array([seg.b.x - seg.a.x, seg.b.y - seg.a.y])
        length = float(np.hypot(*d))
        d_unit = d / length
        rel = points - a
        t = rel @ d_unit
        perp = np.abs(rel[:, 0] * (-d_unit[1]) + rel[:, 1] * d_unit[0])
        inlier = (perp <= SURFACE_TOLERANCE_M) & (t >= -SURFACE_TOLERANCE_M) & (
            t <= length + SURFACE_TOLERANCE_M
        )
        inlier_points += int(inlier.sum())

        # Recall: how much of the visible ground-truth extent is covered.
        visible = visible_extent_intervals(surface, result.photos, venue)
        covered = [
            (max(0.0, float(ti) - 0.075), min(length, float(ti) + 0.075))
            for ti in t[inlier]
        ]
        covered = merge_intervals(covered, merge_threshold_m)
        recall_den += total_interval_length(visible)
        recall_num += _intersection_length(covered, visible)

    precision = inlier_points / total_points if total_points else 0.0
    recall = min(1.0, recall_num / recall_den) if recall_den else 0.0
    return FeaturelessTaskMetrics(
        task_number=task_number,
        identified_surfaces=result.n_identified,
        reconstructed_surfaces=reconstructed,
        precision=precision,
        recall=recall,
    )


def _intersection_length(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> float:
    total = 0.0
    for lo_a, hi_a in a:
        for lo_b, hi_b in b:
            total += max(0.0, min(hi_a, hi_b) - max(lo_a, lo_b))
    return total
