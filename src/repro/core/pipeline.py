"""Algorithm 1: the SnapTask backend processing pipeline.

    Input: set of photos P, existing model M, current model coverage C,
           task location L
    Output: new model Mf, obstacles map O, visibility map CV, tasks T

     1: build an SfM model M1 from P and M
     2: Mf <= sorFilter(M1)
     3: O <= calculateObstaclesMap(Mf)
     4: CV <= calculateVisibilityMap(Mf, O)
     5: coverage <= O u CV
     6: if P in Mf and coverage > C:
     7:   areas <= findUnvisited(O, CV, MAX_TASKS)
     8:   T <= (empty if no areas else setLocationNextTasks(areas))
    13: else:
    14:   quality <= checkPhotoQuality(P)
    15:   if quality <= LOW_QUALITY:       T <= generateTask(L)
    17:   else if triedAtLocation(L) > TT: T <= generateAnnotationTask(L)

This module keeps the pipeline state across iterations: the incremental
SfM engine, the last batch's outcome (which holds the current maps), the
scalar coverage C, and the per-location attempt counters that drive
annotation-task escalation. Past outcomes are not kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..camera.photo import Photo
from ..config import SnapTaskConfig
from ..errors import TaskGenerationError
from ..geometry import Vec2, Vec3
from ..mapping import (
    CoverageMaps,
    GridSpec,
    IncrementalMapEngine,
    MapUpdate,
)
from ..obs import Telemetry
from ..obs.wallclock import wall_now_s
from ..sfm import IncrementalSfm, IncrementalSorFilter, RegistrationReport, SfmModel
from ..simkit.rng import RngStream
from ..venue.features import FeatureWorld
import numpy as np

from .quality import QualityReport, check_photo_quality
from .tasks import Task, TaskFactory, TaskKind
from .unvisited import UnvisitedArea, find_unvisited, unvisited_region_at


@dataclass(frozen=True)
class BatchOutcome:
    """Everything Algorithm 1 returns for one processed batch."""

    iteration: int
    report: RegistrationReport
    model: SfmModel
    maps: CoverageMaps
    coverage_cells: int
    previous_coverage_cells: int
    photos_added: bool
    quality: Optional[QualityReport]
    new_tasks: Tuple[Task, ...]
    unvisited_areas: Tuple[UnvisitedArea, ...]
    venue_covered: bool
    map_update: Optional[MapUpdate] = None

    @property
    def coverage_increased(self) -> bool:
        return self.coverage_cells > self.previous_coverage_cells


class SnapTaskPipeline:
    """Stateful backend: incremental model + maps + task generation."""

    def __init__(
        self,
        world: FeatureWorld,
        config: SnapTaskConfig,
        spec: GridSpec,
        initial_position: Vec2,
        rng: RngStream,
        site_mask=None,
        telemetry: Optional[Telemetry] = None,
    ):
        self._world = world
        self._config = config
        self._spec = spec
        self._initial_position = initial_position
        self._site_mask = site_mask
        obs = telemetry if telemetry is not None else Telemetry()
        self._tracer = obs.tracer
        metrics = obs.metrics
        # Wall-time phase histograms (seconds); BENCH_pipeline.json is
        # derived from exactly these names (repro.obs.bench.PHASE_PREFIX).
        self._h_phase = {
            name: metrics.histogram(f"repro.pipeline.phase.{name}")
            for name in ("registration", "map_merge", "unvisited", "task_gen", "total")
        }
        self._m_batches = metrics.counter("repro.pipeline.batches")
        self._m_tasks_generated = metrics.counter("repro.pipeline.tasks_generated")
        self._sfm = IncrementalSfm(world, config.sfm, rng.child("sfm"), telemetry=obs)
        # Incremental SOR (Algorithm 1 line 2): per-point kNN caches keyed
        # to the growing reconstruction; bit-identical to ``sor_filter``.
        self._sor = IncrementalSorFilter(
            config.sfm.sor_neighbors, config.sfm.sor_std_ratio, telemetry=obs
        )
        # Incremental map maintenance (DESIGN.md §5): obstacles, visibility
        # and coverage are updated by delta instead of rebuilt per batch.
        self._map_engine = IncrementalMapEngine(
            spec,
            obstacle_threshold=config.tasks.obstacle_threshold,
            max_range_m=config.sfm.visibility_range_m,
            site_mask=site_mask,
            telemetry=obs,
        )
        self._factory = TaskFactory()
        self._iteration = 0
        self._coverage_cells = 0
        self._last: Optional[BatchOutcome] = None
        self._attempts: Dict[Tuple[int, int], int] = {}
        self._annotated_keys: Dict[Tuple[int, int], int] = {}
        self._written_off = np.zeros(spec.shape, dtype=bool)
        self._venue_covered = False
        self._grew_tasks: set = set()

    # -- state access -----------------------------------------------------------

    @property
    def config(self) -> SnapTaskConfig:
        return self._config

    @property
    def site_mask(self):
        """The venue region mask coverage is counted against (or None)."""
        return self._site_mask

    @property
    def spec(self) -> GridSpec:
        return self._spec

    @property
    def iteration(self) -> int:
        return self._iteration

    @property
    def coverage_cells(self) -> int:
        return self._coverage_cells

    @property
    def maps(self) -> CoverageMaps:
        if self._last is None:
            raise TaskGenerationError("pipeline has not processed any batch yet")
        return self._last.maps

    @property
    def last_outcome(self) -> Optional[BatchOutcome]:
        """The latest batch's outcome, or ``None`` before the first batch."""
        return self._last

    @property
    def venue_covered(self) -> bool:
        return self._venue_covered

    @property
    def sfm(self) -> IncrementalSfm:
        return self._sfm

    def model(self) -> SfmModel:
        return self._sfm.model()

    def register_artificial_features(self, ids, positions: Sequence[Vec3]) -> None:
        """Expose Algorithm 6's artificial-feature registration."""
        self._sfm.register_artificial_features(ids, positions)

    # -- Algorithm 1 -------------------------------------------------------------

    def process_batch(
        self, photos: Sequence[Photo], task: Optional[Task] = None
    ) -> BatchOutcome:
        """Run one Algorithm-1 iteration over an uploaded photo batch."""
        photos = list(photos)
        if not photos:
            raise TaskGenerationError("empty photo batch")
        self._iteration += 1
        previous_coverage = self._coverage_cells
        t_total = wall_now_s()

        t0 = t_total
        report = self._sfm.add_photos(photos)  # line 1
        model = self._sfm.model()
        filtered_cloud = self._sor.filter(model.cloud)  # line 2
        self._phase("registration", t0, photos=len(photos))
        t0 = wall_now_s()
        # Lines 3-5 via the incremental engine: the SfM deltas (new points
        # + new cameras, see ``report``) plus SOR churn dirty only a small
        # region of the maps; everything else is reused from the previous
        # iteration. Cell-exactness vs calculate_obstacles_map /
        # calculate_visibility_map is enforced by the differential oracle
        # in tests/test_incremental_equivalence.py.
        map_update = self._map_engine.update(model, filtered_cloud)
        obstacles = map_update.maps.obstacles  # line 3
        visibility = map_update.maps.visibility  # line 4
        maps = map_update.maps
        coverage = map_update.covered_cells  # line 5
        self._phase("map_merge", t0, dirty_cells=map_update.dirty_obstacle_cells)
        t0 = wall_now_s()

        photos_added = report.any_registered
        quality: Optional[QualityReport] = None
        tasks: List[Task] = []
        areas: Tuple[UnvisitedArea, ...] = ()

        grew_coverage = (
            coverage > previous_coverage + self._config.tasks.min_growth_cells
        )
        # "the photos ... did not contribute in growing the 3D model"
        # (Sec. IV-A): photos that only re-observe known structure add no
        # new points — the signature of facing a featureless surface.
        grew_model = report.new_points >= self._config.tasks.min_new_points
        if photos_added and grew_coverage and grew_model:  # line 6
            found, covered = self._find_next_areas(obstacles, visibility)
            areas = tuple(found)
            if covered:  # line 8-9: venue fully covered
                self._venue_covered = True
            else:  # line 11
                tasks = [
                    self._factory.photo_task(area.center_world, self._iteration)
                    for area in found
                ]
            if task is not None:
                self._attempts.pop(self._location_key(task.location), None)
                self._grew_tasks.add(task.task_id)
        elif task is not None and task.task_id in self._grew_tasks:
            # A streamed capture already grew the model and received its
            # follow-up task from an earlier sub-batch; trailing sub-batches
            # of the same capture are redundant views, not failures.
            quality = check_photo_quality(photos, self._config.tasks.low_quality_laplacian)
        else:  # lines 13-20
            quality = check_photo_quality(photos, self._config.tasks.low_quality_laplacian)
            if task is not None:
                location = task.location
                key = self._location_key(location)
                if task.kind == TaskKind.ANNOTATION:
                    # A fruitless annotation answers the question the photo
                    # attempts were asking; skip straight to escalation.
                    self._attempts[key] = max(
                        self._attempts.get(key, 0),
                        self._config.tasks.annotation_trigger_attempts,
                    )
                if quality.is_low_quality:  # line 15-16: reassign same task
                    tasks = [
                        self._factory.photo_task(
                            location, self._iteration, reissue_of=task.task_id
                        )
                    ]
                else:
                    attempts = self._bump_attempts(location)
                    if attempts <= self._config.tasks.annotation_trigger_attempts:
                        tasks = [
                            self._factory.photo_task(
                                location, self._iteration, reissue_of=task.task_id
                            )
                        ]
                    elif (
                        self._annotated_keys.get(key, 0)
                        < self._config.tasks.max_annotations_per_location
                    ):
                        self._annotated_keys[key] = self._annotated_keys.get(key, 0) + 1
                        self._attempts.pop(key, None)  # line 17-18
                        tasks = [
                            self._factory.annotation_task(
                                location, self._iteration, reissue_of=task.task_id
                            )
                        ]
                    else:
                        # Termination guard (extension; see DESIGN.md): both
                        # repeated photo collection and annotation failed to
                        # grow the model here, so the surrounding unvisited
                        # pocket is unmappable (e.g. the inside of a solid
                        # obstacle). Write it off and move on.
                        self._write_off(obstacles, visibility, location)
                        self._attempts.pop(key, None)
                        found, covered = self._find_next_areas(obstacles, visibility)
                        areas = tuple(found)
                        if covered:
                            self._venue_covered = True
                        else:
                            tasks = [
                                self._factory.photo_task(
                                    area.center_world, self._iteration
                                )
                                for area in found
                            ]

        # task_gen covers the whole line 6-20 decision (the nested
        # flood-fill time is also reported separately as "unvisited").
        self._phase("task_gen", t0, tasks=len(tasks))
        self._phase("total", t_total)
        self._m_batches.inc()
        self._m_tasks_generated.inc(len(tasks))
        self._coverage_cells = coverage
        self._last = BatchOutcome(
            iteration=self._iteration,
            report=report,
            model=model.with_cloud(filtered_cloud),
            maps=maps,
            coverage_cells=coverage,
            previous_coverage_cells=previous_coverage,
            photos_added=photos_added,
            quality=quality,
            new_tasks=tuple(tasks),
            unvisited_areas=areas,
            venue_covered=self._venue_covered,
            map_update=map_update,
        )
        return self._last

    def _phase(self, name: str, t0: float, **attrs) -> None:
        """Close one wall-time phase: histogram record + instant span."""
        dt = wall_now_s() - t0
        self._h_phase[name].record(dt)
        self._tracer.instant(
            f"pipeline.{name}",
            category="pipeline",
            iteration=self._iteration,
            wall_phase_ms=dt * 1e3,
            **attrs,
        )

    def _find_next_areas(self, obstacles, visibility):
        """findUnvisited with the site and write-off masks applied.

        Returns (areas, venue_covered).
        """
        t0 = wall_now_s()
        mask = ~self._written_off
        if self._site_mask is not None:
            mask = mask & self._site_mask
        found = find_unvisited(  # line 7
            obstacles,
            visibility,
            self._initial_position,
            self._config.tasks.max_tasks,
            self._config.tasks.covered_view_tolerance,
            self._config.min_area_cells,
            site_mask=mask,
            expansion_cap_cells=self._config.min_area_cells
            * self._config.tasks.area_expansion_factor,
        )
        self._phase("unvisited", t0, areas=len(found))
        return found, not found

    def _write_off(self, obstacles, visibility, location: Vec2) -> None:
        region = unvisited_region_at(
            obstacles,
            visibility,
            location,
            self._config.tasks.covered_view_tolerance,
            cap_cells=4 * self._config.min_area_cells,
            site_mask=self._site_mask,
        )
        for cell in region:
            self._written_off[cell] = True

    def attempts_at(self, location: Vec2) -> int:
        """triedAtLocation(L) — failed good-quality attempts near L."""
        return self._attempts.get(self._location_key(location), 0)

    # -- internals -----------------------------------------------------------------

    def _bump_attempts(self, location: Vec2) -> int:
        key = self._location_key(location)
        self._attempts[key] = self._attempts.get(key, 0) + 1
        return self._attempts[key]

    @staticmethod
    def _location_key(location: Vec2) -> Tuple[int, int]:
        """Locations within ~0.5 m share one attempt counter."""
        return (int(round(location.x * 2)), int(round(location.y * 2)))
