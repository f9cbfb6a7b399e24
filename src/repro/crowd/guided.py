"""Guided participatory VCS — the full SnapTask campaign loop (Sec. III).

The user scenario, end to end:

1. bootstrap: "we shot a 2-minutes video near the entrance, and collected
   39 photos for geo-calibration. From the video we extracted 46 frames"
   -> initial model;
2. the backend generates a task; a participant navigates to it (AR
   navigation, <= 1 m positioning error) and performs the 360° capture
   (one photo every 8 degrees);
3. the batch is processed by Algorithm 1, which yields the next task —
   photo collection or featureless-surface annotation;
4. "the loop continues until the system determines that the area is fully
   covered and no more tasks are sent to mobile clients."
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..annotation.tool import AnnotationCampaign, AnnotationTaskResult
from ..camera.capture import CaptureSimulator
from ..camera.photo import Photo
from ..core.pipeline import BatchOutcome, SnapTaskPipeline
from ..core.tasks import Task, TaskKind
from ..errors import SimulationError
from ..geometry import Vec2
from ..nav.navigation import Navigator
from ..simkit.rng import RngStream
from ..venue.model import Venue
from .participants import Participant

#: Steady guided rotation produces very little motion blur.
GUIDED_BASE_BLUR = 0.03

#: Geo-calibration photo count at bootstrap (Sec. V-A).
GEO_CALIBRATION_PHOTOS = 39

#: Video frames extracted from the bootstrap video (Sec. V-A).
BOOTSTRAP_VIDEO_FRAMES = 46


@dataclass(frozen=True)
class CompletedTask:
    """One executed task with its pipeline outcome."""

    task: Task
    participant: str
    arrived_at: Optional[Vec2]
    n_photos: int
    outcome: BatchOutcome
    annotation: Optional[AnnotationTaskResult] = None
    next_tasks: Tuple[Task, ...] = ()


@dataclass(frozen=True)
class GuidedRunResult:
    """A whole guided campaign."""

    bootstrap_outcome: BatchOutcome
    completed: Tuple[CompletedTask, ...]
    venue_covered: bool

    @property
    def photo_tasks(self) -> List[CompletedTask]:
        return [c for c in self.completed if c.task.kind == TaskKind.PHOTO_COLLECTION]

    @property
    def annotation_tasks(self) -> List[CompletedTask]:
        return [c for c in self.completed if c.task.kind == TaskKind.ANNOTATION]

    @property
    def n_collection_photos(self) -> int:
        """Photos taken for reconstruction by photo tasks (excl. bootstrap)."""
        return sum(c.n_photos for c in self.photo_tasks)


class GuidedCampaign:
    """Drives the guided loop against a :class:`SnapTaskPipeline`."""

    def __init__(
        self,
        venue: Venue,
        capture: CaptureSimulator,
        pipeline: SnapTaskPipeline,
        navigator: Navigator,
        annotation: AnnotationCampaign,
        participants: Sequence[Participant],
        rng: RngStream,
    ):
        if not participants:
            raise SimulationError("guided campaign needs participants")
        self._venue = venue
        self._capture = capture
        self._pipeline = pipeline
        self._navigator = navigator
        self._annotation = annotation
        self._participants = list(participants)
        self._rng = rng
        self._clock_s = 0.0

    # -- bootstrap -----------------------------------------------------------

    def bootstrap(self) -> BatchOutcome:
        """Create the initial model from entrance video + geo-calibration."""
        photos = self.bootstrap_photos()
        return self._pipeline.process_batch(photos)

    def bootstrap_photos(self) -> List[Photo]:
        participant = self._participants[0]
        entrance = self._venue.entrance
        rng = self._rng.child("bootstrap")
        photos: List[Photo] = []

        # Video walk: a slow arc near the entrance, 46 extracted frames.
        for i in range(BOOTSTRAP_VIDEO_FRAMES):
            angle = 2.0 * math.pi * i / BOOTSTRAP_VIDEO_FRAMES
            offset = Vec2.from_angle(angle, 0.5 + 0.3 * rng.uniform())
            position = entrance + offset
            if not self._venue.is_traversable(position):
                position = entrance
            pose = self._sweep_pose(position, angle + rng.normal(0.0, 0.2))
            photos.append(
                self._capture.take_photo(
                    pose,
                    participant.device,
                    blur=participant.blur_for(0.08, rng.child(f"vframe-{i}")),
                    timestamp_s=self._tick(0.5),
                    source="bootstrap-video",
                )
            )
        # Geo-calibration ring: 39 stills around the entrance.
        for i in range(GEO_CALIBRATION_PHOTOS):
            yaw = 2.0 * math.pi * i / GEO_CALIBRATION_PHOTOS
            photos.append(
                self._capture.take_photo(
                    self._sweep_pose(entrance, yaw),
                    participant.device,
                    blur=participant.blur_for(GUIDED_BASE_BLUR, rng.child(f"geo-{i}")),
                    timestamp_s=self._tick(1.0),
                    source="geo-calibration",
                )
            )
        return photos

    # -- campaign loop ------------------------------------------------------------

    def run(self, max_tasks: int = 60) -> GuidedRunResult:
        """Execute the guided loop until coverage or the task budget ends."""
        bootstrap_outcome = self.bootstrap()
        completed: List[CompletedTask] = []
        pending = list(bootstrap_outcome.new_tasks)
        position = self._venue.entrance
        task_round = 0

        while pending and task_round < max_tasks and not self._pipeline.venue_covered:
            task = pending.pop(0)
            participant = self._participants[task_round % len(self._participants)]
            task_round += 1

            if task.kind == TaskKind.PHOTO_COLLECTION:
                record, position = self._execute_photo_task(task, participant, position)
            else:
                record = self._execute_annotation_task(task, participant)
            completed.append(record)
            pending.extend(record.next_tasks)

        return GuidedRunResult(
            bootstrap_outcome=bootstrap_outcome,
            completed=tuple(completed),
            venue_covered=self._pipeline.venue_covered,
        )

    # -- task execution ------------------------------------------------------------

    def _execute_photo_task(
        self, task: Task, participant: Participant, position: Vec2
    ) -> Tuple[CompletedTask, Vec2]:
        nav = self._navigator.navigate(position, task.location)
        self._clock_s += nav.walk_time_s
        step_deg = self._pipeline.config.tasks.capture_step_deg
        rng = self._rng.child(f"task-{task.task_id}")
        photos = [
            photo
            for photo in self._capture.sweep(
                nav.arrived,
                participant.device,
                step_deg,
                blur=participant.blur_for(GUIDED_BASE_BLUR, rng),
                start_timestamp_s=self._tick(1.0),
                source="guided",
                start_deg=rng.uniform(0.0, step_deg),
            )
        ]
        self._clock_s += len(photos)
        # Photos stream to the backend during capture; Algorithm 1 runs on
        # each uploaded sub-batch (Sec. III).
        chunk = max(1, self._pipeline.config.tasks.upload_subbatch)
        outcome = None
        next_tasks: List[Task] = []
        for start in range(0, len(photos), chunk):
            outcome = self._pipeline.process_batch(photos[start : start + chunk], task)
            next_tasks.extend(outcome.new_tasks)
        assert outcome is not None
        record = CompletedTask(
            task=task,
            participant=participant.name,
            arrived_at=nav.arrived,
            n_photos=len(photos),
            outcome=outcome,
            next_tasks=tuple(next_tasks),
        )
        return record, nav.arrived

    def _execute_annotation_task(
        self, task: Task, participant: Participant
    ) -> CompletedTask:
        result = self._annotation.run(
            task, self._pipeline, participant.device, timestamp_s=self._tick(30.0)
        )
        if result.outcome is None:
            raise SimulationError("annotation campaign did not update the pipeline")
        return CompletedTask(
            task=task,
            participant=participant.name,
            arrived_at=task.location,
            n_photos=len(result.photos),
            outcome=result.outcome,
            annotation=result,
            next_tasks=tuple(result.outcome.new_tasks),
        )

    # -- helpers -------------------------------------------------------------------

    def _tick(self, seconds: float) -> float:
        self._clock_s += seconds
        return self._clock_s

    @staticmethod
    def _sweep_pose(position: Vec2, yaw: float):
        from ..camera.pose import CameraPose

        return CameraPose(position, yaw)
