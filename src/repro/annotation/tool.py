"""The annotation task, end to end.

"The annotation task is meant to aid reconstruction of featureless
surfaces and consists of two parts. First, a user is asked to take photos
that include the featureless surface. The photos are sent to an online
annotation tool, where participants are asked to mark 4 points of the
featureless surfaces on each of the photos. The photos and annotations are
then sent to the backend server for processing." (Sec. III)

:class:`AnnotationCampaign` simulates that loop: the on-site participant's
photo capture, the online workers' labelling, Algorithm 5 fusion,
Algorithm 6 imprinting, and the final SfM re-run through the pipeline.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..camera.capture import CaptureSimulator
from ..camera.intrinsics import Intrinsics
from ..camera.photo import Photo
from ..config import SnapTaskConfig
from ..core.pipeline import BatchOutcome, SnapTaskPipeline
from ..core.tasks import Task
from ..geometry import Vec2
from ..simkit.rng import RngStream
from ..venue.model import Venue
from ..venue.surfaces import Surface
from .bounds import FusedObject
from .imprint import ImprintResult
from .processor import AnnotationProcessor
from .textures import TextureDatabase

#: How far in front of the target surface the participant stands.
STAND_OFF_DISTANCE_M = 4.5

#: Lateral spread of the T photo positions along the surface, metres.
PHOTO_SPREAD_M = 1.7

#: Yaw offsets (degrees) applied to successive photos relative to facing
#: the surface head-on. The outer, oblique shots keep interior context in
#: frame, which is what lets the photo set register into the model; the
#: imprinted texture then chains the frontal shots in.
PHOTO_YAW_OFFSETS_DEG = (-10.0, 10.0, -30.0, 30.0)

#: Yaw offsets of the context shots the client captures while panning
#: between annotated frames.
CONTEXT_YAW_OFFSETS_DEG = (-115.0, -75.0, -45.0, 45.0, 75.0, 115.0)

#: Annotation only makes sense when a smooth surface is actually nearby.
MAX_SURFACE_DISTANCE_M = 6.0


@dataclass(frozen=True)
class AnnotationTaskResult:
    """Everything one annotation task produced."""

    task: Task
    #: Surface the participant targeted; ``-1`` when the venue offered none.
    target_surface_id: int
    photos: Tuple[Photo, ...]
    n_annotations: int
    fused_objects: Tuple[FusedObject, ...]
    imprint: ImprintResult
    outcome: Optional[BatchOutcome]

    @property
    def n_identified(self) -> int:
        """Table I's "Identified surfaces" column."""
        return len(self.fused_objects)

    def n_reconstructed(self, model) -> int:
        """Table I's "Reconstructed surfaces": objects with >= 1 point
        actually present in the model cloud."""
        cloud_ids = set(int(f) for f in model.cloud.feature_ids)
        count = 0
        for obj in self.imprint.objects:
            if any(fid in cloud_ids for fid in obj.feature_ids):
                count += 1
        return count


class AnnotationCampaign:
    """Simulates participants + online workers for annotation tasks."""

    def __init__(
        self,
        venue: Venue,
        capture: CaptureSimulator,
        config: SnapTaskConfig,
        rng: RngStream,
        database: Optional[TextureDatabase] = None,
    ):
        self._venue = venue
        self._capture = capture
        self._config = config
        self._rng = rng
        self._database = database if database is not None else TextureDatabase()
        self._processor = AnnotationProcessor(
            venue, config, rng.child("processor"), database=self._database
        )
        self._task_counter = 0

    @property
    def database(self) -> TextureDatabase:
        return self._database

    def _stand_base(self, surface: Surface, location: Vec2) -> Vec2:
        """Stand point with line of sight to the surface midpoint.

        Starts at the preferred stand-off distance and walks closer until
        the surface is actually visible (a bookshelf may block the long
        view); falls back to the task location itself.
        """
        import numpy as np

        target = surface.segment.midpoint
        normal = surface.segment.normal
        side = 1.0 if (location - target).dot(normal) >= 0 else -1.0
        mid_z = surface.base_z + surface.height / 2.0
        for distance in (STAND_OFF_DISTANCE_M, 3.5, 2.8, 2.2, 1.8):
            base = self._venue.nearest_traversable(target + normal * (side * distance))
            visible = self._venue.opaque_soup.visible(
                base,
                np.array([[target.x, target.y]]),
                target_margin=5e-3,
                origin_z=1.5,
                target_z=np.array([mid_z]),
            )
            if bool(visible[0]):
                return base
        return self._venue.nearest_traversable(location)

    def collect_photos(
        self, location: Vec2, intrinsics: Intrinsics, timestamp_s: float = 0.0
    ) -> Tuple[Optional[Surface], List[Photo]]:
        """The on-site participant takes T photos facing the surface.

        When the venue has no featureless surface at all (generated venues
        may have none), the participant has nothing to face; they photograph
        the spot itself and the returned surface is ``None``.
        """
        surface = self._venue.find_featureless_surface(location)
        if surface is None:
            return None, self._spot_photos(location, intrinsics, timestamp_s)
        target = surface.segment.midpoint
        base = self._stand_base(surface, location)
        along = surface.segment.direction

        count = self._config.tasks.annotation_photos_per_task
        photos: List[Photo] = []
        # Keep the stand arc within the target pane's span: sliding past
        # its end (e.g. into a glass corner) would put an adjacent pane
        # closer to the camera than the target itself.
        half_span = max(0.2, surface.segment.length / 2.0 - 0.3)
        spread = min(PHOTO_SPREAD_M, half_span)
        for i in range(count):
            frac = (i - (count - 1) / 2.0) / max(1, count - 1)
            stand = self._venue.nearest_traversable(base + along * (2.0 * frac * spread))
            pose = self._capture_pose(stand, target)
            yaw_offset = PHOTO_YAW_OFFSETS_DEG[i % len(PHOTO_YAW_OFFSETS_DEG)]
            pose = pose.rotated(math.radians(yaw_offset))
            photos.append(
                self._capture.take_photo(
                    pose,
                    intrinsics,
                    blur=0.04,
                    timestamp_s=timestamp_s + i,
                    source="annotation",
                    exposure_compensated=True,
                )
            )
        return surface, photos

    def collect_context_photos(
        self, location: Vec2, intrinsics: Intrinsics, timestamp_s: float = 0.0
    ) -> List[Photo]:
        """Context shots bridging the annotated frontals into the model.

        The mobile client pans away from the surface between the annotated
        frames, so the uploaded batch also contains interior views that
        register normally and share view wedges with the frontal shots.
        Without a featureless surface there is no stand arc to pan from,
        so no context shots are taken.
        """
        surface = self._venue.find_featureless_surface(location)
        if surface is None:
            return []
        target = surface.segment.midpoint
        base = self._stand_base(surface, location)
        photos: List[Photo] = []
        for i, yaw_offset in enumerate(CONTEXT_YAW_OFFSETS_DEG):
            stand = base
            pose = self._capture_pose(stand, target).rotated(math.radians(yaw_offset))
            photos.append(
                self._capture.take_photo(
                    pose,
                    intrinsics,
                    blur=0.04,
                    timestamp_s=timestamp_s + 10 + i,
                    source="annotation-context",
                    exposure_compensated=True,
                )
            )
        return photos

    def run(
        self,
        task: Task,
        pipeline: Optional[SnapTaskPipeline],
        intrinsics: Intrinsics,
        timestamp_s: float = 0.0,
    ) -> AnnotationTaskResult:
        """Execute one annotation task; updates ``pipeline`` if given."""
        self._task_counter += 1
        task_rng = self._rng.child(f"task-{self._task_counter}")

        nearest = self._venue.find_featureless_surface(task.location)
        if (
            nearest is None
            or nearest.segment.distance_to_point(task.location) > MAX_SURFACE_DISTANCE_M
        ):
            # The participant finds no smooth surface near the task spot
            # (or the venue has none at all): the stall was not caused by
            # featureless geometry. Report an empty task so the backend can
            # write the area off.
            return self._empty_result(task, nearest, pipeline, intrinsics, timestamp_s)

        surface, photos = self.collect_photos(task.location, intrinsics, timestamp_s)
        context = self.collect_context_photos(task.location, intrinsics, timestamp_s)
        processed = self._processor.process(photos)

        outcome: Optional[BatchOutcome] = None
        if pipeline is not None:
            pipeline.register_artificial_features(
                processed.imprint.all_feature_ids(),
                processed.imprint.all_feature_positions(),
            )
            outcome = pipeline.process_batch(
                list(processed.imprint.photos) + context, task
            )

        return AnnotationTaskResult(
            task=task,
            target_surface_id=surface.surface_id,
            photos=tuple(photos),
            n_annotations=processed.n_annotations,
            fused_objects=processed.objects,
            imprint=processed.imprint,
            outcome=outcome,
        )

    def _spot_photos(
        self, location: Vec2, intrinsics: Intrinsics, timestamp_s: float
    ) -> List[Photo]:
        """A rotating sweep at the task spot: the participant documents the
        area even though there is nothing to annotate."""
        return [
            self._capture.take_photo(
                self._capture_pose(
                    self._venue.nearest_traversable(location), location + Vec2(1.0, 0.0)
                ).rotated(i * 1.5),
                intrinsics,
                blur=0.04,
                timestamp_s=timestamp_s + i,
                source="annotation-empty",
            )
            for i in range(self._config.tasks.annotation_photos_per_task)
        ]

    def _empty_result(
        self,
        task: Task,
        surface: Optional[Surface],
        pipeline: Optional[SnapTaskPipeline],
        intrinsics: Intrinsics,
        timestamp_s: float,
    ) -> AnnotationTaskResult:
        """A no-op annotation outcome: photos of the spot, no annotations."""
        from .imprint import ImprintResult

        photos = self._spot_photos(task.location, intrinsics, timestamp_s)
        outcome = None
        if pipeline is not None:
            outcome = pipeline.process_batch(photos, task)
        return AnnotationTaskResult(
            task=task,
            target_surface_id=surface.surface_id if surface is not None else -1,
            photos=tuple(photos),
            n_annotations=0,
            fused_objects=(),
            imprint=ImprintResult(photos=tuple(photos), objects=()),
            outcome=outcome,
        )

    @staticmethod
    def _capture_pose(stand: Vec2, target: Vec2):
        from ..camera.pose import CameraPose

        return CameraPose(stand, (target - stand).angle())
