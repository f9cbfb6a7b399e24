"""Simulated annotation workers.

The online tool instructs workers (Sec. IV-B):

* "Please find a closest glass or other smooth surface object in the photo."
* "Mark 4 corners of the object, making sure they are on a same plane."
* "Mark the exact same 4 corners of the object in other photos."

Real workers are imprecise in two ways the fusion algorithm must survive
(Fig. 6b): corner marks carry pixel noise, and "participants may not label
the same objects in the same photo" — a fraction of workers annotate a
different (second-nearest) smooth object. Both behaviours are modelled
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..camera.photo import Photo
from ..config import AnnotationConfig
from ..geometry import PinholeProjection, Vec2
from ..simkit.rng import RngStream
from ..venue.model import Venue
from ..venue.surfaces import Surface

#: Workers cannot meaningfully annotate surfaces farther than this.
MAX_ANNOTATION_DISTANCE_M = 8.0


@dataclass(frozen=True)
class CornerAnnotation:
    """One worker's 4-corner annotation of one object in one photo."""

    photo_id: int
    worker_id: int
    corners_px: Tuple[Tuple[float, float], ...]  # 4 (u, v) pairs

    @property
    def center_px(self) -> Tuple[float, float]:
        us = [c[0] for c in self.corners_px]
        vs = [c[1] for c in self.corners_px]
        return (sum(us) / 4.0, sum(vs) / 4.0)

    def corners_array(self) -> np.ndarray:
        return np.asarray(self.corners_px, dtype=float)


def visible_featureless_surfaces(
    venue: Venue, photo: Photo, max_distance_m: float = MAX_ANNOTATION_DISTANCE_M
) -> List[Surface]:
    """Featureless surfaces a worker can see in ``photo``, nearest first.

    A surface counts as visible when its midpoint is in front of the
    camera, inside the horizontal FOV, within annotation range, and not
    occluded by an opaque surface.
    """
    pose = photo.true_pose
    intrinsics = photo.exif.intrinsics()
    half_fov = intrinsics.hfov_rad / 2.0
    candidates: List[Tuple[float, Surface]] = []
    for surface in venue.featureless_surfaces():
        mid = surface.segment.midpoint
        distance = pose.distance_to(mid)
        if distance > max_distance_m or distance < 0.2:
            continue
        if abs(pose.bearing_to(mid)) > half_fov:
            continue
        mid_z = surface.base_z + surface.height / 2.0
        visible = venue.opaque_soup.visible(
            pose.position,
            np.array([[mid.x, mid.y]]),
            target_margin=5e-3,
            origin_z=pose.height_m,
            target_z=np.array([mid_z]),
        )
        if not bool(visible[0]):
            continue
        candidates.append((distance, surface))
    candidates.sort(key=lambda pair: pair[0])
    return [surface for _, surface in candidates]


def annotate_surface(
    surface: Surface,
    photo: Photo,
    worker_id: int,
    rng: RngStream,
    corner_noise_px: float,
) -> Optional[CornerAnnotation]:
    """Project the surface's 4 corners into the photo and add worker noise.

    Off-frame corners are clamped to the image border — a worker can only
    click inside the image. Returns None when the surface is behind the
    camera in this photo.
    """
    projection = _projection_for(photo)
    corners_px: List[Tuple[float, float]] = []
    for corner in surface.corners():
        pixel = projection.project_unclamped(corner)
        if pixel is None:
            return None
        noisy = Vec2(
            pixel.x + rng.normal(0.0, corner_noise_px),
            pixel.y + rng.normal(0.0, corner_noise_px),
        )
        clamped = projection.clamp_pixel(noisy)
        corners_px.append((clamped.x, clamped.y))
    return CornerAnnotation(
        photo_id=photo.photo_id, worker_id=worker_id, corners_px=tuple(corners_px)
    )


class WorkerPool:
    """A pool of annotation workers labelling photo sets."""

    def __init__(self, venue: Venue, config: AnnotationConfig, rng: RngStream):
        self._venue = venue
        self._config = config
        self._rng = rng
        self._set_counter = 0

    def annotate_photo_set(
        self, photos: Sequence[Photo]
    ) -> Dict[int, List[CornerAnnotation]]:
        """All workers annotate the set; returns annotations per photo id.

        Each worker chooses a target object on the first photo (nearest
        smooth surface, or a wrong one at ``wrong_object_rate``) and then
        marks that same object in every photo where it is visible —
        exactly the tool's instructions, including the human failure mode.
        """
        if not photos:
            return {}
        annotations: Dict[int, List[CornerAnnotation]] = {p.photo_id: [] for p in photos}
        candidates = self._rank_candidates(photos)
        if not candidates:
            return annotations

        self._set_counter += 1
        for worker_id in range(self._config.workers_per_task):
            worker_rng = self._rng.child(f"set-{self._set_counter}/worker-{worker_id}")
            target = self._choose_target(candidates, worker_rng)
            for photo in photos:
                annotation = annotate_surface(
                    target,
                    photo,
                    worker_id,
                    worker_rng.child(f"photo-{photo.photo_id}"),
                    self._config.corner_noise_px,
                )
                if annotation is not None:
                    annotations[photo.photo_id].append(annotation)
        return annotations

    def _rank_candidates(self, photos: Sequence[Photo]) -> List[Surface]:
        """Candidate surfaces, best first.

        Workers annotate the object the photo set is obviously *about*: the
        surface framed most centrally across all photos. Ranking by mean
        |bearing| (with a penalty for photos where the surface is out of
        view) resolves glass corners where two walls are equally near but
        only one is in every frame.
        """
        visible = visible_featureless_surfaces(self._venue, photos[0])
        if not visible:
            return []

        def framing_cost(surface: Surface) -> float:
            mid = surface.segment.midpoint
            cost = 0.0
            for photo in photos:
                intrinsics = photo.exif.intrinsics()
                bearing = abs(photo.true_pose.bearing_to(mid))
                half = intrinsics.hfov_rad / 2.0
                cost += bearing if bearing <= half else half + 2.0 * (bearing - half)
            return cost / max(1, len(photos))

        return sorted(visible, key=framing_cost)

    def _choose_target(
        self, candidates: List[Surface], worker_rng: RngStream
    ) -> Surface:
        if len(candidates) > 1 and worker_rng.chance(self._config.wrong_object_rate):
            return candidates[1]
        return candidates[0]


def _projection_for(photo: Photo) -> PinholeProjection:
    intrinsics = photo.exif.intrinsics()
    return photo.true_pose.projection(intrinsics)
