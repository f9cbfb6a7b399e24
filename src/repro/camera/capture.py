"""The capture simulator: what a smartphone photo records of the world.

Given a camera pose, the simulator computes which world features end up as
detectable SfM features in the image. The physics it models, in order:

1. **Range** — features too close or too far yield no stable detections.
2. **Field of view** — full pin-hole projection; features above/below the
   frame are culled by the projection itself.
3. **Incidence angle** — surfaces viewed at grazing angles produce no
   features (the mobile client asks users to face premises "at a
   perpendicular angle", Sec. III).
4. **Occlusion** — raycast against opaque surfaces. Glass is transparent,
   so cameras see *through* glass walls (and may record reflections).
5. **Detection dropout** — Bernoulli per feature with probability shaped
   by feature strength, distance and motion blur.

Range, incidence and occlusion do not depend on the camera's yaw, and a
guided sweep shoots all its photos from one spot, so that work is done
once per capture position (:class:`_Station`). Each photo then projects
only the station's features and raycasts only features whose occlusion
the station has not yet resolved.

A sweep is one shot group (:class:`_ShotGroup`): its first ``take_photo``
captures every shot at once -- one backlight raycast, one occlusion
raycast over every feature any shot detected, one stacked patch blur --
and the later ones hand out the prepared photos. Every photo is still a
pure function of its photo id, pose, blur and flags, so a photo is the
same whether its group holds 45 shots or one.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..config import CameraConfig, SfmConfig
from ..errors import CaptureError
from ..geometry import SegmentSoup, Vec2
from ..simkit.rng import RngStream
from ..venue.features import FeatureWorld
from ..venue.surfaces import SurfaceKind
from .blur import detection_factor, render_patches
from .intrinsics import ExifMetadata, Intrinsics
from .photo import Photo
from .pose import CameraPose

#: Soft cap on detections per image, like a real detector's keypoint budget.
MAX_OBSERVATIONS_PER_PHOTO = 2400

#: Std-dev of keypoint localisation noise, in pixels.
PIXEL_NOISE_STD = 1.2


def ray_directions(yaws: Sequence[float], half_fov: float, n_rays: int) -> List[Tuple[float, float]]:
    """``n_rays`` unit directions spread evenly over each yaw's field of
    view, yaw by yaw.

    Bit-equal to ``Vec2.from_angle(angle).normalized()`` on the same angle
    expression, from plain floats: ``from_angle`` scales the cosine and
    sine by 1.0, which is exact, and ``normalized`` divides both by their
    ``math.hypot``.
    """
    cos, sin, hypot = math.cos, math.sin, math.hypot
    out = []
    for yaw in yaws:
        for i in range(n_rays):
            angle = yaw - half_fov + (2.0 * half_fov) * i / (n_rays - 1)
            x, y = cos(angle), sin(angle)
            norm = hypot(x, y)
            out.append((x / norm, y / norm))
    return out


class _Station:
    """Capture work at one (x, y, height) position that does not depend on yaw.

    Holds the range and incidence cull over the whole feature world, the
    offsets ``dx``, ``dy``, ``dist`` and ``down`` of the features that
    survive it (in ascending world index), and an occlusion memo filled
    lazily, so each feature is raycast at most once per position. Every
    value is the one a whole-world pass computes for that feature, so a
    photo does not depend on what the station has already seen.
    """

    def __init__(
        self,
        world: FeatureWorld,
        sfm: SfmConfig,
        cos_max_incidence: float,
        soup: SegmentSoup,
        pose: CameraPose,
    ):
        self._soup = soup
        self._origin = pose.position
        self._height = pose.height_m
        pos = world.positions
        dx = pos[:, 0] - pose.position.x
        dy = pos[:, 1] - pose.position.y
        dist = np.hypot(dx, dy)
        in_range = np.nonzero((dist >= sfm.min_feature_range_m) & (dist <= sfm.max_feature_range_m))[0]
        dx, dy, dist = dx[in_range], dy[in_range], dist[in_range]

        # Incidence-angle culling on the floor plane.
        view_x = dx / np.maximum(dist, 1e-9)
        view_y = dy / np.maximum(dist, 1e-9)
        normals = world.normals[in_range]
        cos_inc = np.abs(view_x * normals[:, 0] + view_y * normals[:, 1])
        keep = np.nonzero(cos_inc >= cos_max_incidence)[0]

        self.index = in_range[keep]
        self.dx = dx[keep]
        self.dy = dy[keep]
        self.dist = dist[keep]
        self.down = pose.height_m - pos[self.index, 2]
        self.strengths = world.strengths[self.index]
        self._targets = pos[self.index]
        self._raycast = np.zeros(self.index.size, dtype=bool)
        self._clear = np.zeros(self.index.size, dtype=bool)

    def matches(self, pose: CameraPose) -> bool:
        return pose.position == self._origin and pose.height_m == self._height

    def visible(self, local: np.ndarray) -> np.ndarray:
        """Mask over station-local indices ``local``: not occluded."""
        fresh = local[~self._raycast[local]]
        if fresh.size:
            targets = self._targets[fresh]
            self._clear[fresh] = self._soup.visible(
                self._origin,
                targets[:, :2],
                target_margin=5e-3,
                origin_z=self._height,
                target_z=targets[:, 2],
            )
            self._raycast[fresh] = True
        return self._clear[local]


class _ShotGroup:
    """Shots declared together from one stand, with one set of settings.

    ``settings`` is (intrinsics, blur, source, exposure_compensated) and
    each shot is (pose, timestamp_s). The ``take_photo`` of the first shot
    captures the whole group, with consecutive photo ids from its own, and
    each later shot is handed out by the ``take_photo`` that asks for it.
    Any other ``take_photo`` drops the group, so a shot that is handed out
    carries the id one-at-a-time capture would give it.
    """

    def __init__(self, shots: List[Tuple[CameraPose, float]], settings: tuple):
        self.shots = shots
        self.settings = settings
        self.photos: Optional[List[Photo]] = None
        self.taken = 0

    def expects(self, pose: CameraPose, timestamp_s: float, settings: tuple) -> bool:
        return (
            self.taken < len(self.shots)
            and self.shots[self.taken] == (pose, timestamp_s)
            and self.settings == settings
        )

    def hand_out(self) -> Photo:
        self.taken += 1
        return self.photos[self.taken - 1]


class CaptureSimulator:
    """Produces :class:`Photo` objects from camera poses in one venue."""

    def __init__(
        self,
        world: FeatureWorld,
        sfm_config: SfmConfig,
        camera_config: CameraConfig,
        rng: RngStream,
        venue_id: Optional[str] = None,
    ):
        self._world = world
        self._sfm = sfm_config
        self._camera = camera_config
        self._rng = rng
        self._venue_id = venue_id or world.venue.name
        self._photo_ids = itertools.count(1)
        self._soup = world.venue.opaque_soup
        self._cos_max_incidence = math.cos(math.radians(sfm_config.max_incidence_deg))
        # The station of the last capture position (see _station_for).
        self._station: Optional[_Station] = None
        # The shot group whose next shot take_photo expects (see sweep).
        self._group: Optional[_ShotGroup] = None
        # Transparent (glass) panes for the backlight exposure model.
        glass = [
            s
            for s in world.venue.surfaces
            if not s.material.opaque and s.kind != SurfaceKind.DECOR
        ]
        self._glass_soup = SegmentSoup([s.segment for s in glass])
        # Eye-level backlight blockers: opaque surfaces tall enough to
        # shield the camera from a window behind them.
        tall = [
            s
            for s in world.venue.surfaces
            if s.material.opaque
            and s.kind != SurfaceKind.DECOR
            and s.top_z >= 1.4
        ]
        self._tall_soup = SegmentSoup([s.segment for s in tall])

    @property
    def world(self) -> FeatureWorld:
        return self._world

    @property
    def venue_id(self) -> str:
        return self._venue_id

    def take_photo(
        self,
        pose: CameraPose,
        intrinsics: Intrinsics,
        blur: float = 0.05,
        timestamp_s: float = 0.0,
        source: str = "unknown",
        exposure_compensated: bool = False,
    ) -> Photo:
        """Capture one photo at ``pose`` with the given motion ``blur``.

        ``exposure_compensated`` disables the backlight penalty — a
        deliberate capture where the photographer meters on the subject
        (tap-to-expose), as annotation participants do when photographing
        glass surfaces.

        A call that asks for the next shot of the declared group (see
        :meth:`sweep`) gets it from the group; any other call drops the
        group and is a group of one.
        """
        if not 0.0 <= blur <= 1.0:
            raise CaptureError(f"blur must be in [0, 1], got {blur}")
        photo_id = next(self._photo_ids)
        settings = (intrinsics, blur, source, exposure_compensated)
        group = self._group
        if group is None or not group.expects(pose, timestamp_s, settings):
            self._group = None
            group = _ShotGroup([(pose, timestamp_s)], settings)
        if group.photos is None:
            group.photos = self._capture(group, photo_id)
        return group.hand_out()

    # -- internals ------------------------------------------------------------

    def _station_for(self, pose: CameraPose) -> _Station:
        """The station at ``pose``'s position, reusing the last one."""
        if self._station is None or not self._station.matches(pose):
            self._station = _Station(
                self._world, self._sfm, self._cos_max_incidence, self._soup, pose
            )
        return self._station

    def _capture(self, group: _ShotGroup, first_id: int) -> List[Photo]:
        """Every photo of ``group``, in shot order, from ids ``first_id`` on."""
        intrinsics, blur, source, exposure_compensated = group.settings
        poses = [pose for pose, _timestamp in group.shots]
        station = self._station_for(poses[0])
        rngs = [self._rng.child(f"photo-{first_id + k}") for k in range(len(poses))]
        exposures = [1.0] * len(poses) if exposure_compensated else self._exposure_factors(poses)
        detections = [
            self._detect(station, pose, intrinsics, blur, exposure, rng)
            for pose, exposure, rng in zip(poses, exposures, rngs)
        ]
        # One occlusion raycast for every feature that any shot detected.
        station.visible(np.unique(np.concatenate([detected for detected, _u, _v in detections])))
        patches = render_patches(
            blur, [rng.child("patch") for rng in rngs], self._camera.patch_size_px
        )
        photos = []
        for k, ((pose, timestamp_s), (detected, u, v), rng) in enumerate(
            zip(group.shots, detections, rngs)
        ):
            feature_idx, pixels = self._observe(station, detected, u, v, rng)
            exif = ExifMetadata(
                device_model=intrinsics.device_model,
                focal_length_px=intrinsics.focal_length_px,
                image_width_px=intrinsics.image_width_px,
                image_height_px=intrinsics.image_height_px,
                timestamp_s=timestamp_s,
                venue_id=self._venue_id,
            )
            photos.append(
                Photo(
                    photo_id=first_id + k,
                    exif=exif,
                    true_pose=pose,
                    feature_ids=self._world.ids[feature_idx],
                    pixels_uv=pixels,
                    patch=patches[k],
                    source=source,
                )
            )
        return photos

    def _detect(
        self,
        station: _Station,
        pose: CameraPose,
        intrinsics: Intrinsics,
        blur: float,
        exposure: float,
        photo_rng: RngStream,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Station-local indices of the features one photo detects, with
        their projected pixel coordinates (u, v), before occlusion."""
        # Pin-hole projection (matches geometry.transforms.PinholeProjection).
        cos_y, sin_y = math.cos(pose.yaw_rad), math.sin(pose.yaw_rad)
        z_fwd = station.dx * cos_y + station.dy * sin_y
        x_right = -station.dx * sin_y + station.dy * cos_y
        with np.errstate(divide="ignore", invalid="ignore"):
            u = intrinsics.image_width_px / 2.0 + intrinsics.focal_length_px * x_right / z_fwd
            v = intrinsics.image_height_px / 2.0 + intrinsics.focal_length_px * station.down / z_fwd
        mask = z_fwd > 0.15
        mask &= (u >= 0) & (u < intrinsics.image_width_px)
        mask &= (v >= 0) & (v < intrinsics.image_height_px)

        # Station-local indices from here on; ascending, like world indices.
        candidates = np.nonzero(mask)[0]
        # Detection dropout before the (more expensive) occlusion raycast.
        p = (
            self._sfm.base_detection_prob
            * station.strengths[candidates]
            * np.exp(-self._sfm.range_falloff * np.maximum(station.dist[candidates] - 1.0, 0.0))
            * detection_factor(blur)
            * exposure
        )
        detected = candidates[photo_rng.child("detect").uniform_array(candidates.size) < p]
        return detected, u[detected], v[detected]

    def _observe(
        self,
        station: _Station,
        detected: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        photo_rng: RngStream,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """World indices of the detected features that are not occluded,
        capped, plus their noisy pixel coordinates."""
        visible = np.nonzero(station.visible(detected))[0]
        if visible.size > MAX_OBSERVATIONS_PER_PHOTO:
            keep = photo_rng.child("cap").permutation(visible.size)[:MAX_OBSERVATIONS_PER_PHOTO]
            visible = visible[np.sort(keep)]

        noise = photo_rng.child("pixel").normal_array((visible.size, 2), 0.0, PIXEL_NOISE_STD)
        pixels = np.stack([u[visible], v[visible]], axis=1) + noise
        return station.index[detected[visible]], pixels

    def _exposure_factors(self, poses: Sequence[CameraPose]) -> List[float]:
        """Backlight penalty of each pose: glass-dominated frames lose contrast.

        Daylight behind "large transparent glass panels" overwhelms a
        phone camera's exposure; the darkened interior yields far fewer
        features. The penalty grows with the fraction of the FOV whose
        first surface hit is a transparent pane. The poses share one
        position, so their rays are cast together, one call per soup.
        """
        strength = self._sfm.backlight_strength
        if strength <= 0 or len(self._glass_soup) == 0:
            return [1.0] * len(poses)
        n_rays = 13
        directions = np.array(
            ray_directions([pose.yaw_rad for pose in poses], self._camera.hfov_rad / 2.0, n_rays)
        )
        origin = poses[0].position
        reach = self._sfm.max_feature_range_m
        glass = self._glass_soup.first_hits(origin, directions, reach).reshape(-1, n_rays)
        opaque = self._tall_soup.first_hits(origin, directions, reach).reshape(-1, n_rays)
        # A ray is glassy when it meets glass before any tall opaque surface.
        return [
            1.0 - strength * (int(np.count_nonzero(glassy)) / n_rays) ** 1.5
            for glassy in glass < opaque
        ]

    def sweep(
        self,
        center: Vec2,
        intrinsics: Intrinsics,
        step_deg: float,
        blur: float = 0.04,
        start_timestamp_s: float = 0.0,
        interval_s: float = 1.0,
        source: str = "guided",
        height_m: float = 1.5,
        start_deg: float = 0.0,
    ) -> Iterator[Photo]:
        """The guided 360° capture: one photo every ``step_deg`` degrees.

        All photos share one position, so the sweep declares them as one
        shot group, which its first ``take_photo`` captures at once. Each
        photo still comes from its own ``take_photo`` call.
        """
        from .pose import sweep_poses

        shots = [
            (pose, start_timestamp_s + i * interval_s)
            for i, pose in enumerate(sweep_poses(center, step_deg, height_m, start_deg))
        ]
        group = self._group = _ShotGroup(shots, (intrinsics, blur, source, False))
        try:
            for pose, timestamp_s in shots:
                yield self.take_photo(
                    pose, intrinsics, blur=blur, timestamp_s=timestamp_s, source=source
                )
        finally:
            if self._group is group:
                self._group = None
