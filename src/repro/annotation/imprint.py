"""Algorithm 6: featureless-surfaces reconstruction via texture imprinting.

    Input: photos P, annotated obstacle bounds N, SfM model M, textures DB
    1: for photo in P:
    2:   for obstacle in N[photo]:
    3:     T <= DB[i]
    4:     b <= N[photo, obstacle]
    5:     photo <= projectTextureToPhoto(T, photo, b)
    8: M' <= runSfMReconstruction(M, P)

"Since now the glass area contains enough features, the annotated area
gets reconstructed." In the simulation, projecting a distinctive texture
into the annotated image region is modelled as adding synthetic feature
observations: a grid of texture features spanning the fused annotation
quad, consistent across all photos of the set (the same physical texture
point gets the same feature id everywhere), so the SfM engine triangulates
them under its normal >= 3-view rule.

The texture grid's 3-D geometry comes from intersecting the fused corner
pixel rays with the annotated surface's plane — the surface is identified
by ray casting from the first annotated photo, which stands in for the
human knowledge of *what* was annotated. Annotation noise (including the
border clamping of off-frame corners) propagates directly into the
reconstructed extent, which is what Table I measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..camera.photo import Photo
from ..config import AnnotationConfig
from ..errors import AnnotationError
from ..geometry import PinholeProjection, Vec2, Vec3
from ..simkit.rng import RngStream
from ..venue.surfaces import Surface
from .bounds import FusedObject
from .textures import ArtificialTexture, TextureDatabase

#: Pixel noise of imprinted texture detections (same scale as real ones).
_TEXTURE_PIXEL_NOISE = 1.2


@dataclass(frozen=True)
class ImprintedObject:
    """One annotated object turned into an artificial-texture patch."""

    texture: ArtificialTexture
    surface_id: int
    quad_3d: Tuple[Vec3, Vec3, Vec3, Vec3]
    feature_ids: Tuple[int, ...]
    feature_positions: Tuple[Vec3, ...]
    photos_with_texture: Tuple[int, ...]


@dataclass(frozen=True)
class ImprintResult:
    """Output of Algorithm 6 before the SfM re-run."""

    photos: Tuple[Photo, ...]  # imprinted copies, same photo ids
    objects: Tuple[ImprintedObject, ...]

    def all_feature_ids(self) -> List[int]:
        return [fid for obj in self.objects for fid in obj.feature_ids]

    def all_feature_positions(self) -> List[Vec3]:
        return [pos for obj in self.objects for pos in obj.feature_positions]


def identify_annotated_surface(
    photo: Photo,
    center_px: Tuple[float, float],
    candidates: Sequence[Surface],
) -> Optional[Surface]:
    """Which featureless surface does a pixel-space annotation refer to?

    Casts the pixel ray of the annotation centre and picks the nearest
    candidate plane it hits within the candidate's segment extent.
    """
    projection = _projection_for(photo)
    best: Optional[Tuple[float, Surface]] = None
    for surface in candidates:
        hit = projection.intersect_pixel_with_wall(
            Vec2(center_px[0], center_px[1]), surface.segment
        )
        if hit is None:
            continue
        distance = photo.true_pose.distance_to(Vec2(hit.x, hit.y))
        if best is None or distance < best[0]:
            best = (distance, surface)
    return best[1] if best else None


def reconstruct_featureless_surfaces(
    photos: Sequence[Photo],
    objects: Sequence[FusedObject],
    candidate_surfaces: Sequence[Surface],
    database: TextureDatabase,
    config: AnnotationConfig,
    rng: RngStream,
) -> ImprintResult:
    """Imprint one texture per fused object and return modified photos."""
    by_id: Dict[int, Photo] = {p.photo_id: p for p in photos}
    extra_ids: Dict[int, List[int]] = {pid: [] for pid in by_id}
    extra_uv: Dict[int, List[Tuple[float, float]]] = {pid: [] for pid in by_id}
    imprinted: List[ImprintedObject] = []

    for obj in objects:
        texture = database.next_texture()
        result = _imprint_object(
            obj, by_id, candidate_surfaces, texture, config,
            rng.child(f"texture-{texture.texture_id}"),
        )
        if result is None:
            continue
        imprinted_obj, per_photo_obs = result
        imprinted.append(imprinted_obj)
        for pid, (ids, uvs) in per_photo_obs.items():
            extra_ids[pid].extend(ids)
            extra_uv[pid].extend(uvs)

    out_photos: List[Photo] = []
    for pid in sorted(by_id):
        photo = by_id[pid]
        if extra_ids[pid]:
            photo = photo.with_extra_observations(
                np.asarray(extra_ids[pid], dtype=int),
                np.asarray(extra_uv[pid], dtype=float),
                suffix="imprint",
            )
        out_photos.append(photo)
    return ImprintResult(photos=tuple(out_photos), objects=tuple(imprinted))


def _imprint_object(
    obj: FusedObject,
    photos: Dict[int, Photo],
    candidates: Sequence[Surface],
    texture: ArtificialTexture,
    config: AnnotationConfig,
    rng: RngStream,
):
    """Lift one fused object to 3-D and project its texture into photos."""
    anchor_pid = min(obj.corners_by_photo)
    anchor_photo = photos[anchor_pid]
    center = obj.corners_by_photo[anchor_pid].mean(axis=0)
    surface = identify_annotated_surface(anchor_photo, (center[0], center[1]), candidates)
    if surface is None:
        return None

    quad = _fuse_quad_3d(obj, photos, surface)
    if quad is None:
        return None

    ids, positions = _texture_grid(quad, texture, config.texture_feature_spacing_m)
    if not ids:
        return None

    per_photo: Dict[int, Tuple[List[int], List[Tuple[float, float]]]] = {}
    for pid in obj.corners_by_photo:
        photo = photos[pid]
        projection = _projection_for(photo)
        obs_ids: List[int] = []
        obs_uv: List[Tuple[float, float]] = []
        pix_rng = rng.child(f"pix-{pid}")
        for fid, pos in zip(ids, positions):
            pixel = projection.project(pos)
            if pixel is None:
                continue
            obs_ids.append(fid)
            obs_uv.append(
                (
                    pixel.x + pix_rng.normal(0.0, _TEXTURE_PIXEL_NOISE),
                    pixel.y + pix_rng.normal(0.0, _TEXTURE_PIXEL_NOISE),
                )
            )
        if obs_ids:
            per_photo[pid] = (obs_ids, obs_uv)

    imprinted = ImprintedObject(
        texture=texture,
        surface_id=surface.surface_id,
        quad_3d=quad,
        feature_ids=tuple(ids),
        feature_positions=tuple(positions),
        photos_with_texture=tuple(sorted(per_photo)),
    )
    return imprinted, per_photo


def _fuse_quad_3d(
    obj: FusedObject, photos: Dict[int, Photo], surface: Surface
) -> Optional[Tuple[Vec3, Vec3, Vec3, Vec3]]:
    """Average per-photo ray/plane intersections of the 4 fused corners."""
    corner_estimates: List[List[Vec3]] = [[], [], [], []]
    for pid, corners in obj.corners_by_photo.items():
        projection = _projection_for(photos[pid])
        for j in range(4):
            hit = projection.intersect_pixel_with_wall(
                Vec2(float(corners[j, 0]), float(corners[j, 1])),
                surface.segment,
                extend_frac=0.12,
            )
            if hit is not None:
                corner_estimates[j].append(hit)
    if any(not estimates for estimates in corner_estimates):
        return None
    fused: List[Vec3] = []
    for estimates in corner_estimates:
        x = sum(e.x for e in estimates) / len(estimates)
        y = sum(e.y for e in estimates) / len(estimates)
        z = sum(e.z for e in estimates) / len(estimates)
        # The texture is painted on the physical pane: clamp height to it.
        z = min(max(z, surface.base_z), surface.top_z)
        fused.append(Vec3(x, y, z))
    return (fused[0], fused[1], fused[2], fused[3])


def _texture_grid(
    quad: Tuple[Vec3, Vec3, Vec3, Vec3],
    texture: ArtificialTexture,
    spacing_m: float,
) -> Tuple[List[int], List[Vec3]]:
    """Bilinear grid of texture features spanning the 3-D quad."""
    if spacing_m <= 0:
        raise AnnotationError("texture feature spacing must be positive")
    c0, c1, c2, c3 = quad
    width = max(c0.distance_to(c1), c3.distance_to(c2))
    height = max(c0.distance_to(c3), c1.distance_to(c2))
    n_u = max(2, int(round(width / spacing_m)) + 1)
    n_v = max(2, int(round(height / spacing_m)) + 1)

    ids: List[int] = []
    positions: List[Vec3] = []
    k = 0
    for i in range(n_u):
        a = i / (n_u - 1)
        top = c0 + (c1 - c0) * a
        bottom = c3 + (c2 - c3) * a
        for j in range(n_v):
            b = j / (n_v - 1)
            point = top + (bottom - top) * b
            try:
                ids.append(texture.feature_id(k))
            except AnnotationError:
                return ids, positions  # texture id budget exhausted
            positions.append(point)
            k += 1
    return ids, positions


def _projection_for(photo: Photo) -> PinholeProjection:
    return photo.true_pose.projection(photo.exif.intrinsics())
