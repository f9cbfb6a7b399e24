"""World feature points: the "texture" SfM can latch onto.

Each textured surface is populated with a deterministic set of 3-D feature
points whose surface density follows the material's ``feature_density``.
Feature identities are stable: when two photos observe the same world
feature they record the same ``feature_id``, which is what makes ID-based
matching in the SfM simulator equivalent to descriptor matching in a real
pipeline (minus descriptor noise, which the capture layer re-introduces as
detection dropout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import VenueError
from ..geometry import Vec2, Vec3
from ..simkit.rng import RngStream
from .model import Venue
from .surfaces import Surface, SurfaceKind

# Feature ids at or above this value are artificial-texture features created
# by the annotation pipeline (Algorithm 6), never world features.
ARTIFICIAL_FEATURE_BASE = 10_000_000
# Feature ids at or above this value are spurious reflection features
# (textured geometry mirrored in glass panes).
REFLECTION_FEATURE_BASE = 20_000_000


@dataclass(frozen=True)
class WorldFeature:
    """One SfM-detectable point on a surface."""

    feature_id: int
    position: Vec3
    surface_id: int
    strength: float  # detection strength multiplier in (0, 1]
    is_reflection: bool = False


class FeatureWorld:
    """All world features of a venue, with numpy views for fast queries."""

    def __init__(self, venue: Venue, features: Sequence[WorldFeature]):
        self._venue = venue
        self._features: Tuple[WorldFeature, ...] = tuple(features)
        n = len(self._features)
        self._positions = np.zeros((n, 3), dtype=float)
        self._strengths = np.zeros(n, dtype=float)
        self._surface_ids = np.zeros(n, dtype=int)
        self._ids = np.zeros(n, dtype=int)
        self._reflections = np.zeros(n, dtype=bool)
        for i, f in enumerate(self._features):
            self._positions[i] = f.position.as_tuple()
            self._strengths[i] = f.strength
            self._surface_ids[i] = f.surface_id
            self._ids[i] = f.feature_id
            self._reflections[i] = f.is_reflection
        self._by_id: Dict[int, WorldFeature] = {f.feature_id: f for f in self._features}
        # Per-feature floor-plane surface normal, for incidence-angle culling.
        normal_by_surface = {
            s.surface_id: s.segment.normal.as_tuple() for s in venue.surfaces
        }
        self._normals = np.array(
            [normal_by_surface[int(sid)] for sid in self._surface_ids], dtype=float
        ).reshape(n, 2)

    def __deepcopy__(self, memo: dict) -> "FeatureWorld":
        # Write-once after __init__: durability snapshots share the world
        # (positions/normals arrays and feature tuple) structurally.
        return self

    @property
    def venue(self) -> Venue:
        return self._venue

    @property
    def features(self) -> Tuple[WorldFeature, ...]:
        return self._features

    def __len__(self) -> int:
        return len(self._features)

    @property
    def positions(self) -> np.ndarray:
        """(N, 3) float array of feature positions (read-only view)."""
        return self._positions

    @property
    def strengths(self) -> np.ndarray:
        return self._strengths

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def reflections(self) -> np.ndarray:
        """Boolean mask of spurious reflection features."""
        return self._reflections

    @property
    def normals(self) -> np.ndarray:
        """(N, 2) floor-plane unit normals of each feature's surface."""
        return self._normals

    def feature(self, feature_id: int) -> WorldFeature:
        try:
            return self._by_id[feature_id]
        except KeyError:
            raise VenueError(f"no world feature with id {feature_id}") from None


def _sample_surface(
    surface: Surface, rng: RngStream, start_id: int
) -> List[WorldFeature]:
    """Jittered-grid sampling of one surface at its material density."""
    density = surface.material.feature_density
    if density <= 0:
        return []
    expected = density * surface.area
    if expected < 0.5:
        return []
    # Grid spacing so that one cell holds one expected feature.
    spacing = 1.0 / math.sqrt(density)
    n_len = max(1, int(round(surface.segment.length / spacing)))
    n_ht = max(1, int(round(surface.height / spacing)))
    features: List[WorldFeature] = []
    fid = start_id
    for i in range(n_len):
        for j in range(n_ht):
            t = (i + rng.uniform(0.15, 0.85)) / n_len
            z_frac = (j + rng.uniform(0.15, 0.85)) / n_ht
            pos = surface.point_at(t, z_frac)
            strength = rng.uniform(0.55, 1.0)
            features.append(
                WorldFeature(
                    feature_id=fid,
                    position=pos,
                    surface_id=surface.surface_id,
                    strength=strength,
                )
            )
            fid += 1
    return features


def _mirror_reflections(
    venue: Venue,
    features: List[WorldFeature],
    rng: RngStream,
    sample_rate: float,
    max_source_distance: float,
) -> List[WorldFeature]:
    """Spurious reflection features: textured geometry mirrored in glass.

    The paper notes that "the photos may contain reflective surfaces and the
    reflections are seen as blurry objects". We model this as weak features
    at positions mirrored across each reflective pane's plane; when a video
    sequence observes the same reflection three times, the SfM simulator
    triangulates an outlier point (usually outside the venue) that the
    statistical outlier filter then has to remove.
    """
    reflective = [
        s for s in venue.surfaces if s.material.reflective and s.kind != SurfaceKind.DECOR
    ]
    out: List[WorldFeature] = []
    fid = REFLECTION_FEATURE_BASE
    fx = np.array([f.position.x for f in features], dtype=float)
    fy = np.array([f.position.y for f in features], dtype=float)
    is_source = ~np.array([f.is_reflection for f in features], dtype=bool)
    for pane in sorted(reflective, key=lambda s: s.surface_id):
        pane_rng = rng.child(f"reflection-{pane.surface_id}")
        anchor = pane.segment.a
        normal = pane.segment.normal
        d = pane.segment.b - anchor
        # Signed distance to the pane's line and projection parameter along
        # it, as Vec2.dot and Segment.project_parameter compute them.
        rel_x = fx - anchor.x
        rel_y = fy - anchor.y
        dist = rel_x * normal.x + rel_y * normal.y
        t = (rel_x * d.x + rel_y * d.y) / d.norm_sq()
        # Only mirror features whose mirror image lies behind the pane
        # extent (projection onto the segment must fall inside it).
        eligible = is_source & (np.abs(dist) <= max_source_distance) & (t >= 0.0) & (t <= 1.0)
        for i in np.nonzero(eligible)[0]:
            if not pane_rng.chance(sample_rate):
                continue
            f = features[i]
            mirrored = Vec2(f.position.x, f.position.y) - normal * (2.0 * float(dist[i]))
            out.append(
                WorldFeature(
                    feature_id=fid,
                    position=Vec3(mirrored.x, mirrored.y, f.position.z),
                    surface_id=pane.surface_id,
                    strength=pane_rng.uniform(0.08, 0.2),
                    is_reflection=True,
                )
            )
            fid += 1
    return out


def build_feature_world(
    venue: Venue,
    rng: RngStream,
    reflection_sample_rate: float = 0.04,
    reflection_source_distance: float = 4.0,
) -> FeatureWorld:
    """Populate every surface of ``venue`` with world features.

    Deterministic for a given (venue, rng stream): surfaces are processed
    in id order, each with its own child stream. Reflective panes also get
    weak mirrored "reflection" features (see :func:`_mirror_reflections`).
    """
    features: List[WorldFeature] = []
    next_id = 0
    for surface in sorted(venue.surfaces, key=lambda s: s.surface_id):
        surface_rng = rng.child(f"surface-{surface.surface_id}")
        sampled = _sample_surface(surface, surface_rng, next_id)
        features.extend(sampled)
        next_id += len(sampled)
    if next_id >= ARTIFICIAL_FEATURE_BASE:
        raise VenueError("world feature count collides with artificial id space")
    if reflection_sample_rate > 0:
        features.extend(
            _mirror_reflections(
                venue, features, rng, reflection_sample_rate, reflection_source_distance
            )
        )
    return FeatureWorld(venue, features)
