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
from typing import Dict, List, Tuple

import numpy as np

from ..errors import VenueError
from ..geometry import Vec3
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
    """All world features of a venue, stored as columns.

    The numpy columns serve the fast queries (capture culls the whole
    world at once, SfM reads positions by id); a :class:`WorldFeature` is
    built only when :meth:`feature` or :attr:`features` asks for one.
    """

    def __init__(
        self,
        venue: Venue,
        ids: np.ndarray,
        positions: np.ndarray,
        strengths: np.ndarray,
        surface_ids: np.ndarray,
        reflections: np.ndarray,
    ):
        self._venue = venue
        self._ids = ids
        self._positions = positions
        self._strengths = strengths
        self._surface_ids = surface_ids
        self._reflections = reflections
        self._rows: Dict[int, int] = dict(zip(ids.tolist(), range(ids.shape[0])))
        # Per-feature floor-plane surface normal, for incidence-angle culling.
        surfaces = sorted(venue.surfaces, key=lambda s: s.surface_id)
        table = np.array(
            [s.segment.normal.as_tuple() for s in surfaces], dtype=float
        ).reshape(-1, 2)
        order = np.array([s.surface_id for s in surfaces], dtype=int)
        self._normals = table[np.searchsorted(order, surface_ids)]

    def __deepcopy__(self, memo: dict) -> "FeatureWorld":
        # Write-once after __init__: durability snapshots share the world
        # (its columns and id index) structurally.
        return self

    @property
    def venue(self) -> Venue:
        return self._venue

    @property
    def features(self) -> Tuple[WorldFeature, ...]:
        return tuple(self._feature_at(row) for row in range(len(self)))

    def __len__(self) -> int:
        return int(self._ids.shape[0])

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
        return self._feature_at(self._row(feature_id))

    def position(self, feature_id: int) -> Vec3:
        """``feature(feature_id).position``, without building the feature."""
        x, y, z = self._positions[self._row(feature_id)].tolist()
        return Vec3(x, y, z)

    def _row(self, feature_id: int) -> int:
        try:
            return self._rows[feature_id]
        except KeyError:
            raise VenueError(f"no world feature with id {feature_id}") from None

    def _feature_at(self, row: int) -> WorldFeature:
        x, y, z = self._positions[row].tolist()
        return WorldFeature(
            feature_id=int(self._ids[row]),
            position=Vec3(x, y, z),
            surface_id=int(self._surface_ids[row]),
            strength=float(self._strengths[row]),
            is_reflection=bool(self._reflections[row]),
        )


def _sample_surface(surface: Surface, rng: RngStream) -> Tuple[np.ndarray, np.ndarray]:
    """Jittered-grid sampling of one surface at its material density.

    Returns the (n, 3) positions and (n,) strengths. Each feature draws
    (t jitter, height jitter, strength) in that order, cell by cell along
    the surface and then up it: one ``(n, 3)`` draw with per-column
    bounds, the sequence of three scalar draws per feature.
    """
    density = surface.material.feature_density
    if density <= 0 or density * surface.area < 0.5:
        return np.zeros((0, 3)), np.zeros(0)
    # Grid spacing so that one cell holds one expected feature.
    spacing = 1.0 / math.sqrt(density)
    n_len = max(1, int(round(surface.segment.length / spacing)))
    n_ht = max(1, int(round(surface.height / spacing)))
    draws = rng.uniform_array((n_len * n_ht, 3), [0.15, 0.15, 0.55], [0.85, 0.85, 1.0])
    t = (np.repeat(np.arange(n_len), n_ht) + draws[:, 0]) / n_len
    z_frac = (np.tile(np.arange(n_ht), n_len) + draws[:, 1]) / n_ht
    # Surface.point_at, elementwise.
    a, b = surface.segment.a, surface.segment.b
    positions = np.column_stack(
        [
            a.x + (b.x - a.x) * t,
            a.y + (b.y - a.y) * t,
            surface.base_z + z_frac * surface.height,
        ]
    )
    return positions, draws[:, 2]


def _mirror_reflections(
    venue: Venue,
    positions: np.ndarray,
    rng: RngStream,
    sample_rate: float,
    max_source_distance: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spurious reflection features: textured geometry mirrored in glass.

    The paper notes that "the photos may contain reflective surfaces and the
    reflections are seen as blurry objects". We model this as weak features
    at positions mirrored across each reflective pane's plane; when a video
    sequence observes the same reflection three times, the SfM simulator
    triangulates an outlier point (usually outside the venue) that the
    statistical outlier filter then has to remove.

    ``positions`` are the surface features' (the sources); returns the
    reflections' positions, strengths and pane ids.
    """
    reflective = [
        s for s in venue.surfaces if s.material.reflective and s.kind != SurfaceKind.DECOR
    ]
    fx, fy, fz = positions[:, 0], positions[:, 1], positions[:, 2]
    out_xyz: List[Tuple[float, float, float]] = []
    strengths: List[float] = []
    panes: List[int] = []
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
        eligible = (np.abs(dist) <= max_source_distance) & (t >= 0.0) & (t <= 1.0)
        # Vec2 subtraction of the scaled normal, elementwise.
        mx = fx - normal.x * (2.0 * dist)
        my = fy - normal.y * (2.0 * dist)
        for i in np.nonzero(eligible)[0].tolist():
            if not pane_rng.chance(sample_rate):
                continue
            out_xyz.append((mx[i], my[i], fz[i]))
            strengths.append(pane_rng.uniform(0.08, 0.2))
            panes.append(pane.surface_id)
    return (
        np.array(out_xyz, dtype=float).reshape(-1, 3),
        np.array(strengths, dtype=float),
        np.array(panes, dtype=int),
    )


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
    positions, strengths, surface_ids = [np.zeros((0, 3))], [np.zeros(0)], [np.zeros(0, dtype=int)]
    for surface in sorted(venue.surfaces, key=lambda s: s.surface_id):
        xyz, strength = _sample_surface(surface, rng.child(f"surface-{surface.surface_id}"))
        positions.append(xyz)
        strengths.append(strength)
        surface_ids.append(np.full(strength.shape[0], surface.surface_id, dtype=int))
    positions = np.concatenate(positions)
    n = positions.shape[0]
    if n >= ARTIFICIAL_FEATURE_BASE:
        raise VenueError("world feature count collides with artificial id space")
    columns = [
        np.arange(n),
        positions,
        np.concatenate(strengths),
        np.concatenate(surface_ids),
        np.zeros(n, dtype=bool),
    ]
    if reflection_sample_rate > 0:
        xyz, strength, panes = _mirror_reflections(
            venue, positions, rng, reflection_sample_rate, reflection_source_distance
        )
        m = strength.shape[0]
        extra = [REFLECTION_FEATURE_BASE + np.arange(m), xyz, strength, panes, np.ones(m, dtype=bool)]
        columns = [np.concatenate([old, new]) for old, new in zip(columns, extra)]
    return FeatureWorld(venue, *columns)
