"""The venue model: geometry, surfaces, hotspots and traversability.

A :class:`Venue` is the simulated physical world. It is consumed by three
layers:

* the **capture simulator** asks which surfaces occlude a view and which
  world features a camera can see;
* the **crowd simulators** ask where people can walk and which hotspots
  attract them;
* the **ground-truth builder** rasterises it into the reference maps the
  evaluation compares against (the paper's laser-range-finder measurements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import VenueError
from ..geometry import BoundingBox, Polygon, SegmentSoup, Vec2
from .surfaces import Surface, SurfaceKind


@dataclass(frozen=True)
class Hotspot:
    """A place people gravitate to (paper Sec. I: "public hotspots")."""

    position: Vec2
    weight: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise VenueError(f"hotspot {self.label!r}: weight must be positive")


class Venue:
    """An indoor space: outer shell, surfaces, obstacles and hotspots."""

    def __init__(
        self,
        name: str,
        outer: Polygon,
        surfaces: Sequence[Surface],
        furniture_footprints: Sequence[Polygon],
        entrance: Vec2,
        hotspots: Sequence[Hotspot],
        inner_wall_footprints: Sequence[Polygon] = (),
    ):
        if not surfaces:
            raise VenueError("venue has no surfaces")
        ids = [s.surface_id for s in surfaces]
        if len(set(ids)) != len(ids):
            raise VenueError("duplicate surface ids")
        if not outer.contains(entrance):
            raise VenueError("entrance must lie inside the outer polygon")
        if not hotspots:
            raise VenueError("venue needs at least one hotspot")

        self._name = name
        self._outer = outer
        self._surfaces: Tuple[Surface, ...] = tuple(surfaces)
        self._by_id: Dict[int, Surface] = {s.surface_id: s for s in surfaces}
        self._furniture = tuple(furniture_footprints)
        self._inner_walls = tuple(inner_wall_footprints)
        self._entrance = entrance
        self._hotspots = tuple(hotspots)

        opaque = [
            s for s in self._surfaces if s.opaque and s.kind != SurfaceKind.DECOR
        ]
        self._opaque_soup = SegmentSoup(
            [s.segment for s in opaque],
            heights=[(s.base_z, s.top_z) for s in opaque],
        )

    def __deepcopy__(self, memo: dict) -> "Venue":
        # Write-once after __init__: durability snapshots share the venue
        # structurally instead of copying its geometry soups.
        return self

    # -- identity and geometry --------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def outer(self) -> Polygon:
        return self._outer

    @property
    def bbox(self) -> BoundingBox:
        return self._outer.bbox

    @property
    def entrance(self) -> Vec2:
        return self._entrance

    @property
    def surfaces(self) -> Tuple[Surface, ...]:
        return self._surfaces

    @property
    def hotspots(self) -> Tuple[Hotspot, ...]:
        return self._hotspots

    @property
    def furniture_footprints(self) -> Tuple[Polygon, ...]:
        return self._furniture

    @property
    def inner_wall_footprints(self) -> Tuple[Polygon, ...]:
        return self._inner_walls

    def surface(self, surface_id: int) -> Surface:
        try:
            return self._by_id[surface_id]
        except KeyError:
            raise VenueError(f"no surface with id {surface_id}") from None

    @property
    def opaque_soup(self) -> SegmentSoup:
        """Occluders: opaque, non-decor surfaces (glass is see-through)."""
        return self._opaque_soup

    # -- classification -----------------------------------------------------

    def outer_wall_surfaces(self) -> List[Surface]:
        return [s for s in self._surfaces if s.kind == SurfaceKind.OUTER_WALL]

    def featureless_surfaces(self) -> List[Surface]:
        return [
            s
            for s in self._surfaces
            if s.featureless
            and s.kind not in (SurfaceKind.DECOR, SurfaceKind.EXTERIOR)
        ]

    def outer_bounds_length(self) -> float:
        """Ground-truth outer bound length (entrance already excluded:
        the entrance is a gap between outer-wall surfaces, mirroring the
        paper's "we have excluded the length of the entrance")."""
        return sum(s.segment.length for s in self.outer_wall_surfaces())

    def floor_area(self) -> float:
        return self._outer.area()

    # -- traversability ------------------------------------------------------

    def contains(self, p: Vec2) -> bool:
        return self._outer.contains(p)

    def is_traversable(self, p: Vec2) -> bool:
        """True when a person can stand at ``p``."""
        if not self._outer.contains(p):
            return False
        for footprint in self._furniture:
            if footprint.contains(p):
                return False
        for footprint in self._inner_walls:
            if footprint.contains(p):
                return False
        return True

    def is_obstructed(self, p: Vec2) -> bool:
        """True when ``p`` lies inside a furniture or inner-wall footprint."""
        return self._outer.contains(p) and not self.is_traversable(p)

    def nearest_traversable(self, p: Vec2, step: float = 0.25, max_radius: float = 8.0) -> Vec2:
        """Closest traversable point to ``p`` (spiral grid search).

        Mirrors the paper's worker behaviour: "In case a location is inside
        an obstacle, human workers then simply start a task as close to
        that place as possible."
        """
        if self.is_traversable(p):
            return p
        radius = step
        while radius <= max_radius:
            n = max(8, int(2 * math.pi * radius / step))
            for i in range(n):
                angle = 2 * math.pi * i / n
                candidate = p + Vec2.from_angle(angle, radius)
                if self.is_traversable(candidate):
                    return candidate
            radius += step
        raise VenueError(f"no traversable point within {max_radius} m of {p}")

    def nearest_featureless_surface(self, p: Vec2) -> Surface:
        """Closest featureless (glass/plaster) surface to floor point ``p``."""
        surface = self.find_featureless_surface(p)
        if surface is None:
            raise VenueError("venue has no featureless surfaces")
        return surface

    def find_featureless_surface(self, p: Vec2) -> Optional[Surface]:
        """Like :meth:`nearest_featureless_surface`, but ``None`` when the
        venue has no featureless surfaces at all (generated venues may not)."""
        candidates = self.featureless_surfaces()
        if not candidates:
            return None
        return min(candidates, key=lambda s: s.segment.distance_to_point(p))

    def describe(self) -> str:
        """Human-readable inventory summary."""
        kinds: Dict[str, int] = {}
        for s in self._surfaces:
            kinds[s.kind.value] = kinds.get(s.kind.value, 0) + 1
        parts = ", ".join(f"{v} {k}" for k, v in sorted(kinds.items()))
        return (
            f"Venue {self._name!r}: {self.floor_area():.0f} m^2, "
            f"{len(self._surfaces)} surfaces ({parts}), "
            f"outer bounds {self.outer_bounds_length():.2f} m, "
            f"{len(self._hotspots)} hotspots"
        )
