"""Vertical surfaces: walls, furniture faces, glass panes, posters.

A surface is a vertical rectangle: a floor-plane segment extruded from
``base_z`` to ``base_z + height``. This 2.5-D model is sufficient for
everything the paper's algorithms consume — occlusion and the obstacle /
visibility maps are all computed on the floor plane, while feature points
and annotation corners live in 3-D.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import VenueError
from ..geometry import Segment, Vec2, Vec3
from .materials import Material


class SurfaceKind(enum.Enum):
    """Role of a surface in the venue, used by metrics and ground truth."""

    OUTER_WALL = "outer_wall"
    INNER_WALL = "inner_wall"
    FURNITURE = "furniture"
    DECOR = "decor"  # posters/signs mounted on other surfaces
    EXTERIOR = "exterior"  # scenery visible through glass, outside the venue


@dataclass(frozen=True)
class Surface:
    """One vertical rectangular surface in the venue."""

    surface_id: int
    segment: Segment
    material: Material
    kind: SurfaceKind
    height: float = 2.7
    base_z: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.height <= 0:
            raise VenueError(f"surface {self.surface_id}: non-positive height")
        if self.base_z < 0:
            raise VenueError(f"surface {self.surface_id}: negative base_z")

    @property
    def top_z(self) -> float:
        return self.base_z + self.height

    @property
    def area(self) -> float:
        return self.segment.length * self.height

    @property
    def featureless(self) -> bool:
        return self.material.featureless

    @property
    def opaque(self) -> bool:
        return self.material.opaque

    def corners(self) -> Tuple[Vec3, Vec3, Vec3, Vec3]:
        """3-D corners in order: bottom-a, bottom-b, top-b, top-a."""
        a, b = self.segment.a, self.segment.b
        return (
            Vec3(a.x, a.y, self.base_z),
            Vec3(b.x, b.y, self.base_z),
            Vec3(b.x, b.y, self.top_z),
            Vec3(a.x, a.y, self.top_z),
        )

    def point_at(self, t: float, z_frac: float) -> Vec3:
        """Point on the surface at length-parameter ``t``, height fraction."""
        p = self.segment.point_at(t)
        return Vec3(p.x, p.y, self.base_z + z_frac * self.height)

    def facing_point(self, distance: float, t: float = 0.5) -> Vec2:
        """Floor point at ``distance`` in front of the surface (normal side)."""
        mid = self.segment.point_at(t)
        return mid + self.segment.normal * distance

    def describe(self) -> str:
        return (
            f"Surface#{self.surface_id}[{self.label or self.kind.value}] "
            f"{self.material.name} len={self.segment.length:.2f}m h={self.height:.2f}m"
        )


def box_surfaces(
    next_id: int,
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    material: Material,
    height: float,
    kind: SurfaceKind = SurfaceKind.FURNITURE,
    label: str = "",
) -> List[Surface]:
    """Four side surfaces of an axis-aligned box footprint.

    Returns surfaces with consecutive ids starting at ``next_id``.
    """
    if min_x >= max_x or min_y >= max_y:
        raise VenueError(f"box {label!r}: empty footprint")
    corners = [
        Vec2(min_x, min_y),
        Vec2(max_x, min_y),
        Vec2(max_x, max_y),
        Vec2(min_x, max_y),
    ]
    sides = []
    for i in range(4):
        seg = Segment(corners[i], corners[(i + 1) % 4])
        sides.append(
            Surface(
                surface_id=next_id + i,
                segment=seg,
                material=material,
                kind=kind,
                height=height,
                label=f"{label}:side{i}" if label else "",
            )
        )
    return sides
