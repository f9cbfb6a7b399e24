"""Parametric venue generators for tests, examples and ablations.

The library replica in :mod:`repro.venue.library` reproduces the paper's
field-test site; these generators create *other* venues so the algorithms
can be exercised on floor plans they were not tuned for (property tests,
the custom-venue example, robustness checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import VenueError
from ..geometry import Polygon, Vec2
from ..simkit.rng import RngStream
from .materials import BOOKSHELF, BRICK, DESK, FABRIC, GLASS, WOOD
from .model import Hotspot, Venue
from .surfaces import SurfaceKind
from .library import _Builder


@dataclass(frozen=True)
class OfficeSpec:
    """Parameters for :func:`generate_office`."""

    width_m: float = 18.0
    depth_m: float = 12.0
    glass_walls: int = 1  # number of outer walls made of glass (0..4)
    n_furniture: int = 8
    n_hotspots: int = 5
    wall_height_m: float = 2.7

    def validate(self) -> None:
        if self.width_m < 6.0 or self.depth_m < 6.0:
            raise VenueError("office must be at least 6x6 m")
        if not 0 <= self.glass_walls <= 4:
            raise VenueError("glass_walls must be in 0..4")
        if self.n_furniture < 0 or self.n_hotspots < 1:
            raise VenueError("invalid furniture/hotspot counts")


def generate_office(spec: OfficeSpec, rng: RngStream) -> Venue:
    """Random rectangular office with furniture islands and hotspots.

    Deterministic for a given (spec, rng stream). The entrance is always in
    the south wall; glass walls are assigned starting from the north side
    (farthest from the entrance, like the paper's library).
    """
    spec.validate()
    b = _Builder()
    w, d, h = spec.width_m, spec.depth_m, spec.wall_height_m

    entrance_x = w * 0.25
    gap = 1.8
    # Wall order: north, west, east, south -> glass assigned in this order.
    glass = set(range(spec.glass_walls))
    mat = lambda i: GLASS if i in glass else BRICK  # noqa: E731

    b.wall(Vec2(w, d), Vec2(0, d), mat(0), SurfaceKind.OUTER_WALL, h, "north", panel_width=2.0 if 0 in glass else 0.0)
    b.wall(Vec2(0, d), Vec2(0, 0), mat(1), SurfaceKind.OUTER_WALL, h, "west", panel_width=2.0 if 1 in glass else 0.0)
    b.wall(Vec2(w, 0), Vec2(w, d), mat(2), SurfaceKind.OUTER_WALL, h, "east", panel_width=2.0 if 2 in glass else 0.0)
    b.wall(Vec2(0, 0), Vec2(entrance_x - gap / 2, 0), BRICK, SurfaceKind.OUTER_WALL, h, "south-a")
    b.wall(Vec2(entrance_x + gap / 2, 0), Vec2(w, 0), BRICK, SurfaceKind.OUTER_WALL, h, "south-b")

    furniture_mats = [BOOKSHELF, DESK, FABRIC, WOOD]
    placed = 0
    attempts = 0
    while placed < spec.n_furniture and attempts < spec.n_furniture * 30:
        attempts += 1
        fw = rng.uniform(0.8, 3.5)
        fd = rng.uniform(0.6, 1.6)
        x0 = rng.uniform(1.0, w - fw - 1.0)
        y0 = rng.uniform(1.5, d - fd - 1.0)
        candidate = Polygon.rectangle(x0, y0, x0 + fw, y0 + fd)
        if any(_boxes_close(candidate, existing, 0.8) for existing in b.furniture):
            continue
        if candidate.contains(Vec2(entrance_x, 1.0)):
            continue
        material = rng.choice(furniture_mats)
        height = rng.uniform(0.8, 2.0)
        b.furniture_box(x0, y0, x0 + fw, y0 + fd, material, height, f"furniture-{placed}")
        placed += 1

    hotspots: List[Hotspot] = [Hotspot(Vec2(entrance_x, 1.2), 2.5, "entrance")]
    venue_probe = Venue(
        name="probe",
        outer=Polygon.rectangle(0, 0, w, d),
        surfaces=b.surfaces,
        furniture_footprints=b.furniture,
        entrance=Vec2(entrance_x, 1.0),
        hotspots=hotspots,
        inner_wall_footprints=b.inner_walls,
    )
    for i in range(spec.n_hotspots - 1):
        for _attempt in range(50):
            p = Vec2(rng.uniform(1.0, w - 1.0), rng.uniform(1.0, d - 1.0))
            if venue_probe.is_traversable(p):
                hotspots.append(Hotspot(p, rng.uniform(0.3, 2.0), f"hotspot-{i}"))
                break

    return Venue(
        name=f"office-{spec.width_m:.0f}x{spec.depth_m:.0f}",
        outer=Polygon.rectangle(0, 0, w, d),
        surfaces=b.surfaces,
        furniture_footprints=b.furniture,
        entrance=Vec2(entrance_x, 1.0),
        hotspots=hotspots,
        inner_wall_footprints=b.inner_walls,
    )


def _boxes_close(a: Polygon, b: Polygon, margin: float) -> bool:
    """True if the bounding boxes of two polygons are within ``margin``."""
    ab, bb = a.bbox, b.bbox
    return not (
        ab.max_x + margin < bb.min_x
        or bb.max_x + margin < ab.min_x
        or ab.max_y + margin < bb.min_y
        or bb.max_y + margin < ab.min_y
    )
