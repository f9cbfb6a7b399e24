"""Replica of the paper's evaluation venue.

The field test ran in a ~350 m^2 Aalto University library: "an arbitrarily
shaped space that includes bookshelves, computer workstations, sofas, etc.
Two outer walls of the library are made of bricks, while the other two are
made of large transparent glass panels" (Sec. V-A). The paper also
describes a meeting room with a featureless wall (annotation task 2) and
"a room in a top right corner ... visited by very few participants".

This module builds a venue with the same qualitative structure: an
L-shaped ~344 m^2 floor; brick south and east outer walls; glass west and
north walls (panelised) meeting in a long bare glass corner — exactly the
region Fig. 12d shows the baselines missing; four bookshelf rows; computer
workstations; sofas; reading tables; a plaster-walled meeting room against
the east wall; and a seldom-visited annex room in the top-right corner
behind glass.
"""

from __future__ import annotations

from typing import List

from ..geometry import Polygon, Segment, Vec2
from .materials import (
    BOOKSHELF,
    BRICK,
    DESK,
    FABRIC,
    GLASS,
    PLASTER,
    POSTER,
    SPARSE_TABLE,
    WOOD,
)
from .model import Hotspot, Venue
from .surfaces import Surface, SurfaceKind, box_surfaces

# Floor-plan landmarks (metres).
MAIN_W, MAIN_H = 22.0, 14.0
ANNEX_MIN_X, ANNEX_MAX_Y = 16.0, 20.0
ENTRANCE_GAP = (1.5, 3.3)  # south-wall x-range left open as the entrance
WALL_HEIGHT = 2.7
GLASS_PANEL_WIDTH = 4.0


class _Builder:
    """Accumulates surfaces/footprints with consecutive surface ids."""

    def __init__(self) -> None:
        self.surfaces: List[Surface] = []
        self.furniture: List[Polygon] = []
        self.inner_walls: List[Polygon] = []
        self._next_id = 0

    def wall(
        self,
        a: Vec2,
        b: Vec2,
        material,
        kind: SurfaceKind,
        height: float = WALL_HEIGHT,
        label: str = "",
        panel_width: float = 0.0,
    ) -> None:
        """Add a wall, optionally split into panels of ``panel_width``."""
        seg = Segment(a, b)
        if panel_width and seg.length > panel_width * 1.5:
            n = max(1, int(round(seg.length / panel_width)))
            for i in range(n):
                sub = seg.subsegment(i / n, (i + 1) / n)
                self._add(sub, material, kind, height, 0.0, f"{label}:p{i}")
        else:
            self._add(seg, material, kind, height, 0.0, label)

    def decor(self, a: Vec2, b: Vec2, base_z: float, height: float, label: str) -> None:
        self._add(Segment(a, b), POSTER, SurfaceKind.DECOR, height, base_z, label)

    def _add(self, seg: Segment, material, kind, height, base_z, label) -> None:
        self.surfaces.append(
            Surface(
                surface_id=self._next_id,
                segment=seg,
                material=material,
                kind=kind,
                height=height,
                base_z=base_z,
                label=label,
            )
        )
        self._next_id += 1

    def furniture_box(
        self, min_x: float, min_y: float, max_x: float, max_y: float, material, height: float, label: str
    ) -> None:
        sides = box_surfaces(
            self._next_id, min_x, min_y, max_x, max_y, material, height, SurfaceKind.FURNITURE, label
        )
        self.surfaces.extend(sides)
        self._next_id += len(sides)
        self.furniture.append(Polygon.rectangle(min_x, min_y, max_x, max_y))

    def inner_wall(self, a: Vec2, b: Vec2, material, label: str, thickness: float = 0.12) -> None:
        """A thin interior wall: one surface plus a blocking footprint."""
        self.wall(a, b, material, SurfaceKind.INNER_WALL, label=label)
        seg = Segment(a, b)
        n = seg.normal * (thickness / 2.0)
        self.inner_walls.append(Polygon([a + n, b + n, b - n, a - n]))


def build_library() -> Venue:
    """Construct the library replica (deterministic, no RNG involved)."""
    b = _Builder()

    # --- Outer shell -------------------------------------------------------
    # South wall (brick) with the entrance gap.
    b.wall(Vec2(0, 0), Vec2(ENTRANCE_GAP[0], 0), BRICK, SurfaceKind.OUTER_WALL, label="south-brick-a")
    b.wall(Vec2(ENTRANCE_GAP[1], 0), Vec2(MAIN_W, 0), BRICK, SurfaceKind.OUTER_WALL, label="south-brick-b")
    # East wall (brick), full height of the L.
    b.wall(Vec2(MAIN_W, 0), Vec2(MAIN_W, ANNEX_MAX_Y), BRICK, SurfaceKind.OUTER_WALL, label="east-brick")
    # Annex north wall (glass panels).
    b.wall(
        Vec2(MAIN_W, ANNEX_MAX_Y), Vec2(ANNEX_MIN_X, ANNEX_MAX_Y), GLASS,
        SurfaceKind.OUTER_WALL, label="annex-north-glass", panel_width=GLASS_PANEL_WIDTH,
    )
    # Annex west wall (glass panels, faces outdoors).
    b.wall(
        Vec2(ANNEX_MIN_X, ANNEX_MAX_Y), Vec2(ANNEX_MIN_X, MAIN_H), GLASS,
        SurfaceKind.OUTER_WALL, label="annex-west-glass", panel_width=GLASS_PANEL_WIDTH,
    )
    # Main north wall (glass panels) — one of the two big glass walls.
    b.wall(
        Vec2(ANNEX_MIN_X, MAIN_H), Vec2(0, MAIN_H), GLASS,
        SurfaceKind.OUTER_WALL, label="north-glass", panel_width=GLASS_PANEL_WIDTH,
    )
    # West wall (glass panels) — the second glass wall; it meets the north
    # glass in a long bare glass corner, the region baselines miss.
    b.wall(
        Vec2(0, MAIN_H), Vec2(0, 0), GLASS,
        SurfaceKind.OUTER_WALL, label="west-glass", panel_width=GLASS_PANEL_WIDTH,
    )

    # A lone sign on the north glass near the annex: "bounds along some of
    # the glass wall panels were reconstructed, because they either had
    # posters, signs or pieces of furniture close to them".
    b.decor(Vec2(14.6, MAIN_H), Vec2(15.6, MAIN_H), base_z=1.2, height=1.0, label="glass-sign")

    # --- Annex partition (wood shelving wall with a door gap) --------------
    b.inner_wall(Vec2(ANNEX_MIN_X, MAIN_H), Vec2(17.0, MAIN_H), WOOD, label="annex-partition-a")
    b.inner_wall(Vec2(18.2, MAIN_H), Vec2(MAIN_W, MAIN_H), WOOD, label="annex-partition-b")

    # --- Meeting room against the east brick wall (plaster = featureless;
    # door gap on the west side) ---------------------------------------------
    b.inner_wall(Vec2(18.5, 9.0), Vec2(MAIN_W, 9.0), PLASTER, label="meeting-south")
    b.inner_wall(Vec2(18.5, 12.5), Vec2(MAIN_W, 12.5), PLASTER, label="meeting-north")
    b.inner_wall(Vec2(18.5, 9.0), Vec2(18.5, 10.2), PLASTER, label="meeting-west-a")
    b.inner_wall(Vec2(18.5, 11.4), Vec2(18.5, 12.5), PLASTER, label="meeting-west-b")
    # Posters + a table inside the meeting room so photos taken inside can
    # register into the model (real meeting rooms are not empty boxes).
    b.decor(Vec2(19.2, 12.45), Vec2(20.8, 12.45), base_z=1.1, height=1.1, label="meeting-poster")
    b.furniture_box(19.6, 10.0, 21.2, 11.2, WOOD, height=0.75, label="meeting-table")

    # --- Bookshelf rows (0.5 m deep; interiors are unobservable, giving the
    # paper's "white empty areas ... sparse points inside a few obstacles") --
    for i, y in enumerate((2.0, 4.8, 7.6, 10.4)):
        b.furniture_box(6.5, y, 14.5, y + 0.5, BOOKSHELF, height=2.0, label=f"shelf-row-{i}")

    # --- Computer workstations along the east wall ---------------------------
    for i, y in enumerate((1.5, 4.0, 6.5)):
        b.furniture_box(19.8, y, 21.6, y + 1.5, DESK, height=1.1, label=f"workstation-{i}")

    # --- Lounge: sofas and the info desk -------------------------------------
    b.furniture_box(2.5, 1.8, 4.7, 2.8, FABRIC, height=0.9, label="sofa-a")
    b.furniture_box(1.8, 4.0, 2.8, 6.2, FABRIC, height=0.9, label="sofa-b")
    b.furniture_box(5.5, 0.8, 7.5, 1.6, WOOD, height=1.1, label="info-desk")

    # --- Reading tables (sparse tops -> the paper's "featureless parts of a
    # table" white spots); kept clear of the glass walls ----------------------
    b.furniture_box(9.8, 11.0, 11.2, 12.2, SPARSE_TABLE, height=0.75, label="table-north")
    b.furniture_box(3.4, 7.5, 4.8, 8.7, SPARSE_TABLE, height=0.75, label="table-west")
    b.furniture_box(18.5, 16.5, 20.0, 18.0, SPARSE_TABLE, height=0.75, label="table-annex")

    # --- Study corner in the open northwest area ------------------------------
    b.furniture_box(3.2, 11.0, 4.6, 12.2, WOOD, height=0.75, label="table-nw")

    # --- Window-side seating and a structural pillar (about 1 m clear of the
    # glass: visible in annotation photo sets, but off the wall line so they
    # do not stand in for the missing glass bounds) ----------------------------
    b.furniture_box(1.2, 9.4, 2.0, 10.2, FABRIC, height=0.9, label="armchair-w")
    b.furniture_box(1.3, 12.3, 1.9, 12.9, WOOD, height=1.6, label="plant-w")
    b.furniture_box(5.6, 12.3, 6.4, 13.1, FABRIC, height=0.9, label="armchair-n")
    b.furniture_box(12.6, 12.4, 13.2, 13.0, BRICK, height=2.7, label="pillar-n")

    # --- Annex interior ---------------------------------------------------------
    b.furniture_box(20.5, 14.8, 21.7, 16.2, DESK, height=1.1, label="annex-desk")

    outer = Polygon(
        [
            Vec2(0, 0),
            Vec2(MAIN_W, 0),
            Vec2(MAIN_W, ANNEX_MAX_Y),
            Vec2(ANNEX_MIN_X, ANNEX_MAX_Y),
            Vec2(ANNEX_MIN_X, MAIN_H),
            Vec2(0, MAIN_H),
        ]
    )

    hotspots = (
        Hotspot(Vec2(2.4, 1.2), 3.0, "entrance"),
        Hotspot(Vec2(3.6, 3.4), 2.0, "lounge"),
        Hotspot(Vec2(6.0, 2.4), 1.5, "info-desk"),
        Hotspot(Vec2(18.8, 4.7), 2.5, "workstations"),
        Hotspot(Vec2(10.5, 3.7), 1.5, "aisle-a"),
        Hotspot(Vec2(10.5, 6.4), 1.2, "aisle-b"),
        Hotspot(Vec2(17.9, 10.8), 1.0, "meeting-door"),
        Hotspot(Vec2(20.4, 9.6), 0.8, "meeting-room"),
        Hotspot(Vec2(10.5, 12.8), 1.0, "reading-tables"),
        Hotspot(Vec2(4.3, 9.6), 0.6, "west-corridor"),
        Hotspot(Vec2(19.2, 15.4), 0.15, "annex-room"),
    )

    return Venue(
        name="aalto-library-replica",
        outer=outer,
        surfaces=b.surfaces,
        furniture_footprints=b.furniture,
        entrance=Vec2(2.4, 0.9),
        hotspots=hotspots,
        inner_wall_footprints=b.inner_walls,
    )
