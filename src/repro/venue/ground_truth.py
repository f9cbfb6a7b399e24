"""Ground-truth maps derived from venue geometry.

The paper "used a laser range finder to obtain ground truth measurements
inside the library", producing a ground-truth obstacles/visibility map
(Fig. 12d) and the outer-bounds length (98.89 m, entrance excluded). The
simulation replaces measurement with exact rasterisation of the venue
geometry onto the same grid spec the model maps use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mapping.grid import Grid2D, GridSpec
from .model import Venue
from .surfaces import SurfaceKind


@dataclass(frozen=True)
class GroundTruth:
    """Reference maps for one venue on one grid spec."""

    venue_name: str
    spec: GridSpec
    obstacle_mask: np.ndarray  # walls + furniture + inner walls
    region_mask: np.ndarray  # cells inside the outer polygon
    traversable_mask: np.ndarray  # region minus obstacles
    outer_bounds_m: float

    @property
    def region_cells(self) -> int:
        return int(self.region_mask.sum())

    def obstacles_grid(self) -> Grid2D:
        grid = Grid2D(self.spec)
        grid.data[self.obstacle_mask] = 1.0
        return grid


def default_grid_spec(venue: Venue, cell_size_m: float, margin_m: float = 1.0) -> GridSpec:
    """The grid spec every map of this venue should be built on."""
    return GridSpec.from_bbox(venue.bbox, cell_size_m, margin_m)


def build_ground_truth(
    venue: Venue, spec: GridSpec, wall_sample_step_frac: float = 0.4
) -> GroundTruth:
    """Rasterise venue geometry into ground-truth masks on ``spec``."""
    obstacle = np.zeros(spec.shape, dtype=bool)
    step = spec.cell_size_m * wall_sample_step_frac

    # Walls (including glass: the ground truth knows where the glass is).
    for surface in venue.surfaces:
        if surface.kind in (SurfaceKind.DECOR, SurfaceKind.EXTERIOR):
            continue
        for p in surface.segment.sample_points(step):
            cell = spec.cell_of(p)
            if cell is not None:
                obstacle[cell] = True

    # Cells whose centre lies inside the outer polygon, and the solid
    # footprints (furniture and inner-wall bodies) among them. The centre
    # mesh repeats GridSpec.center_of's arithmetic, so each cell's test
    # sees the same coordinates as a per-cell Polygon.contains would.
    xs = spec.origin_x + (np.arange(spec.n_cols) + 0.5) * spec.cell_size_m
    ys = spec.origin_y + (np.arange(spec.n_rows) + 0.5) * spec.cell_size_m
    cx, cy = np.meshgrid(xs, ys)
    region = venue.outer.contains_points(cx, cy)
    footprints = list(venue.furniture_footprints) + list(venue.inner_wall_footprints)
    for fp in footprints:
        obstacle |= region & fp.contains_points(cx, cy)

    # Wall cells on the boundary count as part of the venue region.
    region |= obstacle & _boundary_band(venue, spec)

    traversable = region & ~obstacle
    return GroundTruth(
        venue_name=venue.name,
        spec=spec,
        obstacle_mask=obstacle,
        region_mask=region,
        traversable_mask=traversable,
        outer_bounds_m=venue.outer_bounds_length(),
    )


def _boundary_band(venue: Venue, spec: GridSpec) -> np.ndarray:
    """Cells within one cell of the outer polygon edges."""
    band = np.zeros(spec.shape, dtype=bool)
    step = spec.cell_size_m * 0.4
    for edge in venue.outer.edges():
        for p in edge.sample_points(step):
            cell = spec.cell_of(p)
            if cell is not None:
                band[cell] = True
    return band
