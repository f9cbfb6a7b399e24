"""Algorithm 4: findUnvisited — flood-fill search for uncovered areas.

    "We start at a cell in a matrix and search for a closest unvisited cell
    by recursively checking four neighbouring cells (up, down, left,
    right). We consider a cell unvisited if it does not contain any
    obstacles and is covered by less than COVERED_VIEW_TOLERANCE camera
    views. Once we find an unvisited cell, we recursively check unvisited
    neighbouring cells until we find enough cells to cover an area defined
    by MIN_AREA_SIZE. We take a center point of the discovered unvisited
    area and convert it to a 3D position."

The outer search runs breadth-first from the initial position so nearer
unvisited areas are found first, matching "search for a closest unvisited
cell".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import TaskGenerationError
from ..geometry import Vec2
from ..mapping.grid import Grid2D

_NEIGHBOURS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass(frozen=True)
class UnvisitedArea:
    """One connected region of under-covered, obstacle-free cells."""

    cells: Tuple[Tuple[int, int], ...]
    center_cell: Tuple[int, int]
    center_world: Vec2

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def find_unvisited(
    obstacles: Grid2D,
    visibility: Grid2D,
    start_world: Vec2,
    max_areas: int,
    covered_view_tolerance: int = 3,
    min_area_cells: int = 100,
    site_mask: Optional[np.ndarray] = None,
    expansion_cap_cells: Optional[int] = None,
) -> List[UnvisitedArea]:
    """Find up to ``max_areas`` unvisited areas, nearest-first.

    ``site_mask`` restricts the search to cells inside the deployment
    site: the backend's matrix covers the venue being mapped, so space
    beyond the site outline (e.g. seen through glass walls) is never
    "unvisited". Pass None to search the whole grid.

    The breadth-first order over obstacle-free cells does not depend on
    what the search finds, so it is built one layer at a time in numpy;
    only the layer's unvisited, unchecked cells are visited in Python.
    The queue itself marks nothing checked: every unvisited cell it has
    passed already lies in an expanded region, and :func:`_expand`
    enters unvisited cells only.
    """
    obstacle, unvisited = _unvisited_mask(
        obstacles, visibility, covered_view_tolerance, site_mask
    )
    if max_areas < 1:
        return []
    spec = obstacles.spec
    start = spec.cell_of(start_world)
    if start is None:
        raise TaskGenerationError(f"start position {start_world} outside the grid")

    checked = np.zeros(spec.shape, dtype=bool)
    flat_checked, flat_unvisited = checked.reshape(-1), unvisited.reshape(-1)
    passable = ~obstacle.reshape(-1)
    cap = expansion_cap_cells if expansion_cap_cells else min_area_cells
    found: List[UnvisitedArea] = []
    layer = np.array([start[0] * spec.n_cols + start[1]])
    queued = np.zeros(passable.size, dtype=bool)
    queued[layer] = True
    while layer.size:
        for q in layer[flat_unvisited[layer] & ~flat_checked[layer]].tolist():
            if flat_checked[q]:
                continue  # swallowed by an earlier expansion in this layer
            area_cells = _expand(divmod(q, spec.n_cols), unvisited, checked, cap)
            if len(area_cells) >= min_area_cells:
                found.append(_make_area(area_cells, spec))
                if len(found) == max_areas:
                    return found
        layer = _next_layer(layer, passable, queued, spec.n_rows, spec.n_cols)
    return found


def _next_layer(
    layer: np.ndarray, passable: np.ndarray, queued: np.ndarray, n_rows: int, n_cols: int
) -> np.ndarray:
    """The BFS layer after ``layer`` (flat indices), in queue order.

    Discoverers in layer order, each one's neighbours in
    :data:`_NEIGHBOURS` order; a cell discovered twice keeps its first
    place. Marks the new layer queued.
    """
    rows, cols = np.divmod(layer, n_cols)
    inside = np.stack([rows + 1 < n_rows, rows > 0, cols + 1 < n_cols, cols > 0], axis=1)
    candidates = (layer[:, None] + np.array([n_cols, -n_cols, 1, -1]))[inside]
    candidates = candidates[passable[candidates] & ~queued[candidates]]
    _, first = np.unique(candidates, return_index=True)
    nxt = candidates[np.sort(first)]
    queued[nxt] = True
    return nxt


def _unvisited_mask(
    obstacles: Grid2D,
    visibility: Grid2D,
    covered_view_tolerance: int,
    site_mask: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """(obstacle, unvisited) masks; rejects mismatched maps and site masks."""
    if obstacles.spec != visibility.spec:
        raise TaskGenerationError("maps on different grid specs")
    obstacle = obstacles.nonzero_mask()
    unvisited = (~obstacle) & (visibility.data < covered_view_tolerance)
    if site_mask is not None:
        if site_mask.shape != unvisited.shape:
            raise TaskGenerationError("site mask on a different grid")
        unvisited &= site_mask
    return obstacle, unvisited


def _expand(
    seed: Tuple[int, int],
    unvisited: np.ndarray,
    checked: np.ndarray,
    min_area_cells: int,
) -> List[Tuple[int, int]]:
    """Grow the unvisited region around ``seed`` up to MIN_AREA_SIZE.

    Algorithm 4 expands "until we find enough cells to cover an area
    defined by MIN_AREA_SIZE" — the expansion stops once the target size
    is reached, so task locations stay *adjacent to the already-mapped
    area* (a 360° capture there overlaps the existing model and can
    register). Breadth-first growth keeps the patch compact around the
    seed. Marks grown cells as checked (updateCheckedCells).
    """
    n_rows, n_cols = unvisited.shape
    region: List[Tuple[int, int]] = []
    queue: deque = deque([seed])
    checked[seed] = True
    while queue and len(region) < min_area_cells:
        cell = queue.popleft()
        region.append(cell)
        for dr, dc in _NEIGHBOURS:
            nr, nc = cell[0] + dr, cell[1] + dc
            if 0 <= nr < n_rows and 0 <= nc < n_cols:
                if unvisited[nr, nc] and not checked[nr, nc]:
                    checked[nr, nc] = True
                    queue.append((nr, nc))
    return region


def unvisited_region_at(
    obstacles: Grid2D,
    visibility: Grid2D,
    location: Vec2,
    covered_view_tolerance: int = 3,
    cap_cells: int = 400,
    site_mask: Optional[np.ndarray] = None,
) -> List[Tuple[int, int]]:
    """The unvisited region containing ``location``, up to ``cap_cells``.

    Used by the backend's write-off guard: when a location keeps failing
    (photos register, coverage never grows, annotation exhausted), the
    region around it is excluded from future task generation. Returns an
    empty list when the location's cell is covered or an obstacle.
    """
    _, unvisited = _unvisited_mask(
        obstacles, visibility, covered_view_tolerance, site_mask
    )
    spec = obstacles.spec
    seed = spec.cell_of(location)
    if seed is None:
        return []
    if not unvisited[seed]:
        # Fall back to the nearest unvisited cell within a small window, so
        # a slightly-off task location still anchors its failing region.
        seed = _nearest_unvisited(seed, unvisited, radius=6)
        if seed is None:
            return []
    checked = np.zeros(spec.shape, dtype=bool)
    return _expand(seed, unvisited, checked, cap_cells)


def _nearest_unvisited(
    seed: Tuple[int, int], unvisited: np.ndarray, radius: int
) -> Optional[Tuple[int, int]]:
    n_rows, n_cols = unvisited.shape
    best = None
    best_d2 = None
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            r, c = seed[0] + dr, seed[1] + dc
            if 0 <= r < n_rows and 0 <= c < n_cols and unvisited[r, c]:
                d2 = dr * dr + dc * dc
                if best_d2 is None or d2 < best_d2:
                    best, best_d2 = (r, c), d2
    return best


def _make_area(cells: List[Tuple[int, int]], spec) -> UnvisitedArea:
    arr = np.array(cells)
    mean_r, mean_c = arr[:, 0].mean(), arr[:, 1].mean()
    # Use the region cell closest to the centroid so the task location is
    # always inside the region even for L-shaped areas.
    d2 = (arr[:, 0] - mean_r) ** 2 + (arr[:, 1] - mean_c) ** 2
    center = tuple(int(v) for v in arr[int(np.argmin(d2))])
    return UnvisitedArea(
        cells=tuple((int(r), int(c)) for r, c in cells),
        center_cell=center,  # type: ignore[arg-type]
        center_world=spec.center_of(*center),
    )
