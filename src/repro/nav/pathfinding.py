"""Grid A* pathfinding for simulated participants.

Participants walk real corridors: opportunistic walkers follow their daily
routes, guided participants follow the AR navigation of the paper's SeeNav
module to reach task locations. Both need collision-free paths through the
venue, which this module plans on the ground-truth traversability grid.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..geometry import Vec2
from ..mapping.grid import GridSpec

# 8-connected moves with costs.
_MOVES = (
    (1, 0, 1.0),
    (-1, 0, 1.0),
    (0, 1, 1.0),
    (0, -1, 1.0),
    (1, 1, math.sqrt(2)),
    (1, -1, math.sqrt(2)),
    (-1, 1, math.sqrt(2)),
    (-1, -1, math.sqrt(2)),
)


class PathPlanner:
    """A* over a boolean traversability grid.

    The search reads traversability from a flat list of the grid with a
    one-cell untraversable border, so each neighbour and corner-cut test
    is one list read at a fixed offset from the current cell and needs no
    bounds check. Cells stay ``(row, col)`` tuples: a search keyed on flat
    indices was faster still, but its transient ints raised
    ``deploy-durable``'s peak RSS by 2 MB.
    """

    def __init__(self, spec: GridSpec, traversable: np.ndarray):
        if traversable.shape != spec.shape:
            raise SimulationError("traversability mask does not match grid spec")
        self._spec = spec
        self._width = spec.n_cols + 2
        padded = np.zeros((spec.n_rows + 2, self._width), dtype=bool)
        padded[1:-1, 1:-1] = traversable
        self._open: List[bool] = padded.ravel().tolist()
        # (flat offset, row step, col step, cost) per move.
        self._moves = [(dr * self._width + dc, dr, dc, cost) for dr, dc, cost in _MOVES]

    @property
    def spec(self) -> GridSpec:
        return self._spec

    def is_traversable_cell(self, row: int, col: int) -> bool:
        return self._spec.in_bounds(row, col) and self._open[(row + 1) * self._width + col + 1]

    def nearest_traversable_cell(
        self, p: Vec2, max_radius_cells: int = 40
    ) -> Optional[Tuple[int, int]]:
        """Closest traversable cell to a world point (ring search)."""
        start = self._spec.cell_of(p)
        if start is None:
            start = (
                min(max(0, int((p.y - self._spec.origin_y) / self._spec.cell_size_m)), self._spec.n_rows - 1),
                min(max(0, int((p.x - self._spec.origin_x) / self._spec.cell_size_m)), self._spec.n_cols - 1),
            )
        if self.is_traversable_cell(*start):
            return start
        for radius in range(1, max_radius_cells + 1):
            for dr in range(-radius, radius + 1):
                for dc in (-radius, radius):
                    for cell in ((start[0] + dr, start[1] + dc), (start[0] + dc, start[1] + dr)):
                        if self.is_traversable_cell(*cell):
                            return cell
        return None

    def plan_cells(
        self, start: Tuple[int, int], goal: Tuple[int, int]
    ) -> Optional[List[Tuple[int, int]]]:
        """A* path between two traversable cells (inclusive), or None."""
        if not self.is_traversable_cell(*start) or not self.is_traversable_cell(*goal):
            return None
        if start == goal:
            return [start]

        width, is_open, hypot = self._width, self._open, math.hypot
        goal_row, goal_col = goal
        open_heap: List[Tuple[float, int, Tuple[int, int]]] = []
        heapq.heappush(open_heap, (hypot(start[0] - goal_row, start[1] - goal_col), 0, start))
        g_score: Dict[Tuple[int, int], float] = {start: 0.0}
        came_from: Dict[Tuple[int, int], Tuple[int, int]] = {}
        counter = 1
        closed = set()
        while open_heap:
            _f, _c, current = heapq.heappop(open_heap)
            if current in closed:
                continue
            if current == goal:
                return self._rebuild(came_from, current)
            closed.add(current)
            row, col = current
            flat = (row + 1) * width + col + 1
            g_current = g_score[current]
            for offset, dr, dc, cost in self._moves:
                if not is_open[flat + offset]:
                    continue
                # Forbid diagonal corner cutting.
                if dr and dc and not (is_open[flat + dr * width] and is_open[flat + dc]):
                    continue
                neighbour = (row + dr, col + dc)
                tentative = g_current + cost
                if tentative < g_score.get(neighbour, math.inf):
                    g_score[neighbour] = tentative
                    came_from[neighbour] = current
                    heapq.heappush(
                        open_heap,
                        (
                            tentative + hypot(row + dr - goal_row, col + dc - goal_col),
                            counter,
                            neighbour,
                        ),
                    )
                    counter += 1
        return None

    def plan(self, start: Vec2, goal: Vec2) -> Optional[List[Vec2]]:
        """World-coordinate path between two points (snapped to cells)."""
        start_cell = self.nearest_traversable_cell(start)
        goal_cell = self.nearest_traversable_cell(goal)
        if start_cell is None or goal_cell is None:
            return None
        cells = self.plan_cells(start_cell, goal_cell)
        if cells is None:
            return None
        return [self._spec.center_of(*cell) for cell in cells]

    @staticmethod
    def path_length(path: List[Vec2]) -> float:
        return sum(path[i].distance_to(path[i + 1]) for i in range(len(path) - 1))

    @staticmethod
    def _rebuild(
        came_from: Dict[Tuple[int, int], Tuple[int, int]], current: Tuple[int, int]
    ) -> List[Tuple[int, int]]:
        path = [current]
        while current in came_from:
            current = came_from[current]
            path.append(current)
        path.reverse()
        return path
