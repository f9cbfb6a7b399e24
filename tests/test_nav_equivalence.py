"""Exact equivalence of the flat-grid A* and the one it replaced.

``PathPlanner.plan_cells`` searches a flat list of the traversability grid
with a one-cell untraversable border, testing each neighbour and each
corner cut by a fixed offset instead of a bounds-checked ``(row, col)``
lookup. The heap pushes are meant to be the same, in the same order, so
every path is the same. The replaced search is kept below, verbatim, as
the oracle, and every comparison is ``==`` on the returned cell lists:
over every plan of a replayed guided campaign, and over small grids with
start or goal on the border, blocked diagonals, start == goal and
unreachable goals.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import Workbench
from repro.mapping import GridSpec
from repro.nav import PathPlanner
from repro.nav.pathfinding import _MOVES


# -- the replaced search, verbatim --------------------------------------------


class OraclePlanner:
    """The bounds-checked (row, col) A* that the flat search replaced."""

    def __init__(self, spec: GridSpec, traversable: np.ndarray):
        self._spec = spec
        self._traversable = traversable

    def is_traversable_cell(self, row: int, col: int) -> bool:
        return self._spec.in_bounds(row, col) and bool(self._traversable[row, col])

    def plan_cells(
        self, start: Tuple[int, int], goal: Tuple[int, int]
    ) -> Optional[List[Tuple[int, int]]]:
        """A* path between two traversable cells (inclusive), or None."""
        if not self.is_traversable_cell(*start) or not self.is_traversable_cell(*goal):
            return None
        if start == goal:
            return [start]

        def heuristic(cell: Tuple[int, int]) -> float:
            return math.hypot(cell[0] - goal[0], cell[1] - goal[1])

        open_heap: List[Tuple[float, int, Tuple[int, int]]] = []
        heapq.heappush(open_heap, (heuristic(start), 0, start))
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
            for dr, dc, cost in _MOVES:
                neighbour = (current[0] + dr, current[1] + dc)
                if not self.is_traversable_cell(*neighbour):
                    continue
                # Forbid diagonal corner cutting.
                if dr and dc:
                    if not (
                        self.is_traversable_cell(current[0] + dr, current[1])
                        and self.is_traversable_cell(current[0], current[1] + dc)
                    ):
                        continue
                tentative = g_score[current] + cost
                if tentative < g_score.get(neighbour, math.inf):
                    g_score[neighbour] = tentative
                    came_from[neighbour] = current
                    heapq.heappush(
                        open_heap, (tentative + heuristic(neighbour), counter, neighbour)
                    )
                    counter += 1
        return None

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


def assert_same_plan(spec, traversable, start, goal):
    got = PathPlanner(spec, traversable).plan_cells(start, goal)
    want = OraclePlanner(spec, traversable).plan_cells(start, goal)
    assert got == want, (start, goal)
    if got is not None:
        assert all(type(cell) is tuple for cell in got)
    return got


# -- every plan of a replayed campaign ----------------------------------------


@pytest.fixture(scope="module")
def guided_plans():
    """(planner, every (start, goal) the fig10 guided campaign planned)."""
    bench = Workbench.for_library()
    planner = bench.planner
    plans = []
    real = PathPlanner.plan_cells

    def recording(self, start, goal):
        plans.append((start, goal))
        return real(self, start, goal)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PathPlanner, "plan_cells", recording)
        pipeline = bench.make_pipeline()
        run = bench.make_guided_campaign(pipeline, 10).run(max_tasks=120)
    assert run.venue_covered
    return bench, planner, plans


class TestReplayedCampaign:
    def test_every_plan_is_the_oracles(self, guided_plans):
        bench, planner, plans = guided_plans
        oracle = OraclePlanner(bench.spec, bench.ground_truth.traversable_mask)
        assert len(plans) > 20
        found = 0
        for start, goal in plans:
            got = planner.plan_cells(start, goal)
            assert got == oracle.plan_cells(start, goal), (start, goal)
            found += got is not None
        assert found > 20, "vacuous: the campaign planned no paths"

    def test_reversed_plans_are_the_oracles(self, guided_plans):
        bench, planner, plans = guided_plans
        oracle = OraclePlanner(bench.spec, bench.ground_truth.traversable_mask)
        for start, goal in plans[:15]:
            assert planner.plan_cells(goal, start) == oracle.plan_cells(goal, start)


# -- edge geometry ------------------------------------------------------------


SPEC = GridSpec(origin_x=0.0, origin_y=0.0, cell_size_m=0.25, n_rows=7, n_cols=9)


class TestEdgeGeometry:
    def test_start_and_goal_on_the_border(self):
        open_grid = np.ones(SPEC.shape, dtype=bool)
        last_row, last_col = SPEC.n_rows - 1, SPEC.n_cols - 1
        corners = [(0, 0), (0, last_col), (last_row, 0), (last_row, last_col)]
        for start in corners:
            for goal in corners + [(0, 4), (3, 0), (last_row, 4), (3, last_col)]:
                assert_same_plan(SPEC, open_grid, start, goal)

    def test_blocked_diagonals(self):
        # A checkerboard: every diagonal step cuts a blocked corner, so no
        # two open cells connect and only start == goal has a path.
        rows, cols = np.indices(SPEC.shape)
        board = (rows + cols) % 2 == 0
        assert assert_same_plan(SPEC, board, (0, 0), (2, 2)) is None
        assert assert_same_plan(SPEC, board, (1, 1), (1, 1)) == [(1, 1)]
        # One blocked orthogonal neighbour forbids the diagonal past it.
        grid = np.ones(SPEC.shape, dtype=bool)
        grid[0, 1] = False
        grid[2, 3] = False
        for goal in [(1, 1), (1, 2), (3, 4), (0, 2)]:
            assert_same_plan(SPEC, grid, (0, 0), goal)

    def test_start_equals_goal(self):
        open_grid = np.ones(SPEC.shape, dtype=bool)
        for cell in [(0, 0), (3, 4), (SPEC.n_rows - 1, SPEC.n_cols - 1)]:
            assert assert_same_plan(SPEC, open_grid, cell, cell) == [cell]

    def test_unreachable_goal(self):
        grid = np.ones(SPEC.shape, dtype=bool)
        grid[:, 4] = False  # a full-height wall
        assert assert_same_plan(SPEC, grid, (0, 0), (6, 8)) is None
        assert assert_same_plan(SPEC, grid, (3, 2), (3, 6)) is None

    def test_start_or_goal_blocked_or_outside(self):
        grid = np.ones(SPEC.shape, dtype=bool)
        grid[2, 2] = False
        for start, goal in [
            ((2, 2), (0, 0)),
            ((0, 0), (2, 2)),
            ((-1, 0), (0, 0)),
            ((0, 0), (SPEC.n_rows, 0)),
            ((0, SPEC.n_cols), (0, 0)),
        ]:
            assert assert_same_plan(SPEC, grid, start, goal) is None

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        density=st.floats(0.0, 0.45),
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
    )
    def test_random_grids(self, seed, density, rows, cols):
        spec = GridSpec(origin_x=0.0, origin_y=0.0, cell_size_m=0.5, n_rows=rows, n_cols=cols)
        rng = np.random.default_rng(seed)
        grid = rng.random(spec.shape) >= density
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        for _ in range(6):
            start = cells[int(rng.integers(len(cells)))]
            goal = cells[int(rng.integers(len(cells)))]
            assert_same_plan(spec, grid, start, goal)
