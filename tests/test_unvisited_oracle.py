"""Differential oracle for Algorithm 4 (findUnvisited).

``find_unvisited`` builds its outer breadth-first order one layer at a
time in numpy and visits only the unvisited cells in Python. The scalar
search it replaced is kept here as the oracle: one FIFO queue, one cell
at a time, neighbours in ``_NEIGHBOURS`` order. Random grids vary the
obstacle density, view counts, site masks, start cells (including a
start cell that is itself an obstacle), ``max_areas``, ``min_area_cells``
and ``expansion_cap_cells``; the areas found must be equal field by field.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import List, Optional

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.unvisited import (
    _NEIGHBOURS,
    UnvisitedArea,
    _expand,
    _make_area,
    find_unvisited,
)
from repro.geometry import Vec2
from repro.mapping import Grid2D, GridSpec


def scalar_find_unvisited(
    obstacles: Grid2D,
    visibility: Grid2D,
    start_world: Vec2,
    max_areas: int,
    covered_view_tolerance: int = 3,
    min_area_cells: int = 100,
    site_mask: Optional[np.ndarray] = None,
    expansion_cap_cells: Optional[int] = None,
) -> List[UnvisitedArea]:
    """The cell-at-a-time search: the oracle for ``find_unvisited``."""
    if max_areas < 1:
        return []
    spec = obstacles.spec
    start = spec.cell_of(start_world)
    obstacle = obstacles.nonzero_mask()
    unvisited = (~obstacle) & (visibility.data < covered_view_tolerance)
    if site_mask is not None:
        unvisited &= site_mask
    checked = np.zeros(spec.shape, dtype=bool)

    cap = expansion_cap_cells if expansion_cap_cells else min_area_cells
    found: List[UnvisitedArea] = []
    queue: deque = deque([start])
    queued = np.zeros(spec.shape, dtype=bool)
    queued[start] = True
    while queue and len(found) < max_areas:
        q = queue.popleft()
        if not checked[q]:
            if unvisited[q]:
                area_cells = _expand(q, unvisited, checked, cap)
                if len(area_cells) >= min_area_cells:
                    found.append(_make_area(area_cells, spec))
            checked[q] = True
        for dr, dc in _NEIGHBOURS:
            nr, nc = q[0] + dr, q[1] + dc
            if (
                spec.in_bounds(nr, nc)
                and not queued[nr, nc]
                and not obstacle[nr, nc]
            ):
                queued[nr, nc] = True
                queue.append((nr, nc))
    return found


def random_maps(rng, n_rows, n_cols, obstacle_density, max_views):
    spec = GridSpec(0.0, 0.0, 0.25, n_rows, n_cols)
    obstacles = Grid2D(spec, (rng.random(spec.shape) < obstacle_density) * 4.0)
    views = rng.integers(0, max_views + 1, size=spec.shape).astype(float)
    # A covered rectangle gives the search a frontier to cross.
    r0, c0 = rng.integers(0, n_rows), rng.integers(0, n_cols)
    views[r0 : r0 + rng.integers(1, n_rows + 1), c0 : c0 + rng.integers(1, n_cols + 1)] = 9.0
    return spec, obstacles, Grid2D(spec, views)


class TestLayeredSearchMatchesScalarOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 40),
        n_cols=st.integers(1, 40),
        obstacle_density=st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6]),
        max_views=st.integers(0, 6),
        tolerance=st.integers(1, 4),
        site=st.sampled_from(["none", "random", "half"]),
        start_on_obstacle=st.booleans(),
        max_areas=st.integers(1, 12),
        min_area_cells=st.integers(1, 60),
        expansion_cap_cells=st.one_of(st.none(), st.integers(1, 200)),
    )
    def test_areas_equal_field_by_field(
        self,
        seed,
        n_rows,
        n_cols,
        obstacle_density,
        max_views,
        tolerance,
        site,
        start_on_obstacle,
        max_areas,
        min_area_cells,
        expansion_cap_cells,
    ):
        rng = np.random.default_rng(seed)
        spec, obstacles, visibility = random_maps(
            rng, n_rows, n_cols, obstacle_density, max_views
        )
        start = (int(rng.integers(0, n_rows)), int(rng.integers(0, n_cols)))
        if start_on_obstacle:
            obstacles.data[start] = 9.0
        site_mask = {
            "none": None,
            "random": rng.random(spec.shape) < 0.8,
            "half": np.arange(n_cols)[None, :].repeat(n_rows, 0) < n_cols // 2,
        }[site]
        args = (obstacles, visibility, spec.center_of(*start), max_areas)
        kwargs = dict(
            covered_view_tolerance=tolerance,
            min_area_cells=min_area_cells,
            site_mask=site_mask,
            expansion_cap_cells=expansion_cap_cells,
        )
        expected = scalar_find_unvisited(*args, **kwargs)
        actual = find_unvisited(*args, **kwargs)
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            for field in dataclasses.fields(UnvisitedArea):
                assert getattr(got, field.name) == getattr(want, field.name), field.name
