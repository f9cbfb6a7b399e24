"""The SOR neighbour index and DBSCAN's radius query against numpy oracles.

``VoxelGrid.knn`` must give, bit for bit, the (N, k+1) distance rows of a
brute-force oracle that computes every pair distance as
``sqrt((dx*dx + dy*dy) + dz*dz)`` and keeps each row's k+1 smallest. The
clouds are built to hit the grid's edge cases: duplicate points,
coordinates exactly on cube boundaries, sparse far outliers whose rings
must grow, flat and collinear clouds, and clouds of at most k points
(rows padded with ``inf``). ``neighbourhoods_within`` is checked the same
way against a scalar pair loop, with pairs planted exactly ``eps`` apart.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.annotation.clustering import neighbourhoods_within
from repro.sfm import filters
from repro.sfm.filters import VoxelGrid


def brute_knn(xyz: np.ndarray, k1: int) -> np.ndarray:
    """Every pair distance, each row's k1 smallest, ``inf``-padded."""
    d = xyz[:, None, :] - xyz[None, :, :]
    d2 = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]
    d2 = np.sort(d2, axis=1)[:, :k1]
    out = np.full((xyz.shape[0], k1), np.inf)
    out[:, : d2.shape[1]] = np.sqrt(d2)
    return out


def cloud(seed: int, n: int, shape: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "lattice":
        # Few distinct lattice coordinates: duplicates and exact ties.
        return rng.integers(0, 4, (n, 3)) * 0.25
    if shape == "outliers":
        xyz = rng.normal(0.0, 1.0, (n, 3))
        far = rng.random(n) < 0.1
        xyz[far] = rng.normal(0.0, 1000.0, (int(far.sum()), 3))
        return xyz
    if shape == "flat":
        xyz = rng.normal(0.0, 3.0, (n, 3))
        xyz[:, 2] = 1.5
        return xyz
    if shape == "line":
        xyz = np.zeros((n, 3))
        xyz[:, 0] = rng.exponential(2.0, n)
        return xyz
    xyz = rng.normal(0.0, 1.0, (n, 3))  # "blob" with duplicated points
    dup = rng.integers(0, max(1, n), n // 4)
    xyz[: dup.shape[0]] = xyz[dup]
    return xyz


SHAPES = st.sampled_from(["lattice", "outliers", "flat", "line", "blob"])


class TestVoxelGridKnn:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 150), k=st.integers(0, 12), shape=SHAPES)
    def test_rows_equal_brute_force(self, seed, n, k, shape):
        xyz = cloud(seed, n, shape)
        got = VoxelGrid(xyz).knn(k + 1)
        assert got.shape == (n, k + 1)
        assert np.array_equal(got, brute_knn(xyz, k + 1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 120), k=st.integers(1, 10))
    def test_points_on_cube_boundaries(self, seed, n, k):
        """Cubes sized to the lattice step put every coordinate exactly on
        a cube face."""
        xyz = np.random.default_rng(seed).integers(-6, 7, (n, 3)) * 0.375
        with mock.patch.object(filters, "_cube_side", lambda extent, n_cells: 0.375):
            got = VoxelGrid(xyz).knn(k + 1)
        assert np.array_equal(got, brute_knn(xyz, k + 1))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(30, 200), k=st.integers(1, 10))
    def test_row_subsets(self, seed, n, k):
        """Querying some rows gives those rows of the full answer."""
        xyz = cloud(seed, n, "outliers")
        rows = np.random.default_rng(seed).permutation(n)[: n // 3]
        grid = VoxelGrid(xyz)
        assert np.array_equal(grid.knn(k + 1, rows), brute_knn(xyz, k + 1)[rows])

    def test_far_outlier_grows_its_ring(self):
        """A filled box and one point off its corner: the outlier's k-th
        neighbour is several cubes away, and its row is still exact."""
        rng = np.random.default_rng(4)
        xyz = np.vstack([rng.uniform(0.0, 20.0, (2000, 3)), [[32.0, 31.0, 30.0]]])
        grid = VoxelGrid(xyz)
        got = grid.knn(9)
        assert got[-1, -1] > 3 * grid.side
        assert np.array_equal(got, brute_knn(xyz, 9))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 150), shape=SHAPES)
    def test_ring_pairs_hold_every_close_point(self, seed, n, shape):
        """Each row's ring holds every point within ``side * _SLACK``,
        with distances equal to the oracle's."""
        xyz = cloud(seed, n, shape)
        grid = VoxelGrid(xyz)
        for row in range(0, n, 2):
            d = xyz - xyz[row]
            exact = np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2])
            found = set()
            for _at, _per_row, point, d2 in grid.ring([row]):
                assert np.array_equal(np.sqrt(d2), exact[point])
                found.update(point.tolist())
            assert set(np.flatnonzero(exact <= grid.side * filters._SLACK).tolist()) <= found


def scalar_neighbourhoods(points, eps):
    out = []
    for xi, yi in points.tolist():
        row = []
        for j, (xj, yj) in enumerate(points.tolist()):
            dx, dy = xi - xj, yi - yj
            if dx * dx + dy * dy <= eps * eps:
                row.append(j)
        out.append(row)
    return out


class TestDbscanNeighbourhoods:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        eps=st.sampled_from([0.625, 1.25, 5.0, 120.0, 260.0]),
    )
    def test_equal_scalar_pair_loop_with_exact_eps_pairs(self, seed, n, eps):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.0, 4.0 * eps, (n, 2))
        # Plant pairs exactly eps apart, axis-aligned and 3-4-5 (every
        # coordinate and difference is exact in binary), and a duplicate.
        base = points[0] = rng.integers(0, 1000, 2)
        unit = eps / 5.0
        planted = [
            base + [eps, 0.0],
            base - [0.0, eps],
            base + [3.0 * unit, 4.0 * unit],
            base.copy(),
        ]
        points = np.vstack([points, planted])
        got = neighbourhoods_within(points, eps)
        assert got == scalar_neighbourhoods(points, eps)
        assert n in got[0] and n + 1 in got[0] and n + 3 in got[0]

    def test_exact_eps_pair_is_a_neighbour(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0 + 1e-9]])
        assert neighbourhoods_within(points, 5.0) == [[0, 1], [0, 1, 2], [1, 2]]


@pytest.mark.parametrize("n", [0, 1, 5, 9])
def test_tiny_clouds_pad_with_inf(n):
    xyz = np.random.default_rng(n).normal(size=(n, 3))
    got = VoxelGrid(xyz).knn(9)
    assert got.shape == (n, 9)
    assert np.isinf(got[:, n:]).all() and np.isfinite(got[:, :n]).all()
