"""Cross-check of the numpy neighbour queries against scipy's kd-tree.

The SOR filter and DBSCAN used ``scipy.spatial.cKDTree`` before the
runtime became numpy-only, and the pinned report digests were made with
it. The numpy replacements claim its answers bit for bit: the same
(N, k+1) distance rows from ``VoxelGrid.knn`` as ``cKDTree.query``, the
same SOR masks, and the same DBSCAN neighbour lists as
``query_ball_point``, pairs exactly ``eps`` apart included. scipy is in
the ``test`` extra only, so this module runs wherever the tests do.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.annotation.clustering import neighbourhoods_within
from repro.camera import GALAXY_S7
from repro.geometry import Vec2
from repro.sfm import IncrementalSfm, sor_mask
from repro.sfm.filters import VoxelGrid
from repro.simkit import RngStream
from tests.test_neighbour_index import SHAPES, cloud

spatial = pytest.importorskip("scipy.spatial")


def kdtree_knn(xyz: np.ndarray, k1: int) -> np.ndarray:
    if xyz.shape[0] == 0:
        return np.zeros((0, k1))
    # A list of ranks keeps the (N, k1) shape when k1 == 1.
    distances, _ = spatial.cKDTree(xyz).query(xyz, k=list(range(1, k1 + 1)))
    return distances


def kdtree_sor_mask(xyz: np.ndarray, k: int, ratio: float) -> np.ndarray:
    """The kd-tree SOR mask the filter replaced."""
    if xyz.shape[0] <= k:
        return np.ones(xyz.shape[0], dtype=bool)
    mean_dist = kdtree_knn(xyz, k + 1)[:, 1:].mean(axis=1)
    return mean_dist <= mean_dist.mean() + ratio * mean_dist.std()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 200), k=st.integers(0, 12), shape=SHAPES)
def test_knn_rows_equal_kdtree(seed, n, k, shape):
    xyz = cloud(seed, n, shape)
    assert np.array_equal(VoxelGrid(xyz).knn(k + 1), kdtree_knn(xyz, k + 1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 300), k=st.integers(1, 10), shape=SHAPES)
def test_sor_mask_equals_kdtree(seed, n, k, shape):
    xyz = cloud(seed, n, shape)
    assert np.array_equal(sor_mask(xyz, k, 2.0), kdtree_sor_mask(xyz, k, 2.0))


def test_sor_mask_on_a_library_model(bench):
    """A real reconstruction: the library's SfM cloud after three sweeps."""
    engine = IncrementalSfm(bench.world, bench.config.sfm, RngStream(5, "kdtree-xcheck"))
    for x, y in ((4.0, 4.0), (6.0, 6.0), (8.0, 5.0)):
        engine.add_photos(list(bench.capture.sweep(Vec2(x, y), GALAXY_S7, 8.0, blur=0.0)))
    xyz = engine.model().cloud.xyz
    assert xyz.shape[0] > 500
    assert np.array_equal(VoxelGrid(xyz).knn(9), kdtree_knn(xyz, 9))
    assert np.array_equal(sor_mask(xyz), kdtree_sor_mask(xyz, 8, 2.0))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 60),
    eps=st.sampled_from([0.625, 1.25, 5.0, 120.0, 260.0]),
)
def test_dbscan_neighbourhoods_equal_query_ball_point(seed, n, eps):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 4.0 * eps, (n, 2))
    base = points[0] = rng.integers(0, 1000, 2)
    unit = eps / 5.0
    points = np.vstack(
        [points, base + [eps, 0.0], base - [0.0, eps], base + [3.0 * unit, 4.0 * unit]]
    )
    want = spatial.cKDTree(points).query_ball_point(points, r=eps)
    assert neighbourhoods_within(points, eps) == [list(row) for row in want]
