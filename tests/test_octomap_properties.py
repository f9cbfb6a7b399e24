"""Property-based OctoMap tests against a brute-force voxel reference.

The from-scratch obstacles map and the incremental engine both place
points with the octree's leaf descent (``OctoMap.leaf_centers``), so its
lattice arithmetic is checked here against an independent floor-index
reference over seeded-random clouds. The test octree (centre 0,
half-extent 8, resolution 0.25) is chosen so every node centre is exactly
representable in binary floating point: the octree's midpoint-descent
partition and the reference's floor arithmetic then agree *exactly*,
including for points sitting on cell edges. The engine's per-cell delta
counts are then checked against the from-scratch obstacles map after
every step of seeded add/remove sequences.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import BoundingBox
from repro.mapping import (
    GridSpec,
    IncrementalMapEngine,
    OctoMap,
    calculate_obstacles_map,
)
from repro.sfm import PointCloud, SfmModel
from repro.sfm.pointcloud import CloudPoint

HALF = 8.0
RES = 0.25
LEAF = 0.25  # == RES exactly for this configuration (2*8 / 2**6)


def make_tree() -> OctoMap:
    return OctoMap((0.0, 0.0, 0.0), half_extent=HALF, resolution=RES)


def brute_index(v: float) -> int:
    """Reference voxel index along one axis (min corner at -HALF)."""
    return int(math.floor((v + HALF) / LEAF))


def random_cloud(seed: int, n: int) -> np.ndarray:
    """Seeded in-extent points, kept away from the ±HALF faces."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-HALF + 1e-6, HALF - 1e-6, size=(n, 3))


def brute_leaves(xyz: np.ndarray) -> dict:
    counts: dict = defaultdict(int)
    for x, y, z in xyz:
        counts[(brute_index(x), brute_index(y), brute_index(z))] += 1
    return dict(counts)


def octree_leaves(tree: OctoMap) -> dict:
    counts: dict = {}
    for cx, cy, cz, count in tree.leaves():
        key = (
            int(math.floor((cx + HALF) / LEAF)),
            int(math.floor((cy + HALF) / LEAF)),
            int(math.floor((cz + HALF) / LEAF)),
        )
        assert key not in counts, "octree yielded the same leaf twice"
        counts[key] = count
    return counts


class TestInsertAgainstBruteForce:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400))
    def test_leaf_counts_match_reference(self, seed, n):
        xyz = random_cloud(seed, n)
        tree = make_tree()
        assert tree.insert_array(xyz) == n
        assert tree.n_points == n
        assert octree_leaves(tree) == brute_leaves(xyz)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200))
    def test_count_at_matches_reference(self, seed, n):
        xyz = random_cloud(seed, n)
        tree = make_tree()
        tree.insert_array(xyz)
        ref = brute_leaves(xyz)
        for x, y, z in xyz[:20]:
            key = (brute_index(x), brute_index(y), brute_index(z))
            assert tree.count_at(x, y, z) == ref[key]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
    def test_merge_columns_matches_reference(self, seed, n):
        z_min, z_max = -1.0, 2.5
        xyz = random_cloud(seed, n)
        tree = make_tree()
        tree.insert_array(xyz)

        ref: dict = defaultdict(int)
        for x, y, z in xyz:
            cz = -HALF + (brute_index(z) + 0.5) * LEAF  # leaf centre
            if z_min <= cz <= z_max:
                ref[(brute_index(x) - int(HALF / LEAF), brute_index(y) - int(HALF / LEAF))] += 1
        assert tree.merge_columns(z_min, z_max) == dict(ref)


class TestBoundaryCoordinates:
    def test_points_on_cell_edges_go_to_upper_cell(self):
        """The octree's `>=` descent rule: an exact-edge point belongs to
        the cell whose minimum corner it sits on."""
        tree = make_tree()
        edges = np.array([-0.25, 0.0, 0.25, 2.5, -4.0])
        leaves, inside = tree.leaf_centers(np.repeat(edges[:, None], 3, axis=1))
        assert inside.all()
        for b, (cx, cy, cz) in zip(edges, leaves):
            assert cx == pytest.approx(b + LEAF / 2.0, abs=1e-12)
            assert cy == pytest.approx(b + LEAF / 2.0, abs=1e-12)
            assert cz == pytest.approx(b + LEAF / 2.0, abs=1e-12)

    def test_extent_faces(self):
        tree = make_tree()
        # The maximum face is inside (closed bounds), landing in the last leaf.
        leaves, inside = tree.leaf_centers(np.array([[HALF, 0.0, 0.0], [-HALF, 0.0, 0.0]]))
        assert inside.all()
        assert leaves[0, 0] == pytest.approx(HALF - LEAF / 2.0)

    def test_out_of_extent_points_rejected(self):
        tree = make_tree()
        assert not tree.insert(HALF + 1e-6, 0.0, 0.0)
        assert not tree.insert(0.0, -HALF - 1.0, 0.0)
        assert not tree.insert(0.0, 0.0, math.nan)
        assert tree.insert_array(np.array([[9.0, 0.0, 0.0], [0.0, 0.0, 0.0]])) == 1
        assert tree.n_points == 1


class TestSpecAnchoredLattice:
    def test_for_spec_leaf_size_is_exact(self):
        spec = GridSpec.from_bbox(BoundingBox(0, 0, 21.3, 17.9), 0.15, margin_m=1.0)
        tree = OctoMap.for_spec(spec)
        assert tree.leaf_size == spec.cell_size_m  # exact, not approx

    def test_for_spec_min_corner_aligned_to_grid(self):
        spec = GridSpec.from_bbox(BoundingBox(-3.7, 2.1, 18.0, 12.0), 0.15, margin_m=1.0)
        tree = OctoMap.for_spec(spec)
        mx, my, mz = tree.min_corner
        cells_x = (spec.origin_x - mx) / tree.leaf_size
        cells_y = (spec.origin_y - my) / tree.leaf_size
        assert cells_x == pytest.approx(round(cells_x), abs=1e-9)
        assert cells_y == pytest.approx(round(cells_y), abs=1e-9)
        assert round(cells_x) >= 1 and round(cells_y) >= 1  # padding present

    def test_for_spec_covers_grid_and_z_floor(self):
        spec = GridSpec.from_bbox(BoundingBox(0, 0, 22.0, 15.0), 0.15, margin_m=1.0)
        tree = OctoMap.for_spec(spec, z_floor_m=-4.0)
        mx, my, mz = tree.min_corner
        side = 2.0 * (tree.leaf_size * (2 ** tree.max_depth)) / 2.0
        assert mx <= spec.origin_x and my <= spec.origin_y
        assert mx + side >= spec.origin_x + spec.n_cols * spec.cell_size_m
        assert my + side >= spec.origin_y + spec.n_rows * spec.cell_size_m
        assert mz <= -4.0 + 1e-9

    def test_same_lattice_regardless_of_cloud(self):
        """The point of for_spec: insertion history never moves the lattice."""
        spec = GridSpec.from_bbox(BoundingBox(0, 0, 10.0, 10.0), 0.25, margin_m=0.0)
        a = OctoMap.for_spec(spec)
        b = OctoMap.for_spec(spec)
        a.insert(1.0, 1.0, 1.0)
        b.insert_array(np.array([[9.9, 9.9, 2.0], [1.0, 1.0, 1.0]]))
        point = np.array([[4.4, 5.5, 0.7]])
        np.testing.assert_array_equal(a.leaf_centers(point)[0], b.leaf_centers(point)[0])


#: Grids for the engine property. On the 0.25 m lattice every edge value
#: is exactly a leaf face; with the paper's 0.15 m cell off a non-zero
#: origin, edge values land within rounding of the faces, where placing
#: a point by its raw coordinates instead of its leaf would disagree.
ENGINE_GRIDS = {
    "exact": GridSpec.from_bbox(BoundingBox(0.0, 0.0, 2.0, 2.0), 0.25, margin_m=0.0),
    "paper": GridSpec.from_bbox(BoundingBox(0.3, 0.7, 2.3, 2.7), 0.15, margin_m=0.0),
}


def edge_values(spec: GridSpec) -> list:
    """Per-axis lattice values: every cell edge of the grid (z: the leaf
    faces through the vertical band) plus the spec-anchored cube's faces
    and one cell beyond each."""
    cell = spec.cell_size_m
    lattice = OctoMap.for_spec(spec)
    side = lattice.leaf_size * 2**lattice.max_depth
    edges = []
    for lo, origin, count in zip(
        lattice.min_corner,
        (spec.origin_x, spec.origin_y, 0.0),
        (spec.n_cols, spec.n_rows, int(3.0 / cell)),
    ):
        inner = [origin + k * cell for k in range(-1, count + 2)]
        edges.append(np.array(inner + [lo - cell, lo, lo + side, lo + side + cell]))
    return edges


def delta_points(rng, n: int, spec: GridSpec, edges: list) -> np.ndarray:
    """Seeded points over the grid and the vertical band; at even odds each
    coordinate is replaced by one of its axis's ``edge_values``."""
    cell = spec.cell_size_m
    lo = (spec.origin_x, spec.origin_y, 0.0)
    hi = (lo[0] + spec.n_cols * cell, lo[1] + spec.n_rows * cell, 2.75)
    xyz = rng.uniform(lo, hi, size=(n, 3))
    for axis in range(3):
        on_edge = rng.random(n) < 0.5
        xyz[on_edge, axis] = rng.choice(edges[axis], size=int(on_edge.sum()))
    return xyz


class TestEngineDeltaCounts:
    @pytest.mark.parametrize("grid", sorted(ENGINE_GRIDS))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 10))
    def test_obstacles_equal_rebuild_after_every_delta(self, grid, seed, steps):
        """Adds, removals and moves keep the engine's obstacles grid equal
        to ``calculate_obstacles_map`` of the applied point set."""
        spec = ENGINE_GRIDS[grid]
        edges = edge_values(spec)
        engine = IncrementalMapEngine(spec, obstacle_threshold=2)
        rng = np.random.default_rng(seed)
        applied: dict = {}
        next_fid = 0
        for _ in range(steps):
            live = rng.permutation(sorted(applied))
            live = live[: rng.integers(0, len(live) + 1)]
            dropped, moved = live[: len(live) // 2], live[len(live) // 2 :]
            for fid in dropped:
                del applied[int(fid)]
            for fid, xyz in zip(moved, delta_points(rng, len(moved), spec, edges)):
                applied[int(fid)] = tuple(xyz)
            for xyz in delta_points(rng, int(rng.integers(0, 40)), spec, edges):
                applied[next_fid] = tuple(xyz)
                next_fid += 1
            cloud = PointCloud(
                [CloudPoint(fid, x, y, z, 3) for fid, (x, y, z) in applied.items()]
            )
            update = engine.update(SfmModel(cloud, []))
            expected = calculate_obstacles_map(cloud, spec, obstacle_threshold=2)
            np.testing.assert_array_equal(update.maps.obstacles.data, expected.data)
            assert update.covered_cells == expected.nonzero_count()
