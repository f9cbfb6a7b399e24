"""Statistical outlier removal for SfM point clouds.

Algorithm 1 line 2: "we filter the SfM model with Statistical Outlier
Filter to remove any outlier 3D points" (the paper cites the PCL
StatisticalOutlierRemoval tutorial). The classic formulation: compute each
point's mean distance to its k nearest neighbours; points whose mean
distance exceeds ``global_mean + std_ratio * global_std`` are outliers.

SOR needs exact k-NN mean distances over a sparse cloud, not a general
spatial index, so both implementations below share one numpy index,
:class:`VoxelGrid`: the points are binned into cubes whose side comes
from the cloud (one cube per point over its bounding box), and a query
scans the 3x3x3 ring of cubes around its own, growing the ring only when
its (k+1)-th distance is larger than the ring can guarantee. Every
distance is ``sqrt((dx*dx + dy*dy) + dz*dz)``, the order of operations
of a kd-tree's Euclidean kernel, so the distance rows, per-point means
and masks are those of a kd-tree query bit for bit.

* :func:`sor_filter` / :func:`sor_mask` — the from-scratch oracle: index
  the cloud and query every point;
* :class:`IncrementalSorFilter` — caches each point's k-NN mean distance
  and k-th-neighbour ("influence") distance across calls. When the cloud
  grows by a delta, only the new points and the old points that have some
  new point *inside their influence radius* are re-queried; every other
  point's neighbourhood is provably unchanged (all new points are farther
  than its current k-th neighbour). The affected old points are found
  from each new point's ring, which also starts that point's own query.
  The grid is kept between calls: the new points are merged into it, and
  it is rebuilt only when a new point falls outside its box or the cloud
  has doubled since it was built. Distances do not depend on the cube
  side, so a kept grid answers as a new one would. The staleness bound is
  *zero*: masks are bit-identical to :func:`sor_mask` on every call (the
  differential suite pins this), because both read the same distances
  and the global threshold is recomputed over the exact per-point means
  in cloud order.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import ReconstructionError
from ..obs import MetricsRegistry
from .pointcloud import PointCloud

#: A ring of r cubes guarantees every point within ``r * side`` of its
#: query; the guarantee is shrunk by this factor to absorb rounding in
#: ``floor((x - lo) / side)``, the cube a coordinate falls in.
_SLACK = 1.0 - 1e-6
#: Most (query, point) pairs one step holds, which bounds memory whatever
#: the cloud's shape.
_PAIR_BUDGET = 1 << 16


def _slices(n: int, size: int) -> Iterator[slice]:
    size = max(1, size)
    for start in range(0, n, size):
        yield slice(start, min(n, start + size))


class VoxelGrid:
    """Exact k-nearest-neighbour distances among a fixed (N, 3) point set.

    Cube keys run z-fastest, so the (2r+1)^3 block of cubes around a
    point is (2r+1)^2 contiguous ranges of the key-sorted points. A query
    whose ring would hold as many ranges as the grid holds points is
    compared with every point instead.
    """

    def __init__(self, xyz: np.ndarray):
        xyz = np.asarray(xyz, dtype=np.float64)
        self._xyz = xyz
        self._n = int(xyz.shape[0])
        extent = np.ptp(xyz, axis=0) if self._n else np.zeros(3)
        self._lo = xyz.min(axis=0) if self._n else np.zeros(3)
        self._side = _cube_side(extent, self._n)
        cells = self._cells_of(xyz)
        self._dims = cells.max(axis=0) + 1 if self._n else np.ones(3, dtype=np.int64)
        keys = self._keys_of(cells)
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]
        self._x, self._y, self._z = (
            np.ascontiguousarray(xyz[self._order, i]) for i in range(3)
        )

    @property
    def side(self) -> float:
        return self._side

    def inserted(
        self, xyz: np.ndarray, old_rows: np.ndarray, new_rows: np.ndarray
    ) -> Optional["VoxelGrid"]:
        """This grid over the points ``xyz``, or ``None`` when one of the
        new points falls outside this grid's box.

        Rows ``old_rows`` of ``xyz`` are this grid's points, in this
        grid's row order, and rows ``new_rows`` are new. The new points
        are binned with this grid's corner and cube side and merged into
        its key order, so the cost follows the new points, not the grid.
        Distances do not depend on the cube side, so every query answers
        as on a grid built over ``xyz``.
        """
        xyz = np.asarray(xyz, dtype=np.float64)
        cells = self._cells_of(xyz[new_rows])
        if ((cells < 0) | (cells >= self._dims)).any():
            return None
        keys = self._keys_of(cells)
        sort = np.argsort(keys, kind="stable")
        keys, rows = keys[sort], new_rows[sort]
        at = np.searchsorted(self._keys, keys, side="right")
        grid = VoxelGrid.__new__(VoxelGrid)
        grid._xyz = xyz
        grid._n = int(xyz.shape[0])
        grid._lo, grid._side, grid._dims = self._lo, self._side, self._dims
        grid._order = np.insert(old_rows[self._order], at, rows)
        grid._keys = np.insert(self._keys, at, keys)
        grid._x, grid._y, grid._z = (
            np.insert(column, at, xyz[rows, i])
            for i, column in enumerate((self._x, self._y, self._z))
        )
        return grid

    def knn(
        self,
        k1: int,
        rows: Optional[np.ndarray] = None,
        first: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """(Q, k1) ascending distances from the points ``rows`` (all by
        default) to their k1 nearest points, themselves included.

        ``first``, the k1 smallest distances of each row within its
        :meth:`ring` (``_smallest`` of the ring's chunks), saves gathering
        the ring again. Rows are padded with ``inf`` when the grid holds
        fewer than k1 points, as a kd-tree query pads them.
        """
        rows = np.arange(self._n) if rows is None else np.asarray(rows)
        out = np.full((rows.shape[0], k1), np.inf)
        ring = np.ones(rows.shape[0], dtype=np.int64)
        pending = np.arange(rows.shape[0])
        while pending.shape[0]:
            r = int(ring[pending].min())
            batch = pending[ring[pending] == r]
            pending = pending[ring[pending] != r]
            brute = (2 * r + 1) ** 2 >= self._n
            if brute:
                best = _smallest(self._brute(rows[batch]), k1, batch.shape[0])
            elif first is not None:
                best = first  # the first round: every row, at radius 1
            else:
                best = _smallest(self._pairs(rows[batch], r), k1, batch.shape[0])
            first = None
            kth = best[:, -1]
            done = brute | (kth <= r * self._side * _SLACK)
            out[batch[done]] = best[done]
            if not done.all():
                # A ring reaching the current k1-th candidate settles it;
                # with fewer than k1 candidates the ring grows to 2r+1.
                need = np.ceil(kth[~done] / (self._side * _SLACK))
                need = np.where(np.isfinite(need), need, 2 * r + 1)
                ring[batch[~done]] = np.maximum(need, r + 1).astype(np.int64)
                pending = np.concatenate([pending, batch[~done]])
        return out

    def ring(self, rows: np.ndarray) -> Iterator[Tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
        """The 3x3x3 ring of cubes around each of ``rows``, which holds
        every point within ``side * _SLACK`` of it: chunks of (slice of
        ``rows``, points per row, point, squared distance to the row)."""
        for at, per_row, pos, d2 in self._pairs(np.asarray(rows), 1):
            yield at, per_row, self._order[pos], d2

    # -- internals --------------------------------------------------------------

    def _pairs(self, rows: np.ndarray, r: int):
        """Chunks of (slice of ``rows``, pairs per row, sorted point
        position, squared distance) over the (2r+1)^3 block of each row."""
        nx, ny, nz = (int(v) for v in self._dims)
        span = np.arange(-r, r + 1)
        for block in _slices(rows.shape[0], _PAIR_BUDGET // span.shape[0] ** 2):
            cells = self._cells_of(self._xyz[rows[block]])
            cx = np.repeat(cells[:, :1] + span, span.shape[0], axis=1)
            cy = np.tile(cells[:, 1:2] + span, span.shape[0])
            column = (cx * ny + cy) * nz
            z0 = np.clip(cells[:, 2:3] - r, 0, nz - 1)
            z1 = np.clip(cells[:, 2:3] + r, 0, nz - 1)
            start = np.searchsorted(self._keys, column + z0, "left")
            count = np.searchsorted(self._keys, column + z1, "right") - start
            count[(cx < 0) | (cx >= nx) | (cy < 0) | (cy >= ny)] = 0
            per_row = count.sum(axis=1)
            for sub in _slices(per_row.shape[0], _PAIR_BUDGET // max(1, int(per_row.max()))):
                n_pairs = count[sub].ravel()
                first = np.cumsum(n_pairs) - n_pairs
                pos = np.arange(int(n_pairs.sum())) + np.repeat(start[sub].ravel() - first, n_pairs)
                at = slice(block.start + sub.start, block.start + sub.stop)
                yield at, per_row[sub], pos, self._sqdist(rows[at], per_row[sub], pos)

    def _brute(self, rows: np.ndarray):
        """:meth:`_pairs` chunks pairing each row with every point."""
        every = np.arange(self._n)
        for at in _slices(rows.shape[0], _PAIR_BUDGET // self._n):
            per_row = np.full(at.stop - at.start, self._n)
            pos = np.tile(every, per_row.shape[0])
            yield at, per_row, pos, self._sqdist(rows[at], per_row, pos)

    def _cells_of(self, xyz: np.ndarray) -> np.ndarray:
        return np.floor((xyz - self._lo) / self._side).astype(np.int64)

    def _keys_of(self, cells: np.ndarray) -> np.ndarray:
        keys = (cells[:, 0] * self._dims[1] + cells[:, 1]) * self._dims[2]
        keys += cells[:, 2]
        return keys

    def _sqdist(self, rows: np.ndarray, per_row: np.ndarray, pos: np.ndarray) -> np.ndarray:
        # A kd-tree's Euclidean kernel sums in this order: ((dx*dx + dy*dy) + dz*dz).
        q = self._xyz[rows]
        dx = self._x[pos] - np.repeat(q[:, 0], per_row)
        dy = self._y[pos] - np.repeat(q[:, 1], per_row)
        dz = self._z[pos] - np.repeat(q[:, 2], per_row)
        return (dx * dx + dy * dy) + dz * dz


def _cube_side(extent: np.ndarray, n_cells: float) -> float:
    """Cube side giving about ``n_cells`` cubes over a box of ``extent``.

    Axes thinner than one cube hold a single layer of cubes, so the
    side is solved over the wide axes only (a flat cloud is binned as
    squares, a thin one as a line of cubes).
    """
    widths = np.sort(extent)[::-1]
    for dims in (3, 2, 1):
        side = float(np.prod(widths[:dims]) / max(n_cells, 1.0)) ** (1.0 / dims)
        if 0.0 < side <= widths[dims - 1]:
            return side
    return 1.0  # every point coincides


def _smallest(chunks, k1: int, n_rows: int) -> np.ndarray:
    """The k1 smallest distances of each row, ascending, from the squared
    distances of :meth:`VoxelGrid._pairs` chunks; a row with fewer than
    k1 candidates is padded with ``inf``."""
    best = np.empty((n_rows, k1))
    for at, per_row, _pos, d2 in chunks:
        width = max(int(per_row.max()), k1)
        padded = np.full((per_row.shape[0], width), np.inf)
        first = np.cumsum(per_row) - per_row
        cols = np.arange(d2.shape[0]) - np.repeat(first, per_row)
        padded[np.repeat(np.arange(per_row.shape[0]), per_row), cols] = d2
        if width > k1:
            padded = np.partition(padded, k1 - 1, axis=1)[:, :k1]
        padded.sort(axis=1)
        best[at] = padded
    # sqrt after selection: it is monotone, so it keeps the same k1.
    return np.sqrt(best)


def sor_mask(
    xyz: np.ndarray, n_neighbors: int = 8, std_ratio: float = 2.0
) -> np.ndarray:
    """Inlier mask for a statistical outlier filter over ``xyz`` (N, 3).

    Returns all-True when the cloud is too small for the neighbourhood
    statistic to be meaningful (fewer than ``n_neighbors + 1`` points).
    """
    xyz = np.asarray(xyz, dtype=float)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ReconstructionError("sor_mask expects an (N, 3) array")
    n = xyz.shape[0]
    if n <= n_neighbors:
        return np.ones(n, dtype=bool)

    # k+1 because the closest neighbour of each point is itself.
    distances = VoxelGrid(xyz).knn(n_neighbors + 1)
    mean_dist = distances[:, 1:].mean(axis=1)
    threshold = mean_dist.mean() + std_ratio * mean_dist.std()
    return mean_dist <= threshold


def sor_filter(
    cloud: PointCloud, n_neighbors: int = 8, std_ratio: float = 2.0
) -> PointCloud:
    """Filtered copy of ``cloud`` (Algorithm 1's ``sorFilter``)."""
    if len(cloud) == 0:
        return cloud
    return cloud.subset(sor_mask(cloud.xyz, n_neighbors, std_ratio))


class IncrementalSorFilter:
    """Stateful SOR filter amortized over a growing point cloud.

    Designed for the incremental SfM engine's snapshot clouds: feature-id
    sorted, append-only (ids are never removed and positions never move).
    Any input violating that contract — unsorted ids, removed ids, moved
    points — is detected and served by a transparent full recompute, so
    the filter is safe to call with arbitrary clouds; it is merely *fast*
    for grown ones.
    """

    def __init__(self, n_neighbors: int = 8, std_ratio: float = 2.0, telemetry=None):
        self._k = int(n_neighbors)
        self._ratio = float(std_ratio)
        metrics = telemetry.metrics if telemetry is not None else MetricsRegistry()
        self._m_requeried = metrics.counter("repro.sfm.sor.points_requeried")
        self._m_reused = metrics.counter("repro.sfm.sor.points_reused")
        self._m_full = metrics.counter("repro.sfm.sor.full_recomputes")
        # Cached state, aligned to the order of the last accepted cloud.
        self._ids: Optional[np.ndarray] = None
        self._xyz: Optional[np.ndarray] = None
        self._mean_d: Optional[np.ndarray] = None
        self._kth_d: Optional[np.ndarray] = None
        # The grid over the last accepted cloud, and its size when built.
        self._grid: Optional[VoxelGrid] = None
        self._built_n = 0

    def __getstate__(self) -> dict:
        # Checkpoints leave the grid out: it is derived from the cached
        # points, and a restored filter builds a new one on its next call
        # with the same distances, so every retained generation would
        # otherwise keep a grid the live filter has moved past.
        state = self.__dict__.copy()
        state["_grid"] = None
        state["_built_n"] = 0
        return state

    # -- public API -------------------------------------------------------------

    def mask(self, cloud: PointCloud) -> np.ndarray:
        """Inlier mask for ``cloud``; bit-identical to :func:`sor_mask`."""
        ids = cloud.feature_ids
        xyz = cloud.xyz
        n = ids.shape[0]
        if n <= self._k:
            # Too small for the statistic; remember nothing so the first
            # adequately-sized cloud takes the full-compute path.
            self._ids = None
            self._mean_d = None
            return np.ones(n, dtype=bool)

        matched = self._match_cached(ids, xyz)
        if matched is None:
            return self._full_compute(ids, xyz)
        return self._delta_compute(ids, xyz, matched)

    def filter(self, cloud: PointCloud) -> PointCloud:
        """Filtered copy of ``cloud`` (incremental ``sorFilter``)."""
        if len(cloud) == 0:
            return cloud
        return cloud.subset(self.mask(cloud))

    # -- internals --------------------------------------------------------------

    def _match_cached(self, ids: np.ndarray, xyz: np.ndarray) -> Optional[np.ndarray]:
        """Positions of the cached points inside the new cloud, or None.

        Returns the (vectorized) index array mapping cached rows to rows
        of the new cloud when the new cloud is a sorted, position-stable
        superset of the cached one; otherwise None (full recompute).
        """
        if self._ids is None or self._mean_d is None:
            return None
        if ids.shape[0] < self._ids.shape[0]:
            return None
        if not np.all(ids[1:] > ids[:-1]):
            return None  # not id-sorted/unique: contract violated
        pos = np.searchsorted(ids, self._ids)
        if pos.shape[0] and pos[-1] >= ids.shape[0]:
            return None
        if not np.array_equal(ids[pos], self._ids):
            return None  # some cached id vanished
        if not np.array_equal(xyz[pos], self._xyz):
            return None  # a cached point moved
        return pos

    def _full_compute(self, ids: np.ndarray, xyz: np.ndarray) -> np.ndarray:
        distances = self._regrid(xyz).knn(self._k + 1)
        self._m_full.inc()
        self._m_requeried.inc(ids.shape[0])
        self._store(ids, xyz, distances[:, 1:].mean(axis=1), distances[:, self._k])
        return self._threshold_mask()

    def _delta_compute(
        self, ids: np.ndarray, xyz: np.ndarray, matched: np.ndarray
    ) -> np.ndarray:
        n = ids.shape[0]
        mean_d = np.empty(n, dtype=np.float64)
        kth_d = np.empty(n, dtype=np.float64)
        mean_d[matched] = self._mean_d
        kth_d[matched] = self._kth_d
        old = np.zeros(n, dtype=bool)
        old[matched] = True
        new_idx = np.nonzero(~old)[0]

        if new_idx.shape[0] == 0:
            self._store(ids, xyz, mean_d, kth_d)
            self._m_reused.inc(n)
            return self._threshold_mask()

        # Which old points feel the delta? Exactly those with some new
        # point inside their current k-th-neighbour distance: ties cannot
        # change the k-NN distance multiset, but are included (<=) for
        # robustness at zero extra cost.
        grid = self._regrid(xyz, matched, new_idx)
        affected = np.zeros(n, dtype=bool)

        def marking(ring):
            for chunk in ring:
                _at, _per_row, point, d2 = chunk
                hit = old[point] & (np.sqrt(d2) <= kth_d[point])
                affected[point[hit]] = True
                yield chunk

        # One pass over the new points' rings marks the affected old
        # points and settles the first round of the new points' queries.
        first = _smallest(marking(grid.ring(new_idx)), self._k + 1, new_idx.shape[0])
        # An old point whose radius outreaches one cube may feel a new
        # point beyond that point's ring: compare it with every new point.
        wide = matched[kth_d[matched] > grid.side * _SLACK]
        fresh = xyz[new_idx]
        gap = np.maximum(fresh.min(axis=0) - xyz[wide], xyz[wide] - fresh.max(axis=0))
        wide = wide[gap.max(axis=1) * _SLACK <= kth_d[wide]]
        for sl in _slices(wide.shape[0], _PAIR_BUDGET // new_idx.shape[0]):
            d = np.sqrt(_sqdist_rows(xyz[wide[sl]], fresh))
            affected[wide[sl][(d <= kth_d[wide[sl], None]).any(axis=1)]] = True
        touched = np.nonzero(affected)[0]
        n_requery = new_idx.shape[0] + touched.shape[0]
        self._m_requeried.inc(int(n_requery))
        self._m_reused.inc(int(n - n_requery))

        for rows, ring_best in ((new_idx, first), (touched, None)):
            distances = grid.knn(self._k + 1, rows, ring_best)
            mean_d[rows] = distances[:, 1:].mean(axis=1)
            kth_d[rows] = distances[:, self._k]
        self._store(ids, xyz, mean_d, kth_d)
        return self._threshold_mask()

    def _regrid(
        self,
        xyz: np.ndarray,
        matched: Optional[np.ndarray] = None,
        new_idx: Optional[np.ndarray] = None,
    ) -> VoxelGrid:
        """The grid over ``xyz``, kept for the next call: the kept grid
        with the new points merged in, or a new grid on a full compute,
        when a new point falls outside the kept grid's box, or once the
        cloud has doubled since the last build (so cubes stay near one
        point each)."""
        grid = None
        if matched is not None and xyz.shape[0] < 2 * self._built_n:
            grid = self._grid.inserted(xyz, matched, new_idx)
        self._grid = None  # let the old grid go before a new one is built
        if grid is None:
            grid = VoxelGrid(xyz)
            self._built_n = int(xyz.shape[0])
        self._grid = grid
        return grid

    def _store(
        self, ids: np.ndarray, xyz: np.ndarray, mean_d: np.ndarray, kth_d: np.ndarray
    ) -> None:
        self._ids = np.array(ids, dtype=ids.dtype, copy=True)
        self._xyz = np.array(xyz, dtype=xyz.dtype, copy=True)
        self._mean_d = mean_d
        self._kth_d = kth_d

    def _threshold_mask(self) -> np.ndarray:
        mean_d = self._mean_d
        threshold = mean_d.mean() + self._ratio * mean_d.std()
        return mean_d <= threshold


def _sqdist_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances, in the kd-tree kernel's order."""
    d = a[:, None, :] - b[None, :, :]
    return (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]
