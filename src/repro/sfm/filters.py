"""Statistical outlier removal for SfM point clouds.

Algorithm 1 line 2: "we filter the SfM model with Statistical Outlier
Filter to remove any outlier 3D points" (the paper cites the PCL
StatisticalOutlierRemoval tutorial). The classic formulation: compute each
point's mean distance to its k nearest neighbours; points whose mean
distance exceeds ``global_mean + std_ratio * global_std`` are outliers.

Two implementations share that contract:

* :func:`sor_filter` / :func:`sor_mask` — the from-scratch oracle: build a
  fresh cKDTree and query every point, O(N log N) per call;
* :class:`IncrementalSorFilter` — caches each point's k-NN mean distance
  and k-th-neighbour ("influence") distance across calls. When the cloud
  grows by a delta, only the new points and the old points that have some
  new point *inside their influence radius* are re-queried; every other
  point's neighbourhood is provably unchanged (all new points are farther
  than its current k-th neighbour). KD-tree rebuilds are amortized: new
  points accumulate in a side buffer that is queried as a second small
  tree, and the main tree is rebuilt only when the buffer outgrows
  ``rebuild_fraction`` of the cloud. The staleness bound is therefore
  *zero*: masks are bit-identical to :func:`sor_mask` on every call (the
  differential suite pins this), because distances always come from the
  same cKDTree kernel and the global threshold is recomputed over the
  exact per-point means in cloud order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from ..errors import ReconstructionError
from ..obs import MetricsRegistry
from .pointcloud import PointCloud


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

    tree = cKDTree(xyz)
    # k+1 because the closest neighbour of each point is itself.
    distances, _ = tree.query(xyz, k=n_neighbors + 1)
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

    def __init__(
        self,
        n_neighbors: int = 8,
        std_ratio: float = 2.0,
        rebuild_fraction: float = 0.25,
        telemetry=None,
    ):
        self._k = int(n_neighbors)
        self._ratio = float(std_ratio)
        self._rebuild_fraction = float(rebuild_fraction)
        metrics = telemetry.metrics if telemetry is not None else MetricsRegistry()
        self._m_requeried = metrics.counter("repro.sfm.sor.points_requeried")
        self._m_reused = metrics.counter("repro.sfm.sor.points_reused")
        self._m_rebuilds = metrics.counter("repro.sfm.sor.tree_rebuilds")
        self._m_full = metrics.counter("repro.sfm.sor.full_recomputes")
        # Cached state, aligned to the order of the last accepted cloud.
        self._ids: Optional[np.ndarray] = None
        self._xyz: Optional[np.ndarray] = None
        self._mean_d: Optional[np.ndarray] = None
        self._kth_d: Optional[np.ndarray] = None
        # Main tree (covers ``_tree_ids``) + ids living in the side buffer.
        self._tree: Optional[cKDTree] = None
        self._tree_ids: Optional[np.ndarray] = None

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
        n = ids.shape[0]
        tree = cKDTree(xyz)
        distances, _ = tree.query(xyz, k=self._k + 1)
        self._m_full.inc()
        self._m_requeried.inc(n)
        self._store(ids, xyz, distances[:, 1:].mean(axis=1), distances[:, self._k])
        self._tree = tree
        self._tree_ids = np.array(ids, dtype=ids.dtype, copy=True)
        return self._threshold_mask()

    def _delta_compute(
        self, ids: np.ndarray, xyz: np.ndarray, matched: np.ndarray
    ) -> np.ndarray:
        n = ids.shape[0]
        mean_d = np.empty(n, dtype=np.float64)
        kth_d = np.empty(n, dtype=np.float64)
        mean_d[matched] = self._mean_d
        kth_d[matched] = self._kth_d
        new_mask = np.ones(n, dtype=bool)
        new_mask[matched] = False
        new_idx = np.nonzero(new_mask)[0]

        if new_idx.shape[0] == 0:
            self._store(ids, xyz, mean_d, kth_d)
            self._m_reused.inc(n)
            return self._threshold_mask()

        # Which old points feel the delta? Exactly those with some new
        # point strictly inside their current k-th-neighbour distance —
        # ties cannot change the k-NN distance multiset, but are included
        # (<=) for robustness at zero extra cost.
        new_tree = cKDTree(xyz[new_idx])
        nearest_new, _ = new_tree.query(xyz[matched], k=1)
        affected = matched[np.asarray(nearest_new) <= kth_d[matched]]
        requery = np.concatenate([new_idx, affected])
        self._m_requeried.inc(int(requery.shape[0]))
        self._m_reused.inc(int(n - requery.shape[0]))

        distances = self._exact_knn(ids, xyz, requery)
        mean_d[requery] = distances[:, 1:].mean(axis=1)
        kth_d[requery] = distances[:, self._k]
        self._store(ids, xyz, mean_d, kth_d)
        self._maybe_rebuild(ids, xyz)
        return self._threshold_mask()

    def _exact_knn(
        self, ids: np.ndarray, xyz: np.ndarray, requery: np.ndarray
    ) -> np.ndarray:
        """Exact (k+1)-NN distances for ``requery`` rows of the full cloud.

        The union of the main tree and the side buffer is the whole
        cloud, so merging their per-row candidate distances and keeping
        the k+1 smallest reproduces a single-tree query exactly (the
        distance between two given points does not depend on which tree
        computed it).
        """
        k1 = self._k + 1
        q = xyz[requery]
        parts = []
        in_tree = np.isin(ids, self._tree_ids, assume_unique=True)
        buffer_idx = np.nonzero(~in_tree)[0]
        tree_n = int(self._tree_ids.shape[0])
        if tree_n:
            d_main, _ = self._tree.query(q, k=min(k1, tree_n))
            if d_main.ndim == 1:
                d_main = d_main.reshape(-1, 1)
            parts.append(d_main)
        if buffer_idx.shape[0]:
            buf_tree = cKDTree(xyz[buffer_idx])
            kb = min(k1, int(buffer_idx.shape[0]))
            d_buf, _ = buf_tree.query(q, k=kb)
            if d_buf.ndim == 1:
                d_buf = d_buf.reshape(-1, 1)
            parts.append(d_buf)
        merged = np.sort(np.concatenate(parts, axis=1), axis=1)[:, :k1]
        return merged

    def _maybe_rebuild(self, ids: np.ndarray, xyz: np.ndarray) -> None:
        n = ids.shape[0]
        n_buffered = n - int(self._tree_ids.shape[0])
        if n_buffered > max(64, int(self._rebuild_fraction * n)):
            self._tree = cKDTree(xyz)
            self._tree_ids = np.array(ids, dtype=ids.dtype, copy=True)
            self._m_rebuilds.inc()

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
