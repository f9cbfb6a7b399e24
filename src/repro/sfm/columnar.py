"""Columnar SfM state: dense feature interning + append-only point columns.

The incremental SfM engine historically kept its per-feature state in
Python dicts keyed by the *sparse* global feature-id space
(``_view_masks: Dict[int, int]``, ``_feature_obs: Dict[int, Set[int]]``)
and rebuilt a fresh :class:`~repro.sfm.pointcloud.PointCloud` — one
dataclass object per point — on every ``model()`` call.  Both patterns
cost O(model) Python work per uploaded batch.

This module supplies the two columnar substrates that turn the per-batch
cost into O(delta):

* :class:`FeatureColumns` interns feature ids into a dense ``[0, n)``
  index the first time they are seen, and keeps every per-feature scalar
  (view-compatibility bitmask, registered-observer count, triangulation
  flag, floor-plane position, wildcard flag) in parallel numpy arrays.
  The registration test becomes a vectorized gather + bitmask intersect
  instead of a per-feature dict loop.

* :class:`PointColumnStore` is an append-only columnar store for
  triangulated points.  Snapshots (``sorted_columns``) are maintained by
  merging only the batch's *new* rows into the previous frozen snapshot
  (``np.searchsorted`` + ``np.insert``), and the merged arrays are
  frozen (``writeable=False``) so :class:`PointCloud` views can share
  them copy-on-write across batches.

Growth policy for both stores is capacity doubling, so amortized append
cost is O(1) per row.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["FeatureColumns", "PointColumnStore"]


def _grow(array: np.ndarray, n_needed: int) -> np.ndarray:
    """Return ``array`` grown (by doubling) to hold ``n_needed`` rows."""
    cap = array.shape[0]
    if n_needed <= cap:
        return array
    new_cap = max(n_needed, cap * 2, 64)
    shape = (new_cap,) + array.shape[1:]
    grown = np.empty(shape, dtype=array.dtype)
    grown[:cap] = array
    return grown


class FeatureColumns:
    """Dense interning of the sparse feature-id space + per-feature columns.

    ``resolve(fid) -> (x, y, wildcard)`` classifies a feature at intern
    time: ``wildcard`` features (artificial textures) match from every
    viewpoint and carry no floor position; all others resolve to their
    oracle floor-plane position, used for angular-bucket computation.
    """

    def __init__(self, resolve: Callable[[int], Tuple[float, float, bool]]):
        self._resolve = resolve
        self._index: Dict[int, int] = {}
        cap = 1024
        self.ids = np.empty(cap, dtype=np.int64)
        self.x = np.empty(cap, dtype=np.float64)
        self.y = np.empty(cap, dtype=np.float64)
        self.wildcard = np.zeros(cap, dtype=bool)
        #: Per-feature bitmask of angular buckets registered observers saw
        #: it from (0 == not yet observed by any registered photo).
        self.view_mask = np.zeros(cap, dtype=np.int64)
        #: Number of *registered* photos observing the feature.
        self.obs_count = np.zeros(cap, dtype=np.int32)
        #: Whether the feature has been triangulated into a cloud point.
        self.has_point = np.zeros(cap, dtype=bool)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def index_of(self, fid: int) -> Optional[int]:
        """Dense index of ``fid`` or ``None`` if never interned."""
        return self._index.get(fid)

    def intern_many(self, fids: np.ndarray) -> np.ndarray:
        """Dense indices for ``fids``, interning unseen ids on the fly.

        The Python loop runs only over ids; unseen ids additionally pay
        one ``resolve`` call.  Each photo is interned exactly once (the
        engine caches the result), so this is O(features-per-photo) per
        photo over the whole campaign — not per batch retest.
        """
        index = self._index
        out = np.empty(fids.shape[0], dtype=np.int64)
        for i, raw in enumerate(fids):
            fid = int(raw)
            dense = index.get(fid)
            if dense is None:
                dense = self._add(fid)
            out[i] = dense
        return out

    def _add(self, fid: int) -> int:
        dense = self._n
        n_needed = dense + 1
        self.ids = _grow(self.ids, n_needed)
        self.x = _grow(self.x, n_needed)
        self.y = _grow(self.y, n_needed)
        if n_needed > self.wildcard.shape[0]:
            # Zero-initialised columns must preserve zeros on growth.
            self.wildcard = _grow_zeros(self.wildcard, n_needed)
            self.view_mask = _grow_zeros(self.view_mask, n_needed)
            self.obs_count = _grow_zeros(self.obs_count, n_needed)
            self.has_point = _grow_zeros(self.has_point, n_needed)
        x, y, wildcard = self._resolve(fid)
        self.ids[dense] = fid
        self.x[dense] = x
        self.y[dense] = y
        self.wildcard[dense] = wildcard
        self._index[fid] = dense
        self._n = n_needed
        return dense

    def ids_of(self, dense: np.ndarray) -> np.ndarray:
        """Raw feature ids for an array of dense indices."""
        return self.ids[dense]


def _grow_zeros(array: np.ndarray, n_needed: int) -> np.ndarray:
    cap = array.shape[0]
    if n_needed <= cap:
        return array
    new_cap = max(n_needed, cap * 2, 64)
    grown = np.zeros((new_cap,) + array.shape[1:], dtype=array.dtype)
    grown[:cap] = array
    return grown


class PointColumnStore:
    """Append-only columnar store of triangulated points.

    Rows are appended in triangulation order; ``sorted_columns`` exposes
    the store sorted by feature id, maintained incrementally: the delta
    since the previous snapshot is sorted on its own (O(d log d)) and
    merged into the frozen previous snapshot with one vectorized
    ``np.insert`` pass.  Snapshots are immutable (``writeable=False``),
    so downstream :class:`PointCloud` instances can alias them safely —
    this is what makes ``model()`` O(delta) instead of O(points).
    """

    def __init__(self) -> None:
        cap = 256
        self._ids = np.empty(cap, dtype=np.int64)
        self._xyz = np.empty((cap, 3), dtype=np.float64)
        self._views = np.empty(cap, dtype=np.int64)
        self._n = 0
        self._snap: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._snap_n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def n(self) -> int:
        return self._n

    def append(self, fid: int, x: float, y: float, z: float, n_views: int) -> None:
        n_needed = self._n + 1
        self._ids = _grow(self._ids, n_needed)
        self._xyz = _grow(self._xyz, n_needed)
        self._views = _grow(self._views, n_needed)
        i = self._n
        self._ids[i] = fid
        self._xyz[i, 0] = x
        self._xyz[i, 1] = y
        self._xyz[i, 2] = z
        self._views[i] = n_views
        self._n = n_needed

    def ids_slice(self, start: int) -> np.ndarray:
        """Feature ids appended since row ``start`` (read-only copy)."""
        return self._ids[start:self._n].copy()

    def views_since(self, start: int) -> List[int]:
        """View counts of the points appended since row ``start``."""
        return self._views[start:self._n].tolist()

    def rows(self):
        """Iterate (fid, x, y, z, n_views) in append order.

        The from-scratch :class:`~repro.sfm.scratch.ScratchSfm` oracle
        rebuilds its clouds from these rows.
        """
        for i in range(self._n):
            yield (
                int(self._ids[i]),
                float(self._xyz[i, 0]),
                float(self._xyz[i, 1]),
                float(self._xyz[i, 2]),
                int(self._views[i]),
            )

    def sorted_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, xyz, views) sorted by feature id; frozen shared arrays.

        Cost is O(delta log delta + merge) per refresh and O(1) when no
        point was appended since the last call.
        """
        if self._snap is not None and self._snap_n == self._n:
            return self._snap
        new_ids = self._ids[self._snap_n:self._n]
        new_xyz = self._xyz[self._snap_n:self._n]
        new_views = self._views[self._snap_n:self._n]
        order = np.argsort(new_ids, kind="stable")
        new_ids = new_ids[order]
        new_xyz = new_xyz[order]
        new_views = new_views[order]
        if self._snap is None or self._snap_n == 0:
            ids, xyz, views = new_ids.copy(), new_xyz.copy(), new_views.copy()
        else:
            old_ids, old_xyz, old_views = self._snap
            pos = np.searchsorted(old_ids, new_ids)
            ids = np.insert(old_ids, pos, new_ids)
            xyz = np.insert(old_xyz, pos, new_xyz, axis=0)
            views = np.insert(old_views, pos, new_views)
        for arr in (ids, xyz, views):
            arr.setflags(write=False)
        self._snap = (ids, xyz, views)
        self._snap_n = self._n
        return self._snap
