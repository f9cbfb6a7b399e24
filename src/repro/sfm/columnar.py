"""Columnar SfM state: dense feature interning, the observation table and
append-only point columns.

The incremental SfM engine keeps no per-feature Python containers. Each
substrate here is a set of numpy columns, so a batch costs O(delta):

* :class:`FeatureColumns` interns feature ids into a dense ``[0, n)``
  index the first time they are seen, and keeps every per-feature scalar
  (view-compatibility bitmask, registered-observer count, triangulation
  flag, oracle position, wildcard flag) in parallel numpy arrays. The
  registration test becomes a vectorized gather + bitmask intersect
  instead of a per-feature dict loop.

* :class:`ObservationTable` records which photo observes which feature,
  one (dense feature, photo id) row per observation, sorted by feature.
  The registration wavefront, triangulation and seed-pair selection
  (:func:`best_seed_pair`) all read it; the engine's pending and
  registered dicts say which observers are which.

* :class:`PointColumnStore` is an append-only columnar store for
  triangulated points.  Snapshots (``sorted_columns``) are maintained by
  merging only the batch's *new* rows into the previous frozen snapshot
  (``np.searchsorted`` + ``np.insert``), and the merged arrays are
  frozen (``writeable=False``) so :class:`PointCloud` views can share
  them copy-on-write across batches.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Collection, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = ["FeatureColumns", "ObservationTable", "PointColumnStore", "best_seed_pair"]


def _grow(array: np.ndarray, n_needed: int) -> np.ndarray:
    """Return ``array`` grown (by doubling, zero-filled) to hold ``n_needed`` rows."""
    cap = array.shape[0]
    if n_needed <= cap:
        return array
    new_cap = max(n_needed, cap * 2, 64)
    grown = np.zeros((new_cap,) + array.shape[1:], dtype=array.dtype)
    grown[:cap] = array
    return grown


class FeatureColumns:
    """Dense interning of the sparse feature-id space + per-feature columns.

    ``resolve(fids) -> (xyz, wildcard)`` classifies a batch of unseen
    features at intern time: ``wildcard`` features (artificial textures)
    match from every viewpoint and carry no position; all others resolve
    to their oracle position, whose floor coordinates give each
    observation's angular bucket and whose value a triangulated point
    starts from.
    """

    def __init__(self, resolve: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]):
        self._resolve = resolve
        self._index: Dict[int, int] = {}
        cap = 1024
        self.ids = np.zeros(cap, dtype=np.int64)
        self.xyz = np.zeros((cap, 3), dtype=np.float64)
        self.wildcard = np.zeros(cap, dtype=bool)
        #: Per-feature bitmask of angular buckets registered observers saw
        #: it from (0 == not yet observed by any registered photo).
        self.view_mask = np.zeros(cap, dtype=np.int64)
        #: Number of *registered* photos observing the feature.
        self.obs_count = np.zeros(cap, dtype=np.int32)
        #: Whether the feature has been triangulated into a cloud point.
        self.has_point = np.zeros(cap, dtype=bool)
        self._n = 0

    def index_of(self, fid: int) -> Optional[int]:
        """Dense index of ``fid`` or ``None`` if never interned."""
        return self._index.get(fid)

    @property
    def index(self) -> Mapping[int, int]:
        """Feature id -> dense index. It only grows: an interned id keeps
        its index for good."""
        return self._index

    def intern_many(self, fids: np.ndarray) -> np.ndarray:
        """Dense indices for ``fids``, interning unseen ids in first-seen order.

        The Python loop runs only over ids; the unseen ones are resolved
        together in one ``resolve`` call, and nothing is interned if it
        raises. The engine interns each photo once, on arrival.
        """
        index = self._index
        fresh: Dict[int, int] = {}
        out = []
        for fid in fids.tolist():
            dense = index.get(fid)
            if dense is None:
                dense = fresh.setdefault(fid, self._n + len(fresh))
            out.append(dense)
        if fresh:
            new_ids = np.fromiter(fresh, dtype=np.int64, count=len(fresh))
            xyz, wildcard = self._resolve(new_ids)
            start, end = self._n, self._n + len(fresh)
            for name in ("ids", "xyz", "wildcard", "view_mask", "obs_count", "has_point"):
                setattr(self, name, _grow(getattr(self, name), end))
            self.ids[start:end] = new_ids
            self.xyz[start:end] = xyz
            self.wildcard[start:end] = wildcard
            index.update(fresh)
            self._n = end
        return np.asarray(out, dtype=np.int64)


class ObservationTable:
    """Which photo observes which feature: one row per observation.

    Rows are (dense feature, photo id), added once, when a photo arrives.
    They stay sorted by feature, and each feature's rows stay in arrival
    order: a batch is sorted stably on its own and inserted after each
    feature's earlier rows (``searchsorted(side="right")`` + ``insert``),
    the way :class:`PointColumnStore` merges its snapshots. The table
    holds no status; callers pass the pending or registered photo ids
    they mean.
    """

    def __init__(self) -> None:
        self.features = np.zeros(0, dtype=np.int64)
        self.photos = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def add(self, photo_ids: Sequence[int], features: Sequence[np.ndarray]) -> None:
        """Merge in one batch: ``features[i]`` are the dense features of
        ``photo_ids[i]``, and the photos arrive in the order given."""
        if not photo_ids:
            return
        new_features = np.concatenate(features)
        new_photos = np.repeat(
            np.asarray(photo_ids, dtype=np.int64), [len(f) for f in features]
        )
        order = np.argsort(new_features, kind="stable")
        new_features, new_photos = new_features[order], new_photos[order]
        pos = np.searchsorted(self.features, new_features, side="right")
        self.features = np.insert(self.features, pos, new_features)
        self.photos = np.insert(self.photos, pos, new_photos)

    def spans(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row range ``[lo, hi)`` of each of ``features``."""
        return (
            np.searchsorted(self.features, features, side="left"),
            np.searchsorted(self.features, features, side="right"),
        )

    def observers(self, features: np.ndarray) -> np.ndarray:
        """Photo ids of every row of ``features``: feature by feature, each
        feature's in arrival order."""
        lo, hi = self.spans(features)
        lengths = hi - lo
        shift = np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
        return self.photos[np.arange(shift.shape[0]) + shift]

    def dirty_observers(
        self, features: np.ndarray, pending: Collection[int], dirty: Set[int]
    ) -> int:
        """The registration wavefront: add the ``pending`` observers of
        ``features`` to ``dirty``; return how many were not in it yet."""
        before = len(dirty)
        dirty.update(pid for pid in set(self.observers(features).tolist()) if pid in pending)
        return len(dirty) - before

    def groups(self) -> List[np.ndarray]:
        """Each observed feature's photo ids, by ascending dense feature."""
        cuts = np.flatnonzero(self.features[1:] != self.features[:-1]) + 1
        return np.split(self.photos, cuts)


def best_seed_pair(
    table: ObservationTable, pending: Collection[int], min_matches: int
) -> Optional[Tuple[int, int, int]]:
    """Strongest pending photo pair ``(id_a, id_b, matches)`` with at least
    ``min_matches`` shared features, or ``None``.

    Pairs are counted over the table's per-feature groups, so the cost
    follows the observation count rather than the photo-pair count. A tie
    goes to the pair counted first: features in dense (first-seen) order,
    each feature's pairs in ascending photo id.
    """
    pair_counts: Dict[Tuple[int, int], int] = defaultdict(int)
    for group in table.groups():
        # Cap very popular features: they add quadratic pair-count work
        # but little discriminative signal for seed selection.
        ordered = sorted({pid for pid in group.tolist() if pid in pending})[:40]
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                pair_counts[(ordered[i], ordered[j])] += 1
    best: Optional[Tuple[int, int, int]] = None
    for (a, b), count in pair_counts.items():
        if count >= min_matches and (best is None or count > best[2]):
            best = (a, b, count)
    return best


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
