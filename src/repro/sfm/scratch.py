"""The original O(model)-per-batch SfM engine, kept as a test oracle.

:class:`~repro.sfm.reconstruction.IncrementalSfm` keys every step off the
batch delta. :class:`ScratchSfm` overrides exactly those steps with the
dict-scan strategy the columnar engine replaced, so the differential
suites, the SfM perf bench and the DST scratch twin can pin the columnar
engine against it bit for bit:

* every pending photo is re-tested every round (no wavefront);
* the registration test loops over the photo's features against a
  ``fid -> bitmask`` dict of the view buckets registered observers saw
  each feature from;
* rig anchors are a set union against the features the model observed
  when the rig pass began;
* triangulation scans every registered observation, kept in the
  oracle's own ``fid -> registered photo ids`` dict (its ``_register``
  keeps it up to date), not in the engine's observation table;
* ``model()`` rebuilds the cloud point by point.

Everything else — the registration thresholds, seed-pair selection, pose
and point noise, feature interning and the point store — is inherited,
so any difference between the two engines is a difference of strategy.
Production code never constructs this class.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from ..camera.photo import Photo
from ..venue.features import ARTIFICIAL_FEATURE_BASE, REFLECTION_FEATURE_BASE
from .model import SfmModel
from .pointcloud import CloudPoint, PointCloud
from .reconstruction import IncrementalSfm

#: Bucket value marking wildcard (viewpoint-insensitive) observations.
WILDCARD_BUCKET = 255


class ScratchSfm(IncrementalSfm):
    """From-scratch reconstruction with :class:`IncrementalSfm`'s contract."""

    def __init__(self, world, config, rng, telemetry=None):
        super().__init__(world, config, rng, telemetry=telemetry)
        # fid -> bitmask of the angular buckets registered observers saw it from.
        self._view_masks: Dict[int, int] = {}
        self._compat_masks: List[int] = self._compat_arr.tolist()
        self._buckets: Dict[int, np.ndarray] = {}
        # World features the model observed when the current rig pass began.
        self._known: Set[int] = set()
        # fid -> photo ids of the registered photos observing it.
        self._feature_obs: Dict[int, Set[int]] = {}

    def model(self) -> SfmModel:
        """From-scratch per-point rebuild of the cloud."""
        points = [
            CloudPoint(fid, x, y, z, views)
            for fid, x, y, z, views in sorted(self._store.rows())
        ]
        return SfmModel(PointCloud(points), list(self._registered.values()))

    def _candidates(self) -> List[Photo]:
        return list(self._pending.values())

    def _register(self, photo: Photo) -> None:
        super()._register(photo)
        for fid in photo.feature_ids:
            self._feature_obs.setdefault(int(fid), set()).add(photo.photo_id)

    def _buckets_for(self, photo: Photo) -> np.ndarray:
        """Per-observation view bucket (``WILDCARD_BUCKET`` for wildcards)."""
        buckets = self._buckets.get(photo.photo_id)
        if buckets is None:
            wild, raw = self._view_buckets(photo, self._photo_columns(photo)[0])
            buckets = np.where(wild, WILDCARD_BUCKET, raw).astype(np.uint8)
            self._buckets[photo.photo_id] = buckets
        return buckets

    def _compatible_overlap(self, photo: Photo) -> int:
        masks = self._view_masks
        compat = self._compat_masks
        count = 0
        for fid, bucket in zip(photo.feature_ids, self._buckets_for(photo)):
            mask = masks.get(int(fid))
            if mask is None:
                continue
            if bucket == WILDCARD_BUCKET or mask & compat[bucket]:
                count += 1
        return count

    def _add_views(self, photo: Photo) -> None:
        masks = self._view_masks
        for fid, bucket in zip(photo.feature_ids, self._buckets_for(photo)):
            fid = int(fid)
            if bucket == WILDCARD_BUCKET:
                masks[fid] = self._full_mask
            else:
                masks[fid] = masks.get(fid, 0) | (1 << int(bucket))

    def _register_rigs(self) -> int:
        self._known = set(self._feature_obs)
        return super()._register_rigs()

    def _texture_block(self, photo: Photo) -> Optional[int]:
        from ..annotation.textures import FEATURES_PER_TEXTURE

        artificial = [
            int(f)
            for f in photo.feature_ids
            if ARTIFICIAL_FEATURE_BASE <= f < REFLECTION_FEATURE_BASE
        ]
        if len(artificial) < self._config.rig_texture_matches:
            return None
        return (artificial[0] - ARTIFICIAL_FEATURE_BASE) // FEATURES_PER_TEXTURE

    def _rig_anchors(self, photos: List[Photo]) -> int:
        union: Set[int] = set()
        for photo in photos:
            union |= {
                f
                for f in photo.feature_id_set()
                if f < ARTIFICIAL_FEATURE_BASE and f in self._known
            }
        return len(union)

    def _triangulate(self) -> None:
        # Every observed feature was interned when its photo registered.
        min_views = self._config.min_views_per_point
        cols = self._cols
        for fid, observers in self._feature_obs.items():
            dense = cols.index_of(fid)
            if cols.has_point[dense] or len(observers) < min_views:
                continue
            self._make_point(fid, dense, observers)
