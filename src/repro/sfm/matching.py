"""Feature matching between photos.

In a real pipeline this is descriptor matching; in the simulator two
observations match exactly when they record the same world feature id
(descriptor noise is already modelled as detection dropout at capture
time). The index below answers the two queries incremental SfM needs:

* how many features two photos share (seed-pair selection), and
* how many of a photo's features are already known to the model
  (registration test).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from ..camera.photo import Photo


def match_count(a: Photo, b: Photo) -> int:
    """Number of shared feature observations between two photos.

    Set intersection runs in C over the smaller operand, replacing the
    previous per-element membership loop (same result, measured ~5-10x
    faster on realistic feature sets — see tests/test_sfm_matching.py).
    """
    return len(a.feature_id_set() & b.feature_id_set())


class MatchIndex:
    """Inverted index feature_id -> photo_ids for a pool of photos."""

    def __init__(self) -> None:
        self._photos: Dict[int, Photo] = {}
        self._by_feature: Dict[int, Set[int]] = defaultdict(set)

    def add(self, photo: Photo) -> None:
        if photo.photo_id in self._photos:
            return
        self._photos[photo.photo_id] = photo
        for fid in photo.feature_ids:
            self._by_feature[int(fid)].add(photo.photo_id)

    def remove(self, photo_id: int) -> None:
        photo = self._photos.pop(photo_id, None)
        if photo is None:
            return
        for fid in photo.feature_ids:
            observers = self._by_feature.get(int(fid))
            if observers is not None:
                observers.discard(photo_id)
                if not observers:
                    del self._by_feature[int(fid)]

    def __len__(self) -> int:
        return len(self._photos)

    def __contains__(self, photo_id: int) -> bool:
        return photo_id in self._photos

    def photos(self) -> List[Photo]:
        return list(self._photos.values())

    def photo(self, photo_id: int) -> Photo:
        return self._photos[photo_id]

    def observers_view(self, feature_id: int):
        """Non-copying view of the observer set (hot-path iteration only).

        Callers must not mutate the returned set; the registration
        wavefront iterates it once per view-mask change.
        """
        return self._by_feature.get(feature_id, ())

    def pair_match_counts(self, photo: Photo) -> Dict[int, int]:
        """Match counts between ``photo`` and every other indexed photo."""
        counts: Dict[int, int] = defaultdict(int)
        for fid in photo.feature_id_set():
            for other_id in self._by_feature.get(fid, ()):
                if other_id != photo.photo_id:
                    counts[other_id] += 1
        return dict(counts)

    def best_seed_pair(self, min_matches: int) -> Optional[Tuple[int, int, int]]:
        """Strongest photo pair (id_a, id_b, matches) above ``min_matches``.

        Scans via the inverted index, so cost is proportional to total
        observation count rather than photo-pair count.
        """
        pair_counts: Dict[Tuple[int, int], int] = defaultdict(int)
        for observers in self._by_feature.values():
            if len(observers) < 2:
                continue
            # Cap very popular features: they add quadratic pair-count work
            # but little discriminative signal for seed selection.
            ordered = sorted(observers)[:40]
            for i in range(len(ordered)):
                for j in range(i + 1, len(ordered)):
                    pair_counts[(ordered[i], ordered[j])] += 1
        best: Optional[Tuple[int, int, int]] = None
        for (a, b), count in pair_counts.items():
            if count >= min_matches and (best is None or count > best[2]):
                best = (a, b, count)
        return best
