"""The SfM model: point cloud + recovered camera poses.

"The output of the SfM pipeline includes a 3D point cloud and camera poses
of the images used to build the 3D point cloud" (Sec. II-A). Recovered
poses carry the intrinsics recovered from EXIF, which is what the
visibility map (Algorithm 3) uses to compute each camera's FOV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ..camera.intrinsics import Intrinsics
from ..camera.pose import CameraPose
from ..errors import ReconstructionError
from .columnar import ObservationTable
from .pointcloud import PointCloud


@dataclass(frozen=True)
class RecoveredCamera:
    """One registered photo's recovered pose + EXIF-derived intrinsics.

    ``observed_feature_ids`` records which features the photo detected;
    the visibility map intersects them with the triangulated cloud to
    know where this camera actually contributed information.
    """

    photo_id: int
    pose: CameraPose
    intrinsics: Intrinsics
    n_inliers: int
    observed_feature_ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.observed_feature_ids is not None:
            self.observed_feature_ids.setflags(write=False)

    def __deepcopy__(self, memo: dict) -> "RecoveredCamera":
        # Frozen, with a read-only array: durability snapshots share it
        # with the live graph, so identity-keyed caches (the map engine's
        # wedges) stay valid across snapshot and restore.
        return self

    @property
    def hfov_rad(self) -> float:
        return self.intrinsics.hfov_rad


class SfmModel:
    """Immutable snapshot of a reconstruction.

    Everything it answers derives from its cloud and its cameras, so a
    hand-built model and one snapshotted from an engine behave alike. An
    engine's snapshot also reads the engine's observation table, which
    answers :meth:`cameras_observing` from the queried features' rows.
    """

    def __init__(self, cloud: PointCloud, cameras: Sequence[RecoveredCamera]):
        self._cloud = cloud
        self._cameras: Tuple[RecoveredCamera, ...] = tuple(
            sorted(cameras, key=lambda c: c.photo_id)
        )
        # Sorted photo ids, parallel to the cameras: the id -> camera map.
        self._ids = np.array([c.photo_id for c in self._cameras], dtype=np.int64)
        self._ids.setflags(write=False)
        _check_unique(self._ids)
        # (live observation table, feature id -> dense index) of an
        # engine's snapshot (see ``grown``), or None.
        self._rows: Optional[Tuple[ObservationTable, Mapping[int, int]]] = None
        # (feature id, photo id) per camera observation, built on first use
        # by a model without observation rows.
        self._observations: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def cloud(self) -> PointCloud:
        return self._cloud

    @property
    def cameras(self) -> Tuple[RecoveredCamera, ...]:
        return self._cameras

    @property
    def n_points(self) -> int:
        return len(self._cloud)

    @property
    def n_cameras(self) -> int:
        return len(self._cameras)

    def camera(self, photo_id: int) -> RecoveredCamera:
        at = int(np.searchsorted(self._ids, photo_id))
        if at < self._ids.shape[0] and self._ids[at] == photo_id:
            return self._cameras[at]
        raise ReconstructionError(f"photo {photo_id} is not registered")

    def is_registered(self, photo_id: int) -> bool:
        at = int(np.searchsorted(self._ids, photo_id))
        return at < self._ids.shape[0] and bool(self._ids[at] == photo_id)

    def cameras_observing(self, feature_ids: np.ndarray) -> np.ndarray:
        """Sorted photo ids of the cameras that observed any of ``feature_ids``.

        An engine's snapshot reads the observation table's rows of
        ``feature_ids`` alone and keeps the observers that are its cameras.
        The table only gains rows, each photo's when it arrives, and every
        camera of a snapshot arrived before the snapshot was taken, so a
        snapshot answers from the live table as it did when taken, with no
        copy of the rows to keep. A model
        without observation rows derives the answer from its cameras'
        own ``observed_feature_ids`` (a camera without them observed
        nothing): the first query concatenates them into columns that
        the model keeps, and each query is one vectorised membership pass
        over those columns.
        """
        wanted = np.asarray(feature_ids, dtype=np.int64)
        if wanted.shape[0] == 0:
            return wanted
        if self._rows is not None:
            table, index = self._rows
            # An id the table never interned maps to -1, which has no rows.
            dense = np.array([index.get(f, -1) for f in wanted.tolist()], dtype=np.int64)
            photos = np.unique(table.observers(dense))
            at = np.searchsorted(self._ids, photos)
            ours = at < self._ids.shape[0]
            ours[ours] = self._ids[at[ours]] == photos[ours]
            return photos[ours]
        if self._observations is None:
            cameras = [c for c in self._cameras if c.observed_feature_ids is not None]
            observed = [np.asarray(c.observed_feature_ids, dtype=np.int64) for c in cameras]
            self._observations = (
                np.concatenate(observed) if observed else np.zeros(0, dtype=np.int64),
                np.repeat(
                    np.array([c.photo_id for c in cameras], dtype=np.int64),
                    [len(ids) for ids in observed],
                ),
            )
        features, photos = self._observations
        return np.unique(photos[np.isin(features, wanted, kind="table")])

    def with_cloud(self, cloud: PointCloud) -> "SfmModel":
        """Same cameras, different cloud (e.g. after outlier filtering).

        The copy shares this model's sorted cameras, id map and
        observation rows: none of them is written after it is built.
        """
        model = SfmModel.__new__(SfmModel)
        model.__dict__.update(self.__dict__)
        model._cloud = cloud
        return model

    def grown(
        self,
        cloud: PointCloud,
        cameras: Sequence[RecoveredCamera],
        observations: Tuple[ObservationTable, Mapping[int, int]],
    ) -> "SfmModel":
        """The next snapshot of a growing reconstruction: ``cloud``, this
        model's cameras plus the new ``cameras``, and the engine's
        ``observations`` (its observation table and id -> dense index map).

        Only the new cameras are sorted; each is inserted at its place
        among the shared, already sorted ones.
        """
        model = self.with_cloud(cloud)
        model._rows = observations
        if cameras:
            new = sorted(cameras, key=lambda c: c.photo_id)
            new_ids = np.array([c.photo_id for c in new], dtype=np.int64)
            at = np.searchsorted(self._ids, new_ids)
            merged = list(self._cameras)
            # From the back, so every earlier position still holds.
            for i, camera in zip(at[::-1].tolist(), new[::-1]):
                merged.insert(i, camera)
            model._cameras = tuple(merged)
            model._ids = np.insert(self._ids, at, new_ids)
            model._ids.setflags(write=False)
            _check_unique(model._ids)
            model._observations = None
        return model

    def mean_camera_position(self) -> Optional[Tuple[float, float]]:
        """Mean camera floor position — the blue "X" markers of Fig. 9."""
        if not self._cameras:
            return None
        xs = [c.pose.position.x for c in self._cameras]
        ys = [c.pose.position.y for c in self._cameras]
        return (sum(xs) / len(xs), sum(ys) / len(ys))

    def describe(self) -> str:
        return f"SfmModel({self.n_points} points, {self.n_cameras} cameras)"

    @staticmethod
    def empty() -> "SfmModel":
        return SfmModel(PointCloud.empty(), [])


def _check_unique(sorted_ids: np.ndarray) -> None:
    if np.any(sorted_ids[1:] == sorted_ids[:-1]):
        raise ReconstructionError("duplicate camera photo ids in model")
