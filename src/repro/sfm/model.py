"""The SfM model: point cloud + recovered camera poses.

"The output of the SfM pipeline includes a 3D point cloud and camera poses
of the images used to build the 3D point cloud" (Sec. II-A). Recovered
poses carry the intrinsics recovered from EXIF, which is what the
visibility map (Algorithm 3) uses to compute each camera's FOV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..camera.intrinsics import Intrinsics
from ..camera.pose import CameraPose
from ..errors import ReconstructionError
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
    hand-built model and one snapshotted from an engine behave alike.
    """

    def __init__(self, cloud: PointCloud, cameras: Sequence[RecoveredCamera]):
        self._cloud = cloud
        self._cameras: Tuple[RecoveredCamera, ...] = tuple(
            sorted(cameras, key=lambda c: c.photo_id)
        )
        ids = [c.photo_id for c in self._cameras]
        if len(set(ids)) != len(ids):
            raise ReconstructionError("duplicate camera photo ids in model")
        self._by_id: Dict[int, RecoveredCamera] = {c.photo_id: c for c in self._cameras}
        # (feature id, photo id) per camera observation, built on first use.
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
        try:
            return self._by_id[photo_id]
        except KeyError:
            raise ReconstructionError(f"photo {photo_id} is not registered") from None

    def is_registered(self, photo_id: int) -> bool:
        return photo_id in self._by_id

    def cameras_observing(self, feature_ids: np.ndarray) -> np.ndarray:
        """Sorted photo ids of the cameras that observed any of ``feature_ids``.

        Derived from the cameras' own ``observed_feature_ids`` (a camera
        without them observed nothing): the first query concatenates them
        into columns that the model keeps, and each query is one
        vectorised membership pass over those columns.
        """
        wanted = np.asarray(feature_ids, dtype=np.int64)
        if wanted.shape[0] == 0:
            return wanted
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
        """Same cameras, different cloud (e.g. after outlier filtering)."""
        return SfmModel(cloud, self._cameras)

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
