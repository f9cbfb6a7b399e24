"""The Photo artifact exchanged between clients and the backend.

A photo bundles exactly what a real uploaded JPEG would give the SnapTask
backend after feature extraction: per-feature observations (stable feature
ids + pixel coordinates), EXIF metadata, and enough pixels to score
sharpness. The true camera pose is carried for simulation bookkeeping but
is *not* consumed by the reconstruction path — the SfM simulator recovers
poses with noise, like a real pipeline.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import CaptureError
from .blur import variance_of_laplacian
from .intrinsics import ExifMetadata
from .pose import CameraPose


class Photo:
    """An uploaded photo, as seen by the backend."""

    def __init__(
        self,
        photo_id: int,
        exif: ExifMetadata,
        true_pose: CameraPose,
        feature_ids: np.ndarray,
        pixels_uv: np.ndarray,
        patch: np.ndarray,
        source: str = "unknown",
    ):
        if feature_ids.shape[0] != pixels_uv.shape[0]:
            raise CaptureError("feature ids and pixel coordinates must align")
        self._photo_id = photo_id
        self._exif = exif
        self._true_pose = true_pose
        self._feature_ids = np.asarray(feature_ids, dtype=int)
        self._pixels_uv = np.asarray(pixels_uv, dtype=float).reshape(-1, 2)
        self._patch = patch
        self._source = source
        self._sharpness: Optional[float] = None
        self._freeze()

    def _freeze(self) -> None:
        for array in (self._feature_ids, self._pixels_uv, self._patch):
            array.setflags(write=False)

    def __deepcopy__(self, memo: dict) -> "Photo":
        # An uploaded photo never changes: durability snapshots share it
        # with the live graph, and its read-only arrays make a write
        # through either reference raise. (The lazily cached sharpness
        # is a pure function of the patch.)
        return self

    def __setstate__(self, state: dict) -> None:
        # WAL replay unpickles photos, and pickle drops the read-only flag.
        self.__dict__.update(state)
        self._freeze()

    # -- identity -----------------------------------------------------------

    @property
    def photo_id(self) -> int:
        return self._photo_id

    def __hash__(self) -> int:
        return hash(self._photo_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Photo) and other._photo_id == self._photo_id

    def __repr__(self) -> str:
        return (
            f"Photo(id={self._photo_id}, source={self._source!r}, "
            f"features={len(self._feature_ids)})"
        )

    # -- payload --------------------------------------------------------------

    @property
    def exif(self) -> ExifMetadata:
        return self._exif

    @property
    def true_pose(self) -> CameraPose:
        """Simulation ground truth; not used by the reconstruction path."""
        return self._true_pose

    @property
    def feature_ids(self) -> np.ndarray:
        return self._feature_ids

    @property
    def pixels_uv(self) -> np.ndarray:
        return self._pixels_uv

    @property
    def patch(self) -> np.ndarray:
        return self._patch

    @property
    def source(self) -> str:
        return self._source

    @property
    def n_features(self) -> int:
        return int(self._feature_ids.shape[0])

    def feature_id_set(self) -> frozenset:
        return frozenset(int(f) for f in self._feature_ids)

    def pixel_of(self, feature_id: int) -> Tuple[float, float]:
        """Pixel coordinates of a feature observed in this photo."""
        idx = np.nonzero(self._feature_ids == feature_id)[0]
        if idx.size == 0:
            raise CaptureError(f"feature {feature_id} not observed in photo {self._photo_id}")
        u, v = self._pixels_uv[int(idx[0])]
        return float(u), float(v)

    def sharpness(self) -> float:
        """Variance-of-Laplacian of the rendered patch (cached)."""
        if self._sharpness is None:
            self._sharpness = variance_of_laplacian(self._patch)
        return self._sharpness

    def with_extra_observations(
        self, feature_ids: np.ndarray, pixels_uv: np.ndarray, suffix: str
    ) -> "Photo":
        """A copy with additional observations (Algorithm 6 texture imprint).

        The copy keeps the same photo id: imprinting textures modifies the
        image in place in the paper's pipeline ("we use imagemagick to
        project a generated 2D image on each marked photo").
        """
        combined_ids = np.concatenate([self._feature_ids, np.asarray(feature_ids, dtype=int)])
        combined_uv = np.vstack([self._pixels_uv, np.asarray(pixels_uv, dtype=float).reshape(-1, 2)])
        photo = Photo(
            photo_id=self._photo_id,
            exif=self._exif,
            true_pose=self._true_pose,
            feature_ids=combined_ids,
            pixels_uv=combined_uv,
            patch=self._patch,
            source=f"{self._source}+{suffix}",
        )
        return photo
