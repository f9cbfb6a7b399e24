"""Camera intrinsics and EXIF-style metadata.

The paper relies on photo EXIF data: "To calculate camera's field-of-view
and its visibility coverage, a camera pose information is typically
combined with a focal length from the photo EXIF metadata" (Sec. II-A),
and Algorithm 1 requires that "each photo is expected to contain regular
EXIF metadata as well as a venue identifier". The simulated photos carry
the same metadata so the backend computes FOV from EXIF rather than from
privileged simulator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import CaptureError


@dataclass(frozen=True)
class Intrinsics:
    """Pin-hole intrinsics of one device model."""

    device_model: str
    focal_length_px: float
    image_width_px: int
    image_height_px: int

    def __post_init__(self) -> None:
        if self.focal_length_px <= 0:
            raise CaptureError("focal length must be positive")
        if self.image_width_px <= 0 or self.image_height_px <= 0:
            raise CaptureError("image dimensions must be positive")

    @property
    def hfov_rad(self) -> float:
        """Horizontal field of view implied by focal length and width."""
        return 2.0 * math.atan((self.image_width_px / 2.0) / self.focal_length_px)

    @property
    def hfov_deg(self) -> float:
        return math.degrees(self.hfov_rad)


@dataclass(frozen=True)
class ExifMetadata:
    """The subset of EXIF the SnapTask backend consumes."""

    device_model: str
    focal_length_px: float
    image_width_px: int
    image_height_px: int
    timestamp_s: float
    venue_id: str

    def intrinsics(self) -> Intrinsics:
        """Recover intrinsics from the metadata (what the backend does)."""
        return Intrinsics(
            device_model=self.device_model,
            focal_length_px=self.focal_length_px,
            image_width_px=self.image_width_px,
            image_height_px=self.image_height_px,
        )


# The paper's experiment devices (Sec. V-B): values are representative
# smartphone main-camera parameters, not manufacturer data.
GALAXY_S7 = Intrinsics("Samsung Galaxy S7", focal_length_px=3080.0, image_width_px=4032, image_height_px=3024)
IPHONE_7 = Intrinsics("Apple iPhone 7", focal_length_px=3180.0, image_width_px=4032, image_height_px=3024)
NEXUS_5 = Intrinsics("LG Nexus 5", focal_length_px=2620.0, image_width_px=3264, image_height_px=2448)

DEVICE_PRESETS = {d.device_model: d for d in (GALAXY_S7, IPHONE_7, NEXUS_5)}
