"""Camera substrate: intrinsics/EXIF, poses, blur model, capture simulator."""

from .blur import (
    LAPLACIAN_KERNEL,
    convolve2d_same,
    detection_factor,
    motion_blur_kernel,
    render_patch,
    variance_of_laplacian,
)
from .capture import MAX_OBSERVATIONS_PER_PHOTO, PIXEL_NOISE_STD, CaptureSimulator
from .intrinsics import (
    DEVICE_PRESETS,
    GALAXY_S7,
    IPHONE_7,
    NEXUS_5,
    ExifMetadata,
    Intrinsics,
)
from .photo import Photo
from .pose import CameraPose, sweep_poses

__all__ = [
    "CameraPose",
    "CaptureSimulator",
    "DEVICE_PRESETS",
    "ExifMetadata",
    "GALAXY_S7",
    "IPHONE_7",
    "Intrinsics",
    "LAPLACIAN_KERNEL",
    "MAX_OBSERVATIONS_PER_PHOTO",
    "NEXUS_5",
    "PIXEL_NOISE_STD",
    "Photo",
    "convolve2d_same",
    "detection_factor",
    "motion_blur_kernel",
    "render_patch",
    "sweep_poses",
    "variance_of_laplacian",
]
