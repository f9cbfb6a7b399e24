"""Motion blur and the variation-of-the-Laplacian sharpness measure.

The backend "uses variation of the Laplacian to calculate the blurriness
of the photos, as blurry photos cannot be used for 3D reconstruction"
(Sec. IV-A, citing Pech-Pacheco et al.). The same measure drives the
opportunistic pipeline's sliding-window sharpest-frame extraction
(Sec. V-B1).

Simulated photos carry a small rendered grayscale patch: a fixed-contrast
synthetic scene convolved with a motion-blur kernel whose width grows with
the camera's motion during exposure. Variance-of-Laplacian is computed on
that patch with a real 3x3 Laplacian convolution, so the quality check
operates on actual pixels, not on privileged simulator state.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import CaptureError
from ..simkit.rng import RngStream

#: 3x3 discrete Laplacian kernel (4-neighbour).
LAPLACIAN_KERNEL = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


def convolve2d_same(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Plain 'same'-size 2-D convolution with edge-replicate padding, in numpy.

    ``image`` may be a stack (..., H, W): each image is convolved on its
    own, with the same elementwise operations as a lone image.
    """
    image = np.asarray(image, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    h, w = image.shape[-2:]
    padded = np.pad(image, ((0, 0),) * (image.ndim - 2) + ((ph, ph), (pw, pw)), mode="edge")
    out = np.zeros_like(image)
    for i in range(kh):
        for j in range(kw):
            out += kernel[i, j] * padded[..., i : i + h, j : j + w]
    return out


def variance_of_laplacian(image: np.ndarray) -> float:
    """Blurriness score: higher = sharper (Pech-Pacheco et al., 2000)."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or min(image.shape) < 3:
        raise CaptureError("variance_of_laplacian needs a 2-D image >= 3x3")
    return float(convolve2d_same(image, LAPLACIAN_KERNEL).var())


def motion_blur_kernel(blur: float, max_width: int = 9) -> np.ndarray:
    """Horizontal box kernel whose width grows with ``blur`` in [0, 1]."""
    if not 0.0 <= blur <= 1.0:
        raise CaptureError(f"blur must be in [0, 1], got {blur}")
    width = 1 + int(round(blur * (max_width - 1)))
    kernel = np.zeros((1, width))
    kernel[0, :] = 1.0 / width
    return kernel


def render_patch(blur: float, rng: RngStream, size: int = 24) -> np.ndarray:
    """Render the photo's sharpness patch.

    The underlying scene has fixed contrast (a random high-frequency
    texture); only motion blur degrades it. This mirrors reality: a photo
    of a glass wall is still *sharp* — its problem is lack of SfM features,
    which is a separate failure mode handled by the annotation path, not by
    the photo-quality check.
    """
    if size < 3:
        raise CaptureError("patch size must be >= 3")
    scene = rng.uniform_array((size, size), 0.0, 1.0)
    blurred = convolve2d_same(scene, motion_blur_kernel(blur))
    # Mild sensor noise so identical blur levels do not yield identical scores.
    noisy = blurred + rng.normal_array((size, size), 0.0, 0.004)
    return np.clip(noisy, 0.0, 1.0)


def render_patches(blur: float, rngs: Sequence[RngStream], size: int = 24) -> List[np.ndarray]:
    """:func:`render_patch` for each stream of ``rngs``, blurred as one stack.

    Each stream draws its scene and then its noise, as in
    :func:`render_patch`, and every pixel goes through the same operations,
    so each patch equals the one :func:`render_patch` renders from its
    stream. Each returned patch owns its pixels.
    """
    if size < 3:
        raise CaptureError("patch size must be >= 3")
    scenes = np.empty((len(rngs), size, size))
    noise = np.empty((len(rngs), size, size))
    for k, rng in enumerate(rngs):
        scenes[k] = rng.uniform_array((size, size), 0.0, 1.0)
        noise[k] = rng.normal_array((size, size), 0.0, 0.004)
    noisy = convolve2d_same(scenes, motion_blur_kernel(blur)) + noise
    return [np.clip(patch, 0.0, 1.0) for patch in noisy]


def detection_factor(blur: float) -> float:
    """Fraction of features a detector still finds at a given blur level.

    Quadratic falloff: light shake barely matters, heavy motion blur kills
    feature extraction.
    """
    if not 0.0 <= blur <= 1.0:
        raise CaptureError(f"blur must be in [0, 1], got {blur}")
    return (1.0 - blur) ** 2
