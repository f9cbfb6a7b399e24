"""Video capture along a walk + sharpest-frame extraction.

Opportunistic participants carry the phone "in front of them - mocking a
smart wearable device - that was taking a video of the surroundings"
(Sec. V-B1). Frames of a moving camera are motion-blurred in proportion to
walking speed; the dataset preparation then uses "a sliding window frame
extraction approach, where we select only a sharpest frame in that window,
to prevent blurry samples from being added to the dataset".

Scoring every raw frame with a full capture would be wasteful, so frame
specs (pose + blur + rendered patch) are generated first and only window
winners become full photos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..camera.blur import render_patch, variance_of_laplacian
from ..camera.capture import CaptureSimulator
from ..camera.intrinsics import Intrinsics
from ..camera.photo import Photo
from ..camera.pose import CameraPose
from ..errors import SimulationError
from ..simkit.rng import RngStream
from .mobility import Trajectory
from .participants import Participant

#: Motion blur contributed per m/s of walking speed.
SPEED_BLUR_GAIN = 0.22

#: Blur floor for hand-held video while moving.
VIDEO_BASE_BLUR = 0.08


@dataclass(frozen=True)
class FrameSpec:
    """A candidate video frame before full capture."""

    time_s: float
    pose: CameraPose
    blur: float
    sharpness: float


def frame_specs_for_walk(
    trajectory: Trajectory,
    participant: Participant,
    rng: RngStream,
    fps: float = 10.0,
    patch_size: int = 24,
) -> List[FrameSpec]:
    """Sample video frames along a trajectory at ``fps``."""
    if fps <= 0:
        raise SimulationError("fps must be positive")
    specs: List[FrameSpec] = []
    next_frame_time = 0.0
    frame_idx = 0
    for point in trajectory.points:
        if point.time_s + 1e-9 < next_frame_time:
            continue
        next_frame_time = point.time_s + 1.0 / fps
        frame_rng = rng.child(f"frame-{frame_idx}")
        base_blur = VIDEO_BASE_BLUR + SPEED_BLUR_GAIN * point.speed_mps
        blur = participant.blur_for(base_blur, frame_rng)
        patch = render_patch(blur, frame_rng.child("patch"), patch_size)
        specs.append(
            FrameSpec(
                time_s=point.time_s,
                pose=CameraPose(point.position, point.heading_rad),
                blur=blur,
                sharpness=variance_of_laplacian(patch),
            )
        )
        frame_idx += 1
    return specs


def extract_sharpest_frames(
    specs: Sequence[FrameSpec], window: int
) -> List[FrameSpec]:
    """Sliding-window sharpest-frame selection (window size 30 in Sec. V-B1)."""
    if window < 1:
        raise SimulationError("window must be >= 1")
    winners: List[FrameSpec] = []
    for start in range(0, len(specs), window):
        chunk = specs[start : start + window]
        if chunk:
            winners.append(max(chunk, key=lambda s: s.sharpness))
    return winners


def capture_frames(
    capture: CaptureSimulator,
    specs: Sequence[FrameSpec],
    intrinsics: Intrinsics,
    source: str = "opportunistic",
) -> List[Photo]:
    """Turn selected frame specs into full photos."""
    return [
        capture.take_photo(
            spec.pose,
            intrinsics,
            blur=spec.blur,
            timestamp_s=spec.time_s,
            source=source,
        )
        for spec in specs
    ]
