"""Opportunistic VCS data collection (Sec. V-B1).

"We have asked 10 participants to carry out their daily activities in the
library, e.g. going to a meeting room, finding a book, accessing a local
workstation, and collected visual data while they were walking through the
library. We collected 20 videos along the participants' walking paths."

Each simulated video is a hotspot-to-hotspot walk; frames are extracted
with the sliding-window sharpest-frame rule and turned into photos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..camera.capture import CaptureSimulator
from ..camera.photo import Photo
from ..simkit.rng import RngStream
from ..venue.model import Venue
from .mobility import HotspotMobility
from .participants import Participant
from .video import capture_frames, extract_sharpest_frames, frame_specs_for_walk


@dataclass(frozen=True)
class OpportunisticDataset:
    """One opportunistic collection campaign."""

    photos: Tuple[Photo, ...]
    n_videos: int
    total_video_s: float
    n_raw_frames: int

    @property
    def n_photos(self) -> int:
        return len(self.photos)


class OpportunisticCollector:
    """Simulates the opportunistic campaign end to end."""

    def __init__(
        self,
        venue: Venue,
        capture: CaptureSimulator,
        mobility: HotspotMobility,
        rng: RngStream,
        fps: float = 5.0,
        window: int = 6,
    ):
        """``fps``/``window`` default to 5 Hz sampling with 6-sample
        windows — the same 1.2 s sharpest-frame windows as the paper's
        "window size of 30" at a 25 fps phone video."""
        self._venue = venue
        self._capture = capture
        self._mobility = mobility
        self._rng = rng
        self._fps = fps
        self._window = window

    def collect(
        self,
        participants: Sequence[Participant],
        n_videos: int,
        stops_per_video: Tuple[int, int] = (2, 3),
        walk_speed_range: Tuple[float, float] = (0.8, 1.3),
    ) -> OpportunisticDataset:
        """Record ``n_videos`` daily-activity walks and extract frames."""
        photos: List[Photo] = []
        total_video_s = 0.0
        n_raw = 0
        for video_idx in range(n_videos):
            participant = participants[video_idx % len(participants)]
            video_rng = self._rng.child(f"video-{video_idx}")
            itinerary = self._mobility.pick_itinerary(
                video_rng.integers(stops_per_video[0], stops_per_video[1] + 1),
                video_rng.child("itinerary"),
            )
            start = self._venue.entrance if video_idx % 2 == 0 else itinerary[0].position
            speed = video_rng.uniform(*walk_speed_range)
            trajectory = self._mobility.walk(
                start, [h.position for h in itinerary], speed_mps=speed, dwell_s=6.0
            )
            total_video_s += trajectory.duration_s

            specs = frame_specs_for_walk(
                trajectory, participant, video_rng.child("frames"), fps=self._fps
            )
            n_raw += len(specs)
            winners = extract_sharpest_frames(specs, self._window)
            photos.extend(
                capture_frames(self._capture, winners, participant.device, "opportunistic")
            )
        return OpportunisticDataset(
            photos=tuple(photos),
            n_videos=n_videos,
            total_video_s=total_video_s,
            n_raw_frames=n_raw,
        )
