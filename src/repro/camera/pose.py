"""Camera poses.

"The camera pose refers to a position and facing direction of a camera
that took the photo" (Sec. II-A). Poses are upright (no roll/pitch) at a
fixed capture height, which matches hand-held phone capture and keeps the
occlusion model on the floor plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import CaptureError
from ..geometry import PinholeProjection, Vec2, Vec3, angle_difference
from .intrinsics import Intrinsics


@dataclass(frozen=True)
class CameraPose:
    """Position + facing direction of one capture."""

    position: Vec2
    yaw_rad: float
    height_m: float = 1.5

    @property
    def position3(self) -> Vec3:
        return Vec3(self.position.x, self.position.y, self.height_m)

    @property
    def forward(self) -> Vec2:
        return Vec2.from_angle(self.yaw_rad)

    def facing(self, target: Vec2) -> "CameraPose":
        """Same position, rotated to face ``target``."""
        rel = target - self.position
        return replace(self, yaw_rad=rel.angle())

    def rotated(self, delta_rad: float) -> "CameraPose":
        return replace(self, yaw_rad=_wrap_angle(self.yaw_rad + delta_rad))

    def translated(self, offset: Vec2) -> "CameraPose":
        return replace(self, position=self.position + offset)

    def bearing_to(self, p: Vec2) -> float:
        """Signed angle from the optical axis to floor point ``p``."""
        return angle_difference((p - self.position).angle(), self.yaw_rad)

    def distance_to(self, p: Vec2) -> float:
        return self.position.distance_to(p)

    def projection(self, intrinsics: Intrinsics) -> PinholeProjection:
        return PinholeProjection(
            position=self.position3,
            yaw_rad=self.yaw_rad,
            focal_px=intrinsics.focal_length_px,
            image_width_px=intrinsics.image_width_px,
            image_height_px=intrinsics.image_height_px,
        )

    @staticmethod
    def at(x: float, y: float, yaw_rad: float = 0.0, height_m: float = 1.5) -> "CameraPose":
        return CameraPose(Vec2(x, y), _wrap_angle(yaw_rad), height_m)


def _wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = angle % (2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    return wrapped


def sweep_poses(
    center: Vec2,
    step_deg: float,
    height_m: float = 1.5,
    start_deg: float = 0.0,
) -> list:
    """Poses for the guided 360° capture.

    "The user is asked to slowly move around 360 degrees. Every 8 degrees
    the phone automatically captures an image" (Sec. III).
    """
    if step_deg <= 0:
        raise CaptureError(f"step_deg must be positive, got {step_deg}")
    n = int(round(360.0 / step_deg))
    return [
        CameraPose(center, _wrap_angle(math.radians(start_deg + i * step_deg)), height_m)
        for i in range(n)
    ]
