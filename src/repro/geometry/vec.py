"""Small, explicit 2-D / 3-D vector types.

The mapping and SfM simulators do most heavy lifting in numpy, but the
venue/camera layers are far more readable with named vector types. These
are intentionally tiny immutable dataclasses with only the operations the
library needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

from ..errors import GeometryError


@dataclass(frozen=True)
class Vec2:
    """Immutable 2-D vector / point in venue floor coordinates (metres)."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        if scalar == 0:
            raise GeometryError("division of Vec2 by zero")
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __deepcopy__(self, memo: dict) -> "Vec2":
        # Frozen floats: durability snapshots share the value.
        return self

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """Z component of the 3-D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Vec2":
        n = self.norm()
        if n == 0:
            raise GeometryError("cannot normalize the zero vector")
        return Vec2(self.x / n, self.y / n)

    def perpendicular(self) -> "Vec2":
        """Counter-clockwise perpendicular."""
        return Vec2(-self.y, self.x)

    def angle(self) -> float:
        """Angle from the +x axis, in radians, in (-pi, pi]."""
        return math.atan2(self.y, self.x)

    def rotated(self, angle_rad: float) -> "Vec2":
        c, s = math.cos(angle_rad), math.sin(angle_rad)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def lerp(self, other: "Vec2", t: float) -> "Vec2":
        return Vec2(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)

    @staticmethod
    def from_angle(angle_rad: float, length: float = 1.0) -> "Vec2":
        return Vec2(math.cos(angle_rad) * length, math.sin(angle_rad) * length)


@dataclass(frozen=True)
class Vec3:
    """Immutable 3-D vector / point. z is height above the floor (metres)."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    def __deepcopy__(self, memo: dict) -> "Vec3":
        # Frozen floats: durability snapshots share the value.
        return self

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def distance_to(self, other: "Vec3") -> float:
        return (self - other).norm()

    def floor(self) -> Vec2:
        """Projection onto the floor plane (drop z)."""
        return Vec2(self.x, self.y)

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @staticmethod
    def from_floor(p: Vec2, z: float = 0.0) -> "Vec3":
        return Vec3(p.x, p.y, z)


def angle_difference(a: float, b: float) -> float:
    """Smallest signed difference a-b wrapped into (-pi, pi]."""
    d = (a - b) % (2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    return d
