"""Simple polygons on the venue floor plane.

The venue outer wall and furniture footprints are polygons; this module
provides containment tests, area, bounding boxes and rasterisation-friendly
iteration used by the ground-truth map builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from .segments import Segment, iter_polygon_edges
from .vec import Vec2


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise GeometryError("inverted bounding box")

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def center(self) -> Vec2:
        return Vec2((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains(self, p: Vec2) -> bool:
        return self.min_x <= p.x <= self.max_x and self.min_y <= p.y <= self.max_y

    def expanded(self, margin: float) -> "BoundingBox":
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    @staticmethod
    def of_points(points: Sequence[Vec2]) -> "BoundingBox":
        if not points:
            raise GeometryError("bounding box of empty point set")
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return BoundingBox(min(xs), min(ys), max(xs), max(ys))


class Polygon:
    """A simple (non self-intersecting) polygon given by its vertices."""

    def __init__(self, vertices: Sequence[Vec2]):
        if len(vertices) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        self._vertices: Tuple[Vec2, ...] = tuple(vertices)
        self._bbox = BoundingBox.of_points(list(vertices))

    @property
    def vertices(self) -> Tuple[Vec2, ...]:
        return self._vertices

    @property
    def bbox(self) -> BoundingBox:
        return self._bbox

    def edges(self) -> List[Segment]:
        return list(iter_polygon_edges(list(self._vertices)))

    def area(self) -> float:
        """Unsigned polygon area via the shoelace formula."""
        acc = 0.0
        verts = self._vertices
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            acc += a.cross(b)
        return abs(acc) / 2.0

    def perimeter(self) -> float:
        return sum(e.length for e in self.edges())

    def contains(self, p: Vec2) -> bool:
        """Even-odd rule point-in-polygon test (boundary counts as inside)."""
        if not self._bbox.contains(p):
            return False
        inside = False
        verts = self._vertices
        n = len(verts)
        j = n - 1
        for i in range(n):
            vi, vj = verts[i], verts[j]
            # On-edge check for robustness at boundaries.
            if _on_segment(vi, vj, p):
                return True
            if (vi.y > p.y) != (vj.y > p.y):
                x_cross = vi.x + (p.y - vi.y) * (vj.x - vi.x) / (vj.y - vi.y)
                if p.x < x_cross:
                    inside = not inside
            j = i
        return inside

    def contains_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """:meth:`contains` over arrays of point coordinates.

        Applies the same bounding-box rule, on-edge tolerance and even-odd
        crossing rule with the same float operations, so each element
        equals ``contains(Vec2(x, y))`` exactly. Only points inside the
        bounding box are tested against the edges.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise GeometryError("xs and ys must have the same shape")
        box = self._bbox
        result = (xs >= box.min_x) & (xs <= box.max_x) & (ys >= box.min_y) & (ys <= box.max_y)
        idx = np.nonzero(result)
        px, py = xs[idx], ys[idx]
        on_edge = np.zeros(px.shape, dtype=bool)
        inside = np.zeros(px.shape, dtype=bool)
        verts = self._vertices
        j = len(verts) - 1
        # A horizontal edge divides by zero, but it never straddles.
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(len(verts)):
                vi, vj = verts[i], verts[j]
                on_edge |= _on_segment_mask(vi, vj, px, py)
                straddles = (vi.y > py) != (vj.y > py)
                x_cross = vi.x + (py - vi.y) * (vj.x - vi.x) / (vj.y - vi.y)
                inside ^= straddles & (px < x_cross)
                j = i
        result[idx] = on_edge | inside
        return result

    def centroid(self) -> Vec2:
        """Area centroid of the polygon."""
        verts = self._vertices
        acc_x = acc_y = acc_a = 0.0
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            cross = a.cross(b)
            acc_a += cross
            acc_x += (a.x + b.x) * cross
            acc_y += (a.y + b.y) * cross
        if abs(acc_a) < 1e-12:
            raise GeometryError("degenerate polygon has no centroid")
        return Vec2(acc_x / (3.0 * acc_a), acc_y / (3.0 * acc_a))

    @staticmethod
    def rectangle(min_x: float, min_y: float, max_x: float, max_y: float) -> "Polygon":
        """Axis-aligned rectangle polygon (counter-clockwise)."""
        if min_x >= max_x or min_y >= max_y:
            raise GeometryError("rectangle must have positive extent")
        return Polygon(
            [
                Vec2(min_x, min_y),
                Vec2(max_x, min_y),
                Vec2(max_x, max_y),
                Vec2(min_x, max_y),
            ]
        )

    @staticmethod
    def rotated_rectangle(
        center: Vec2, width: float, depth: float, angle_rad: float
    ) -> "Polygon":
        """Rectangle of ``width`` x ``depth`` centred at ``center``, rotated."""
        hw, hd = width / 2.0, depth / 2.0
        corners = [Vec2(-hw, -hd), Vec2(hw, -hd), Vec2(hw, hd), Vec2(-hw, hd)]
        return Polygon([center + c.rotated(angle_rad) for c in corners])


def _on_segment(a: Vec2, b: Vec2, p: Vec2, tol: float = 1e-9) -> bool:
    """True if ``p`` lies on segment ab within ``tol``."""
    cross = (b - a).cross(p - a)
    if abs(cross) > tol * max(1.0, a.distance_to(b)):
        return False
    dot = (p - a).dot(b - a)
    return -tol <= dot <= (b - a).norm_sq() + tol


def _on_segment_mask(
    a: Vec2, b: Vec2, px: np.ndarray, py: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    """:func:`_on_segment` over arrays of points, with the same float ops."""
    d = b - a
    rel_x = px - a.x
    rel_y = py - a.y
    cross = d.x * rel_y - d.y * rel_x
    dot = rel_x * d.x + rel_y * d.y
    return (
        (np.abs(cross) <= tol * max(1.0, a.distance_to(b)))
        & (dot >= -tol)
        & (dot <= d.norm_sq() + tol)
    )


def convex_hull(points: Sequence[Vec2]) -> List[Vec2]:
    """Andrew's monotone-chain convex hull, counter-clockwise order."""
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) < 3:
        return [Vec2(x, y) for x, y in pts]

    def half_hull(seq):
        hull: List[Tuple[float, float]] = []
        for x, y in seq:
            while len(hull) >= 2:
                ox, oy = hull[-2]
                ax, ay = hull[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) <= 0:
                    hull.pop()
                else:
                    break
            hull.append((x, y))
        return hull

    lower = half_hull(pts)
    upper = half_hull(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return [Vec2(x, y) for x, y in hull]
