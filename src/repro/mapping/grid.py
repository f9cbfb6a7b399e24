"""2-D map grids.

Both maps the paper builds — the obstacles map (Algorithm 2) and the
visibility map (Algorithm 3) — are "a matrix where each cell ... maps the
cell into a physical area of 15cm x 15cm". :class:`GridSpec` pins the
world-to-cell transform; :class:`Grid2D` is a numpy-backed matrix bound to
a spec so different maps of the same venue align cell-for-cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import MappingError
from ..geometry import BoundingBox, Vec2


@dataclass(frozen=True)
class GridSpec:
    """World-to-cell transform: origin, cell size, and matrix shape."""

    origin_x: float
    origin_y: float
    cell_size_m: float
    n_rows: int
    n_cols: int

    def __post_init__(self) -> None:
        if self.cell_size_m <= 0:
            raise MappingError("cell size must be positive")
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise MappingError("grid must have positive shape")

    @staticmethod
    def from_bbox(bbox: BoundingBox, cell_size_m: float, margin_m: float = 1.0) -> "GridSpec":
        expanded = bbox.expanded(margin_m)
        n_cols = int(np.ceil(expanded.width / cell_size_m))
        n_rows = int(np.ceil(expanded.height / cell_size_m))
        return GridSpec(
            origin_x=expanded.min_x,
            origin_y=expanded.min_y,
            cell_size_m=cell_size_m,
            n_rows=max(1, n_rows),
            n_cols=max(1, n_cols),
        )

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def cell_area_m2(self) -> float:
        return self.cell_size_m ** 2

    def cell_of(self, p: Vec2) -> Optional[Tuple[int, int]]:
        """(row, col) of the cell containing ``p``, or None if outside."""
        col = int(np.floor((p.x - self.origin_x) / self.cell_size_m))
        row = int(np.floor((p.y - self.origin_y) / self.cell_size_m))
        if 0 <= row < self.n_rows and 0 <= col < self.n_cols:
            return (row, col)
        return None

    def cells_of(self, xy: np.ndarray) -> np.ndarray:
        """(N, 2) array of (row, col); out-of-bounds rows are marked -1."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        cols = np.floor((xy[:, 0] - self.origin_x) / self.cell_size_m).astype(int)
        rows = np.floor((xy[:, 1] - self.origin_y) / self.cell_size_m).astype(int)
        valid = (rows >= 0) & (rows < self.n_rows) & (cols >= 0) & (cols < self.n_cols)
        rows = np.where(valid, rows, -1)
        cols = np.where(valid, cols, -1)
        return np.stack([rows, cols], axis=1)

    def center_of(self, row: int, col: int) -> Vec2:
        return Vec2(
            self.origin_x + (col + 0.5) * self.cell_size_m,
            self.origin_y + (row + 0.5) * self.cell_size_m,
        )

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.n_rows and 0 <= col < self.n_cols


class Grid2D:
    """A float matrix bound to a :class:`GridSpec`."""

    def __init__(self, spec: GridSpec, data: Optional[np.ndarray] = None):
        self._spec = spec
        if data is None:
            self._data = np.zeros(spec.shape, dtype=float)
        else:
            data = np.asarray(data, dtype=float)
            if data.shape != spec.shape:
                raise MappingError(
                    f"grid data shape {data.shape} != spec shape {spec.shape}"
                )
            self._data = data.copy()

    @property
    def spec(self) -> GridSpec:
        return self._spec

    @property
    def data(self) -> np.ndarray:
        """The underlying matrix (mutable)."""
        return self._data

    def value_at(self, p: Vec2) -> float:
        cell = self._spec.cell_of(p)
        if cell is None:
            return 0.0
        return float(self._data[cell])

    def set_at(self, p: Vec2, value: float) -> None:
        cell = self._spec.cell_of(p)
        if cell is None:
            raise MappingError(f"point {p} outside grid")
        self._data[cell] = value

    def nonzero_mask(self) -> np.ndarray:
        return self._data > 0

    def nonzero_count(self) -> int:
        return int((self._data > 0).sum())

    def covered_area_m2(self) -> float:
        return self.nonzero_count() * self._spec.cell_area_m2

    def copy(self) -> "Grid2D":
        return Grid2D(self._spec, self._data)

    def union_mask(self, other: "Grid2D") -> np.ndarray:
        """Non-zero union with another grid of the same spec."""
        self._require_same_spec(other)
        return (self._data > 0) | (other._data > 0)

    def _require_same_spec(self, other: "Grid2D") -> None:
        if other.spec != self._spec:
            raise MappingError("grids are on different specs")

    @staticmethod
    def zeros_like(other: "Grid2D") -> "Grid2D":
        return Grid2D(other.spec)
