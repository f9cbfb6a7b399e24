"""Rendering of participant paths and task positions (Figs. 8 & 9).

Fig. 8: "Paths of the participants who have carried out opportunistic
sensing tasks", with camera positions of the extracted frames.
Fig. 9: "A generated point cloud and positions of the generated
crowdsourcing tasks marked on a library floor plan" — red circles for
photo tasks, blue crosses for where capture actually happened, green
diamonds for annotation tasks.

These helpers render the same content as ASCII over the venue grid.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..camera.photo import Photo
from ..geometry import Vec2
from ..mapping.grid import GridSpec

PATH_CHAR = "o"
TASK_PHOTO_CHAR = "T"
TASK_ANNOTATION_CHAR = "A"
ARRIVED_CHAR = "x"
OUTSIDE_CHAR = "~"
EMPTY_CHAR = " "


def _canvas(spec: GridSpec, region_mask: Optional[np.ndarray], factor: int):
    n_rows = (spec.n_rows + factor - 1) // factor
    n_cols = (spec.n_cols + factor - 1) // factor
    canvas = [[EMPTY_CHAR] * n_cols for _ in range(n_rows)]
    if region_mask is not None:
        for row in range(n_rows):
            for col in range(n_cols):
                block = region_mask[
                    row * factor : (row + 1) * factor,
                    col * factor : (col + 1) * factor,
                ]
                if not block.any():
                    canvas[row][col] = OUTSIDE_CHAR
    return canvas


def _plot(canvas, spec: GridSpec, factor: int, p: Vec2, char: str) -> None:
    cell = spec.cell_of(p)
    if cell is None:
        return
    row, col = cell[0] // factor, cell[1] // factor
    if 0 <= row < len(canvas) and 0 <= col < len(canvas[0]):
        canvas[row][col] = char


def _render(canvas) -> str:
    return "\n".join("".join(row).rstrip() for row in reversed(canvas))


def render_photo_positions(
    spec: GridSpec,
    photos: Sequence[Photo],
    region_mask: Optional[np.ndarray] = None,
    max_width: int = 100,
) -> str:
    """Fig.-8-style map: camera positions of the photos used for the model."""
    factor = max(1, int(np.ceil(spec.n_cols / max_width)))
    canvas = _canvas(spec, region_mask, factor)
    for photo in photos:
        _plot(canvas, spec, factor, photo.true_pose.position, PATH_CHAR)
    return _render(canvas)


def render_task_positions(
    spec: GridSpec,
    task_locations: Sequence[Tuple[str, float, float]],
    arrived_positions: Sequence[Vec2] = (),
    region_mask: Optional[np.ndarray] = None,
    max_width: int = 100,
) -> str:
    """Fig.-9-style map: task positions and actual capture positions.

    ``task_locations`` are (kind, x, y) triples as produced by
    :class:`repro.eval.experiments.GuidedExperimentResult`.
    """
    factor = max(1, int(np.ceil(spec.n_cols / max_width)))
    canvas = _canvas(spec, region_mask, factor)
    for position in arrived_positions:
        _plot(canvas, spec, factor, position, ARRIVED_CHAR)
    for kind, x, y in task_locations:
        char = TASK_ANNOTATION_CHAR if kind == "annotation" else TASK_PHOTO_CHAR
        _plot(canvas, spec, factor, Vec2(x, y), char)
    return _render(canvas)


def path_statistics(photos: Sequence[Photo]) -> dict:
    """Summary numbers for a photo-position map (Fig. 8's caption data)."""
    if not photos:
        return {"n_photos": 0, "bbox": None, "spread_m": 0.0}
    xs = np.array([p.true_pose.position.x for p in photos])
    ys = np.array([p.true_pose.position.y for p in photos])
    return {
        "n_photos": len(photos),
        "bbox": (float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())),
        "spread_m": float(np.hypot(xs.std(), ys.std())),
    }
