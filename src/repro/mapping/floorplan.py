"""Floor-plan rendering: maps as ASCII art and export arrays.

"The floor plan is obtained by projecting a currently available 3D point
cloud onto a ground plane" (Sec. III). This module renders the paper's
map figures (Figs. 10 and 12) as terminal-friendly ASCII: obstacles are
``#``, camera-covered cells ``.``, uncovered interior space `` ``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .coverage import CoverageMaps

OBSTACLE_CHAR = "#"
VISIBLE_CHAR = "."
EMPTY_CHAR = " "
OUTSIDE_CHAR = "~"


def render_ascii(
    maps: CoverageMaps,
    region_mask: Optional[np.ndarray] = None,
    max_width: int = 110,
) -> str:
    """Render coverage maps as ASCII, optionally marking outside cells.

    Rows are flipped so north (larger y) is at the top, like a floor plan.
    The map is downsampled by integer factors to fit ``max_width``.
    """
    obstacle = maps.obstacles.nonzero_mask()
    visible = maps.visibility.nonzero_mask()
    n_rows, n_cols = obstacle.shape
    factor = max(1, int(np.ceil(n_cols / max_width)))

    lines: List[str] = []
    for row_block in range(n_rows - 1, -1, -factor):
        row_lo = max(0, row_block - factor + 1)
        chars: List[str] = []
        for col_block in range(0, n_cols, factor):
            col_hi = min(n_cols, col_block + factor)
            block = np.s_[row_lo : row_block + 1, col_block:col_hi]
            if obstacle[block].any():
                chars.append(OBSTACLE_CHAR)
            elif visible[block].any():
                chars.append(VISIBLE_CHAR)
            elif region_mask is not None and not region_mask[block].any():
                chars.append(OUTSIDE_CHAR)
            else:
                chars.append(EMPTY_CHAR)
        lines.append("".join(chars).rstrip())
    return "\n".join(lines)


def export_layers(maps: CoverageMaps) -> np.ndarray:
    """(rows, cols) uint8 array: 0 empty, 1 visible, 2 obstacle.

    Obstacles win over visibility, matching the paper's figures where
    obstacle pixels are drawn on top of the visibility layer.
    """
    out = np.zeros(maps.obstacles.spec.shape, dtype=np.uint8)
    out[maps.visibility.nonzero_mask()] = 1
    out[maps.obstacles.nonzero_mask()] = 2
    return out
