"""Discretised page occupancy.

The paper defines a *whitespace position* as a coordinate ``(x, y)`` not
covered by any content bounding box (§5.1.1).  Enumerating every pixel is
wasteful, so we discretise the page into square cells (default 4 units).
A cell is *occupied* when any content box overlaps it; otherwise it is a
whitespace position.  All cut-finding operates on this grid; cell size is
the resolution/speed knob and is exposed on every public entry point.
"""

from __future__ import annotations

# The grid discretises whichever coordinate frame the input boxes
# share; it never mixes frames itself.

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.geometry.bbox import BBox


class OccupancyGrid:
    """Boolean occupancy of a page at a fixed cell resolution.

    Parameters
    ----------
    width, height:
        Page extent in layout units.
    cell:
        Side of a grid cell in layout units; must be positive.
    """

    def __init__(self, width: float, height: float, cell: float = 4.0):
        if width <= 0 or height <= 0:
            raise ValueError("page extent must be positive")
        if cell <= 0:
            raise ValueError("cell size must be positive")
        self.width = float(width)
        self.height = float(height)
        self.cell = float(cell)
        self.n_cols = max(1, int(np.ceil(width / cell)))
        self.n_rows = max(1, int(np.ceil(height / cell)))
        # occupied[row, col] — True when covered by content.
        self.occupied = np.zeros((self.n_rows, self.n_cols), dtype=bool)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_bboxes(
        cls,
        boxes: Iterable[BBox],
        width: float,
        height: float,
        cell: float = 4.0,
    ) -> "OccupancyGrid":
        grid = cls(width, height, cell)
        for box in boxes:
            grid.add_bbox(box)
        return grid

    def add_bbox(self, box: BBox) -> None:
        """Mark every cell overlapped by ``box`` as occupied.

        Boxes are clipped to the page; zero-area boxes are ignored.
        """
        if box.area <= 0:
            return
        c1 = int(np.floor(box.x / self.cell))
        r1 = int(np.floor(box.y / self.cell))
        c2 = int(np.ceil(box.x2 / self.cell))
        r2 = int(np.ceil(box.y2 / self.cell))
        c1 = max(c1, 0)
        r1 = max(r1, 0)
        c2 = min(c2, self.n_cols)
        r2 = min(r2, self.n_rows)
        if c2 > c1 and r2 > r1:
            self.occupied[r1:r2, c1:c2] = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def whitespace(self) -> np.ndarray:
        """Boolean matrix of whitespace positions (cells)."""
        return ~self.occupied

    def is_whitespace(self, x: float, y: float) -> bool:
        """Whether layout coordinate ``(x, y)`` is a whitespace position."""
        col = int(x / self.cell)
        row = int(y / self.cell)
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            return False
        return not self.occupied[row, col]

    def occupancy_ratio(self) -> float:
        """Fraction of the page covered by content."""
        return float(self.occupied.mean())

    def row_to_y(self, row: int) -> float:
        return row * self.cell

    def col_to_x(self, col: int) -> float:
        return col * self.cell

    def subgrid(self, frame: BBox) -> "OccupancyGrid":
        """Occupancy restricted to ``frame`` (coordinates rebased to it).

        VS2-Segment recurses into the visual areas it carves out; each
        recursion level works on the subgrid of its own frame so cuts are
        sought only within that area.
        """
        sub = OccupancyGrid(max(frame.w, self.cell), max(frame.h, self.cell), self.cell)
        c1 = int(np.floor(frame.x / self.cell))
        r1 = int(np.floor(frame.y / self.cell))
        c2 = min(int(np.ceil(frame.x2 / self.cell)), self.n_cols)
        r2 = min(int(np.ceil(frame.y2 / self.cell)), self.n_rows)
        c1 = max(c1, 0)
        r1 = max(r1, 0)
        if c2 > c1 and r2 > r1:
            piece = self.occupied[r1:r2, c1:c2]
            sub.occupied[: piece.shape[0], : piece.shape[1]] = piece
        return sub

    # ------------------------------------------------------------------
    # Projections (used by XY-cut style algorithms)
    # ------------------------------------------------------------------
    def horizontal_projection(self) -> np.ndarray:
        """Number of occupied cells per row."""
        return self.occupied.sum(axis=1)

    def vertical_projection(self) -> np.ndarray:
        """Number of occupied cells per column."""
        return self.occupied.sum(axis=0)

    def empty_row_runs(self) -> List[Tuple[int, int]]:
        """Maximal runs ``(start_row, length)`` of completely empty rows."""
        return _runs(self.horizontal_projection() == 0)

    def empty_col_runs(self) -> List[Tuple[int, int]]:
        """Maximal runs ``(start_col, length)`` of completely empty columns."""
        return _runs(self.vertical_projection() == 0)


def _runs(flags: Sequence[bool]) -> List[Tuple[int, int]]:
    """Maximal runs of True values as ``(start, length)`` pairs."""
    runs: List[Tuple[int, int]] = []
    start = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, len(flags) - start))
    return runs
