"""Valid movements and whitespace cuts (paper §5.1.1, Fig. 5).

The paper's definitions, restated on the discretised grid:

* A **whitespace position** is a grid cell not covered by any content
  bounding box.
* A **valid horizontal movement** from whitespace position ``(x, y)``
  steps to a whitespace position among ``(x+1, y)``, ``(x+1, y+1)`` and
  ``(x+1, y-1)`` — one column to the right with at most one row of
  vertical drift.  Vertical movements are symmetric.
* A **horizontal cut** originating at ``(0, y)`` exists when a valid
  W-hop horizontal movement from ``(0, y)`` exists, i.e. a drift-bounded
  whitespace path crosses the page from the left edge to the right edge.
* A maximal group of *consecutive* rows (columns) admitting cuts forms a
  :class:`CutSet` — the candidate visual separators handed to
  Algorithm 1.

Cut reachability is computed with a vectorised frontier propagation: we
carry, for every starting row, the set of rows its paths currently
occupy, as one boolean ``starts × rows`` matrix updated column by
column.  The drift of ±1 makes the update a 3-row dilation followed by a
mask against the next column's whitespace.
"""

from __future__ import annotations

# frame: any — cut finding runs on the occupancy grid of whichever
# frame the caller discretised; no frame mixing happens here.

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.bbox import BBox
from repro.geometry.grid import OccupancyGrid
from repro.geometry.profiles import RegionProfile, interior_scores_from_flags, runs_of_flags


@dataclass(frozen=True)
class CutSet:
    """A maximal set of consecutive valid cuts — a candidate separator.

    Attributes
    ----------
    orientation:
        ``"horizontal"`` for row cuts, ``"vertical"`` for column cuts.
    start_index:
        First grid row (or column) of the run.
    size:
        Number of consecutive cuts in the run; this cardinality is the
        separator *width* used by Algorithm 1.
    cell:
        Grid cell size, kept so the set can be mapped back to layout
        units.
    origin:
        Layout-unit offset of the grid frame on the page, needed when
        cuts were computed on a subgrid of a nested visual area.
    slope:
        Rise (in the cut direction) per unit of crossing direction —
        non-zero for cuts following a rotated page.
    """

    orientation: str
    start_index: int
    size: int
    cell: float
    origin: Tuple[float, float] = (0.0, 0.0)
    slope: float = 0.0

    def __post_init__(self) -> None:
        if self.orientation not in ("horizontal", "vertical"):
            raise ValueError(f"bad orientation {self.orientation!r}")
        if self.size <= 0:
            raise ValueError("a cut set holds at least one cut")

    @property
    def span_units(self) -> float:
        """Separator thickness in layout units."""
        return self.size * self.cell

    @property
    def start_units(self) -> float:
        """Position of the first cut in layout units (page frame)."""
        offset = self.origin[1] if self.orientation == "horizontal" else self.origin[0]
        return offset + self.start_index * self.cell

    @property
    def mid_units(self) -> float:
        """Centre line of the separator in layout units (page frame)."""
        return self.start_units + self.span_units / 2.0

    def start_position(self) -> Tuple[float, float]:
        """Layout coordinates where the first cut originates.

        Matches Fig. 5.b, where e.g. ``(0, 2)`` is the starting position
        of the cut set ``V_s1``.
        """
        if self.orientation == "horizontal":
            return (self.origin[0], self.start_units)
        return (self.start_units, self.origin[1])

    def neighbouring_bbox(self, boxes: List[BBox]) -> Optional[BBox]:
        """The content box at minimum distance from this separator.

        Algorithm 1 keys its width normalisation on the *neighbouring
        bounding box* of each cut set; ties break toward the taller box
        so the normalisation is stable.
        """
        if not boxes:
            return None
        line = self.as_bbox(_extent_for(boxes, self.orientation))
        return min(boxes, key=lambda b: (line.gap_distance(b), -b.h, b.x, b.y))

    def line_value_at(self, t: float) -> float:
        """Separator centre line evaluated at crossing coordinate ``t``
        (frame-local layout units): ``mid + slope·t``."""
        return self.mid_units + self.slope * t

    def as_bbox(self, extent: float) -> BBox:
        """The separator band as a bounding box spanning ``extent``."""
        if self.orientation == "horizontal":
            return BBox(self.origin[0], self.start_units, extent, self.span_units)
        return BBox(self.start_units, self.origin[1], self.span_units, extent)


def _extent_for(boxes: List[BBox], orientation: str) -> float:
    if orientation == "horizontal":
        return max(b.x2 for b in boxes)
    return max(b.y2 for b in boxes)


# ----------------------------------------------------------------------
# Movements
# ----------------------------------------------------------------------
def has_valid_horizontal_movement(grid: OccupancyGrid, col: int, row: int) -> bool:
    """Whether a valid 1-hop horizontal movement exists from cell
    ``(col, row)`` (grid indices)."""
    ws = grid.whitespace
    if not (0 <= row < grid.n_rows and 0 <= col < grid.n_cols - 1):
        return False
    if not ws[row, col]:
        return False
    for dr in (0, -1, 1):
        rr = row + dr
        if 0 <= rr < grid.n_rows and ws[rr, col + 1]:
            return True
    return False


def has_valid_vertical_movement(grid: OccupancyGrid, col: int, row: int) -> bool:
    """Whether a valid 1-hop vertical movement exists from ``(col, row)``."""
    ws = grid.whitespace
    if not (0 <= row < grid.n_rows - 1 and 0 <= col < grid.n_cols):
        return False
    if not ws[row, col]:
        return False
    for dc in (0, -1, 1):
        cc = col + dc
        if 0 <= cc < grid.n_cols and ws[row + 1, cc]:
            return True
    return False


# ----------------------------------------------------------------------
# Cuts
# ----------------------------------------------------------------------
#: Slopes (rows per column, grid units) scanned for slanted cuts.  The
#: ±1 per-hop drift of the paper's definition, taken literally, lets a
#: path wander arbitrarily far from its origin row (over W columns it
#: can drift ±W rows), making *every* row a cut origin on any page with
#: one empty band.  We realise the intended semantics — near-straight
#: separators that tolerate skew — as straight lines at a small set of
#: slopes: slope 0 for upright pages, up to ±0.12 (≈ ±7°) for the
#: rotated mobile captures (±10° ⇒ tan ≈ 0.18).
DEFAULT_SLOPES: Tuple[float, ...] = tuple(np.round(np.arange(-0.18, 0.1801, 0.02), 4))

#: Kept for API compatibility with the k-hop formulation.
DRIFT_RATIO = 0.08


def sheared_cut_rows(whitespace: np.ndarray, slope: float) -> np.ndarray:
    """Rows ``y0`` such that the line ``y = y0 + slope·x`` runs entirely
    through whitespace.  ``y0`` is anchored at column 0, matching the
    paper's "cut originating from (0, y)".  Cells sheared off the page
    count as whitespace (page margins are empty).
    """
    n_rows, n_cols = whitespace.shape
    cols = np.arange(n_cols)
    offsets = np.round(slope * cols).astype(int)
    rows = np.arange(n_rows)[:, None] + offsets[None, :]
    valid = (rows >= 0) & (rows < n_rows)
    rows_clipped = np.clip(rows, 0, n_rows - 1)
    values = whitespace[rows_clipped, cols[None, :]]
    values = values | ~valid
    return values.all(axis=1)


def find_horizontal_cuts(grid: OccupancyGrid, slope: float = 0.0) -> np.ndarray:
    """Boolean vector: ``True`` at row ``r`` when a horizontal cut with
    the given slope originating at ``(0, r)`` exists."""
    return sheared_cut_rows(grid.whitespace, slope)


def find_vertical_cuts(grid: OccupancyGrid, slope: float = 0.0) -> np.ndarray:
    """Boolean vector: ``True`` at column ``c`` when a vertical cut with
    the given slope originating at ``(c, 0)`` exists."""
    return sheared_cut_rows(grid.whitespace.T, slope)


def _runs_of(flags: np.ndarray) -> List[Tuple[int, int]]:
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


def consecutive_cut_sets(
    grid: OccupancyGrid,
    orientation: str,
    origin: Tuple[float, float] = (0.0, 0.0),
    slope: float = 0.0,
) -> List[CutSet]:
    """Group valid cuts (at one slope) into maximal consecutive runs."""
    if orientation == "horizontal":
        flags = find_horizontal_cuts(grid, slope)
    elif orientation == "vertical":
        flags = find_vertical_cuts(grid, slope)
    else:
        raise ValueError(f"bad orientation {orientation!r}")
    return [
        CutSet(orientation, start, size, grid.cell, origin, slope)
        for start, size in _runs_of(flags)
    ]


def interior_cut_sets(
    grid: OccupancyGrid,
    orientation: str,
    origin: Tuple[float, float] = (0.0, 0.0),
    slopes: Sequence[float] = DEFAULT_SLOPES,
    profile: Optional[RegionProfile] = None,
) -> List[CutSet]:
    """Interior cut runs at the dominant slope.

    For each candidate slope the interior (non-border-touching) cut
    runs are computed; the slope whose runs cover the most cut lines
    wins — a page rotates as a whole, so one slope per area suffices.
    Margins always admit cuts but never separate content; Algorithm 1
    only reasons about interior separators.

    Every slope's score comes from one batched query of the grid's
    prefix-sum projection profile (:mod:`repro.geometry.profiles`), and
    runs and :class:`CutSet` objects are materialised only for the
    winning slope.  ``profile`` is that profile when the caller already
    holds one (VS2-Segment windows a child region into its parent's);
    without it one is built for ``grid``.  The slope loop replicates
    :func:`reference_interior_cut_sets` exactly (same iteration order,
    same score, same straighter-slope tie-break — a non-empty run list
    is equivalent to a positive score) and the flags are integer-exact,
    so both return identical cut sets.
    """
    if profile is None:
        profile = RegionProfile.for_grid(grid)
    elif (profile.n_rows, profile.n_cols) != (grid.n_rows, grid.n_cols):
        raise ValueError("profile shape does not match the grid")
    flags = profile.slope_line_occupancy(orientation, tuple(slopes)) == 0
    scores = interior_scores_from_flags(flags)
    best_idx = 0
    best_score = -1
    for i, slope in enumerate(slopes):
        score = int(scores[i])
        if score > best_score or (
            score == best_score
            and best_score > 0
            and abs(slope) < abs(slopes[best_idx])
        ):
            best_idx, best_score = i, score
    if best_score <= 0:
        return []
    n = flags.shape[1]
    return [
        CutSet(orientation, start, size, grid.cell, origin, slopes[best_idx])
        for start, size in runs_of_flags(flags[best_idx])
        if start > 0 and start + size < n
    ]


def reference_interior_cut_sets(
    grid: OccupancyGrid,
    orientation: str,
    origin: Tuple[float, float] = (0.0, 0.0),
    slopes: Sequence[float] = DEFAULT_SLOPES,
) -> List[CutSet]:
    """The per-slope scan that :func:`interior_cut_sets` must agree with.

    Rescans the grid once per candidate slope
    (:func:`consecutive_cut_sets`) and does no profile work, so it is
    both the equivalence oracle and the speed baseline of the profile
    path: ``tests/test_geometry_profiles.py``,
    ``tests/test_cut_ledger.py`` and the bench-smoke gate compare
    against it.
    """
    n = grid.n_rows if orientation == "horizontal" else grid.n_cols
    best: List[CutSet] = []
    best_score = -1
    for slope in slopes:
        sets = consecutive_cut_sets(grid, orientation, origin, slope)
        interior = [s for s in sets if s.start_index > 0 and s.start_index + s.size < n]
        score = sum(s.size for s in interior)
        # Prefer the straighter slope on ties (|slope| ascending order
        # would need a sorted scan; DEFAULT_SLOPES is symmetric, so
        # break ties toward the value closer to zero).
        if score > best_score or (score == best_score and best and abs(slope) < abs(best[0].slope)):
            best = interior
            best_score = score
    return best
