"""Prefix-sum whitespace projection profiles (the ``segment.cuts`` fast path).

The naive valid-cut search (:func:`repro.geometry.cuts.sheared_cut_rows`)
rescans the whole occupancy grid once per candidate slope and
orientation: every recursion node of VS2-Segment pays
``O(rows × cols)`` per slope, 19 slopes, both orientations.  That scan
dominated end-to-end extraction cost (``segment.cuts``: 0.70 s of the
1.04 s segment stage on the D2 bench).

This module replaces the rescan with two **integral images** built once
per region from the occupancy matrix ``occ``:

* ``row_prefix[r, c]  = Σ_{c' < c} occ[r, c']``  — horizontal cuts;
* ``col_prefix[r, c]  = Σ_{r' < r} occ[r', c]``  — vertical cuts.

A sheared cut line ``y = y0 + slope·x`` visits ``occ[y0 + d(x), x]``
where ``d(x) = round(slope·x)`` — exactly the cell walk of the naive
scan.  Because ``|slope| ≤ 0.18``, ``d`` is a step function with at
most ``|slope|·cols + 1`` distinct values, each constant over a
contiguous column run ``[a, b)``.  The occupied-cell count of the line
therefore decomposes into per-run windowed sums::

    count(y0) = Σ_runs  row_prefix[y0 + d, b] − row_prefix[y0 + d, a]

which is **O(1) per (candidate, run)** and, evaluated for every origin
``y0`` at once, a handful of shifted 1-D slice subtractions — no
``rows × cols`` temporary, no fancy indexing.  A cut exists exactly
where ``count == 0``; the arithmetic is integer, so the flags are
**byte-identical** to the naive scan's (the equivalence is enforced by
the ``cut.decision`` ledger diff in ``benchmarks/test_bench_smoke.py``
and the property tests in ``tests/test_geometry_profiles.py``).

Memoisation down the recursion
------------------------------
VS2-Segment recurses into sub-regions.  A child region *may* reuse
(window into) its parent's prefix arrays instead of rebuilding — but
only under the contract checked by :meth:`RegionProfile.try_window`:

1. the child frame is **cell-aligned** with the parent frame (both
   offsets are exact multiples of the cell size), and
2. the child's independently rasterised occupancy equals the parent's
   window slice (siblings whose boxes bleed into the child window, or
   float cell-boundary effects, break this).

When either condition fails the child **must rebuild** its own arrays
— correctness (byte-identical cut decisions) always wins over reuse.
:class:`ProfileStore` applies the contract and counts how often each
path was taken.  See ``docs/PERFORMANCE.md`` for the worked example
and the full design.

This module lives in ``repro.geometry`` (the base layer, so
``repro.core`` may import it); :mod:`repro.perf` re-exports it.
"""

from __future__ import annotations

# Profiles operate on whichever coordinate frame the occupancy grid
# discretised; no frame mixing happens here.

from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

#: ``(offset, first, last_exclusive)`` runs of constant shear offset.
OffsetRun = Tuple[int, int, int]


@lru_cache(maxsize=1024)
def _slope_run_table(
    slopes: Tuple[float, ...], n_cross: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Offset-run decomposition of *every* slope, concatenated.

    Returns ``(D, A, B, starts)``: per concatenated run its constant
    offset ``D[k]`` over crossing positions ``[A[k], B[k])``, and
    ``starts[s]`` — the first run index of slope ``s`` (for
    ``np.add.reduceat``).  Built fully vectorised (one rounding of the
    whole slopes × positions matrix, the same ``np.round`` walk as the
    naive scan) and cached per ``(slopes, n_cross)``: region shapes
    repeat heavily across documents of one corpus.
    """
    slope_arr = np.asarray(slopes, dtype=float)
    n_slopes = len(slopes)
    if n_cross <= 0 or n_slopes == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, empty, np.zeros(n_slopes, dtype=np.intp)
    offsets = np.round(slope_arr[:, None] * np.arange(n_cross)[None, :]).astype(int)
    change_rows, change_cols = np.nonzero(offsets[:, 1:] != offsets[:, :-1])
    runs_per_slope = 1 + np.bincount(change_rows, minlength=n_slopes)
    starts = np.concatenate(([0], np.cumsum(runs_per_slope)[:-1])).astype(np.intp)
    total = int(runs_per_slope.sum())
    first = np.empty(total, dtype=np.intp)
    first[starts] = 0
    rest = np.ones(total, dtype=bool)
    rest[starts] = False
    first[rest] = change_cols + 1  # np.nonzero order groups by slope
    last = np.empty(total, dtype=np.intp)
    last[:-1] = first[1:]
    last[starts[1:] - 1] = n_cross
    last[-1] = n_cross
    run_slope = np.repeat(np.arange(n_slopes), runs_per_slope)
    return offsets[run_slope, first].astype(np.intp), first, last, starts


@lru_cache(maxsize=256)
def _gather_plan(
    slopes: Tuple[float, ...], orientation: str, n_origins: int, n_cross: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Precomputed flat ``take`` indices for one (shape, orientation).

    For an *unwindowed* profile the prefix-array layout is a pure
    function of the region shape, so the two gather index matrices
    (run start / run end, flattened into the contiguous prefix array),
    the off-region mask and the per-slope ``reduceat`` boundaries can
    be built once and reused by every region of that shape — each
    :meth:`RegionProfile.slope_line_occupancy` call then reduces to two
    ``take``\\ s, a masked fill and one ``reduceat``.

    Returns ``(flat_first, flat_last, off_region, starts)``.
    """
    offsets, first, last, starts = _slope_run_table(slopes, n_cross)
    origins = offsets[:, None] + np.arange(n_origins)[None, :]
    valid = (origins >= 0) & (origins < n_origins)
    safe = np.where(valid, origins, 0)
    if orientation == "horizontal":
        # row_prefix has shape (n_origins, n_cross + 1), C-contiguous.
        stride = n_cross + 1
        flat_first = safe * stride + first[:, None]
        flat_last = safe * stride + last[:, None]
    else:
        # col_prefix has shape (n_cross + 1, n_origins), C-contiguous.
        stride = n_origins
        flat_first = first[:, None] * stride + safe
        flat_last = last[:, None] * stride + safe
    # The plans stay cached for the life of the process; int32 halves
    # their footprint, and is exact while every flat index of the
    # ``n_origins × (n_cross + 1)`` prefix array fits in it.
    fits = n_origins * (n_cross + 1) <= np.iinfo(np.int32).max
    index_dtype = np.int32 if fits else np.int64
    return (
        flat_first.astype(index_dtype),
        flat_last.astype(index_dtype),
        ~valid,
        starts,
    )


@lru_cache(maxsize=4096)
def _offset_runs(slope: float, n_cross: int) -> Tuple[OffsetRun, ...]:
    """Decompose ``round(slope · t)`` for ``t in [0, n_cross)`` into
    maximal runs of constant offset.

    Uses the same ``np.round(...).astype(int)`` the naive scan uses, so
    the cell walk is identical (including banker's rounding at ``.5``).
    """
    if n_cross <= 0:
        return ()
    offsets = np.round(slope * np.arange(n_cross)).astype(int)
    breaks = np.flatnonzero(np.diff(offsets)) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [n_cross]))
    return tuple(
        (int(offsets[s]), int(s), int(e)) for s, e in zip(starts, ends)
    )


def interior_scores_from_flags(flags: np.ndarray) -> np.ndarray:
    """Per-row interior-run score of a ``(n_slopes, n_origins)`` flag
    matrix: Σ sizes of the ``True`` runs touching neither border.

    The score equals the number of flagged origins minus the
    border-touching leading and trailing runs — computable with argmax
    scans, no per-slope run extraction.  Matches
    ``sum(size for _, size in interior_runs(...))`` exactly.
    """
    flags = np.asarray(flags, dtype=bool)
    n = flags.shape[1]
    total = flags.sum(axis=1)
    blocked = ~flags
    has_blocked = blocked.any(axis=1)
    first_blocked = np.where(has_blocked, blocked.argmax(axis=1), n)
    last_blocked = np.where(
        has_blocked, n - 1 - blocked[:, ::-1].argmax(axis=1), -1
    )
    lead = np.where(flags[:, 0], first_blocked, 0)
    trail = np.where(flags[:, -1], n - 1 - last_blocked, 0)
    scores = total - lead - trail
    scores[~has_blocked] = 0  # one border-to-border run: no interior
    return scores


def runs_of_flags(flags: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal runs of ``True`` as ``(start, length)`` pairs, vectorised
    (the fast-path replacement for the per-element scan)."""
    f = np.asarray(flags, dtype=bool)
    if f.size == 0:
        return []
    padded = np.empty(f.size + 2, dtype=bool)
    padded[0] = padded[-1] = False
    padded[1:-1] = f
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(s), int(e - s)) for s, e in zip(edges[0::2], edges[1::2])]


class RegionProfile:
    """Integral-image projections of one region's occupancy.

    A profile either owns freshly computed prefix arrays (built by
    :meth:`from_occupied`) or *windows* into an ancestor's arrays
    (built by :meth:`try_window`) — queries are identical either way,
    because every windowed sum rebases on the fly: the per-run
    difference ``prefix[·, b] − prefix[·, a]`` is unaffected by the
    column base, and the row base only shifts the slices.
    """

    __slots__ = ("occupied", "_row_prefix", "_col_prefix", "_window")

    def __init__(
        self,
        occupied: np.ndarray,
        row_prefix: np.ndarray,
        col_prefix: np.ndarray,
        window: Tuple[int, int, int, int],
    ):
        self.occupied = occupied
        self._row_prefix = row_prefix
        self._col_prefix = col_prefix
        self._window = window  # (row0, col0, n_rows, n_cols)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_occupied(cls, occupied: np.ndarray) -> "RegionProfile":
        """Build fresh prefix arrays for ``occupied`` (bool, rows×cols)."""
        occ = np.asarray(occupied, dtype=bool)
        if occ.ndim != 2:
            raise ValueError("occupancy must be a rows × cols matrix")
        n_rows, n_cols = occ.shape
        row_prefix = np.zeros((n_rows, n_cols + 1), dtype=np.int32)
        np.cumsum(occ, axis=1, dtype=np.int32, out=row_prefix[:, 1:])
        col_prefix = np.zeros((n_rows + 1, n_cols), dtype=np.int32)
        np.cumsum(occ, axis=0, dtype=np.int32, out=col_prefix[1:, :])
        return cls(occ, row_prefix, col_prefix, (0, 0, n_rows, n_cols))

    @classmethod
    def for_grid(cls, grid) -> "RegionProfile":
        """Profile of an :class:`~repro.geometry.grid.OccupancyGrid`."""
        return cls.from_occupied(grid.occupied)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._window[2]

    @property
    def n_cols(self) -> int:
        return self._window[3]

    @property
    def is_window(self) -> bool:
        """Whether this profile windows an ancestor's arrays."""
        return self._window[:2] != (0, 0) or self._window[2:] != self.occupied.shape

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def line_occupancy(self, orientation: str, slope: float = 0.0) -> np.ndarray:
        """Occupied-cell count of every sheared cut line, one entry per
        origin (row for horizontal, column for vertical).

        ``count[i] == 0`` ⇔ the line starting at origin ``i`` runs
        entirely through whitespace — the paper's valid cut.  Cells the
        shear pushes off the region count as whitespace, matching
        :func:`repro.geometry.cuts.sheared_cut_rows`.
        """
        r0, c0, n_rows, n_cols = self._window
        if orientation == "horizontal":
            n_origins, n_cross = n_rows, n_cols
        elif orientation == "vertical":
            n_origins, n_cross = n_cols, n_rows
        else:
            raise ValueError(f"bad orientation {orientation!r}")
        counts = np.zeros(n_origins, dtype=np.int64)
        for d, a, b in _offset_runs(slope, n_cross):
            lo = max(0, -d)
            hi = min(n_origins, n_origins - d)
            if hi <= lo:
                continue
            if orientation == "horizontal":
                seg = self._row_prefix[r0 + lo + d : r0 + hi + d]
                counts[lo:hi] += seg[:, c0 + b] - seg[:, c0 + a]
            else:
                top = self._col_prefix[r0 + a, c0 + lo + d : c0 + hi + d]
                bot = self._col_prefix[r0 + b, c0 + lo + d : c0 + hi + d]
                counts[lo:hi] += (bot - top).astype(np.int64)
        return counts

    def slope_line_occupancy(
        self, orientation: str, slopes: Tuple[float, ...]
    ) -> np.ndarray:
        """:meth:`line_occupancy` for *every* slope at once — one
        ``(n_slopes, n_origins)`` matrix.

        All slopes' offset runs are concatenated (cached per
        ``(slopes, shape)``), the per-run windowed sums gathered in one
        shot and reduced back per slope with ``np.add.reduceat``; the
        arithmetic is the same integer prefix differences, so each row
        is byte-identical to the per-slope query.  This collapses the
        ~19-slope × per-run Python loop into a handful of array ops.
        """
        r0, c0, n_rows, n_cols = self._window
        if orientation == "horizontal":
            n_origins, n_cross = n_rows, n_cols
            prefix = self._row_prefix
        elif orientation == "vertical":
            n_origins, n_cross = n_cols, n_rows
            prefix = self._col_prefix
        else:
            raise ValueError(f"bad orientation {orientation!r}")
        slopes = tuple(slopes)
        if n_cross == 0 or n_origins == 0 or not slopes:
            # Degenerate region: every line is trivially unoccupied
            # (``reduceat`` cannot reduce over zero runs).
            return np.zeros((len(slopes), n_origins), dtype=np.int64)
        if not self.is_window:
            # Unwindowed: the whole gather is a pure function of the
            # region shape — take the cached flat-index plan.
            flat_first, flat_last, off_region, starts = _gather_plan(
                slopes, orientation, n_origins, n_cross
            )
            flat = prefix.ravel()
            vals = flat.take(flat_last) - flat.take(flat_first)
            vals[off_region] = 0
            return np.add.reduceat(vals, starts, axis=0)
        # Windowed into an ancestor's arrays: same arithmetic, with the
        # window offset folded into a 2-D gather.
        offsets, first, last, starts = _slope_run_table(slopes, n_cross)
        origins = offsets[:, None] + np.arange(n_origins)[None, :]
        valid = (origins >= 0) & (origins < n_origins)
        safe = np.where(valid, origins, 0)
        if orientation == "horizontal":
            rows = r0 + safe
            vals = (
                prefix[rows, (c0 + last)[:, None]]
                - prefix[rows, (c0 + first)[:, None]]
            )
        else:
            cols = c0 + safe
            vals = (
                prefix[(r0 + last)[:, None], cols]
                - prefix[(r0 + first)[:, None], cols]
            )
        vals[~valid] = 0
        return np.add.reduceat(vals, starts, axis=0)

    def interior_scores(
        self, orientation: str, slopes: Tuple[float, ...]
    ) -> np.ndarray:
        """Interior-run score (Σ sizes of non-border-touching cut runs)
        of every slope, without materialising the runs."""
        return interior_scores_from_flags(
            self.slope_line_occupancy(orientation, slopes) == 0
        )

    def cut_flags(self, orientation: str, slope: float = 0.0) -> np.ndarray:
        """Boolean valid-cut vector (``True`` where a cut exists) —
        byte-identical to the naive scan's."""
        return self.line_occupancy(orientation, slope) == 0

    def interior_runs(self, orientation: str, slope: float = 0.0) -> List[Tuple[int, int]]:
        """Maximal consecutive valid-cut runs that touch neither border
        (margins admit cuts but never separate content)."""
        n = self.n_rows if orientation == "horizontal" else self.n_cols
        return [
            (start, size)
            for start, size in runs_of_flags(self.cut_flags(orientation, slope))
            if start > 0 and start + size < n
        ]

    # ------------------------------------------------------------------
    # Memoisation (the child-window contract)
    # ------------------------------------------------------------------
    def try_window(
        self, row_off: int, col_off: int, child_occupied: np.ndarray
    ) -> Optional["RegionProfile"]:
        """A windowed child profile, or ``None`` when reuse is unsound.

        ``child_occupied`` is the child's *independently rasterised*
        occupancy; the window is shared only when it equals this
        profile's slice at ``(row_off, col_off)`` — the verification
        half of the memoisation contract (the caller checks the
        cell-alignment half).  Sharing skips the two integral-image
        passes and their allocations; the comparison is a single
        vectorised ``array_equal`` over the window.
        """
        r0, c0, n_rows, n_cols = self._window
        h, w = child_occupied.shape
        if row_off < 0 or col_off < 0 or row_off + h > n_rows or col_off + w > n_cols:
            return None
        window = self.occupied[
            r0 + row_off : r0 + row_off + h, c0 + col_off : c0 + col_off + w
        ]
        if not np.array_equal(window, child_occupied):
            return None
        return RegionProfile(
            self.occupied,
            self._row_prefix,
            self._col_prefix,
            (r0 + row_off, c0 + col_off, h, w),
        )


class ProfileStore:
    """Hands each recursion node its :class:`RegionProfile`.

    Applies the memoisation contract: a child windows its parent's
    arrays only when the frames are cell-aligned *and* the rasterised
    occupancies provably match; otherwise it rebuilds.  ``windows`` /
    ``rebuilds`` count which path each region took (exposed for tests
    and diagnostics).
    """

    def __init__(self) -> None:
        self.windows = 0
        self.rebuilds = 0

    def profile_for(
        self,
        grid,
        frame=None,
        parent: Optional[RegionProfile] = None,
        parent_frame=None,
    ) -> RegionProfile:
        """Profile for ``grid`` (the region's own occupancy grid).

        ``frame`` / ``parent_frame`` are the region's and parent's
        bounding boxes in a shared coordinate frame; with a ``parent``
        profile they enable the window fast path.
        """
        if parent is not None and frame is not None and parent_frame is not None:
            row_off = (frame.y - parent_frame.y) / grid.cell
            col_off = (frame.x - parent_frame.x) / grid.cell
            if float(row_off).is_integer() and float(col_off).is_integer():
                profile = parent.try_window(
                    int(row_off), int(col_off), grid.occupied
                )
                if profile is not None:
                    self.windows += 1
                    return profile
        self.rebuilds += 1
        return RegionProfile.for_grid(grid)
