"""Prefix-sum projection profiles (``repro.geometry.profiles``): exact
equivalence with the per-slope reference rescan, the child-window
memoisation contract, and the degenerate shapes the recursion actually
produces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.bbox import BBox
from repro.geometry.cuts import (
    DEFAULT_SLOPES,
    find_horizontal_cuts,
    find_vertical_cuts,
    interior_cut_sets,
    reference_interior_cut_sets,
)
from repro.geometry.grid import OccupancyGrid
from repro.geometry.profiles import (
    ProfileStore,
    RegionProfile,
    interior_scores_from_flags,
    runs_of_flags,
)


def _grid_from_occupied(occ: np.ndarray, cell: float = 4.0) -> OccupancyGrid:
    grid = OccupancyGrid(occ.shape[1] * cell, occ.shape[0] * cell, cell)
    grid.occupied[:] = occ
    return grid


# ----------------------------------------------------------------------
# Degenerate shapes
# ----------------------------------------------------------------------
def test_empty_region_profile():
    profile = RegionProfile.from_occupied(np.zeros((0, 0), dtype=bool))
    assert profile.n_rows == 0 and profile.n_cols == 0
    assert profile.line_occupancy("horizontal").shape == (0,)
    assert profile.line_occupancy("vertical").shape == (0,)
    assert profile.slope_line_occupancy("horizontal", DEFAULT_SLOPES).shape == (
        len(DEFAULT_SLOPES),
        0,
    )
    assert profile.interior_runs("horizontal") == []


def test_zero_width_region_profile():
    profile = RegionProfile.from_occupied(np.zeros((3, 0), dtype=bool))
    assert profile.line_occupancy("horizontal").shape == (3,)
    assert list(profile.cut_flags("horizontal")) == [True, True, True]
    # Both cuts touch a border run: no interior cut sets.
    assert profile.interior_runs("horizontal") == []


def test_single_cell_region():
    for occupied in (True, False):
        occ = np.full((1, 1), occupied)
        profile = RegionProfile.from_occupied(occ)
        grid = _grid_from_occupied(occ)
        for orientation in ("horizontal", "vertical"):
            assert np.array_equal(
                profile.cut_flags(orientation),
                find_horizontal_cuts(grid)
                if orientation == "horizontal"
                else find_vertical_cuts(grid),
            )
            # A 1-cell region has no interior.
            assert interior_cut_sets(grid, orientation, profile=profile) == []
            assert reference_interior_cut_sets(grid, orientation) == []


def test_fully_occupied_region_has_no_cuts():
    occ = np.ones((6, 8), dtype=bool)
    grid = _grid_from_occupied(occ)
    profile = RegionProfile.for_grid(grid)
    assert not profile.cut_flags("horizontal").any()
    assert interior_cut_sets(grid, "horizontal", profile=profile) == []


def test_fully_empty_region_has_no_interior_cuts():
    """All lines are cuts, but they form one border-to-border run —
    margins never separate content."""
    occ = np.zeros((6, 8), dtype=bool)
    grid = _grid_from_occupied(occ)
    profile = RegionProfile.for_grid(grid)
    assert profile.cut_flags("horizontal").all()
    assert interior_cut_sets(grid, "horizontal", profile=profile) == []
    assert reference_interior_cut_sets(grid, "horizontal") == []


def test_interior_scores_from_flags_edges():
    flags = np.array(
        [
            [True, True, True, True],  # border-to-border: no interior
            [False, False, False, False],  # no cuts at all
            [False, True, True, False],  # one interior run of 2
            [True, False, True, False],  # leading border run only
            [False, True, False, True],  # trailing border run only
            [True, False, False, True],  # both runs touch borders
        ]
    )
    assert list(interior_scores_from_flags(flags)) == [0, 0, 2, 1, 1, 0]


def test_runs_of_flags_matches_manual_scan():
    assert runs_of_flags(np.array([], dtype=bool)) == []
    assert runs_of_flags(np.array([True])) == [(0, 1)]
    assert runs_of_flags(np.array([True, False, True, True])) == [(0, 1), (2, 2)]


# ----------------------------------------------------------------------
# The memoisation contract
# ----------------------------------------------------------------------
def test_try_window_shares_when_occupancy_matches():
    occ = np.zeros((10, 12), dtype=bool)
    occ[2:4, 3:9] = True
    parent = RegionProfile.from_occupied(occ)
    child_occ = occ[1:6, 2:11].copy()
    child = parent.try_window(1, 2, child_occ)
    assert child is not None and child.is_window
    fresh = RegionProfile.from_occupied(child_occ)
    for orientation in ("horizontal", "vertical"):
        for slope in (0.0, 0.1, -0.18):
            assert np.array_equal(
                child.line_occupancy(orientation, slope),
                fresh.line_occupancy(orientation, slope),
            )
        assert np.array_equal(
            child.slope_line_occupancy(orientation, DEFAULT_SLOPES),
            fresh.slope_line_occupancy(orientation, DEFAULT_SLOPES),
        )


def test_try_window_refuses_occupancy_mismatch():
    """A sibling's box bleeding into the child window breaks the
    contract: the child must rebuild."""
    occ = np.zeros((8, 8), dtype=bool)
    occ[4, 4] = True  # content the child's own rasterisation won't have
    parent = RegionProfile.from_occupied(occ)
    assert parent.try_window(2, 2, np.zeros((4, 4), dtype=bool)) is None


def test_try_window_refuses_out_of_bounds():
    parent = RegionProfile.from_occupied(np.zeros((4, 4), dtype=bool))
    assert parent.try_window(2, 0, np.zeros((3, 4), dtype=bool)) is None
    assert parent.try_window(-1, 0, np.zeros((2, 2), dtype=bool)) is None


def test_profile_store_applies_cell_alignment():
    store = ProfileStore()
    occ = np.zeros((10, 10), dtype=bool)
    grid = _grid_from_occupied(occ, cell=4.0)
    parent_frame = BBox(0, 0, 40, 40)
    root = store.profile_for(grid)
    assert store.rebuilds == 1

    sub = OccupancyGrid(20.0, 20.0, 4.0)
    aligned = store.profile_for(
        sub, frame=BBox(8, 4, 20, 20), parent=root, parent_frame=parent_frame
    )
    assert aligned.is_window and store.windows == 1

    misaligned = store.profile_for(
        sub, frame=BBox(6, 4, 20, 20), parent=root, parent_frame=parent_frame
    )
    assert not misaligned.is_window and store.rebuilds == 2


# ----------------------------------------------------------------------
# Property: fast == naive on random synthetic layouts
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(min_value=1, max_value=24),
    n_cols=st.integers(min_value=1, max_value=24),
    data=st.data(),
)
def test_fast_cut_search_matches_naive_on_random_grids(n_rows, n_cols, data):
    bits = data.draw(
        st.lists(
            st.booleans(), min_size=n_rows * n_cols, max_size=n_rows * n_cols
        )
    )
    occ = np.array(bits, dtype=bool).reshape(n_rows, n_cols)
    grid = _grid_from_occupied(occ)
    profile = RegionProfile.for_grid(grid)
    for orientation in ("horizontal", "vertical"):
        naive_flags = (
            find_horizontal_cuts(grid, 0.1)
            if orientation == "horizontal"
            else find_vertical_cuts(grid, 0.1)
        )
        assert np.array_equal(profile.cut_flags(orientation, 0.1), naive_flags)
        fast = interior_cut_sets(grid, orientation, profile=profile)
        naive = reference_interior_cut_sets(grid, orientation)
        assert fast == naive
        assert interior_cut_sets(grid, orientation) == naive


@settings(max_examples=30, deadline=None)
@given(
    n_boxes=st.integers(min_value=0, max_value=8),
    data=st.data(),
)
def test_fast_cut_search_matches_naive_on_random_layouts(n_boxes, data):
    """Box-based layouts (the shapes VS2-Segment actually sees)."""
    boxes = []
    for _ in range(n_boxes):
        x = data.draw(st.floats(min_value=0, max_value=80))
        y = data.draw(st.floats(min_value=0, max_value=80))
        w = data.draw(st.floats(min_value=1, max_value=40))
        h = data.draw(st.floats(min_value=1, max_value=20))
        boxes.append(BBox(x, y, w, h))
    grid = OccupancyGrid.from_bboxes(boxes, 120.0, 100.0, cell=4.0)
    profile = RegionProfile.for_grid(grid)
    for orientation in ("horizontal", "vertical"):
        fast = interior_cut_sets(grid, orientation, profile=profile)
        naive = reference_interior_cut_sets(grid, orientation)
        assert fast == naive
        assert interior_cut_sets(grid, orientation) == naive


def test_fast_path_rejects_shape_mismatch():
    grid = _grid_from_occupied(np.zeros((4, 4), dtype=bool))
    profile = RegionProfile.from_occupied(np.zeros((5, 4), dtype=bool))
    with pytest.raises(ValueError):
        interior_cut_sets(grid, "horizontal", profile=profile)
