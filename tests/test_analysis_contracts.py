"""Runtime contracts: the ``@checked`` machinery and every invariant.

All tests carry the ``contracts`` marker so ``make test`` runs them a
second time with ``REPRO_CONTRACTS=1`` in the environment; they also
pass under plain pytest because they toggle contracts through the API.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.analysis.contracts import (
    ContractViolation,
    check_cut_sets_in_whitespace,
    check_extraction_spans,
    check_layout_tree,
    check_pareto_front,
    check_separators_clear_of_boxes,
    checked,
    contracts,
    contracts_enabled,
    enable_contracts,
)
from repro.core.delimiters import identify_visual_delimiters
from repro.core.segment import VS2Segmenter
from repro.core.select import Extraction
from repro.doc.layout_tree import LayoutNode, LayoutTree
from repro.geometry import BBox, OccupancyGrid
from repro.geometry.cuts import CutSet, interior_cut_sets
from repro.optimize.pareto import pareto_front

pytestmark = pytest.mark.contracts


# ----------------------------------------------------------------------
# The @checked decorator
# ----------------------------------------------------------------------
class TestCheckedDecorator:
    def test_post_not_called_when_disabled(self):
        calls = []

        @checked(post=lambda result, x: calls.append(x))
        def double(x):
            return 2 * x

        with contracts(False):
            assert double(3) == 6
        assert calls == []

    def test_post_called_when_enabled(self):
        calls = []

        @checked(post=lambda result, x: calls.append((x, result)))
        def double(x):
            return 2 * x

        with contracts(True):
            assert double(3) == 6
        assert calls == [(3, 6)]

    def test_violation_propagates_through_decorated_call(self):
        """A broken implementation is caught at the call site."""

        @checked(post=lambda front, points: check_pareto_front(points, front))
        def broken_front(points):
            return []  # drops every non-dominated point

        with contracts(True):
            with pytest.raises(ContractViolation, match="missing from front"):
                broken_front([(1.0, 0.0), (0.0, 1.0)])

    def test_context_manager_restores_state(self):
        before = contracts_enabled()
        with contracts(not before):
            assert contracts_enabled() is (not before)
        assert contracts_enabled() is before

    def test_enable_contracts_toggles(self):
        before = contracts_enabled()
        try:
            enable_contracts(True)
            assert contracts_enabled()
            enable_contracts(False)
            assert not contracts_enabled()
        finally:
            enable_contracts(before)

    def test_importing_the_pipeline_does_not_load_the_linter(self):
        """The pipeline imports this module on every run; that must not
        drag the static analyser in with it."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        probe = (
            "import sys, repro.core.pipeline; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis.lint')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"


# ----------------------------------------------------------------------
# Segmentation invariants
# ----------------------------------------------------------------------
def _grid_with_band(occupied_rows):
    """A 40x40-unit grid (10x10 cells of 4) with two content bands."""
    grid = OccupancyGrid(40, 40, cell=4.0)
    for row in occupied_rows:
        grid.occupied[row, :] = True
    return grid


class TestCutWhitespace:
    def test_cut_through_whitespace_passes(self):
        grid = _grid_with_band([1, 2, 7, 8])
        cut = CutSet("horizontal", start_index=4, size=2, cell=4.0)
        check_cut_sets_in_whitespace(grid, [cut])

    def test_cut_through_content_raises(self):
        grid = _grid_with_band([1, 2, 7, 8])
        cut = CutSet("horizontal", start_index=6, size=2, cell=4.0)
        with pytest.raises(ContractViolation, match="occupied cell"):
            check_cut_sets_in_whitespace(grid, [cut])

    def test_sloped_cut_checked_along_its_line(self):
        grid = OccupancyGrid(40, 40, cell=4.0)
        grid.occupied[8, 9] = True  # only hit by a line drifting down
        flat = CutSet("horizontal", start_index=5, size=1, cell=4.0, slope=0.0)
        check_cut_sets_in_whitespace(grid, [flat])
        sloped = CutSet("horizontal", start_index=5, size=1, cell=4.0, slope=0.3)
        with pytest.raises(ContractViolation):
            check_cut_sets_in_whitespace(grid, [sloped])

    def test_vertical_orientation(self):
        grid = OccupancyGrid(40, 40, cell=4.0)
        grid.occupied[:, 5] = True
        good = CutSet("vertical", start_index=2, size=1, cell=4.0)
        check_cut_sets_in_whitespace(grid, [good])
        with pytest.raises(ContractViolation, match="vertical cut"):
            check_cut_sets_in_whitespace(
                grid, [CutSet("vertical", start_index=5, size=1, cell=4.0)]
            )

    def test_agrees_with_vectorised_cut_finder(self):
        """The scalar re-walk accepts whatever the production
        (vectorised) cut finder emits — on every slope it scans."""
        grid = _grid_with_band([2, 3, 11 % 10])
        for orientation in ("horizontal", "vertical"):
            check_cut_sets_in_whitespace(grid, interior_cut_sets(grid, orientation))


class TestSeparatorsClearOfBoxes:
    def test_separator_between_boxes_passes(self):
        boxes = [BBox(0, 0, 40, 10), BBox(0, 30, 40, 10)]
        sep = CutSet("horizontal", start_index=4, size=2, cell=4.0)  # mid y=20
        check_separators_clear_of_boxes([sep], boxes)

    def test_separator_through_box_raises(self):
        boxes = [BBox(0, 10, 40, 20)]  # interior y in (10, 30)
        sep = CutSet("horizontal", start_index=4, size=2, cell=4.0)  # mid y=20
        with pytest.raises(ContractViolation, match="runs through content"):
            check_separators_clear_of_boxes([sep], boxes)

    def test_identify_visual_delimiters_is_checked(self):
        """The decorated Algorithm 1 runs its post-condition when
        contracts are on (accepted separators clear the content)."""
        boxes = [BBox(0, 0, 100, 12), BBox(0, 40, 100, 12), BBox(0, 80, 100, 12)]
        grid = OccupancyGrid.from_bboxes(boxes, 100, 100, cell=4.0)
        with contracts(True):
            separators = identify_visual_delimiters(
                interior_cut_sets(grid, "horizontal"), boxes, min_gap_ratio=0.5
            )
        assert separators  # the gaps are real delimiters


def _tree(atoms_by_leaf):
    """Root with one child per atom group (boxes enclose their atoms)."""
    from repro.doc.elements import TextElement
    from repro.geometry import enclosing_bbox

    leaves = []
    all_atoms = []
    for i, boxes in enumerate(atoms_by_leaf):
        atoms = [
            TextElement(f"w{i}_{j}", box, font_size=10.0)
            for j, box in enumerate(boxes)
        ]
        all_atoms.extend(atoms)
        leaves.append(
            LayoutNode(bbox=enclosing_bbox(boxes), atoms=atoms, kind="cut")
        )
    root = LayoutNode(bbox=BBox(0, 0, 200, 200), atoms=all_atoms, kind="root")
    for leaf in leaves:
        root.add_child(leaf)
    return LayoutTree(root)


class TestLayoutTree:
    def test_well_formed_tree_passes(self):
        tree = _tree([[BBox(10, 10, 30, 10)], [BBox(10, 100, 30, 10)]])
        check_layout_tree(tree)

    def test_dropped_atom_raises(self):
        tree = _tree([[BBox(10, 10, 30, 10)], [BBox(10, 100, 30, 10)]])
        tree.root.children[1].atoms.clear()  # child loses its atom
        with pytest.raises(ContractViolation, match="dropped or invented"):
            check_layout_tree(tree)

    def test_duplicated_atom_raises(self):
        tree = _tree([[BBox(10, 10, 30, 10)], [BBox(10, 100, 30, 10)]])
        stolen = tree.root.children[0].atoms[0]
        tree.root.children[1].atoms.append(stolen)
        with pytest.raises(ContractViolation, match="two sibling areas"):
            check_layout_tree(tree)

    def test_escaping_child_raises(self):
        tree = _tree([[BBox(10, 10, 30, 10)], [BBox(10, 100, 30, 10)]])
        tree.root.children[0].bbox = BBox(10, 10, 500, 10)  # past the root
        with pytest.raises(ContractViolation, match="nesting broken"):
            check_layout_tree(tree)

    def test_heavily_overlapping_cut_siblings_raise(self):
        tree = _tree([[BBox(10, 10, 30, 10)], [BBox(12, 10, 30, 10)]])
        with pytest.raises(ContractViolation, match="siblings .* overlap"):
            check_layout_tree(tree)


class TestSegmenterEndToEnd:
    def test_segmenting_a_real_document_passes(self, d2_corpus):
        with contracts(True):
            tree = VS2Segmenter().segment(d2_corpus[0])
        assert tree.logical_blocks()


# ----------------------------------------------------------------------
# Selection invariants
# ----------------------------------------------------------------------
class TestParetoContract:
    def test_valid_front_passes(self):
        points = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.2, 0.2)]
        check_pareto_front(points, [0, 1, 2])

    def test_dominated_member_raises(self):
        points = [(1.0, 1.0), (0.0, 0.0)]
        with pytest.raises(ContractViolation, match="is dominated by"):
            check_pareto_front(points, [0, 1])

    def test_missing_member_raises(self):
        points = [(1.0, 0.0), (0.0, 1.0)]
        with pytest.raises(ContractViolation, match="missing from front"):
            check_pareto_front(points, [0])

    def test_duplicates_both_kept(self):
        points = [(1.0, 1.0), (1.0, 1.0)]
        check_pareto_front(points, [0, 1])  # neither strictly dominates

    def test_production_pareto_front_satisfies_contract(self):
        points = [(float(i % 3), float(i % 5), float(-i)) for i in range(30)]
        with contracts(True):
            front = pareto_front(points)
        assert front  # and the decorated post-condition just ran


class TestExtractionSpans:
    def test_span_inside_block_passes(self):
        e = Extraction("t", "x", BBox(0, 0, 100, 20), BBox(10, 5, 30, 10), 1.0)
        check_extraction_spans([e])

    def test_span_escaping_block_raises(self):
        e = Extraction("t", "x", BBox(0, 0, 100, 20), BBox(90, 50, 30, 10), 1.0)
        with pytest.raises(ContractViolation, match="escapes block"):
            check_extraction_spans([e])


# ----------------------------------------------------------------------
# Full pipeline under contracts
# ----------------------------------------------------------------------
class TestPipelineUnderContracts:
    @pytest.mark.parametrize("dataset", ["D1", "D2", "D3"])
    def test_pipeline_runs_clean(self, request, dataset):
        from repro.core.pipeline import VS2Pipeline

        corpus = request.getfixturevalue(f"{dataset.lower()}_corpus")
        with contracts(True):
            result = VS2Pipeline(dataset).run(corpus[0])
        assert result.doc_id == corpus[0].doc_id
