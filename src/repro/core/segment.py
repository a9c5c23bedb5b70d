"""VS2-Segment: the hierarchical page segmentation driver (§5.1.2).

Each iteration of the recursion, on one visual area:

1. **Explicit delimiters** — scan for consecutive valid horizontal and
   vertical cut sets on the area's whitespace grid; Algorithm 1 decides
   which are true separators; the area splits into the bands between
   them (``kind="cut"`` children).
2. **Implicit modifiers** — if no delimiter exists, cluster the area's
   atoms on Table 1 features (``kind="cluster"`` children).
3. Recurse into children until areas stop splitting.

After convergence a **semantic merging** fixpoint (Eq. 1) repairs
over-segmentation.  The leaves of the resulting tree are the logical
blocks.  Merging reads node texts and vectors from the document's
:class:`~repro.core.textview.TextView`, which selection reuses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.contracts import (
    check_cut_sets_in_whitespace,
    check_layout_tree,
    checked,
    contracts_enabled,
)
from repro.core.clustering import cluster_elements
from repro.core.config import SegmentConfig
from repro.core.delimiters import identify_visual_delimiters
from repro.core.merging import semantic_merge
from repro.core.textview import TextView
from repro.doc import Document
from repro.doc.elements import AtomicElement
from repro.doc.layout_tree import LayoutNode, LayoutTree
from repro.embeddings import WordEmbedding
from repro.geometry import BBox, OccupancyGrid, enclosing_bbox
from repro.geometry.cuts import CutSet, interior_cut_sets
from repro.geometry.profiles import ProfileStore, RegionProfile
from repro.instrument import PipelineMetrics
from repro.resilience.faults import fault_site
from repro.trace import NULL_TRACER, Tracer


class VS2Segmenter:
    """Segments a document into its layout tree / logical blocks.

    ``metrics`` records the ``segment.cuts`` / ``segment.cluster`` /
    ``segment.merge`` sub-stages; the pipeline passes its own
    accumulator so they nest under its top-level ``segment`` timing.
    ``tracer`` receives the same sub-stages as spans plus the
    per-decision events (``cut.decision``, ``merge.decision``).
    """

    def __init__(
        self,
        config: Optional[SegmentConfig] = None,
        embedding: Optional[WordEmbedding] = None,
        metrics: Optional[PipelineMetrics] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config or SegmentConfig()
        self.embedding = embedding
        self.metrics = metrics if metrics is not None else PipelineMetrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Projection-profile store of the most recent :meth:`segment`
        #: call (``None`` before the first call or with ``fast_cuts``
        #: off); exposes window/rebuild counters for diagnostics.
        self.profiles: Optional[ProfileStore] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @checked(post=lambda tree, self, doc, **kw: check_layout_tree(tree))
    def segment(
        self,
        doc: Document,
        semantic_merging: Optional[bool] = None,
        view: Optional[TextView] = None,
    ) -> LayoutTree:
        """Build the layout tree of ``doc``.

        The input should be the *observed* document (OCR output view)
        when simulating the full pipeline, or the source document when
        studying segmentation in isolation.  ``semantic_merging``
        overrides ``config.use_semantic_merging`` for this call — the
        pipeline's degradation ladder uses it to retry a document
        visual-only after a semantic-merge failure.  ``view`` is the
        document's text view, shared with selection (merging builds a
        fresh one by default).
        """
        atoms = list(doc.elements)
        if atoms:
            root_box = enclosing_bbox([a.bbox for a in atoms]).union(doc.page_bbox)
        else:
            root_box = doc.page_bbox
        root = LayoutNode(bbox=root_box, atoms=atoms, kind="root")
        # One ProfileStore per segmentation: applies the child-window
        # memoisation contract and counts window reuses vs rebuilds.
        self.profiles = ProfileStore() if self.config.fast_cuts else None
        self._recurse(root, depth=0)
        tree = LayoutTree(root)
        if semantic_merging is None:
            semantic_merging = self.config.use_semantic_merging
        if semantic_merging:
            with self.metrics.stage("segment.merge"), self.tracer.span(
                "segment.merge"
            ):
                semantic_merge(
                    tree, self.config, self.embedding, tracer=self.tracer, view=view
                )
        return tree

    def logical_blocks(self, doc: Document) -> List[LayoutNode]:
        return self.segment(doc).logical_blocks()

    def block_bboxes(self, doc: Document) -> List[BBox]:  # exc: boundary - public API; faults propagate unless run supervised
        """Tight boxes of text-bearing logical blocks (the proposals
        Table 5 evaluates)."""
        boxes = []
        for block in self.logical_blocks(doc):
            if block.text_atoms:
                boxes.append(enclosing_bbox([a.bbox for a in block.text_atoms]))
        return boxes

    # ------------------------------------------------------------------
    # Recursion
    # ------------------------------------------------------------------
    def _recurse(
        self,
        node: LayoutNode,
        depth: int,
        parent_profile: Optional[RegionProfile] = None,
        parent_frame: Optional[BBox] = None,
    ) -> None:
        if depth >= self.config.max_depth:
            return
        if len(node.atoms) < self.config.min_atoms_to_split:
            return

        with self.metrics.stage("segment.cuts"), self.tracer.span(
            "segment.cuts", depth=depth
        ):
            fault_site("segment.cuts")
            groups, profile = self._split_by_cuts(node, parent_profile, parent_frame)
        kind = "cut"
        if groups is None and self.config.use_visual_clustering:
            with self.metrics.stage("segment.cluster"), self.tracer.span(
                "segment.cluster", depth=depth
            ) as sp:
                groups = self._split_by_clustering(node)
                sp.attrs["clusters"] = len(groups) if groups else 0
            kind = "cluster"
        if not groups or len(groups) < 2:
            return
        for group in groups:
            child = LayoutNode(
                bbox=enclosing_bbox([a.bbox for a in group]),
                atoms=list(group),
                kind=kind,
            )
            node.add_child(child)
        for child in node.children:
            if len(child.atoms) < len(node.atoms):
                self._recurse(child, depth + 1, profile, node.bbox)

    # ------------------------------------------------------------------
    # Explicit delimiters
    # ------------------------------------------------------------------
    def _split_by_cuts(
        self,
        node: LayoutNode,
        parent_profile: Optional[RegionProfile] = None,
        parent_frame: Optional[BBox] = None,
    ) -> Tuple[Optional[List[List[AtomicElement]]], Optional[RegionProfile]]:
        """Split the area at its accepted visual delimiters.

        Both orientations are scanned; the orientation holding the
        widest accepted delimiter wins this iteration (the other one is
        found again at the next recursion level).

        Returns ``(groups, profile)`` — the region's projection profile
        rides back up so the recursion can offer it to child regions
        (which window into it when the memoisation contract holds, see
        :mod:`repro.geometry.profiles`).  ``profile`` is ``None`` on
        the naive path (``config.fast_cuts`` off).
        """
        frame = node.bbox
        # Atom boxes rebased to the frame: the grid and every cut
        # position live in frame-local coordinates.
        local_boxes = [a.bbox.translate(-frame.x, -frame.y) for a in node.atoms]
        grid = OccupancyGrid.from_bboxes(
            local_boxes,
            max(frame.w, self.config.cell),
            max(frame.h, self.config.cell),
            self.config.cell,
        )
        profile = None
        if self.profiles is not None:
            profile = self.profiles.profile_for(grid, frame, parent_profile, parent_frame)
        text_boxes = [a.bbox.translate(-frame.x, -frame.y) for a in node.atoms if a.is_textual]
        ref_boxes = text_boxes or local_boxes

        h_sets = interior_cut_sets(grid, "horizontal", profile=profile)
        v_sets = interior_cut_sets(grid, "vertical", profile=profile)
        if contracts_enabled():
            check_cut_sets_in_whitespace(grid, h_sets + v_sets)
        horizontal = identify_visual_delimiters(
            h_sets, ref_boxes, self.config.min_h_gap_ratio,
            tracer=self.tracer, orientation="horizontal",
        )
        vertical = identify_visual_delimiters(
            v_sets, ref_boxes, self.config.min_v_gap_ratio,
            tracer=self.tracer, orientation="vertical",
        )
        if not horizontal and not vertical:
            return None, profile

        best_h = max((s.span_units for s in horizontal), default=0.0)
        best_v = max((s.span_units for s in vertical), default=0.0)
        if best_h >= best_v:
            orientation, separators = "horizontal", horizontal
        else:
            orientation, separators = "vertical", vertical

        groups = self._partition_by_separators(node.atoms, frame, separators, orientation)
        if groups is not None and len(groups) < 2:
            return None, profile
        return groups, profile

    @staticmethod
    def _partition_by_separators(
        atoms: Sequence[AtomicElement],
        frame: BBox,
        separators: Sequence[CutSet],
        orientation: str,
    ) -> Optional[List[List[AtomicElement]]]:
        """Assign atoms to the bands between separator centre lines.

        The band index of an atom is how many centre lines lie above
        (left of) its centroid — evaluated as one vectorised
        comparison against the hoisted ``mid + slope·t`` line values
        (bitwise the same predicate as :meth:`CutSet.line_value_at`
        per atom, just not recomputed per pair).
        """
        if not separators:
            return None
        lines = sorted(separators, key=lambda s: s.mid_units)
        mids = np.array([line.mid_units for line in lines])
        slopes = np.array([line.slope for line in lines])
        centroids = np.array([a.bbox.centroid for a in atoms])
        if orientation == "horizontal":
            coordinate = centroids[:, 1] - frame.y
            crossing = centroids[:, 0] - frame.x
        else:
            coordinate = centroids[:, 0] - frame.x
            crossing = centroids[:, 1] - frame.y
        bands = (
            coordinate[:, None] > mids[None, :] + slopes[None, :] * crossing[:, None]
        ).sum(axis=1)

        groups: dict = {}
        for atom, band in zip(atoms, bands):
            groups.setdefault(int(band), []).append(atom)
        ordered = [groups[k] for k in sorted(groups)]
        return [g for g in ordered if g]

    # ------------------------------------------------------------------
    # Implicit modifiers
    # ------------------------------------------------------------------
    def _split_by_clustering(self, node: LayoutNode) -> Optional[List[List[AtomicElement]]]:
        clusters = cluster_elements(
            node.atoms, node.bbox, font_type_weight=self.config.font_type_weight
        )
        if len(clusters) < 2:
            return None
        return clusters
