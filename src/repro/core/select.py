"""VS2-Select: search-and-select over logical blocks (§5.2, §5.3).

For every named entity, its lexico-syntactic pattern is searched within
the transcription of each logical block.  A single match is taken as
is; multiple matches go through entity disambiguation — multimodal
(Eq. 2 against interest points, the default), text-only Lesk, or none
(first match), the latter two existing for the Table 9 ablations.

Dataset D1 takes the descriptor path: the form face is identified from
the form title, then each field descriptor is (fuzzily, to absorb OCR
noise) matched as a block-text prefix and the remainder of the block is
the field value.

Every block transcription, its reading-order lines, its pattern
analysis and its Eq. 2 vector come from the document's
:class:`~repro.core.textview.TextView`, so each is derived once per
document however many entities, patterns and interest points read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SelectConfig
from repro.core.disambiguate import Eq2Weights, distance_to_interest_points
from repro.core.interest_points import select_interest_points
from repro.core.patterns import CURATED_PATTERNS, PatternMatch, SyntacticPattern
from repro.core.textview import TextView, text_view
from repro.doc import Document
from repro.doc.layout_tree import LayoutNode
from repro.embeddings import WordEmbedding, default_embedding
from repro.geometry import BBox, enclosing_bbox
from repro.nlp.fuzzy import normalize_for_match, ocr_fold, similarity_ratio
from repro.nlp.lesk import LeskCandidate, lesk_select
from repro.analysis.contracts import check_extraction_spans, checked
from repro.datasets import entity_vocabulary, form_faces
from repro.instrument import PipelineMetrics
from repro.resilience.faults import fault_site
from repro.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class Extraction:
    """One extracted key-value pair.

    ``bbox`` is the logical block's box (the localisation the two-phase
    evaluation scores); ``span_bbox`` the tight box of the matched
    words within it.
    """

    entity_type: str
    text: str
    bbox: BBox
    span_bbox: BBox
    score: float


def span_bbox_of(
    block: LayoutNode, start: int, end: int, view: Optional[TextView] = None
) -> BBox:
    """Box of the words covering character span [start, end) of the
    block's reading-order transcription."""
    offset = 0
    covered = []
    for line_index, line in enumerate(text_view(view).lines(block)):
        if line_index > 0:
            offset += 1  # newline
        for word_index, word in enumerate(line):
            if word_index > 0:
                offset += 1  # space
            w_start, w_end = offset, offset + len(word.text)
            if w_start < end and w_end > start:
                covered.append(word)
            offset = w_end
    if not covered:
        return block.bbox
    return enclosing_bbox([w.bbox for w in covered])


@dataclass
class Candidate:
    block: LayoutNode
    match: PatternMatch
    block_index: int


class VS2Selector:
    """Distantly supervised search-and-select."""

    def __init__(
        self,
        dataset: str,
        config: Optional[SelectConfig] = None,
        patterns: Optional[Dict[str, SyntacticPattern]] = None,
        embedding: Optional[WordEmbedding] = None,
        metrics: Optional[PipelineMetrics] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.dataset = dataset.upper()
        self.config = config or SelectConfig()
        self.embedding = embedding or default_embedding()
        self.metrics = metrics if metrics is not None else PipelineMetrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if patterns is not None:
            self.patterns = patterns
        elif self.dataset in ("D2", "D3"):
            vocab = entity_vocabulary(self.dataset)
            self.patterns = {e: CURATED_PATTERNS[e] for e in vocab}
        else:
            self.patterns = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    @checked(post=lambda result, self, doc, blocks, **kw: check_extraction_spans(result))
    def extract(
        self,
        doc: Document,
        blocks: Sequence[LayoutNode],
        view: Optional[TextView] = None,
    ) -> List[Extraction]:
        """Search each entity's pattern over the logical blocks and pick
        one match per entity (disambiguating when several fire).
        ``view`` is the document's text view (a fresh one by default)."""
        fault_site("select.match")
        view = text_view(view, self.embedding)
        if self.dataset == "D1":
            if self.tracer.enabled:
                # The descriptor path never consults interest points;
                # compute the Pareto front anyway (trace-only) so an
                # explain report shows the §5.3.1 objectives on every
                # dataset.  Guarded on `enabled`, so the tracing-off
                # path pays nothing.
                select_interest_points(blocks, self.embedding, tracer=self.tracer)
            with self.metrics.stage("select.form_fields") as t, self.tracer.span(
                "select.form_fields"
            ):
                out = self._extract_form_fields(doc, blocks, view)
                t.items = len(out)
            return out
        extractions: List[Extraction] = []
        interest_points = select_interest_points(
            blocks, self.embedding, tracer=self.tracer
        )
        page_diag = float(np.hypot(doc.width, doc.height))
        weights = Eq2Weights.from_tuple(
            self.config.eq2_weights.get(self.dataset, (0.25, 0.25, 0.25, 0.25))
        )
        for entity_type, pattern in self.patterns.items():
            with self.metrics.stage("select.search") as t, self.tracer.span(
                "select.search", entity=entity_type
            ):
                candidates = self._find_candidates(blocks, pattern, view)
                t.items = len(candidates)
            with self.metrics.stage("select.disambiguate"), self.tracer.span(
                "select.disambiguate", entity=entity_type
            ):
                chosen = self._choose(
                    candidates, entity_type, interest_points, weights, page_diag, view
                )
            if self.tracer.enabled:
                self.tracer.event(
                    "select.decision",
                    entity=entity_type,
                    candidates=len(candidates),
                    matched=chosen is not None,
                    block=chosen.block_index if chosen is not None else None,
                    text=chosen.match.text if chosen is not None else "",
                )
            if chosen is not None:
                extractions.append(
                    Extraction(
                        entity_type=entity_type,
                        text=chosen.match.text,
                        bbox=chosen.block.bbox,
                        span_bbox=span_bbox_of(
                            chosen.block, chosen.match.start, chosen.match.end, view
                        ),
                        score=chosen.match.strength,
                    )
                )
        return extractions

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _find_candidates(
        self, blocks: Sequence[LayoutNode], pattern: SyntacticPattern, view: TextView
    ) -> List[Candidate]:
        candidates: List[Candidate] = []
        for index, block in enumerate(blocks):
            if not block.text_atoms:
                continue
            for match in pattern.find(view.block_text(block), view):
                candidates.append(Candidate(block, match, index))
        return candidates

    # ------------------------------------------------------------------
    # Select
    # ------------------------------------------------------------------
    def _choose(
        self,
        candidates: List[Candidate],
        entity_type: str,
        interest_points: Sequence[LayoutNode],
        weights: Eq2Weights,
        page_diag: float,
        view: TextView,
    ) -> Optional[Candidate]:
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        mode = self.config.disambiguation
        if mode == "none":
            return candidates[0]
        if mode == "lesk":
            lesk_candidates = [
                LeskCandidate(c.match.text, view.block_text(c.block)) for c in candidates
            ]
            return candidates[lesk_select(lesk_candidates, entity_type)]
        if mode != "multimodal":
            raise ValueError(f"unknown disambiguation mode {mode!r}")
        scored: List[Tuple[float, int]] = []
        for i, c in enumerate(candidates):
            distance = distance_to_interest_points(
                c.block, interest_points, weights, page_diag, view=view
            )
            # Primary key: Eq. 2 proximity to an interest point; the
            # pattern's own confidence discounts it so a weak match in
            # a salient block cannot beat a strong match nearby.
            scored.append((distance - 0.6 * c.match.strength, i))
        scored.sort()
        return candidates[scored[0][1]]

    # ------------------------------------------------------------------
    # D1: descriptor path
    # ------------------------------------------------------------------
    def _extract_form_fields(
        self, doc: Document, blocks: Sequence[LayoutNode], view: TextView
    ) -> List[Extraction]:
        face = self._identify_face(blocks, view)
        if face is None:
            return []
        extractions: List[Extraction] = []
        # A form row block starts with the field's line number; an
        # OCR-folded first-token index prunes the descriptor x block
        # matching from quadratic to near-linear.
        from repro.core.formfields import find_descriptor_span

        by_first_token: Dict[str, List[Tuple[LayoutNode, list]]] = {}
        for b in blocks:
            if not b.text_atoms:
                continue
            words = [w for line in view.lines(b) for w in line]
            by_first_token.setdefault(ocr_fold(words[0].text), []).append((b, words))
        for field in face.fields:
            first = ocr_fold(normalize_for_match(field.descriptor).split()[0])
            best: Optional[Tuple[float, LayoutNode, list, int]] = None
            for b, words in by_first_token.get(first, []):
                span = find_descriptor_span(words, field.descriptor, min_ratio=0.8)
                if span is None:
                    continue
                _, end_w, ratio = span
                value_words = words[end_w:]
                if not value_words:
                    continue
                if best is None or ratio > best[0]:
                    best = (ratio, b, value_words, end_w)
            if self.tracer.enabled:
                self.tracer.event(
                    "select.decision",
                    entity=field.entity_type,
                    candidates=len(by_first_token.get(first, [])),
                    matched=best is not None,
                    block=None,
                    text=" ".join(w.text for w in best[2]) if best else "",
                )
            if best is None:
                continue
            ratio, block, value_words, _ = best
            extractions.append(
                Extraction(
                    entity_type=field.entity_type,
                    text=" ".join(w.text for w in value_words),
                    bbox=block.bbox,
                    span_bbox=enclosing_bbox([w.bbox for w in value_words]),
                    score=ratio,
                )
            )
        return extractions

    def _identify_face(self, blocks: Sequence[LayoutNode], view: TextView):
        """Match the form-title block against the 20 known face titles."""
        faces = form_faces()
        best: Optional[Tuple[float, object]] = None
        for block in blocks[:12]:  # titles live near the top of the page
            text = normalize_for_match(view.block_text(block))
            if not text:
                continue
            for face in faces:
                title = normalize_for_match(face.title)
                ratio = similarity_ratio(text[: len(title) + 6], title)
                if best is None or ratio > best[0]:
                    best = (ratio, face)
        if best is None or best[0] < 0.6:
            return None
        return best[1]
