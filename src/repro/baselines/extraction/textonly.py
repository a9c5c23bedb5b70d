"""The text-only baseline of Tables 6 and 8.

"Using Tesseract to segment the input document, it searches for
syntactic patterns within the text transcribed from each segmented
area.  Entity disambiguation is performed using Lesk [3]" (§6.4).

It shares VS2's pattern library but differs in exactly the two places
the paper ablates: segmentation comes from Tesseract's layout analysis
(no visual-feature clustering, no semantic merging) and conflicts are
resolved by text-only Lesk rather than the multimodal Eq. 2.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.extraction.base import TextUnit, descriptor_extractions
from repro.core.patterns import CURATED_PATTERNS, SyntacticPattern
from repro.core.select import Extraction
from repro.datasets import entity_vocabulary
from repro.doc import Document
from repro.doc.document import group_into_lines
from repro.geometry import BBox
from repro.nlp.lesk import LeskCandidate, lesk_select
from repro.nlp.tokenizer import normalize_text
from repro.ocr.layout_analysis import tesseract_blocks


class TextOnlyExtractor:
    """Tesseract blocks + Tables 3/4 patterns + Lesk disambiguation."""

    def __init__(self, dataset: str, patterns: Optional[Dict[str, SyntacticPattern]] = None):
        self.dataset = dataset.upper()
        if patterns is not None:
            self.patterns = patterns
        elif self.dataset in ("D2", "D3"):
            self.patterns = {e: CURATED_PATTERNS[e] for e in entity_vocabulary(self.dataset)}
        else:
            self.patterns = {}

    def extract(self, doc: Document) -> List[Extraction]:
        """``doc`` is the observed (OCR) view, as for VS2."""
        blocks = tesseract_blocks(doc)
        if self.dataset == "D1":
            units = []
            for b in blocks:
                words = [w for line in group_into_lines(doc.words_in(b)) for w in line]
                if words:
                    units.append(TextUnit(words))
            return descriptor_extractions(doc, units)
        out: List[Extraction] = []
        block_texts = [(b, normalize_text(doc.text_of(b))) for b in blocks]
        for entity_type, pattern in self.patterns.items():
            candidates: List[tuple] = []
            for box, text in block_texts:
                if not text:
                    continue
                for match in pattern.find(text):
                    candidates.append((box, text, match))
            if not candidates:
                continue
            if len(candidates) == 1:
                choice = candidates[0]
            else:
                lesk_candidates = [
                    LeskCandidate(m.text, text) for _, text, m in candidates
                ]
                choice = candidates[lesk_select(lesk_candidates, entity_type)]
            box, _text, match = choice
            out.append(Extraction(entity_type, match.text, box, box, match.strength))
        return out
