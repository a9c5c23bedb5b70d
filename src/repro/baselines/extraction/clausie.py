"""Baseline: ClausIE-style clause-based extraction [10].

ClausIE decomposes text into clauses and applies per-entity clause
rules.  It is purely textual: the input is the whole-page reading-order
transcription split at sentence punctuation, so side-by-side layout
areas interleave inside its clauses — the root cause of its Table 7 gap
to VS2 on visually rich corpora.  Per §6.4 it "does not apply for the
form field extraction task defined for dataset D1".
"""

from __future__ import annotations

from typing import List

from repro.baselines.extraction.base import sentence_units
from repro.core.patterns import CURATED_PATTERNS
from repro.core.select import Extraction
from repro.datasets import entity_vocabulary
from repro.doc import Document
from repro.nlp.tokenizer import normalize_text


class ClausIEExtractor:
    """Clause rules over the linear transcription; first match wins."""

    def __init__(self, dataset: str):
        self.dataset = dataset.upper()
        if self.dataset == "D1":
            raise ValueError("ClausIE does not apply to the D1 form-field task")
        self.patterns = {
            e: CURATED_PATTERNS[e] for e in entity_vocabulary(self.dataset)
        }

    def extract(self, doc: Document) -> List[Extraction]:
        """First clause-rule match per entity over the linearised text."""
        units = sentence_units(doc)
        out: List[Extraction] = []
        for entity_type, pattern in self.patterns.items():
            for unit in units:
                text = unit.text
                if not text.strip():
                    continue
                matches = pattern.find(normalize_text(text))
                if matches:
                    m = matches[0]
                    span = unit.span_bbox(m.start, m.end)
                    out.append(Extraction(entity_type, m.text, span, span, m.strength))
                    break
        return out
