"""Shared plumbing for extraction baselines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.formfields import find_descriptor_span
from repro.core.select import Extraction
from repro.datasets import FormFace, form_faces
from repro.doc import Document
from repro.doc.document import group_into_lines
from repro.doc.elements import TextElement
from repro.geometry import BBox, enclosing_bbox
from repro.nlp.fuzzy import normalize_for_match, similarity_ratio


@dataclass
class TextUnit:
    """A clause-like unit of the linear transcription.

    ``text`` is the single-space join of ``words``; span localisation
    maps character ranges of ``text`` back to word boxes.
    """

    words: List[TextElement]

    @property
    def text(self) -> str:
        return " ".join(w.text for w in self.words)

    @property
    def bbox(self) -> BBox:
        return enclosing_bbox([w.bbox for w in self.words])

    def span_bbox(self, start: int, end: int) -> BBox:
        """Box of the words overlapping character span [start, end)."""
        offset = 0
        covered: List[TextElement] = []
        for i, w in enumerate(self.words):
            if i > 0:
                offset += 1
            w_start, w_end = offset, offset + len(w.text)
            if w_start < end and w_end > start:
                covered.append(w)
            offset = w_end
        if not covered:
            return self.bbox
        return enclosing_bbox([w.bbox for w in covered])


def sentence_units(doc: Document) -> List[TextUnit]:
    """Sentence-like units of the page-linearised transcription.

    Lines accumulate until terminal punctuation — the clause unit the
    text-only extractors operate on.  Side-by-side layout areas
    interleave inside these units, the text-only failure mode of Fig. 3.
    """
    lines = group_into_lines(doc.text_elements)
    units: List[TextUnit] = []
    buffer: List[TextElement] = []
    for line in lines:
        buffer.extend(line)
        text = " ".join(w.text for w in line)
        if text.rstrip().endswith((".", "!", "?", ":")) or len(buffer) > 40:
            units.append(TextUnit(buffer))
            buffer = []
    if buffer:
        units.append(TextUnit(buffer))
    return units


def identify_face_from_text(doc: Document) -> Optional[FormFace]:
    """Detect the D1 form face from the transcription's title line."""
    lines = group_into_lines(doc.text_elements)[:6]
    best: Optional[Tuple[float, FormFace]] = None
    for line in lines:
        text = normalize_for_match(" ".join(w.text for w in line))
        if not text:
            continue
        for face in form_faces():
            title = normalize_for_match(face.title)
            ratio = similarity_ratio(text[: len(title) + 6], title)
            if best is None or ratio > best[0]:
                best = (ratio, face)
    if best is None or best[0] < 0.6:
        return None
    return best[1]


def descriptor_extractions(
    doc: Document,
    units: Sequence[TextUnit],
    min_ratio: float = 0.8,
) -> List[Extraction]:
    """D1 extraction over text units: find each field descriptor as a
    fuzzy word subsequence; the following words are the value.

    Localisation is the enclosure of the matched descriptor + value
    words, so a correct match localises to the form row even when the
    linearisation interleaved the two form columns.
    """
    face = identify_face_from_text(doc)
    if face is None:
        return []
    out: List[Extraction] = []
    for field in face.fields:
        found: Optional[Extraction] = None
        for unit in units:
            span = find_descriptor_span(unit.words, field.descriptor, min_ratio)
            if span is None:
                continue
            start_w, end_w, ratio = span
            value_ws = unit.words[end_w : end_w + 3]
            # The value ends at the next line-number-like token (the
            # neighbouring column's row begins there).
            value: List[TextElement] = []
            for w in value_ws:
                if value and w.text.isdigit() and len(w.text) <= 2:
                    break
                value.append(w)
            if not value:
                continue
            box = enclosing_bbox([w.bbox for w in unit.words[start_w:end_w] + value])
            found = Extraction(
                field.entity_type,
                " ".join(w.text for w in value),
                box,
                box,
                ratio,
            )
            break
        if found is not None:
            out.append(found)
    return out

