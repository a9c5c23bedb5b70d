"""The page-level document object.

A :class:`Document` is the unit every stage of the pipeline consumes:
synthetic generators produce it, the OCR simulator transcribes it,
VS2-Segment partitions it and the evaluation harness scores predictions
against its ground-truth annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.colors import LabColor, rgb_to_lab
from repro.doc.annotations import Annotation
from repro.doc.elements import AtomicElement, ImageElement, TextElement
from repro.geometry import BBox

_WHITE = rgb_to_lab((250, 250, 250))

#: Source/format tags.  D2 mixes "mobile" captures with digital "pdf"
#: flyers (§6.1); D1 documents are scans; D3 documents are HTML.
SOURCE_KINDS = ("scan", "mobile", "pdf", "html")


@dataclass
class Document:
    """A single-page visually rich document.

    Attributes
    ----------
    doc_id:
        Stable identifier, unique within a corpus.
    width, height:
        Page extent in layout units (the synthetic corpora use a letter
        page at roughly 100 dpi: 850 × 1100).
    elements:
        The atomic elements (words and images) on the page.
    annotations:
        Ground-truth named entities; never consulted by extractors.
    source:
        One of :data:`SOURCE_KINDS`; drives the OCR noise model and
        baseline applicability (VIPS needs ``html``).
    dataset:
        ``"D1"``, ``"D2"`` or ``"D3"`` for corpus-level bookkeeping.
    html:
        The DOM root when the document has an HTML source, else ``None``.
        Typed as ``Any`` to avoid a circular import with ``repro.html``.
    background:
        Average page background colour.
    metadata:
        Free-form generator annotations (noise level, template id, ...).
    """

    doc_id: str
    width: float
    height: float
    elements: List[AtomicElement] = field(default_factory=list)
    annotations: List[Annotation] = field(default_factory=list)
    source: str = "pdf"
    dataset: str = ""
    html: Optional[Any] = None
    background: LabColor = _WHITE
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("page extent must be positive")
        if self.source not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.source!r}")

    # ------------------------------------------------------------------
    # Element access
    # ------------------------------------------------------------------
    @property
    def page_bbox(self) -> BBox:
        return BBox(0.0, 0.0, self.width, self.height)

    @property
    def text_elements(self) -> List[TextElement]:
        return [e for e in self.elements if isinstance(e, TextElement)]

    @property
    def image_elements(self) -> List[ImageElement]:
        return [e for e in self.elements if isinstance(e, ImageElement)]

    def elements_in(self, frame: BBox, min_overlap: float = 0.5) -> List[AtomicElement]:
        """Atomic elements whose boxes lie (mostly) inside ``frame``.

        The paper performs this *reverse lookup* to recover the atoms of
        a visual area (§4.2).  An element belongs to the frame when at
        least ``min_overlap`` of its own area is covered, which keeps
        elements straddling a separator from being double-counted.
        """
        found: List[AtomicElement] = []
        for element in self.elements:
            inter = element.bbox.intersection(frame)
            if inter is None or element.bbox.area <= 0:
                continue
            if inter.area / element.bbox.area >= min_overlap:
                found.append(element)
        return found

    def words_in(self, frame: BBox, min_overlap: float = 0.5) -> List[TextElement]:
        return [
            e for e in self.elements_in(frame, min_overlap) if isinstance(e, TextElement)
        ]

    def iter_words(self) -> Iterator[TextElement]:
        return iter(self.text_elements)

    # ------------------------------------------------------------------
    # Text access
    # ------------------------------------------------------------------
    def text_of(self, frame: BBox, min_overlap: float = 0.5) -> str:
        """Reading-order text of the words inside ``frame``.

        Words are linearised into lines (top-to-bottom) and left-to-right
        within a line — the natural reading order *within* a coherent
        area.  This is what VS2-Select transcribes per logical block.
        """
        words = self.words_in(frame, min_overlap)
        return join_in_reading_order(words)

    def full_text(self) -> str:
        """Naive whole-page reading order — the text-only view."""
        return join_in_reading_order(self.text_elements)

    # ------------------------------------------------------------------
    # Ground truth access (evaluation only)
    # ------------------------------------------------------------------
    def annotations_of(self, entity_type: str) -> List[Annotation]:
        return [a for a in self.annotations if a.entity_type == entity_type]

    def entity_types(self) -> List[str]:
        seen: Dict[str, None] = {}
        for a in self.annotations:
            seen.setdefault(a.entity_type, None)
        return list(seen)

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on problems.

        Generators call this before emitting a document: every element
        and annotation must lie on the page (after clipping slack for
        rotated mobile captures) and annotations must be non-empty.
        """
        frame = self.page_bbox.expand(max(self.width, self.height) * 0.25)
        for element in self.elements:
            if not frame.intersects(element.bbox):
                raise ValueError(f"element {element!r} lies off the page")
        for annotation in self.annotations:
            if not frame.intersects(annotation.bbox):
                raise ValueError(f"annotation {annotation!r} lies off the page")
            if not annotation.text:
                raise ValueError(f"annotation {annotation.entity_type} has empty text")


def group_into_lines(
    words: Sequence[TextElement], tolerance_ratio: float = 0.6
) -> List[List[TextElement]]:
    """Group words into text lines by vertical centroid proximity.

    Two words share a line when their vertical centroids differ by less
    than ``tolerance_ratio`` of the smaller word height.  Returns lines
    top-to-bottom, each sorted left-to-right.
    """
    if not words:
        return []
    ordered = sorted(words, key=lambda w: (w.bbox.centroid[1], w.bbox.x))
    lines: List[List[TextElement]] = [[ordered[0]]]
    for word in ordered[1:]:
        anchor = lines[-1][0]
        tolerance = tolerance_ratio * min(anchor.bbox.h, word.bbox.h)
        if abs(word.bbox.centroid[1] - anchor.bbox.centroid[1]) <= max(tolerance, 1.0):
            lines[-1].append(word)
        else:
            lines.append([word])
    for line in lines:
        line.sort(key=lambda w: w.bbox.x)
    return lines


def join_lines(lines: Sequence[Sequence[TextElement]]) -> str:
    """The text of grouped lines: words joined by spaces, lines by
    newlines."""
    return "\n".join(" ".join(w.text for w in line) for line in lines)


def join_in_reading_order(words: Sequence[TextElement]) -> str:
    """Linearise words line-by-line into a single string."""
    return join_lines(group_into_lines(words))
