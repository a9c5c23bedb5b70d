"""The simulated OCR engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.doc import Document
from repro.doc.document import group_into_lines, join_in_reading_order
from repro.doc.elements import TextElement
from repro.geometry import BBox
from repro.ocr.noise import corrupt_word
from repro.resilience.faults import fault_site


def _stable_hash(text: str) -> int:
    """Process-independent 31-bit hash (``hash()`` is randomised)."""
    import zlib

    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


@dataclass(frozen=True)
class NoiseProfile:
    """Noise parameters of one transcription condition."""

    char_p: float  # per-character confusion probability
    case_p: float  # per-character case-flip probability
    drop_p: float  # per-word drop probability
    split_p: float  # per-word split probability
    merge_p: float  # per-adjacent-pair merge probability
    jitter: float  # bbox jitter in layout units

    @staticmethod
    def for_source(source: str) -> "NoiseProfile":
        """Profile by document source kind.

        ``mobile`` captures are the paper's low-quality transcriptions;
        ``html`` documents transcribe essentially losslessly (their text
        comes from markup, not pixels).
        """
        if source == "mobile":
            return NoiseProfile(0.06, 0.02, 0.04, 0.02, 0.02, 1.2)
        if source == "scan":
            return NoiseProfile(0.02, 0.005, 0.01, 0.01, 0.01, 0.8)
        if source == "pdf":
            return NoiseProfile(0.005, 0.001, 0.002, 0.002, 0.002, 0.3)
        if source == "html":
            return NoiseProfile(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        raise ValueError(f"unknown source kind {source!r}")


@dataclass
class OcrResult:
    """The transcription of one document.

    ``words`` are :class:`TextElement` objects carrying the *noisy*
    text and jittered boxes — what a downstream pipeline actually sees.
    """

    doc_id: str
    width: float
    height: float
    words: List[TextElement]
    source: str

    def full_text(self) -> str:
        """Whole-page reading-order linearisation.

        Lines are formed across the entire page, so side-by-side
        columns interleave — the context destruction Fig. 3 shows.
        """
        return join_in_reading_order(self.words)

    def text_in(self, frame: BBox, min_overlap: float = 0.5) -> str:
        """Reading-order text of the OCR words inside ``frame``."""
        inside = []
        for w in self.words:
            inter = w.bbox.intersection(frame)
            if inter is not None and w.bbox.area > 0 and inter.area / w.bbox.area >= min_overlap:
                inside.append(w)
        return join_in_reading_order(inside)

    def as_document(self, original: Document) -> Document:
        """The *observed* document: OCR words as elements, original
        images kept (a layout analyser sees them as ink), **no ground
        truth** — extraction pipelines must run on this view."""
        return Document(
            doc_id=self.doc_id,
            width=self.width,
            height=self.height,
            elements=list(self.words) + list(original.image_elements),
            annotations=[],
            source=original.source,
            dataset=original.dataset,
            html=original.html,
            background=original.background,
            metadata=dict(original.metadata),
        )


class OcrEngine:
    """Word-level OCR simulation.

    Deterministic given ``seed`` and the document id, so a corpus
    transcribes identically across runs.
    """

    def __init__(self, seed: int = 0, profiles: Optional[Dict[str, NoiseProfile]] = None):
        self.seed = seed
        self.profiles = profiles or {}

    def profile_for(self, doc: Document) -> NoiseProfile:
        """The noise profile for this document (override or per-source)."""
        if doc.source in self.profiles:
            return self.profiles[doc.source]
        return NoiseProfile.for_source(doc.source)

    def transcribe(self, doc: Document) -> OcrResult:
        """Transcribe one document under its source's noise profile."""
        fault = fault_site("ocr.transcribe")
        rng = np.random.default_rng((self.seed, _stable_hash(doc.doc_id)))
        profile = self.profile_for(doc)
        words: List[TextElement] = []

        lines = group_into_lines(doc.text_elements)
        for line in lines:
            i = 0
            while i < len(line):
                element = line[i]
                if rng.random() < profile.drop_p:
                    i += 1
                    continue
                # merge with the next word on the line
                if (
                    i + 1 < len(line)
                    and rng.random() < profile.merge_p
                    and line[i + 1].bbox.x - element.bbox.x2 < element.font_size
                ):
                    nxt = line[i + 1]
                    merged_text = element.text + nxt.text
                    merged_box = element.bbox.union(nxt.bbox)
                    element = element.with_text(merged_text).with_bbox(merged_box)
                    i += 2
                else:
                    i += 1
                for piece in self._split_maybe(element, rng, profile):
                    noisy = corrupt_word(piece.text, rng, profile.char_p, profile.case_p)
                    box = self._jitter_box(piece.bbox, rng, profile.jitter, doc)
                    words.append(piece.with_text(noisy).with_bbox(box))
        if fault is not None and fault.kind == "corrupt":
            words = fault.corrupt_words(words)
        return OcrResult(doc.doc_id, doc.width, doc.height, words, doc.source)

    @staticmethod
    def _split_maybe(
        element: TextElement, rng: np.random.Generator, profile: NoiseProfile
    ) -> List[TextElement]:
        text = element.text
        if len(text) < 4 or rng.random() >= profile.split_p:
            return [element]
        cut = int(rng.integers(2, len(text) - 1))
        frac = cut / len(text)
        left, right = element.bbox.hsplit(frac, gap=1.0)
        return [
            element.with_text(text[:cut]).with_bbox(left),
            element.with_text(text[cut:]).with_bbox(right),
        ]

    @staticmethod
    def _jitter_box(
        box: BBox, rng: np.random.Generator, jitter: float, doc: Document
    ) -> BBox:
        if jitter <= 0:
            return box
        dx = float(rng.uniform(-jitter, jitter))
        dy = float(rng.uniform(-jitter, jitter))
        dw = float(rng.uniform(-jitter, jitter))
        dh = float(rng.uniform(-jitter / 2, jitter / 2))
        return BBox(
            min(max(box.x + dx, -doc.width * 0.2), doc.width * 1.2),
            min(max(box.y + dy, -doc.height * 0.2), doc.height * 1.2),
            max(box.w + dw, 1.0),
            max(box.h + dh, 1.0),
        )
