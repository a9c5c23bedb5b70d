"""Extending VS2 to a new extraction task (the paper's P1.2 claim).

§1 requires "robustness i.e., flexibility to be extended for different
extraction tasks".  This script defines a *new* named entity — the
ticket price on event posters — as a custom syntactic pattern, plugs it
into VS2-Select alongside the stock vocabulary, and extracts it without
touching library code.

It also demonstrates the second extension axis: swapping the curated
patterns for patterns *mined from a holdout corpus* (distant
supervision), as §5.2.1 describes.

Run:  python examples/custom_extraction_task.py
"""

import re
from typing import List

from repro.core import VS2Segmenter, VS2Selector
from repro.core.holdout import build_holdout_corpus
from repro.core.patterns import (
    CURATED_PATTERNS,
    PatternMatch,
    SyntacticPattern,
    TextAnalysis,
    learn_patterns_from_holdout,
)
from repro.doc import Annotation, Document, TextElement
from repro.geometry import BBox
from repro.ocr import OcrEngine, deskew
from repro.synth import generate_corpus
from repro.synth.layout import TextStyle, layout_line

PRICE_RE = re.compile(r"(?:\$\s?\d+(?:\.\d{2})?|free admission|free entry)", re.I)


def match_price(block: TextAnalysis) -> List[PatternMatch]:
    return [
        PatternMatch(m.group(0), m.start(), m.end(), 0.9)
        for m in PRICE_RE.finditer(block.text)
    ]


def poster_with_price(seed: int = 5) -> Document:
    doc = generate_corpus("D2", n=1, seed=seed)[0]
    style = TextStyle(18.0)
    elements, box = layout_line("Tickets: $15 at the door", 80, doc.height - 80, style)
    doc.elements.extend(elements)
    doc.annotations.append(Annotation("ticket_price", "$15", box))
    return doc


def main() -> None:
    doc = poster_with_price()
    engine = OcrEngine(seed=7)
    observed, _ = deskew(engine.transcribe(doc).as_document(doc))

    # --- extension 1: add a brand-new entity to the vocabulary --------
    patterns = {e: CURATED_PATTERNS[e] for e in (
        "event_title", "event_time", "event_place", "event_organizer", "event_description",
    )}
    patterns["ticket_price"] = SyntacticPattern("price-regex", match_price, "chunk")

    segmenter = VS2Segmenter()
    blocks = segmenter.segment(observed).logical_blocks()
    selector = VS2Selector("D2", patterns=patterns)
    extracted = {e.entity_type: e.text for e in selector.extract(observed, blocks)}
    print("custom vocabulary extraction:")
    for key in sorted(extracted):
        print(f"   {key:18s} -> {extracted[key][:56]!r}")
    assert "ticket_price" in extracted, "custom entity not extracted"

    # --- extension 2: mined patterns instead of curated ones ----------
    print("\nmining patterns from the holdout corpus (distant supervision)...")
    holdout = build_holdout_corpus("D2", max_entries_per_entity=16)
    mined = learn_patterns_from_holdout(holdout)
    mined_selector = VS2Selector("D2", patterns={"event_time": mined["event_time"]})
    mined_out = mined_selector.extract(observed, blocks)
    for e in mined_out:
        print(f"   mined {e.entity_type:12s} -> {e.text[:56]!r}")


if __name__ == "__main__":
    main()
