"""Dataset D2: event posters and flyers.

The paper's D2 holds 2190 event documents — 1375 mobile captures and
815 digital PDFs — advertising local and national events, with five
annotated entity types (Table 3).  This generator reproduces the
distribution's key properties:

* ornate, heterogeneous layouts (several templates, randomised block
  order and spacing);
* visually salient entities: large-font titles, highlighted organizers;
* a "mobile" fraction (by default the paper's 1375/2190 ≈ 0.63) whose
  pages are rotated and flagged for heavy OCR noise;
* sparse text — posters are not verbose, which is why Eq. 2's weights
  put visual terms above textual ones for this corpus (§5.3.2).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.colors import rgb_to_lab
from repro.doc import Annotation, Document, ImageElement, TextElement
from repro.geometry import BBox
from repro.synth.layout import (
    TextStyle,
    layout_centered_line,
    layout_line,
    layout_paragraph,
)
from repro.synth.providers import FakeProvider

PAGE_W, PAGE_H = 850.0, 1100.0

_TITLE_COLORS = [(140, 20, 30), (20, 40, 130), (110, 30, 110), (20, 90, 40), (30, 30, 30)]
_ACCENT_COLORS = [(230, 190, 60), (80, 140, 200), (200, 120, 80), (120, 180, 120)]
_BODY_COLOR = (40, 40, 40)

_ORGANIZER_LEADS = ["Hosted by", "Presented by", "Organized by", "Brought to you by"]
_PLACE_LEADS = ["", "Venue:", "Location:", "At"]
_TIME_LEADS = ["", "When:", "Date & Time:"]


class PosterGenerator:
    """Seeded generator of D2 poster documents."""

    def __init__(self, seed: int = 0, mobile_fraction: float = 1375 / 2190):
        self.seed = seed
        self.mobile_fraction = mobile_fraction

    def generate(self, doc_id: str, index: int) -> Document:
        """One poster; deterministic in (seed, index)."""
        rng = np.random.default_rng((self.seed, index, 0xD2))
        fake = FakeProvider(rng)
        template = int(rng.integers(4))
        builder = [self._centered, self._two_column, self._banner, self._split][template]
        elements, annotations = builder(rng, fake)

        is_mobile = bool(rng.random() < self.mobile_fraction)
        if is_mobile:
            magnitude = float(rng.uniform(3.0, 10.0))
            sign = -1.0 if rng.random() < 0.5 else 1.0
            angle = sign * magnitude * math.pi / 180.0
            elements = [
                e.with_bbox(e.bbox.rotate(angle, PAGE_W / 2, PAGE_H / 2))
                if isinstance(e, TextElement)
                else ImageElement(e.image_data, e.bbox.rotate(angle, PAGE_W / 2, PAGE_H / 2), e.color)
                for e in elements
            ]
            annotations = [
                Annotation(a.entity_type, a.text, a.bbox.rotate(angle, PAGE_W / 2, PAGE_H / 2))
                for a in annotations
            ]

        doc = Document(
            doc_id=doc_id,
            width=PAGE_W,
            height=PAGE_H,
            elements=elements,
            annotations=annotations,
            source="mobile" if is_mobile else "pdf",
            dataset="D2",
            metadata={"template": template, "noise": "high" if is_mobile else "low"},
        )
        doc.validate()
        return doc

    # ------------------------------------------------------------------
    # Shared content blocks
    # ------------------------------------------------------------------
    def _styles(self, rng) -> Tuple[TextStyle, TextStyle, TextStyle, TextStyle]:
        title_color = rgb_to_lab(_TITLE_COLORS[int(rng.integers(len(_TITLE_COLORS)))])
        body = rgb_to_lab(_BODY_COLOR)
        title = TextStyle(float(rng.uniform(34, 52)), title_color, bold=True)
        heading = TextStyle(float(rng.uniform(20, 28)), body, bold=True)
        info = TextStyle(float(rng.uniform(15, 19)), body)
        small = TextStyle(float(rng.uniform(11, 13)), body)
        return title, heading, info, small

    def _title_block(
        self, fake: FakeProvider, style: TextStyle, center_x: float, y: float, max_width: float
    ) -> Tuple[List[TextElement], Annotation, float]:
        title = fake.event_title()
        elements, box = layout_paragraph(
            title, center_x - max_width / 2, y, max_width, style, align="center"
        )
        return elements, Annotation("event_title", title, box), box.y2

    def _organizer_block(
        self, rng, fake: FakeProvider, style: TextStyle, x: float, y: float, centered_on: Optional[float]
    ) -> Tuple[List[TextElement], Annotation, float]:
        lead = _ORGANIZER_LEADS[int(rng.integers(len(_ORGANIZER_LEADS)))]
        organizer = fake.organizer()
        text = f"{lead} {organizer}"
        if centered_on is not None:
            elements, box = layout_centered_line(text, centered_on, y, style)
        else:
            elements, box = layout_line(text, x, y, style)
        return elements, Annotation("event_organizer", organizer, box), box.y2

    def _time_block(
        self, rng, fake: FakeProvider, style: TextStyle, x: float, y: float, centered_on: Optional[float]
    ) -> Tuple[List[TextElement], Annotation, float]:
        lead = _TIME_LEADS[int(rng.integers(len(_TIME_LEADS)))]
        when = fake.event_time()
        text = f"{lead} {when}".strip()
        if centered_on is not None:
            elements, box = layout_centered_line(text, centered_on, y, style)
        else:
            elements, box = layout_paragraph(text, x, y, min(330.0, PAGE_W - x - 40), style)
        return elements, Annotation("event_time", when, box), box.y2

    def _place_block(
        self, rng, fake: FakeProvider, style: TextStyle, x: float, y: float,
        max_width: float, centered_on: Optional[float],
    ) -> Tuple[List[TextElement], Annotation, float]:
        lead = _PLACE_LEADS[int(rng.integers(len(_PLACE_LEADS)))]
        place = f"{fake.venue()}, {fake.full_address()}"
        text = f"{lead} {place}".strip()
        if centered_on is not None:
            elements, box = layout_paragraph(
                text, centered_on - max_width / 2, y, max_width, style, align="center"
            )
        else:
            elements, box = layout_paragraph(text, x, y, max_width, style)
        return elements, Annotation("event_place", place, box), box.y2

    _DESC_LEADS = (
        "Free admission all day!",
        "Live performances all evening!",
        "Doors open early!",
        "Join the celebration!",
    )

    def _description_block(
        self, rng, fake: FakeProvider, style: TextStyle, x: float, y: float, max_width: float
    ) -> Tuple[List[TextElement], Annotation, float]:
        elements: List[TextElement] = []
        top_y = y
        lead_box = None
        if rng.random() < 0.6:
            # An emphasised lead line opens the description area — same
            # semantics, different styling (the implicit-modifier case
            # semantic merging must repair, §5.1.2).
            lead = self._DESC_LEADS[int(rng.integers(len(self._DESC_LEADS)))]
            accent = rgb_to_lab(_TITLE_COLORS[int(rng.integers(len(_TITLE_COLORS)))])
            lead_style = TextStyle(style.font_size * 1.5, accent, bold=True)
            lead_elements, lead_box = layout_line(lead, x, y, lead_style)
            elements += lead_elements
            y = lead_box.y2 + float(rng.uniform(4, 8))
        description = fake.event_description(n_sentences=int(rng.integers(2, 4)))
        para_elements, box = layout_paragraph(description, x, y, max_width, style)
        elements += para_elements
        area = box if lead_box is None else lead_box.union(box)
        text = description if lead_box is None else f"{lead} {description}"
        return elements, Annotation("event_description", text, area), box.y2

    def _decoration(self, rng) -> ImageElement:
        color = rgb_to_lab(_ACCENT_COLORS[int(rng.integers(len(_ACCENT_COLORS)))])
        w = float(rng.uniform(120, 300))
        h = float(rng.uniform(60, 160))
        x = float(rng.uniform(60, PAGE_W - w - 60))
        y = float(rng.uniform(60, 180))
        return ImageElement("decorative-art", BBox(x, y, w, h), color)

    # ------------------------------------------------------------------
    # Templates
    # ------------------------------------------------------------------
    def _centered(self, rng, fake) -> Tuple[list, List[Annotation]]:
        title_style, heading, info, small = self._styles(rng)
        cx = PAGE_W / 2
        elements: list = []
        annotations: List[Annotation] = []
        y = float(rng.uniform(90, 170))

        if rng.random() < 0.5:
            art = self._decoration(rng)
            elements.append(art)
            y = max(y, art.bbox.y2 + 40)

        block, ann, y = self._title_block(fake, title_style, cx, y, 640)
        elements += block
        annotations.append(ann)
        tight = rng.random() < 0.4
        y += float(rng.uniform(4, 7)) if tight else float(rng.uniform(50, 90))

        block, ann, y = self._time_block(rng, fake, heading, 0, y, cx)
        elements += block
        annotations.append(ann)
        y += float(rng.uniform(40, 70))

        block, ann, y = self._place_block(rng, fake, info, 0, y, 560, cx)
        elements += block
        annotations.append(ann)
        y += float(rng.uniform(45, 80))

        block, ann, y = self._description_block(rng, fake, small, (PAGE_W - 560) / 2, y, 560)
        elements += block
        annotations.append(ann)
        y += float(rng.uniform(50, 90))

        block, ann, y = self._organizer_block(rng, fake, heading, 0, y, cx)
        elements += block
        annotations.append(ann)
        return elements, annotations

    def _two_column(self, rng, fake) -> Tuple[list, List[Annotation]]:
        title_style, heading, info, small = self._styles(rng)
        elements: list = []
        annotations: List[Annotation] = []
        y = float(rng.uniform(80, 140))

        block, ann, y = self._title_block(fake, title_style, PAGE_W / 2, y, 700)
        elements += block
        annotations.append(ann)
        top = y + float(rng.uniform(60, 100))

        left_x, left_w = 70.0, 330.0
        right_x, right_w = 470.0, 320.0

        y_left = top
        block, ann, y_left = self._description_block(rng, fake, small, left_x, y_left, left_w)
        elements += block
        annotations.append(ann)

        y_right = top
        block, ann, y_right = self._time_block(rng, fake, heading, right_x, y_right, None)
        elements += block
        annotations.append(ann)
        y_right += float(rng.uniform(40, 60))
        block, ann, y_right = self._place_block(rng, fake, info, right_x, y_right, right_w, None)
        elements += block
        annotations.append(ann)
        y_right += float(rng.uniform(40, 60))
        block, ann, y_right = self._organizer_block(rng, fake, heading, right_x, y_right, None)
        elements += block
        annotations.append(ann)
        return elements, annotations

    def _banner(self, rng, fake) -> Tuple[list, List[Annotation]]:
        title_style, heading, info, small = self._styles(rng)
        elements: list = []
        annotations: List[Annotation] = []
        banner_color = rgb_to_lab(_ACCENT_COLORS[int(rng.integers(len(_ACCENT_COLORS)))])
        banner_h = float(rng.uniform(180, 240))
        elements.append(ImageElement("banner", BBox(0, 0, PAGE_W, banner_h), banner_color))

        title_style = TextStyle(title_style.font_size, rgb_to_lab((250, 250, 250)), bold=True)
        block, ann, _ = self._title_block(fake, title_style, PAGE_W / 2, banner_h / 2 - title_style.font_size, 700)
        elements += block
        annotations.append(ann)

        y = banner_h + float(rng.uniform(60, 100))
        block, ann, y = self._time_block(rng, fake, heading, 80, y, None)
        elements += block
        annotations.append(ann)
        y += float(rng.uniform(40, 60))
        block, ann, y = self._place_block(rng, fake, info, 80, y, 420, None)
        elements += block
        annotations.append(ann)

        y2 = y + float(rng.uniform(60, 110))
        block, ann, y2 = self._description_block(rng, fake, small, 80, y2, 620)
        elements += block
        annotations.append(ann)

        y3 = y2 + float(rng.uniform(60, 100))
        block, ann, _ = self._organizer_block(rng, fake, heading, 80, y3, None)
        elements += block
        annotations.append(ann)
        return elements, annotations

    def _split(self, rng, fake) -> Tuple[list, List[Annotation]]:
        title_style, heading, info, small = self._styles(rng)
        elements: list = []
        annotations: List[Annotation] = []
        y = float(rng.uniform(90, 150))

        block, ann, y = self._title_block(fake, title_style, PAGE_W / 2, y, 680)
        elements += block
        annotations.append(ann)
        tight = rng.random() < 0.4
        y += float(rng.uniform(4, 7)) if tight else float(rng.uniform(70, 110))

        # Info cards side by side: time | place
        block, ann, y_a = self._time_block(rng, fake, info, 90, y, None)
        elements += block
        annotations.append(ann)
        block, ann, y_b = self._place_block(rng, fake, info, 460, y, 310, None)
        elements += block
        annotations.append(ann)
        y = max(y_a, y_b) + float(rng.uniform(60, 100))

        block, ann, y = self._organizer_block(rng, fake, heading, 0, y, PAGE_W / 2)
        elements += block
        annotations.append(ann)
        y += float(rng.uniform(60, 100))

        block, ann, y = self._description_block(rng, fake, small, 120, y, 610)
        elements += block
        annotations.append(ann)
        return elements, annotations
