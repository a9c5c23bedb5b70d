"""Dataset D1: structured tax forms (NIST Special Database 6 stand-in).

The real D1 holds 5595 scanned forms over 20 form faces from the 1988
IRS 1040 package, with 1369 labelled fields in total.  This generator
builds 20 deterministic form *faces* — fixed templates of labelled
field rows — totalling ~1369 fields, and renders per-document instances
with randomly filled values and mild scan jitter.

The IE task matches the paper's: for every form field, extract the
value text; field descriptors are matched by exact string comparison
against the holdout corpus (§5.2.1).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.colors import rgb_to_lab
from repro.datasets import form_faces
from repro.doc import Annotation, Document, ImageElement
from repro.geometry import BBox
from repro.synth.layout import TextStyle, layout_label_value, layout_line
from repro.synth.providers import FakeProvider

PAGE_W, PAGE_H = 850.0, 1100.0

_N_FACES = 20

def _value_for(kind: str, fake: FakeProvider) -> str:
    if kind == "money":
        return fake.money_amount()
    if kind == "ssn":
        return fake.ssn()
    if kind == "name":
        return fake.person_name(with_prefix_p=0.0)
    if kind == "date":
        return fake.date_phrase()
    if kind == "check":
        return "X"
    raise ValueError(f"unknown value kind {kind!r}")


class TaxFormGenerator:
    """Seeded generator of D1 form documents."""

    def __init__(self, seed: int = 0, fill_rate: float = 0.95):
        if not 0 < fill_rate <= 1:
            raise ValueError("fill_rate must be in (0, 1]")
        self.seed = seed
        self.fill_rate = fill_rate

    def generate(self, doc_id: str, index: int) -> Document:
        rng = np.random.default_rng((self.seed, index, 0xD1))
        fake = FakeProvider(rng)
        face = form_faces()[int(rng.integers(_N_FACES))]

        label_style = TextStyle(10.5, rgb_to_lab((50, 50, 50)))
        value_style = TextStyle(11.0, rgb_to_lab((10, 10, 60)), bold=False, font_family="mono")
        title_style = TextStyle(17.0, rgb_to_lab((20, 20, 20)), bold=True)

        elements: list = []
        annotations: List[Annotation] = []

        block, tbox = layout_line(face.title, 60, 50, title_style)
        elements += block
        block, _ = layout_line("Department of the Treasury - Internal Revenue Service 1988", 60, 78, TextStyle(9.0, rgb_to_lab((90, 90, 90))))
        elements += block
        elements.append(
            ImageElement("rule", BBox(60, 100, PAGE_W - 120, 3), rgb_to_lab((60, 60, 60)))
        )

        jitter = lambda: float(rng.uniform(-1.2, 1.2))  # noqa: E731 — scan jitter
        col_x = {0: 60.0, 1: 460.0}
        row_h = 26.0
        top = 130.0

        for field in face.fields:
            x = col_x[field.column] + jitter()
            y = top + field.row * row_h + jitter()
            if y > PAGE_H - 50:
                continue
            filled = bool(rng.random() < self.fill_rate)
            value = _value_for(field.value_kind, fake) if filled else ""
            label_elements, label_box = layout_line(field.descriptor, x, y, label_style)
            row_elements, row_box, value_box = layout_label_value(
                field.descriptor, value, x, y, label_box.w + 6.0, label_style, value_style
            )
            elements += row_elements
            if filled and value_box is not None:
                annotations.append(
                    Annotation(field.entity_type, value, row_box, field.descriptor)
                )

        doc = Document(
            doc_id=doc_id,
            width=PAGE_W,
            height=PAGE_H,
            elements=elements,
            annotations=annotations,
            source="scan",
            dataset="D1",
            metadata={"face": face.face_id, "noise": "medium"},
        )
        doc.validate()
        return doc
