"""Dataset D3: commercial real-estate flyers (HTML).

The paper's D3 holds 1200 online flyers from 20 broker websites, all in
HTML, with six annotated entity types (Table 4).  The generator builds
each flyer's layout and, in parallel, a DOM tree whose block nodes know
their rendered boxes — feeding both the image-based pipeline and the
HTML-only baselines (VIPS, Zhou et al.).

Key distributional properties preserved: a visually dominant broker
contact block (why Broker Name gains the most from visual features,
Table 8); phone/email appearing exactly once per flyer (why regex
baselines nearly tie there); balanced text/visual richness (Eq. 2's
balanced weights for D3).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.colors import rgb_to_lab
from repro.doc import Annotation, Document, ImageElement
from repro.geometry import BBox
from repro.html import HtmlNode, el
from repro.synth.layout import TextStyle, layout_line, layout_paragraph
from repro.synth.providers import FakeProvider

PAGE_W, PAGE_H = 850.0, 1100.0

_BRAND_COLORS = [(20, 60, 120), (120, 30, 30), (30, 90, 50), (90, 60, 20)]
_BODY = (45, 45, 45)

#: 20 broker "websites" — each flyer belongs to one, biasing its styling.
BROKER_SITES = [f"broker{i:02d}.example.com" for i in range(20)]


class FlyerGenerator:
    """Seeded generator of D3 real-estate flyers (layout + DOM)."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def generate(self, doc_id: str, index: int) -> Document:
        """One flyer with its parallel DOM; deterministic in (seed, index)."""
        rng = np.random.default_rng((self.seed, index, 0xD3))
        fake = FakeProvider(rng)
        site = BROKER_SITES[int(rng.integers(len(BROKER_SITES)))]
        brand = rgb_to_lab(_BRAND_COLORS[int(rng.integers(len(_BRAND_COLORS)))])
        body_color = rgb_to_lab(_BODY)

        headline_style = TextStyle(float(rng.uniform(26, 36)), brand, bold=True)
        section_style = TextStyle(float(rng.uniform(17, 21)), brand, bold=True)
        info_style = TextStyle(float(rng.uniform(13, 16)), body_color)
        small_style = TextStyle(float(rng.uniform(11, 13)), body_color)

        elements: list = []
        annotations: List[Annotation] = []
        dom_body = el("body")
        y = float(rng.uniform(60, 100))

        # --- headline: tagline or the address itself ------------------
        address = fake.full_address()
        tagline = f"{fake.property_type().title()} For {'Sale' if rng.random() < 0.7 else 'Lease'}"
        headline = tagline if rng.random() < 0.6 else address
        block, box = layout_paragraph(headline, 70, y, 700, headline_style)
        elements += block
        dom_body.append(_dom_block("h1", headline, box, class_="headline"))
        if headline is address:
            annotations.append(Annotation("property_address", address, box))
        y = box.y2 + float(rng.uniform(40, 70))

        # --- photo ----------------------------------------------------
        photo_h = float(rng.uniform(200, 300))
        photo = ImageElement(
            "property-photo",
            BBox(70, y, float(rng.uniform(380, 520)), photo_h),
            rgb_to_lab((150, 160, 170)),
        )
        elements.append(photo)
        dom_body.append(HtmlNode("img", {"src": "photo.jpg", "class": "photo"}, bbox=photo.bbox))

        # --- attributes beside photo -----------------------------------
        attr_x = photo.bbox.x2 + float(rng.uniform(40, 70))
        tight = rng.random() < 0.5
        # Tight flyers push the attribute column down the photo's flank
        # so no axis-aligned whitespace band separates it from the
        # description that hugs the photo bottom (§6.3's xy-cut gap).
        attr_y = y + (photo_h * 0.45 if tight else float(rng.uniform(0, 30)))
        attrs_dom = el("ul", class_="attributes")
        if headline is not address:
            block, box = layout_paragraph(address, attr_x, attr_y, PAGE_W - attr_x - 50, info_style)
            elements += block
            annotations.append(Annotation("property_address", address, box))
            attrs_dom.append(_dom_block("li", address, box, class_="address"))
            attr_y = box.y2 + float(rng.uniform(22, 34))
        attr_style = section_style if tight else info_style
        attr_gap = (26.0, 38.0) if tight else (18.0, 30.0)
        size = fake.property_size()
        block, box = layout_line(size, attr_x, attr_y, attr_style)
        elements += block
        annotations.append(Annotation("property_size", size, box))
        attrs_dom.append(_dom_block("li", size, box, class_="size"))
        attr_y = box.y2 + float(rng.uniform(*attr_gap))
        price = fake.property_price()
        block, box = layout_line(price, attr_x, attr_y, section_style)
        elements += block
        attrs_dom.append(_dom_block("li", price, box, class_="price"))
        dom_body.append(attrs_dom)

        if tight:
            y = max(photo.bbox.y2, box.y2) + float(rng.uniform(4, 7))
        else:
            y = max(photo.bbox.y2, box.y2) + float(rng.uniform(50, 80))

        # --- description (emphasised lead + body, one logical area) ----
        lead_line = fake.choice(
            [
                "Prime retail opportunity!",
                "Spacious office space available!",
                "Newly renovated commercial building!",
                "Prime commercial property listing!",
            ]
        )
        block, lead_box = layout_line(lead_line, 70, y, section_style)
        elements += block
        y = lead_box.y2 + float(rng.uniform(4, 8))
        description = fake.property_description(n_sentences=int(rng.integers(2, 5)))
        block, box = layout_paragraph(description, 70, y, 640, small_style)
        elements += block
        annotations.append(
            Annotation("property_description", f"{lead_line} {description}", lead_box.union(box))
        )
        section = el("div", class_="details")
        section.append(_dom_block("h2", lead_line, lead_box))
        section.append(_dom_block("p", description, box, class_="description"))
        dom_body.append(section)
        y = box.y2 + float(rng.uniform(60, 110))

        # --- broker contact block (visually dominant) -------------------
        name = fake.person_name(with_prefix_p=0.1)
        phone = fake.phone()
        email = fake.email(name)
        agency = fake.org_name()
        contact = el("div", class_="contact")
        lead = ["Contact", "Listed by", "Exclusive agent", "Presented by"][
            int(rng.integers(4))
        ]
        block, nbox = layout_line(f"{lead}: {name} - {agency}", 70, y, section_style)
        elements += block
        annotations.append(Annotation("broker_name", name, nbox))
        contact.append(_dom_block("p", f"{lead}: {name} - {agency}", nbox, class_="broker"))
        y = nbox.y2 + float(rng.uniform(16, 26))
        block, pbox = layout_line(f"Phone: {phone}", 70, y, info_style)
        elements += block
        annotations.append(Annotation("broker_phone", phone, pbox))
        contact.append(_dom_block("p", f"Phone: {phone}", pbox, class_="phone"))
        y = pbox.y2 + float(rng.uniform(14, 24))
        block, ebox = layout_line(f"Email: {email}", 70, y, info_style)
        elements += block
        annotations.append(Annotation("broker_email", email, ebox))
        contact.append(_dom_block("p", f"Email: {email}", ebox, class_="email"))
        dom_body.append(contact)

        html = el("html")
        html.append(dom_body)
        html.bbox = BBox(0, 0, PAGE_W, PAGE_H)
        dom_body.bbox = BBox(0, 0, PAGE_W, PAGE_H)

        doc = Document(
            doc_id=doc_id,
            width=PAGE_W,
            height=PAGE_H,
            elements=elements,
            annotations=annotations,
            source="html",
            dataset="D3",
            html=html,
            metadata={"site": site, "noise": "low"},
        )
        doc.validate()
        return doc


def _dom_block(tag: str, text: str, box: BBox, class_: str = "") -> HtmlNode:
    node = el(tag, text)
    if class_:
        node.attrs["class"] = class_
    node.bbox = box
    return node
