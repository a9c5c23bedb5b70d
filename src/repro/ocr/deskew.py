"""Skew estimation and correction — the paper's *cleaning* step.

§1 (Example 1.1) lists "perspective warping, skew correction, and
binarization" as the cleaning every pipeline performs before
transcription.  Mobile captures in D2 are rotated; this module
estimates the dominant text angle from word geometry and rotates the
element boxes upright.  The estimator is deliberately imperfect (it
fits discrete line groups on noisy boxes), leaving a residual skew of
a degree or two — the slack VS2's slanted cuts absorb and rigid
axis-aligned baselines do not.

Because correction rotates coordinates, results computed on the
corrected frame must be mapped back with :func:`rotate_back` before
comparison against ground truth in the original frame.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.doc import Document
from repro.doc.elements import ImageElement, TextElement
from repro.geometry import BBox


def estimate_skew(doc: Document) -> float:
    """Dominant text angle in radians (positive = clockwise page tilt).

    Words are greedily chained left-to-right into line fragments (each
    word linked to its nearest right-neighbour at compatible height);
    the median fragment slope is the skew estimate.
    """
    words = sorted(doc.text_elements, key=lambda w: (w.bbox.x, w.bbox.y))
    if len(words) < 6:
        return 0.0
    slopes: List[float] = []
    for i, w in enumerate(words):
        cx, cy = w.bbox.centroid
        best = None
        for v in words[i + 1 : i + 24]:
            vx, vy = v.bbox.centroid
            dx = vx - cx
            if dx <= 0 or dx > 6.0 * w.bbox.h:
                continue
            dy = vy - cy
            if abs(dy) > 0.8 * w.bbox.h:
                continue
            if abs(v.bbox.h - w.bbox.h) > 0.5 * max(v.bbox.h, w.bbox.h):
                continue
            if best is None or dx < best[0]:
                best = (dx, dy)
        if best is not None and best[0] > 1.0:
            slopes.append(best[1] / best[0])
    if len(slopes) < 4:
        return 0.0
    return float(math.atan(np.median(slopes)))


def deskew(doc: Document) -> Tuple[Document, float]:
    """A skew-corrected copy of ``doc`` plus the applied angle.

    Every element box rotates by the negative estimated skew about the
    page centre.  Annotations are *not* carried over (cleaning is part
    of the extraction pipeline, which never sees ground truth).
    """
    angle = estimate_skew(doc)
    if abs(angle) < math.radians(0.5):
        return doc, 0.0
    cx, cy = doc.width / 2.0, doc.height / 2.0
    elements = []
    for e in doc.elements:
        box = _tight_unrotate(e.bbox, angle, cx, cy)
        if isinstance(e, TextElement):
            elements.append(e.with_bbox(box))
        else:
            elements.append(ImageElement(e.image_data, box, e.color))
    corrected = Document(
        doc_id=doc.doc_id,
        width=doc.width,
        height=doc.height,
        elements=elements,
        annotations=[],
        source=doc.source,
        dataset=doc.dataset,
        html=doc.html,
        background=doc.background,
        metadata=dict(doc.metadata),
    )
    return corrected, angle


def _tight_unrotate(box: BBox, angle: float, cx: float, cy: float) -> BBox:
    """Upright box of the content whose *rotated enclosure* is ``box``.

    A box observed on a page tilted by ``angle`` is the axis-aligned
    enclosure of the rotated upright content: ``E.w = w·cosθ + h·sinθ``
    and ``E.h = w·sinθ + h·cosθ``.  Rotating the enclosure back would
    inflate it a second time (and eat the whitespace between areas), so
    we instead rotate the centroid and invert the linear system for the
    tight upright dimensions — what re-OCR after image deskewing would
    produce.
    """
    c = math.cos(abs(angle))
    s = math.sin(abs(angle))
    det = c * c - s * s
    if det <= 0.1:  # |angle| approaching 45°: inversion is ill-posed
        return box.rotate(-angle, cx, cy)
    w = max((box.w * c - box.h * s) / det, 1.0)
    h = max((box.h * c - box.w * s) / det, 1.0)
    px, py = box.centroid
    qx = cx + (px - cx) * math.cos(-angle) - (py - cy) * math.sin(-angle)
    qy = cy + (px - cx) * math.sin(-angle) + (py - cy) * math.cos(-angle)
    return BBox(qx - w / 2.0, qy - h / 2.0, w, h)


def rotate_back(box: BBox, angle: float, doc: Document) -> BBox:
    """Map a box from the corrected frame to the original frame."""
    if angle == 0.0:
        # Zero angle: the two frames coincide and the observed box *is*
        # the original one, so returning it unconverted is sound.
        return box
    return box.rotate(angle, doc.width / 2.0, doc.height / 2.0)
