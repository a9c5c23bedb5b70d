"""Low-level visual features (Table 1).

Each atomic element is encoded with the empirically selected features
the paper clusters on: centroid position, bounding-box height, average
LAB colour, angular distance of the centroid from the page origin —
plus the pairwise *sum of angular distances* used as a distance-space
feature.  All features are normalised to comparable scales before
clustering so no single unit dominates.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.doc.elements import AtomicElement
from repro.geometry import BBox

#: Feature names, in vector order (Table 1 of the paper).
VISUAL_FEATURES = (
    "centroid_x",
    "centroid_y",
    "height",
    "color_l",
    "color_a",
    "color_b",
    "angular_distance",
)


def element_feature_vector(element: AtomicElement, frame: BBox) -> np.ndarray:
    """Raw (unnormalised) Table 1 features of one element.

    Positions are taken relative to ``frame`` (the visual area being
    clustered) so the encoding is translation-invariant across nested
    areas.
    """
    cx, cy = element.bbox.centroid
    rel = BBox(element.bbox.x - frame.x, element.bbox.y - frame.y, element.bbox.w, element.bbox.h)
    return np.array(
        [
            cx - frame.x,
            cy - frame.y,
            element.bbox.h,
            element.color.l,
            element.color.a,
            element.color.b,
            rel.angular_distance,
        ]
    )


def feature_matrix(elements: Sequence[AtomicElement], frame: BBox) -> np.ndarray:
    """Normalised feature matrix for a set of elements.

    Spatial features scale by the frame diagonal, height by the max
    element height, colour by the LAB dynamic range, angle by π/2 —
    putting every column roughly in [0, 1].
    """
    if not elements:
        return np.zeros((0, len(VISUAL_FEATURES)))
    raw = np.stack([element_feature_vector(e, frame) for e in elements])
    diag = float(np.hypot(frame.w, frame.h)) or 1.0
    max_h = float(max(e.bbox.h for e in elements)) or 1.0
    scale = np.array([diag, diag, max_h, 100.0, 128.0, 128.0, np.pi / 2.0])
    return raw / scale


def pairwise_feature_distance(features: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix in the normalised feature space,
    augmented with the Table 1 pairwise term (sum of angular
    distances, scaled like the unary angle feature)."""
    n = len(features)
    if n == 0:
        return np.zeros((0, 0))
    diff = features[:, None, :] - features[None, :, :]
    base = np.sqrt((diff**2).sum(axis=2))
    angle = np.abs(features[:, -1])
    angular_sum = angle[:, None] + angle[None, :]
    np.fill_diagonal(angular_sum, 0.0)
    return base + 0.1 * angular_sum


def clustering_distance_matrix(
    elements: Sequence[AtomicElement],
    frame: BBox,
    gap_scale: float = 2.5,
    font_type_weight: float = 0.0,
) -> np.ndarray:
    """Pairwise distances driving the implicit-modifier clustering.

    Table 1's features enter in scale-relative form, which is what
    "proximity" means typographically: a word gap is *close* at any
    font size, an inter-block gap is *far* at any font size.

    =================  ==================================================
    term               realisation
    =================  ==================================================
    centroid position  box gap distance / (``gap_scale`` · taller height)
    height             relative height difference
    colour             LAB ΔE / 100
    angular distance   |Δangle of centroids from frame origin| / (π/2)
    =================  ==================================================

    Every pair is one broadcast array expression: the same IEEE
    operations, in the same order, as a scalar loop over the pairs
    (kept as the oracle in ``tests/test_clustering_matrix.py``), so the
    matrix is bit for bit that loop's.
    """
    n = len(elements)
    if n == 0:
        return np.zeros((0, 0))
    boxes = [e.bbox for e in elements]
    heights = np.array([max(b.h, 1.0) for b in boxes])
    colors = np.array([[e.color.l, e.color.a, e.color.b] for e in elements])
    angles = np.array(
        [BBox(b.x - frame.x, b.y - frame.y, b.w, b.h).angular_distance for b in boxes]
    )
    x, x2 = np.array([b.x for b in boxes]), np.array([b.x2 for b in boxes])
    y, y2 = np.array([b.y for b in boxes]), np.array([b.y2 for b in boxes])
    taller = np.maximum(heights[:, None], heights[None, :])
    # Direction-aware proximity: along a text line, word spacing (and
    # OCR word-drop holes) runs much wider than the leading between
    # stacked lines, so horizontal separation is forgiven at double the
    # scale of vertical separation.
    gap_x = np.maximum(np.maximum(x[None, :] - x2[:, None], x[:, None] - x2[None, :]), 0.0)
    gap_y = np.maximum(np.maximum(y[None, :] - y2[:, None], y[:, None] - y2[None, :]), 0.0)
    gap = gap_x / (2.0 * gap_scale * taller) + gap_y / (gap_scale * taller)
    height = np.abs(heights[:, None] - heights[None, :]) / taller
    # Squared ΔE through a stacked vector-vector matmul: that runs the
    # dot kernel ``np.linalg.norm`` runs on each difference (a BLAS
    # ddot, which may fuse multiply-adds), where an explicit sum of
    # squares would round differently.
    delta = colors[:, None, :] - colors[None, :, :]
    color = np.sqrt(np.matmul(delta[..., None, :], delta[..., :, None])[..., 0, 0]) / 100.0
    angle = np.abs(angles[:, None] - angles[None, :]) / (np.pi / 2.0)
    out = gap + 0.6 * height + 0.5 * color + 0.15 * angle
    if font_type_weight > 0:
        out += font_type_weight * _font_type_distances(elements)
    np.fill_diagonal(out, 0.0)
    return out


def _font_type_distances(elements: Sequence[AtomicElement]) -> np.ndarray:
    """Typeface dissimilarity of every pair, in [0, 1] — the §7
    future-work feature ("a generalizable feature to identify
    font-type"): the share of font family, bold and italic that differ.

    Image elements carry no typography and score 0 against anything.
    """
    from repro.doc.elements import TextElement

    textual = np.array([isinstance(e, TextElement) for e in elements])
    families = [getattr(e, "font_family", None) for e in elements]
    codes = {family: code for code, family in enumerate(dict.fromkeys(families))}
    family = np.array([codes[f] for f in families])
    bold = np.array([getattr(e, "bold", False) for e in elements])
    italic = np.array([getattr(e, "italic", False) for e in elements])
    differing = (
        (family[:, None] != family[None, :]).astype(float)
        + (bold[:, None] != bold[None, :])
        + (italic[:, None] != italic[None, :])
    )
    return np.where(textual[:, None] & textual[None, :], differing / 3.0, 0.0)


def _font_type_distance(a: AtomicElement, b: AtomicElement) -> float:
    """:func:`_font_type_distances` of one pair."""
    return float(_font_type_distances([a, b])[0, 1])


def spatial_gap_matrix(elements: Sequence[AtomicElement]) -> np.ndarray:
    """Pairwise box-gap distances (layout units) between elements."""
    n = len(elements)
    gaps = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            g = elements[i].bbox.gap_distance(elements[j].bbox)
            gaps[i, j] = gaps[j, i] = g
    return gaps


def visually_separated(
    a: AtomicElement, b: AtomicElement, others: Sequence[AtomicElement]
) -> bool:
    """Whether a third element sits between ``a`` and ``b``.

    The clustering step only groups a closest pair "not visually
    separated by another atomic element" (§5.1.2): we test whether any
    other element's box intersects the straight corridor between the
    two centroids.
    """
    corridor = a.bbox.union(b.bbox)
    ax, ay = a.bbox.centroid
    bx, by = b.bbox.centroid
    for other in others:
        if other is a or other is b:
            continue
        if not corridor.intersects(other.bbox):
            continue
        # An element *containing* either endpoint is background (text
        # drawn over a banner/photo), not something standing between.
        if other.bbox.contains_point(ax, ay) or other.bbox.contains_point(bx, by):
            continue
        if _segment_hits_box(ax, ay, bx, by, other.bbox):
            return True
    return False


def _segment_hits_box(x1: float, y1: float, x2: float, y2: float, box: BBox) -> bool:
    """Liang–Barsky style test: does segment (x1,y1)-(x2,y2) cross box?"""
    dx, dy = x2 - x1, y2 - y1
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x1 - box.x),
        (dx, box.x2 - x1),
        (-dy, y1 - box.y),
        (dy, box.y2 - y1),
    ):
        if p == 0:
            if q < 0:
                return False
            continue
        r = q / p
        if p < 0:
            t0 = max(t0, r)
        else:
            t1 = min(t1, r)
        if t0 > t1:
            return False
    return True


def color_feature(elements: Sequence[AtomicElement]) -> List[float]:
    """Mean LAB colour of a set of elements (block-level feature)."""
    if not elements:
        return [0.0, 0.0, 0.0]
    arr = np.array([[e.color.l, e.color.a, e.color.b] for e in elements])
    return arr.mean(axis=0).tolist()
