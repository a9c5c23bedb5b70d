"""The clustering distance matrix as broadcast arrays, against the
per-pair loop it replaced.

``reference_clustering_distance_matrix`` is that loop, kept as the
oracle: one Python expression per element pair (``np.linalg.norm`` for
the colour term, the scalar font-type distance).  The array form must
equal it bit for bit — ``np.array_equal``, not a tolerance — because
single-link clustering thresholds and sorts these exact values.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.colors import LabColor
from repro.core.features import _font_type_distance, clustering_distance_matrix
from repro.core.segment import VS2Segmenter
from repro.doc import ImageElement, TextElement
from repro.geometry import BBox


def reference_clustering_distance_matrix(elements, frame, gap_scale=2.5, font_type_weight=0.0):
    """The per-pair loop (the implementation before the array form)."""
    n = len(elements)
    out = np.zeros((n, n))
    if n == 0:
        return out
    heights = np.array([max(e.bbox.h, 1.0) for e in elements])
    colors = np.array([[e.color.l, e.color.a, e.color.b] for e in elements])
    angles = np.array(
        [
            BBox(e.bbox.x - frame.x, e.bbox.y - frame.y, e.bbox.w, e.bbox.h).angular_distance
            for e in elements
        ]
    )
    for i in range(n):
        bi = elements[i].bbox
        for j in range(i + 1, n):
            bj = elements[j].bbox
            taller = max(heights[i], heights[j])
            gap_x = max(bj.x - bi.x2, bi.x - bj.x2, 0.0)
            gap_y = max(bj.y - bi.y2, bi.y - bj.y2, 0.0)
            gap = gap_x / (2.0 * gap_scale * taller) + gap_y / (gap_scale * taller)
            height = abs(heights[i] - heights[j]) / taller
            color = float(np.linalg.norm(colors[i] - colors[j])) / 100.0
            angle = abs(angles[i] - angles[j]) / (np.pi / 2.0)
            d = gap + 0.6 * height + 0.5 * color + 0.15 * angle
            if font_type_weight > 0:
                d += font_type_weight * _reference_font_type_distance(elements[i], elements[j])
            out[i, j] = out[j, i] = d
    return out


def _reference_font_type_distance(a, b) -> float:
    if not isinstance(a, TextElement) or not isinstance(b, TextElement):
        return 0.0
    terms = [
        0.0 if a.font_family == b.font_family else 1.0,
        0.0 if a.bold == b.bold else 1.0,
        0.0 if a.italic == b.italic else 1.0,
    ]
    return sum(terms) / len(terms)


def _assert_identical(elements, frame, font_type_weight=0.0):
    got = clustering_distance_matrix(elements, frame, font_type_weight=font_type_weight)
    want = reference_clustering_distance_matrix(elements, frame, font_type_weight=font_type_weight)
    assert got.shape == want.shape
    assert np.array_equal(got, want), np.argwhere(got != want)[:5]


# ----------------------------------------------------------------------
# Random element sets
# ----------------------------------------------------------------------
#: Coordinates on a coarse grid collide often, so touching, overlapping
#: and identical boxes are common draws; fine values exercise rounding.
coords = st.one_of(
    st.integers(0, 20).map(lambda k: 10.0 * k),
    st.floats(0.0, 400.0, allow_nan=False, allow_infinity=False),
)
sizes = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 10.0, 12.0]),
    st.floats(0.0, 80.0, allow_nan=False, allow_infinity=False),
)
colors = st.one_of(
    st.sampled_from([LabColor(8.0, 0.0, 0.0), LabColor(95.0, -3.5, 2.25)]),
    st.builds(
        LabColor,
        st.floats(0.0, 100.0, allow_nan=False),
        st.floats(-128.0, 128.0, allow_nan=False),
        st.floats(-128.0, 128.0, allow_nan=False),
    ),
)


@st.composite
def elements(draw):
    x, y, w = draw(coords), draw(coords), draw(sizes)
    color = draw(colors)
    if draw(st.integers(0, 5)) == 0:
        # Images need a positive area.
        h = draw(st.floats(0.5, 80.0, allow_nan=False))
        return ImageElement("photo", BBox(x, y, max(w, 0.5), h), color=color)
    return TextElement(
        "w",
        BBox(x, y, w, draw(sizes)),
        color=color,
        font_size=12.0,
        bold=draw(st.booleans()),
        italic=draw(st.booleans()),
        font_family=draw(st.sampled_from(["serif", "sans"])),
    )


frames = st.builds(BBox, coords, coords, st.floats(1.0, 600.0), st.floats(1.0, 600.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(elements(), min_size=0, max_size=40), frames, st.sampled_from([0.0, 0.3]))
@example([], BBox(0, 0, 10, 10), 0.0)
@example(
    [
        TextElement("a", BBox(0, 0, 10, 0)),  # zero height
        TextElement("b", BBox(10, 0, 10, 12), bold=True),  # touching
        TextElement("c", BBox(5, 5, 10, 12), font_family="sans"),  # overlapping
        ImageElement("logo", BBox(0, 0, 30, 30)),
    ],
    BBox(0, 0, 100, 100),
    0.3,
)
def test_array_form_equals_pair_loop(elements, frame, font_type_weight):
    _assert_identical(elements, frame, font_type_weight)


def test_font_term_scores_images_zero_and_counts_differing_traits():
    a = TextElement("a", BBox(0, 0, 10, 12))
    b = TextElement("b", BBox(20, 0, 10, 12), bold=True, italic=True, font_family="sans")
    img = ImageElement("logo", BBox(40, 0, 10, 10))
    assert _font_type_distance(a, b) == 1.0
    assert _font_type_distance(a, img) == 0.0
    assert math.isclose(_font_type_distance(a, a.with_text("z")), 0.0)


# ----------------------------------------------------------------------
# Every clustering call of real documents
# ----------------------------------------------------------------------
def test_seeded_documents_match_reference(d1_cleaned, d2_cleaned):
    """Each area VS2-Segment clusters on seeded D1 and D2 pages."""
    calls = []

    def recording(self, node):
        calls.append((list(node.atoms), node.bbox))
        return original(self, node)

    original = VS2Segmenter._split_by_clustering
    VS2Segmenter._split_by_clustering = recording
    try:
        segmenter = VS2Segmenter()
        for _, observed, _ in d1_cleaned[:2] + d2_cleaned:
            segmenter.segment(observed)
    finally:
        VS2Segmenter._split_by_clustering = original
    assert len(calls) > 20
    for atoms, frame in calls:
        _assert_identical(atoms, frame)
        _assert_identical(atoms, frame, font_type_weight=0.3)
