"""System-level invariants of the pipeline, checked over real corpora
and randomised documents (hypothesis)."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import VS2Pipeline, VS2Segmenter
from repro.core.textview import TextView
from repro.doc import Document, TextElement
from repro.geometry import BBox


class TestSegmentationInvariants:
    def test_every_atom_in_exactly_one_leaf(self, d2_cleaned):
        seg = VS2Segmenter()
        for _, observed, _ in d2_cleaned[:4]:
            tree = seg.segment(observed)
            leaf_atom_ids = [id(a) for leaf in tree.logical_blocks() for a in leaf.atoms]
            assert len(leaf_atom_ids) == len(set(leaf_atom_ids))
            assert set(leaf_atom_ids) == {id(a) for a in observed.elements}

    def test_leaf_boxes_cover_their_atoms(self, d3_cleaned):
        seg = VS2Segmenter()
        _, observed, _ = d3_cleaned[0]
        for leaf in seg.segment(observed).logical_blocks():
            frame = leaf.bbox.expand(1.0)
            for atom in leaf.atoms:
                assert frame.contains_bbox(atom.bbox)

    def test_deterministic_across_runs(self, d2_cleaned):
        _, observed, _ = d2_cleaned[0]
        a = [b.bbox for b in VS2Segmenter().segment(observed).logical_blocks()]
        b = [b.bbox for b in VS2Segmenter().segment(observed).logical_blocks()]
        assert a == b

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=700),
                st.integers(min_value=0, max_value=900),
                st.integers(min_value=8, max_value=40),
            ),
            min_size=0,
            max_size=25,
        )
    )
    def test_never_crashes_on_random_word_clouds(self, placements):
        elements = [
            TextElement(f"w{i}", BBox(float(x), float(y), 30.0, float(h)), font_size=float(h))
            for i, (x, y, h) in enumerate(placements)
        ]
        doc = Document("fuzz", 800, 1000, elements=elements)
        tree = VS2Segmenter().segment(doc)
        tree.validate_nesting()
        leaf_atoms = sum(len(l.atoms) for l in tree.logical_blocks())
        assert leaf_atoms == len(elements)


class TestPipelineInvariants:
    def test_at_most_one_extraction_per_entity(self, d2_corpus):
        pipeline = VS2Pipeline("D2")
        for doc in d2_corpus[:4]:
            extractions = pipeline.run(doc).extractions
            types = [e.entity_type for e in extractions]
            assert len(types) == len(set(types))

    def test_extractions_lie_on_page(self, d3_corpus):
        pipeline = VS2Pipeline("D3")
        for doc in d3_corpus[:4]:
            frame = doc.page_bbox.expand(0.3 * max(doc.width, doc.height))
            for e in pipeline.run(doc).extractions:
                assert frame.intersects(e.bbox)

    def test_extraction_text_nonempty(self, d1_corpus):
        pipeline = VS2Pipeline("D1")
        for e in pipeline.run(d1_corpus[0]).extractions:
            assert e.text.strip()

    def test_deterministic_end_to_end(self, d2_corpus):
        doc = d2_corpus[0]
        a = VS2Pipeline("D2").run(doc).as_key_values()
        b = VS2Pipeline("D2").run(doc).as_key_values()
        assert a == b

    def test_empty_document(self):
        doc = Document("empty", 400, 400)
        result = VS2Pipeline("D2").run(doc)
        assert result.extractions == []


def _segment_and_select(pipeline, observed):
    """Blocks and extractions of one observed (OCR'd, deskewed) view,
    the two stages ``VS2Pipeline.run`` applies to it."""
    view = TextView(pipeline.embedding)
    blocks = pipeline.segmenter.segment(observed, view=view).logical_blocks()
    return blocks, pipeline.selector.extract(observed, blocks, view=view)


def _outcome(blocks, extractions, dx=0.0, dy=0.0):
    """What the layout decides, with every box shifted by ``(-dx, -dy)``.

    Blocks are a set of page regions, compared sorted by position: the
    order ``logical_blocks`` lists them in follows the order of the
    input elements."""
    return (
        sorted((b.bbox.translate(-dx, -dy).as_tuple(), len(b.atoms)) for b in blocks),
        [
            (e.entity_type, e.text, e.bbox.translate(-dx, -dy).as_tuple(), e.score)
            for e in extractions
        ],
    )


def _assert_same_outcome(got, want, tol=0.0):
    (got_blocks, got_ext), (want_blocks, want_ext) = got, want
    assert [n for _, n in got_blocks] == [n for _, n in want_blocks]
    for (g, _), (w, _) in zip(got_blocks, want_blocks):
        assert g == pytest.approx(w, abs=tol)
    assert [(t, x, s) for t, x, _, s in got_ext] == [(t, x, s) for t, x, _, s in want_ext]
    for (_, _, g, _), (_, _, w, _) in zip(got_ext, want_ext):
        assert g == pytest.approx(w, abs=tol)


@pytest.fixture(scope="module")
def observed_views(d1_cleaned, d2_cleaned, d3_cleaned):
    """(dataset, observed view) for every conftest document: 22 in all."""
    return [
        (dataset, observed)
        for dataset, cleaned in (("D1", d1_cleaned), ("D2", d2_cleaned), ("D3", d3_cleaned))
        for _, observed, _ in cleaned
    ]


class TestMetamorphic:
    """VS2 decides from the layout: Algorithm 1's whitespace cuts, the
    Table 1 features, Eq. 1 merging and Eq. 2 disambiguation.  Neither
    the order the elements are listed in nor where the page origin sits
    is part of the layout, so changing either must not change a
    decision."""

    def test_element_order_changes_nothing(self, observed_views):
        pipelines = {}
        for dataset, observed in observed_views:
            pipeline = pipelines.setdefault(dataset, VS2Pipeline(dataset))
            shuffled = list(observed.elements)
            random.Random(0).shuffle(shuffled)
            assert shuffled != observed.elements
            want = _outcome(*_segment_and_select(pipeline, observed))
            got = _outcome(
                *_segment_and_select(pipeline, dataclasses.replace(observed, elements=shuffled))
            )
            assert got == want, observed.doc_id

    def test_whole_cell_translation_shifts_boxes_only(self, observed_views):
        # Whole cells of the default 4-unit grid, so the occupancy grid
        # (and every cut on it) moves by exactly (2, 3) cells.
        dx, dy = 8.0, 12.0
        pipelines = {}
        for dataset, observed in observed_views:
            pipeline = pipelines.setdefault(dataset, VS2Pipeline(dataset))
            assert pipeline.config.segment.cell == 4.0
            moved = dataclasses.replace(
                observed,
                width=observed.width + dx,
                height=observed.height + dy,
                elements=[
                    dataclasses.replace(e, bbox=e.bbox.translate(dx, dy))
                    for e in observed.elements
                ],
            )
            want = _outcome(*_segment_and_select(pipeline, observed))
            got = _outcome(*_segment_and_select(pipeline, moved), dx=dx, dy=dy)
            _assert_same_outcome(got, want, tol=1e-6)
