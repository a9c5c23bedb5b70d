"""The per-document text view: exact memoisation, one document's
lifetime, nothing reachable from results."""

from __future__ import annotations

import gc
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.core import pipeline as pipeline_module
from repro.core.patterns import CURATED_PATTERNS, TextAnalysis
from repro.core.pipeline import VS2Pipeline
from repro.core.select import span_bbox_of
from repro.core.textview import TextView, text_view
from repro.doc import TextElement
from repro.doc.document import group_into_lines
from repro.doc.layout_tree import LayoutNode
from repro.embeddings import WordEmbedding, default_embedding
from repro.geometry import BBox
from repro.nlp.fuzzy import repair_ocr_text
from repro.nlp.tokenizer import normalize_text

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def recorded_views(monkeypatch):
    """Every view ``VS2Pipeline.run`` creates, held strongly."""
    views = []

    def recording(embedding=None):
        view = TextView(embedding)
        views.append(view)
        return view

    monkeypatch.setattr(pipeline_module, "TextView", recording)
    return views


def _node(*words):
    atoms = [TextElement(t, BBox(x, y, 30, 10)) for t, x, y in words]
    return LayoutNode(bbox=BBox(0, 0, 200, 200), atoms=atoms)


# ----------------------------------------------------------------------
# Each read is the uncached function's value
# ----------------------------------------------------------------------
def test_reads_equal_the_uncached_functions():
    node = _node(("Po5ter", 0, 0), ("ScreEning", 40, 0), ("tonight", 0, 20))
    view = TextView()
    assert view.text(node) == node.text()
    assert view.lines(node) == tuple(tuple(line) for line in group_into_lines(node.text_atoms))
    assert view.block_text(node) == normalize_text(node.text())
    analysis = view.analysis(view.block_text(node))
    assert analysis.text == repair_ocr_text(normalize_text(view.block_text(node)))
    vec, norm = view.vector(view.text(node))
    assert np.array_equal(vec, default_embedding().embed_text(node.text()))
    assert norm == float(np.linalg.norm(default_embedding().embed_text(node.text())))


def test_entries_are_keyed_by_what_they_are_computed_from():
    node = _node(("alpha", 0, 0), ("beta", 40, 0))
    view = TextView()
    first = view.text(node)
    # Same atoms on another node: the same entry.
    assert view.text(LayoutNode(bbox=node.bbox, atoms=list(node.atoms))) is first
    # Atoms reassigned in place (as LayoutTree.collapse_unary does): a
    # new entry, not the stale one.
    node.atoms = node.atoms[:1]
    assert view.text(node) == "alpha"
    assert view.analysis("alpha beta") is view.analysis("alpha beta")
    assert view.vector("alpha")[0] is view.vector("alpha")[0]


def test_cached_vectors_are_read_only(d2_corpus, recorded_views):
    VS2Pipeline("D2").run(d2_corpus[0])
    (view,) = recorded_views
    assert view._vectors
    for vec, _ in view._vectors.values():
        assert vec.flags.writeable is False
        with pytest.raises(ValueError):
            vec[0] = 1.0


def test_patterns_without_a_view_match_patterns_with_one(d2_cleaned):
    from repro.core.segment import VS2Segmenter

    view = TextView()
    for _, observed, _ in d2_cleaned[:3]:
        for block in VS2Segmenter().segment(observed).logical_blocks():
            if not block.text_atoms:
                continue
            text = normalize_text(block.text())
            for pattern in CURATED_PATTERNS.values():
                assert pattern.find(text, view) == pattern.find(text)
            assert span_bbox_of(block, 0, 3, view) == span_bbox_of(block, 0, 3)


def test_a_view_embeds_with_one_model():
    view = TextView()
    assert text_view(view) is view
    assert text_view(view, view.embedding) is view
    with pytest.raises(ValueError):
        text_view(view, WordEmbedding())


def test_analysis_reuses_its_parses():
    analysis = TextAnalysis("Hosted by the Acme Society at City Hall, 12 Main St")
    assert analysis.chunks is analysis.chunks
    assert analysis.place is analysis.place
    assert CURATED_PATTERNS["event_place"].matcher(analysis) is analysis.place


# ----------------------------------------------------------------------
# One document's lifetime
# ----------------------------------------------------------------------
def test_view_dies_with_its_document(d2_corpus, monkeypatch):
    refs = []

    def recording(embedding=None):
        view = TextView(embedding)
        refs.append(weakref.ref(view))
        return view

    monkeypatch.setattr(pipeline_module, "TextView", recording)
    result = VS2Pipeline("D2").run(d2_corpus[0])
    gc.collect()
    assert len(refs) == 1
    assert refs[0]() is None
    assert result.extractions


def test_second_document_sees_none_of_the_first(d2_corpus, recorded_views):
    pipeline = VS2Pipeline("D2")
    pipeline.run(d2_corpus[0])
    pipeline.run(d2_corpus[1])
    first, second = recorded_views
    assert first is not second
    # Entries the view builds itself (normalised texts may legitimately
    # be one shared string: a generator word both posters use).
    for table in ("_nodes", "_analyses", "_vectors"):
        mine, theirs = getattr(second, table), getattr(first, table)
        assert mine
        assert not any(mine[key] is theirs.get(key) for key in mine), table


def test_results_hold_nothing_from_the_view(d2_corpus):
    result = VS2Pipeline("D2").run(d2_corpus[0])
    data = pickle.dumps(result)
    assert b"TextView" not in data and b"TextAnalysis" not in data


def test_pickled_result_size_is_unchanged():
    """A fixed D2 document, in a fresh interpreter (ids depend on how
    many nodes and elements a process made before): 12,951 bytes, as
    before the view existed."""
    script = (
        "import pickle\n"
        "from repro.core.pipeline import VS2Pipeline\n"
        "from repro.synth import generate_corpus\n"
        "doc = generate_corpus('D2', n=3, seed=42)[2]\n"
        "print(len(pickle.dumps(VS2Pipeline('D2').run(doc))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        timeout=300,
        check=True,
    )
    assert int(out.stdout.strip()) == 12951
