"""Semantic merging (Eq. 1): the per-level matrix form against the
per-pair loop it replaced.

``reference_semantic_merge`` is that loop, kept as the oracle: every
node's SC from one ``cosine_similarity`` call per same-level pair, and
its partners ranked by one call per sibling.  The matrix form adds the
same terms in a different order, so raw SC and sim values may differ
in the last bits; decisions, 4-decimal trace values and the resulting
leaves may not.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Dict, List, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import merging
from repro.core.config import SegmentConfig, VS2Config
from repro.core.merging import (
    _merge_nodes,
    _node_label,
    _not_visually_separated,
    merge_threshold,
    semantic_merge,
)
from repro.core.segment import VS2Segmenter
from repro.doc import ImageElement, TextElement
from repro.doc.layout_tree import LayoutNode, LayoutTree
from repro.embeddings import WordEmbedding, cosine_similarity, default_embedding
from repro.geometry import BBox, enclosing_bbox
from repro.trace import Tracer, cut_ledger, ledger_diff, ledger_lines

MERGE_EVENTS = ("merge.decision", "merge.pass")
#: Raw SC and sim may differ from the per-pair loop by this much.
TOLERANCE = 1e-12


# ----------------------------------------------------------------------
# The reference: the per-pair Eq. 1 loop
# ----------------------------------------------------------------------
def _reference_vector(node: LayoutNode, embedding, cache: Dict[int, np.ndarray]) -> np.ndarray:
    vec = cache.get(node.node_id)
    if vec is None:
        vec = embedding.embed_text(node.text())
        cache[node.node_id] = vec
    return vec


def _reference_contribution(
    node: LayoutNode, level_nodes: List[LayoutNode], embedding, cache: Dict[int, np.ndarray]
) -> float:
    v = _reference_vector(node, embedding, cache)
    siblings = set(id(s) for s in node.siblings())
    sibling_sims: List[float] = []
    other_sims: List[float] = []
    for other in level_nodes:
        if other is node:
            continue
        sim = cosine_similarity(v, _reference_vector(other, embedding, cache))
        if id(other) in siblings:
            sibling_sims.append(sim)
        else:
            other_sims.append(sim)
    best_sib = float(np.max(sibling_sims)) if sibling_sims else 0.0
    mean_other = float(np.mean(other_sims)) if other_sims else 0.0
    return best_sib - mean_other


def reference_semantic_merge(
    tree: LayoutTree,
    config: SegmentConfig,
    embedding=None,
    tracer: Optional[Tracer] = None,
) -> int:
    """The merging fixpoint with one cosine per node pair."""
    if embedding is None:
        embedding = default_embedding()
    tracing = tracer is not None and tracer.enabled
    cache: Dict[int, np.ndarray] = {}
    total = 0
    for _pass in range(32):
        height = tree.height
        theta = merge_threshold(height, config)
        merged_this_pass = 0
        for level in range(height, 0, -1):
            level_nodes = tree.nodes_at_level(level)
            textual = [n for n in level_nodes if n.text_atoms]
            for node in list(textual):
                if node.parent is None or not any(c is node for c in node.parent.children):
                    continue
                if not node.is_leaf:
                    continue
                siblings = [s for s in node.siblings() if s.is_leaf and s.text_atoms]
                if not siblings:
                    continue
                sc = _reference_contribution(node, textual, embedding, cache)
                if sc <= theta:
                    if tracing:
                        tracer.event(
                            "merge.decision",
                            height=height,
                            level=level,
                            theta=round(theta, 4),
                            sc=round(sc, 4),
                            node=_node_label(node),
                            merged=False,
                            partner=None,
                            sim=None,
                            reason="sc_below_theta",
                        )
                    continue
                v = _reference_vector(node, embedding, cache)
                candidates = sorted(
                    siblings,
                    key=lambda s: -cosine_similarity(v, _reference_vector(s, embedding, cache)),
                )
                chosen = None
                best_sim = None
                for partner in candidates:
                    sim = cosine_similarity(v, _reference_vector(partner, embedding, cache))
                    if best_sim is None:
                        best_sim = sim
                    if sim > max(theta, 0.3) and _not_visually_separated(node, partner, config):
                        chosen = (partner, sim)
                        _merge_nodes(node.parent, node, partner)
                        merged_this_pass += 1
                        break
                if tracing:
                    tracer.event(
                        "merge.decision",
                        height=height,
                        level=level,
                        theta=round(theta, 4),
                        sc=round(sc, 4),
                        node=_node_label(node),
                        merged=chosen is not None,
                        partner=_node_label(chosen[0]) if chosen else None,
                        sim=round(float(chosen[1] if chosen else best_sim), 4)
                        if (chosen or best_sim is not None)
                        else None,
                        reason="merged" if chosen else "no_eligible_partner",
                    )
        total += merged_this_pass
        if tracing:
            tracer.event("merge.pass", height=height, theta=round(theta, 4), merges=merged_this_pass)
        tree.collapse_unary()
        if merged_this_pass == 0:
            break
    return total


# ----------------------------------------------------------------------
# Running both and comparing
# ----------------------------------------------------------------------
def _keep(value, ndigits=None):
    return value


@contextmanager
def _unrounded():
    """Both implementations put raw SC, sim and θ into their events."""
    with mock.patch.object(merging, "round", _keep, create=True), mock.patch.dict(
        globals(), {"round": _keep}
    ):
        yield


def _leaves(tree: LayoutTree):
    return [
        (leaf.kind, leaf.bbox, [(getattr(a, "text", None), a.bbox) for a in leaf.atoms])
        for leaf in tree.leaves()
    ]


def _run(merge, tree: LayoutTree, config: SegmentConfig, embedding):
    tracer = Tracer()
    with tracer.span("doc"):
        merges = merge(tree, config, embedding, tracer=tracer)
    return merges, tracer.drain(), _leaves(tree)


def _assert_raw_values_close(expected_roots, actual_roots) -> None:
    expected = cut_ledger(expected_roots, MERGE_EVENTS)
    actual = cut_ledger(actual_roots, MERGE_EVENTS)
    assert len(actual) == len(expected)
    for (path_e, row_e), (path_a, row_a) in zip(expected, actual):
        assert path_a == path_e
        assert row_a.keys() == row_e.keys()
        for key, value in row_e.items():
            if key in ("sc", "sim") and value is not None:
                assert abs(row_a[key] - value) <= TOLERANCE, (key, row_a, row_e)
            else:
                assert row_a[key] == value, (key, row_a, row_e)


def _assert_equivalent(build, config: SegmentConfig, embedding) -> None:
    """Same merges, decisions (raw values within tolerance) and leaves
    from both implementations on fresh copies of one tree."""
    with _unrounded():
        expected = _run(reference_semantic_merge, build(), config, embedding)
        actual = _run(semantic_merge, build(), config, embedding)
    assert actual[0] == expected[0]
    assert actual[2] == expected[2]
    _assert_raw_values_close(expected[1], actual[1])


def _copy_node(node: LayoutNode) -> LayoutNode:
    """A structural copy sharing the (immutable) atoms, with fresh ids."""
    copy = LayoutNode(bbox=node.bbox, atoms=list(node.atoms), kind=node.kind)
    for child in node.children:
        copy.add_child(_copy_node(child))
    return copy


# ----------------------------------------------------------------------
# Seeded corpora
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fixture", ["d1_cleaned", "d2_cleaned", "d3_cleaned"])
def test_seeded_corpora_match_reference(request, fixture):
    """Pre-merge trees of real documents: identical 4-decimal ledgers
    and leaves, raw SC and sim within tolerance."""
    config = dataclasses.replace(VS2Config().segment, use_semantic_merging=False)
    segmenter = VS2Segmenter(config)
    embedding = WordEmbedding()
    decisions = 0
    for _, observed, _ in request.getfixturevalue(fixture):
        unmerged = segmenter.segment(observed)

        def build(unmerged=unmerged):
            return LayoutTree(_copy_node(unmerged.root))

        expected = _run(reference_semantic_merge, build(), config, embedding)
        actual = _run(semantic_merge, build(), config, embedding)
        assert actual[0] == expected[0]
        assert actual[2] == expected[2]
        lines = ledger_lines(expected[1], MERGE_EVENTS)
        diff = ledger_diff(lines, ledger_lines(actual[1], MERGE_EVENTS), "per-pair", "matrix")
        assert not diff, "merge ledgers diverge:\n" + "\n".join(diff[:20])
        decisions += sum('"merge.decision"' in line for line in lines)
        _assert_equivalent(build, config, embedding)
    assert decisions > 0


# ----------------------------------------------------------------------
# Synthetic trees with a table embedding
# ----------------------------------------------------------------------
DIM = 64
WORDS = ("alpha", "beta", "gamma", "delta", "nil")
FONT = 12.0
#: Gaps between neighbouring leaves: adjacent, or visually separated
#: (beyond merge_gap_ratio × font size).
NEAR, FAR = 2.0, 40.0


class TableEmbedding:
    """Node vectors as means of fixed word vectors: repeated texts give
    identical vectors (exact ties), ``nil`` is the zero vector, and the
    other words overlap so cosines spread over (−1, 1)."""

    def __init__(self) -> None:
        base = np.random.default_rng(7).standard_normal((3, DIM))
        self.table = {
            "alpha": base[0],
            "beta": base[0] + 0.5 * base[1],
            "gamma": base[1],
            "delta": base[2] + 0.3 * base[0],
            "nil": np.zeros(DIM),
        }

    def embed_text(self, text: str) -> np.ndarray:
        words = text.split()
        if not words:
            return np.zeros(DIM)
        return np.mean([self.table[w] for w in words], axis=0)


def _build(spec) -> LayoutTree:
    """A tree from a nested spec: a list is an internal node, a tuple
    ``(words, gap)`` a leaf whose words follow the previous leaf after
    ``gap``, and ``"image"`` a text-free leaf."""
    cursor = [0.0]

    def node(item) -> LayoutNode:
        if isinstance(item, list):
            parent = LayoutNode(bbox=BBox(0.0, 0.0, 1.0, 1.0), kind="cut")
            for child in item:
                parent.add_child(node(child))
            parent.atoms = [a for c in parent.children for a in c.atoms]
            parent.bbox = enclosing_bbox([c.bbox for c in parent.children])
            return parent
        if item == "image":
            cursor[0] += FAR
            atoms = [ImageElement("logo", BBox(cursor[0], 0.0, 30.0, 30.0))]
            cursor[0] += 30.0
        else:
            words, gap = item
            cursor[0] += gap
            atoms = []
            for word in words:
                atoms.append(TextElement(word, BBox(cursor[0], 0.0, 20.0, FONT), font_size=FONT))
                cursor[0] += 22.0
            cursor[0] -= 2.0
        return LayoutNode(bbox=enclosing_bbox([a.bbox for a in atoms]), atoms=atoms, kind="cluster")

    return LayoutTree(node(spec))


leaf_specs = st.one_of(
    st.tuples(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(tuple),
        st.sampled_from([NEAR, FAR]),
    ),
    st.just("image"),
)
tree_specs = st.lists(
    st.recursive(leaf_specs, lambda kids: st.lists(kids, min_size=1, max_size=4), max_leaves=10),
    min_size=2,
    max_size=5,
)

#: Two leaves under the root: the smallest level Eq. 1 sees.
TWO_NODE_LEVEL = [(("alpha",), NEAR), (("beta",), NEAR)]
#: Mostly zero vectors, whose cosine with anything is 0.
ZERO_VECTORS = [(("nil",), NEAR), (("nil", "nil"), NEAR), [(("nil",), NEAR), (("alpha",), NEAR)]]
#: Duplicate texts tie as partners; the first in sibling order wins.
DUPLICATE_TEXTS = [
    [(("alpha",), NEAR), (("alpha", "beta"), NEAR), (("alpha", "beta"), NEAR), (("gamma",), FAR)],
    [(("delta",), FAR), (("delta",), NEAR)],
]
#: The first two ``alpha`` leaves merge; the third then passes Eq. 1
#: on ``alpha gamma`` but must pick the merged node (not in the level's
#: matrix, and not one of the two it replaced) as its partner.
CHAIN_MERGE = [
    [(("alpha",), NEAR), (("alpha",), NEAR), (("alpha",), NEAR), (("alpha", "gamma"), NEAR)],
    [(("nil",), FAR)] + [(("nil",), NEAR)] * 5,
]
#: ``alpha`` merges with ``beta`` first on level 2.  ``gamma``, decided
#: after, no longer has them as siblings but still counts both in its
#: mean, while the merged node is in neither term.
MID_LEVEL_MERGE = [
    [(("alpha",), NEAR), (("beta",), NEAR), (("gamma",), NEAR), (("delta",), NEAR)],
    [(("gamma",), FAR), (("nil",), NEAR)],
]

@settings(max_examples=150, deadline=None)
@given(tree_specs)
@example(TWO_NODE_LEVEL)
@example(ZERO_VECTORS)
@example(DUPLICATE_TEXTS)
@example(MID_LEVEL_MERGE)
@example(CHAIN_MERGE)
def test_random_trees_match_reference(spec):
    embedding = TableEmbedding()
    _assert_equivalent(lambda: _build(spec), SegmentConfig(), embedding)


def test_chained_merge_picks_the_merged_node():
    tracer = Tracer()
    with tracer.span("doc"):
        semantic_merge(_build(CHAIN_MERGE), SegmentConfig(), TableEmbedding(), tracer=tracer)
    merged = [row for _, row in cut_ledger(tracer.drain(), ("merge.decision",)) if row["merged"]]
    assert [row["partner"].split("@")[0] for row in merged[:2]] == ["'alpha'", "'alpha alpha'"]


@pytest.mark.parametrize("copies", [2, 3, 8, 13])
def test_duplicate_partners_tie_in_sibling_order(copies):
    """A wide ``alpha`` leaf overlapping identical ``beta`` siblings:
    every partner ties, so the first sibling must win (a BLAS gemv over
    the stacked rows can break such ties by row position)."""
    wide = TextElement("alpha", BBox(0.0, 0.0, 30.0 * copies, FONT), font_size=FONT)
    root = LayoutNode(bbox=wide.bbox, kind="root")
    root.add_child(LayoutNode(bbox=wide.bbox, atoms=[wide], kind="cluster"))
    for i in range(copies):
        word = TextElement("beta", BBox(10.0 + 30.0 * i, 0.0, 10.0, FONT), font_size=FONT)
        root.add_child(LayoutNode(bbox=word.bbox, atoms=[word], kind="cluster"))
    root.atoms = [a for c in root.children for a in c.atoms]
    tracer = Tracer()
    with tracer.span("doc"):
        semantic_merge(LayoutTree(root), SegmentConfig(), TableEmbedding(), tracer=tracer)
    first = next(row for _, row in cut_ledger(tracer.drain(), ("merge.decision",)) if row["merged"])
    assert first["node"].startswith("'alpha'@(0,")
    assert first["partner"] == "'beta'@(10,0,10,12)"


def test_merged_away_node_still_counts_in_the_mean():
    embedding = TableEmbedding()
    tracer = Tracer()
    with _unrounded(), tracer.span("doc"):
        assert semantic_merge(_build(MID_LEVEL_MERGE), SegmentConfig(), embedding, tracer=tracer) >= 1
    rows = [row for _, row in cut_ledger(tracer.drain(), ("merge.decision",))]
    assert rows[0]["merged"] and rows[0]["level"] == 2
    assert rows[0]["node"].startswith("'alpha'@") and rows[0]["partner"].startswith("'beta'@")
    gamma = next(row for row in rows if row["node"].startswith("'gamma'@"))
    cos = lambda a, b: cosine_similarity(embedding.embed_text(a), embedding.embed_text(b))
    best = cos("gamma", "delta")  # the only live sibling in the level's matrix
    mean = (cos("gamma", "alpha") + cos("gamma", "beta") + cos("gamma", "gamma") + 0.0) / 4
    assert abs(gamma["sc"] - (best - mean)) <= TOLERANCE
