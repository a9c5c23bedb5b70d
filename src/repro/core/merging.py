"""Semantic merging (§5.1.2, Eq. 1).

Recursive segmentation over-segments — especially on noisy
transcriptions — so VS2 merges sibling areas that carry similar
semantics.  The *semantic contribution* of a node ``n_i`` is

    SC(n_i) = Σ_j cos(n_i, n_j) − Σ_k cos(n_i, n_k)        (Eq. 1)

where ``n_j`` ranges over siblings and ``n_k`` over same-level
non-siblings; node vectors are mean word embeddings of their text
(pre-trained Word2Vec in the paper, our default embedding here).  When
``SC(n_i) > θ_h`` the node merges with its most similar sibling,
provided the two are not visually separated.  The threshold schedule is
the paper's footnote:

    θ_h = θ_min + (θ_max − θ_min) / 10 · h,     h = layout-tree height

so deeper (finer) trees demand more evidence before merging.

Eq. 1 is evaluated a tree level at a time: the level's node vectors
are the rows of ``V``, and ``V Vᵀ`` over the outer product of the row
norms holds every cosine of the level.  Each node's SC is a masked row
maximum minus a masked row mean, recomputed only after a merge; a node
whose SC clears ``θ_h`` ranks its live leaf siblings with one
matrix-vector product and a stable sort.
Only the order of floating-point additions differs from a per-pair
loop (kept as the reference in ``tests/test_merging.py``), so raw
values may move in the last bits while decisions stay the same.

Node texts and vectors come from the document's
:class:`~repro.core.textview.TextView`, which shares them with pattern
search and Eq. 2.  Within one fixpoint a node keeps the vector it was
first given, as it always has — :meth:`LayoutTree.collapse_unary`
hands a hoisted node its child's atoms but not a new vector.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SegmentConfig
from repro.core.textview import TextView, text_view
from repro.doc.layout_tree import LayoutNode, LayoutTree
from repro.embeddings import WordEmbedding
from repro.geometry import enclosing_bbox
from repro.resilience.faults import fault_site
from repro.trace import Tracer


def merge_threshold(height: int, config: SegmentConfig) -> float:
    """θ_h for a tree of the given height."""
    return config.theta_min + (config.theta_max - config.theta_min) / 10.0 * height


def _ratios(dots: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``dots / norms`` with 0 where a norm product is 0 — the cosine of
    a zero vector with anything is 0."""
    return np.divide(dots, norms, out=np.zeros_like(norms), where=norms > 0.0)


def _same_parent(nodes: Sequence[LayoutNode]) -> np.ndarray:
    """``[i, j]`` is true where nodes ``i`` and ``j`` share a parent."""
    groups: Dict[int, int] = {}
    ids = np.array([groups.setdefault(id(n.parent), len(groups)) for n in nodes])
    return ids[:, None] == ids[None, :]


def _contributions(cos: np.ndarray, same_parent: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Eq. 1 for every node of a level, from the level's cosine matrix.

    Row ``i``'s sibling term is its best cosine over the *live* nodes
    sharing its parent; its non-sibling term is the mean over every
    other node of the level — including nodes already merged away,
    which are no longer anyone's sibling.  Each term is 0 when its set
    is empty.

    The printed equation sums cosine similarities; raw sums scale with
    the sibling count, so a literal reading lets SC cross any fixed
    threshold merely by having many siblings.  We therefore read the
    non-sibling Σ as an *average* — the scale-invariant interpretation
    under which the θ ∈ [0, 1] schedule of the footnote is meaningful —
    and the sibling Σ as the *best* sibling (the merge partner the next
    step would pick): a mean over heterogeneous siblings would let
    unrelated siblings veto a clearly co-fragmented pair.
    """
    others = ~np.eye(len(live), dtype=bool)
    siblings = same_parent & live & others
    rest = others & ~siblings
    best = np.where(siblings, cos, -np.inf).max(axis=1)
    best = np.where(siblings.any(axis=1), best, 0.0)
    count = rest.sum(axis=1)
    mean = np.where(rest, cos, 0.0).sum(axis=1) / np.maximum(count, 1)
    return best - mean


def _not_visually_separated(a: LayoutNode, b: LayoutNode, config: SegmentConfig) -> bool:
    gap = a.bbox.gap_distance(b.bbox)
    font = max(a.mean_font_size(), b.mean_font_size(), 1.0)
    return gap <= config.merge_gap_ratio * font


def _merge_nodes(parent: LayoutNode, a: LayoutNode, b: LayoutNode) -> LayoutNode:
    """Replace siblings ``a`` and ``b`` under ``parent`` by their union."""
    merged = LayoutNode(
        bbox=a.bbox.union(b.bbox),
        atoms=a.atoms + b.atoms,
        kind="merged",
    )
    # The merged node is a leaf-level union: children of the originals
    # collapse into it (the paper replaces both nodes by the merged one).
    new_children = []
    for child in parent.children:
        if child is a:
            new_children.append(merged)
        elif child is b:
            continue
        else:
            new_children.append(child)
    parent.replace_children(new_children)
    if merged.atoms:
        merged.bbox = enclosing_bbox([x.bbox for x in merged.atoms])
    return merged


def _node_label(node: LayoutNode) -> str:
    """Stable, cross-process identification of a node for trace events.

    ``node_id`` comes from a process-global counter, so it differs
    between a serial run and a worker process; a text snippet plus the
    rounded bbox identifies the node deterministically instead.
    """
    text = node.text().strip()
    snippet = text[:24] + ("…" if len(text) > 24 else "")
    b = node.bbox
    return f"{snippet!r}@({b.x:.0f},{b.y:.0f},{b.w:.0f},{b.h:.0f})"


def semantic_merge(
    tree: LayoutTree,
    config: SegmentConfig,
    embedding: Optional[WordEmbedding] = None,
    tracer: Optional[Tracer] = None,
    view: Optional[TextView] = None,
) -> int:
    """Run the merging fixpoint over ``tree``; returns merges performed.

    Each pass walks levels deepest-first; a pass that performs no merge
    terminates the loop.  With tracing enabled, every Eq. 1 comparison
    becomes a ``merge.decision`` event and every fixpoint pass a
    ``merge.pass`` event.  ``view`` is the document's text view (a
    fresh one by default).
    """
    fault_site("segment.merge")
    view = text_view(view, embedding)
    tracing = tracer is not None and tracer.enabled
    vectors: Dict[int, Tuple[np.ndarray, float]] = {}

    def stack(nodes: Sequence[LayoutNode]) -> Tuple[np.ndarray, np.ndarray]:
        """The nodes' vectors as matrix rows, and their norms."""
        for node in nodes:
            if node.node_id not in vectors:
                vectors[node.node_id] = view.vector(view.text(node))
        rows = [vectors[node.node_id] for node in nodes]
        return np.array([v for v, _ in rows]), np.array([n for _, n in rows])

    total = 0
    for _pass in range(32):  # fixpoint bound (defensive)
        height = tree.height
        theta = merge_threshold(height, config)
        merged_this_pass = 0
        for level in range(height, 0, -1):
            # The level's textual nodes are fixed when the level starts:
            # a node merged away later in this walk still counts as a
            # non-sibling, and a node a merge creates is not in the
            # matrix (though it can still be chosen as a partner).
            textual = [n for n in tree.nodes_at_level(level) if n.text_atoms]
            index = {id(n): i for i, n in enumerate(textual)}
            live = np.ones(len(textual), dtype=bool)
            # Each parent's live leaf textual children, in order — the
            # merge candidates of its children.  Only a merge under the
            # parent changes the list.
            candidates: Dict[int, List[LayoutNode]] = {}
            cos: Optional[np.ndarray] = None
            same_parent: Optional[np.ndarray] = None
            contributions: Optional[np.ndarray] = None
            for i, node in enumerate(textual):
                if not live[i]:
                    continue  # already consumed by a merge
                # Only leaves (logical-block candidates) merge — merging
                # internal nodes would discard their sub-structure.  The
                # guards against wrong merges are Eq. 1's contribution
                # threshold, the pairwise similarity gate and the
                # visual-separation test below.
                if not node.is_leaf:
                    continue
                parent = node.parent
                if id(parent) not in candidates:
                    candidates[id(parent)] = [
                        c for c in parent.children if c.is_leaf and c.text_atoms
                    ]
                siblings = [s for s in candidates[id(parent)] if s is not node]
                if not siblings:
                    continue
                if cos is None:
                    rows, norms = stack(textual)
                    cos = _ratios(rows @ rows.T, np.outer(norms, norms))
                    same_parent = _same_parent(textual)
                if contributions is None:
                    contributions = _contributions(cos, same_parent, live)
                sc = float(contributions[i])
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
                v, norm = vectors[node.node_id]
                rows, norms = stack(siblings)
                # One product-sum per row rather than BLAS ``rows @ v``:
                # gemv may block rows differently, so duplicate texts
                # could stop tying and the stable sort below would no
                # longer break their tie by sibling order.
                sims = _ratios((rows * v).sum(axis=1), norms * norm)
                chosen = None
                for k in np.argsort(-sims, kind="stable"):
                    # The θ schedule gates the *contribution*; the pair
                    # itself must genuinely share semantics, or tightly
                    # adjacent but semantically distinct areas (title vs
                    # schedule line) would re-merge.
                    if sims[k] > max(theta, 0.3) and _not_visually_separated(
                        node, siblings[k], config
                    ):
                        chosen = siblings[k]
                        _merge_nodes(parent, node, chosen)
                        del candidates[id(parent)]
                        live[i] = False
                        if id(chosen) in index:
                            live[index[id(chosen)]] = False
                        contributions = None
                        merged_this_pass += 1
                        break
                if tracing:
                    sim = sims[k] if chosen is not None else sims.max()
                    tracer.event(
                        "merge.decision",
                        height=height,
                        level=level,
                        theta=round(theta, 4),
                        sc=round(sc, 4),
                        node=_node_label(node),
                        merged=chosen is not None,
                        partner=_node_label(chosen) if chosen is not None else None,
                        sim=round(float(sim), 4),
                        reason="merged" if chosen is not None else "no_eligible_partner",
                    )
        total += merged_this_pass
        if tracing:
            tracer.event(
                "merge.pass",
                height=height,
                theta=round(theta, 4),
                merges=merged_this_pass,
            )
        # Merging two of a node's children can leave a unary chain
        # whose surviving leaf would be invisible to its aunt nodes on
        # the next pass; collapse chains before re-walking.
        tree.collapse_unary()
        if merged_this_pass == 0:
            break
    return total
