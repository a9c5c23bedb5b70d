"""Interest points: optimal subset selection over logical blocks (§5.3.1).

An interest point is a visually prominent or semantically significant
area.  Each logical block is scored on the paper's three objectives —

1. maximise the height of its bounding box (large type ⇒ salience);
2. maximise semantic coherence (sum of pairwise cosine similarities of
   its text elements);
3. minimise average word density (sparse, large areas are highlights);

— and the **first-order Pareto front** under non-dominated sorting [25]
is the selected subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.doc.layout_tree import LayoutNode
from repro.embeddings import WordEmbedding, default_embedding
from repro.optimize import pareto_front
from repro.trace import Tracer


@dataclass(frozen=True)
class BlockObjectives:
    """The three §5.3.1 objectives of one block (maximisation form)."""

    height: float
    coherence: float
    negated_density: float

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.height, self.coherence, self.negated_density)


def semantic_coherence(block: LayoutNode, embedding: WordEmbedding) -> float:
    """Sum of pairwise cosine similarities between the block's words.

    Capped at 40 words (coherence of a long paragraph saturates; the
    quadratic sum would otherwise dwarf every other block).
    """
    texts = [a.text for a in block.text_atoms][:40]
    if len(texts) < 2:
        return 0.0
    vectors = np.array([embedding.embed(t) for t in texts])
    # Every dot product through a broadcast vector-vector matmul, which
    # runs the kernel np.dot (and so np.linalg.norm) runs per pair; the
    # cosines of the pairs i < j of non-zero vectors are then added in
    # row-major order, so the sum is bitwise cosine_similarity's summed
    # pair by pair (the loop is kept in tests/test_features_misc.py).
    dots = np.matmul(vectors[:, None, None, :], vectors[None, :, :, None])[:, :, 0, 0]
    norms = np.sqrt(dots.diagonal())
    rows, cols = np.triu_indices(len(texts), 1)
    keep = (norms[rows] != 0.0) & (norms[cols] != 0.0)
    rows, cols = rows[keep], cols[keep]
    total = 0.0
    for cosine in (dots[rows, cols] / (norms[rows] * norms[cols])).tolist():
        total += cosine
    return total


def block_objectives(
    block: LayoutNode, embedding: Optional[WordEmbedding] = None
) -> BlockObjectives:
    embedding = embedding or default_embedding()
    return BlockObjectives(
        height=block.bbox.h,
        coherence=semantic_coherence(block, embedding),
        negated_density=-block.word_density(),
    )


def select_interest_points(
    blocks: Sequence[LayoutNode],
    embedding: Optional[WordEmbedding] = None,
    tracer: Optional[Tracer] = None,
) -> List[LayoutNode]:
    """The first-order Pareto front of ``blocks`` under the three
    objectives.  Blocks without text never qualify.

    With tracing enabled, one ``pareto.front`` event records every
    block's objective vector and whether it survived non-dominated
    sorting.
    """
    embedding = embedding or default_embedding()
    textual = [b for b in blocks if b.text_atoms]
    if not textual:
        if tracer is not None and tracer.enabled:
            tracer.event("pareto.front", blocks=[], selected=0, total=0)
        return []
    points = [block_objectives(b, embedding).as_tuple() for b in textual]
    front = pareto_front(points)
    if tracer is not None and tracer.enabled:
        keep = set(front)
        tracer.event(
            "pareto.front",
            blocks=[
                {
                    "index": i,
                    "height": round(float(p[0]), 3),
                    "coherence": round(float(p[1]), 4),
                    "density": round(-float(p[2]), 4),
                    "selected": i in keep,
                }
                for i, p in enumerate(points)
            ],
            selected=len(front),
            total=len(textual),
        )
    return [textual[i] for i in front]


def interest_point_matrix(blocks: Sequence[LayoutNode]) -> np.ndarray:
    """Objective matrix (diagnostics / figure benches)."""
    return np.array([block_objectives(b).as_tuple() for b in blocks])
