"""Multimodal entity disambiguation (§5.3.2, Eq. 2).

When a pattern matches several blocks, the candidate closest to an
interest point in a multimodal encoding space wins.  The distance
between two visual areas ``s`` and ``c`` is

    F(s, c) = α·ΔD + β·ΔH + γ·ΔSim + ν·ΔWd,   α + β + γ + ν = 1

with ΔD the L1 distance between centroids, ΔH the height difference of
the enclosing boxes, ΔSim the *textual* term (we realise it as cosine
**dissimilarity** — Eq. 2 is a distance, so similar text must shrink
it), and ΔWd the difference of distance-normalised word densities.
Every term is normalised to [0, 1] before weighting so the weights
express the §5.3.2 trade-off directly: visually ornate corpora (D2) set
α, β, ν ≥ γ; balanced corpora (D1, D3) use α ≈ β ≈ γ ≈ ν.

Both areas' text vectors (and norms) come from the document's
:class:`~repro.core.textview.TextView`: each block is embedded once per
document, not once per (candidate, interest point) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.textview import TextView, text_view
from repro.doc.layout_tree import LayoutNode
from repro.embeddings import WordEmbedding, cosine_of


@dataclass(frozen=True)
class Eq2Weights:
    """The (α, β, γ, ν) weights of Eq. 2."""

    alpha: float
    beta: float
    gamma: float
    nu: float

    def __post_init__(self) -> None:
        total = self.alpha + self.beta + self.gamma + self.nu
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"Eq. 2 weights must sum to 1 (got {total})")
        for w in (self.alpha, self.beta, self.gamma, self.nu):
            if not -1.0 <= w <= 1.0:
                raise ValueError("Eq. 2 weights must lie in [-1, 1]")

    @staticmethod
    def from_tuple(weights: Tuple[float, float, float, float]) -> "Eq2Weights":
        return Eq2Weights(*weights)


def multimodal_distance(
    s: LayoutNode,
    c: LayoutNode,
    weights: Eq2Weights,
    page_diag: float,
    embedding: Optional[WordEmbedding] = None,
    view: Optional[TextView] = None,
) -> float:
    """Eq. 2: weighted L1 distance between two visual areas."""
    view = text_view(view, embedding)
    if page_diag <= 0:
        raise ValueError("page_diag must be positive")
    delta_d = s.bbox.centroid_l1_distance(c.bbox) / (2.0 * page_diag)
    max_h = max(s.bbox.h, c.bbox.h, 1.0)
    delta_h = abs(s.bbox.h - c.bbox.h) / max_h
    sim = cosine_of(*view.vector(view.text(s)), *view.vector(view.text(c)))
    delta_sim = (1.0 - sim) / 2.0
    d_s, d_c = s.word_density(), c.word_density()
    max_density = max(d_s, d_c, 1e-9)
    delta_wd = abs(d_s - d_c) / max_density
    return (
        weights.alpha * delta_d
        + weights.beta * delta_h
        + weights.gamma * delta_sim
        + weights.nu * delta_wd
    )


def distance_to_interest_points(
    candidate: LayoutNode,
    interest_points: Sequence[LayoutNode],
    weights: Eq2Weights,
    page_diag: float,
    embedding: Optional[WordEmbedding] = None,
    view: Optional[TextView] = None,
) -> float:
    """min over interest points of Eq. 2 — the candidate's rank key."""
    if not interest_points:
        return float("inf")
    view = text_view(view, embedding)
    return min(
        multimodal_distance(candidate, ip, weights, page_diag, view=view)
        for ip in interest_points
    )


def rank_candidates(
    candidates: Sequence[LayoutNode],
    interest_points: Sequence[LayoutNode],
    weights: Eq2Weights,
    page_diag: float,
    embedding: Optional[WordEmbedding] = None,
) -> Sequence[int]:
    """Indices of ``candidates`` ordered best (closest) first.

    Ties preserve input (document) order.
    """
    view = TextView(embedding)
    scores = [
        distance_to_interest_points(c, interest_points, weights, page_diag, view=view)
        for c in candidates
    ]
    return sorted(range(len(candidates)), key=lambda i: (scores[i], i))
