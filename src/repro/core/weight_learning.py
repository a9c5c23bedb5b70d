"""Learning the Eq. 2 weights from observed data (§7, future work).

The paper sets the (α, β, γ, ν) trade-off per corpus by rule of thumb
(§5.3.2) and names "learning to weight each feature based on observed
data" as future work.  This module implements that extension: a simplex
grid search over the weights, scoring each candidate by end-to-end F1
on a small annotated development split, exactly the signal a deployed
system has after labelling a handful of documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.config import SelectConfig, VS2Config
from repro.core.segment import VS2Segmenter
from repro.core.select import Extraction, VS2Selector
from repro.doc import Document
from repro.embeddings import default_embedding
from repro.eval.metrics import end_to_end_scores
from repro.ocr.deskew import rotate_back

Weights = Tuple[float, float, float, float]


def candidate_weight_grid(step: float = 0.25) -> List[Weights]:
    """All non-negative (α, β, γ, ν) on the ``step``-spaced simplex."""
    if not 0.0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    n = round(1.0 / step)
    grid: List[Weights] = []
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for c in range(n + 1 - a - b):
                d = n - a - b - c
                grid.append((a * step, b * step, c * step, d * step))
    return grid


@dataclass
class WeightLearningResult:
    weights: Weights
    f1: float
    tried: int


def learn_eq2_weights(
    dataset: str,
    dev_docs: Sequence[Tuple[Document, Document, float]],
    step: float = 0.25,
) -> WeightLearningResult:
    """Grid-search Eq. 2 weights on a development split.

    Parameters
    ----------
    dataset:
        ``"D2"`` or ``"D3"`` (D1's descriptor path does not use Eq. 2).
    dev_docs:
        Triples ``(original, observed, skew_angle)`` — the annotated
        document, its cleaned OCR view and the deskew angle (0.0 for
        upright sources).  Segmentation runs once per document; only
        the selection phase re-runs per weight candidate.
    step:
        Simplex resolution (0.25 ⇒ 35 candidates).
    """
    dataset = dataset.upper()
    if dataset not in ("D2", "D3"):
        raise ValueError("Eq. 2 weight learning applies to D2/D3")
    embedding = default_embedding()
    segmenter = VS2Segmenter(VS2Config().segment, embedding)
    segmented = [
        (original, observed, angle, segmenter.segment(observed).logical_blocks())
        for original, observed, angle in dev_docs
    ]

    best: WeightLearningResult | None = None
    grid = candidate_weight_grid(step)
    for weights in grid:
        config = SelectConfig()
        config.eq2_weights = {dataset: weights}
        selector = VS2Selector(dataset, config, embedding=embedding)
        results = []
        for original, observed, angle, blocks in segmented:
            extractions = [
                Extraction(
                    e.entity_type, e.text,
                    rotate_back(e.bbox, angle, observed),
                    rotate_back(e.span_bbox, angle, observed),
                    e.score,
                )
                for e in selector.extract(observed, blocks)
            ]
            results.append((extractions, original))
        f1 = end_to_end_scores(results)[0].f1
        if best is None or f1 > best.f1 + 1e-9:
            best = WeightLearningResult(weights, f1, len(grid))
    assert best is not None
    return best
