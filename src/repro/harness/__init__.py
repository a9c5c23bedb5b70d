"""Experiment harness: one runner per table and figure of the paper.

Every public function regenerates one experimental artefact:

=====================  ================================================
``table5``             segmentation comparison (A1–A6 × D1/D2/D3)
``table6``             end-to-end per-entity results on D2 (+ΔF1)
``table7``             end-to-end comparison of six methods
``table8``             end-to-end per-entity results on D3 (+ΔF1)
``table9``             ablation study (ΔF1 per disabled component)
``table2``             holdout corpus construction summary
``tables3_4``          learned syntactic patterns (mined vs curated)
``figure3``            text-only NER false positives on a poster
``figure4_and_6``      layout tree / logical blocks / interest points
=====================  ================================================

All runners take ``n_docs`` and ``seed``; absolute numbers move with
corpus size, the paper's *shape* (who wins, by how much, where it
breaks) is what the accompanying benches assert.
"""

from repro.harness.reporting import TableResult
from repro.harness.runner import ExperimentContext
from repro.harness.tables import (
    table2,
    table5,
    table6,
    table7,
    table8,
    table9,
    tables3_4,
)
from repro.harness.figures import figure3, figure4_and_6

__all__ = [
    "TableResult",
    "ExperimentContext",
    "table2",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "tables3_4",
    "figure3",
    "figure4_and_6",
]
