"""Configuration of the VS2 pipeline.

Every tunable the paper mentions (and every ablation switch of Table 9)
lives here, so experiments are reproducible from a config value rather
than from code edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass
class SegmentConfig:
    """VS2-Segment parameters."""

    #: Grid cell size (layout units) for whitespace/cut computation.
    cell: float = 4.0
    #: Minimum delimiter span as a multiple of the region's max element
    #: height — horizontal (between stacked areas) and vertical
    #: (between columns).  Gaps below the floor are ordinary spacing.
    min_h_gap_ratio: float = 0.6
    min_v_gap_ratio: float = 2.0
    #: Recursion depth cap (defensive; convergence normally stops it).
    max_depth: int = 8
    #: Use the implicit-modifier clustering step (Table 9 ablation A2
    #: disables visual-feature clustering).
    use_visual_clustering: bool = True
    #: Use semantic merging (Table 9 ablation A1 disables it).
    use_semantic_merging: bool = True
    #: θ bounds of the merge threshold schedule (paper footnote:
    #: θ_h = θ_min + (θ_max − θ_min)/10 · h).
    theta_min: float = 0.0
    theta_max: float = 1.0
    #: Two sibling areas may merge only when the whitespace between
    #: them is at most this multiple of the larger mean font size.
    merge_gap_ratio: float = 0.8
    #: Minimum atoms for a region to be further segmented.
    min_atoms_to_split: int = 2
    #: Weight of the font-type dissimilarity term in the clustering
    #: distance — the paper's §7 future-work feature ("a generalizable
    #: feature to identify font-type").  0 reproduces the published
    #: system; the extension bench sweeps it.
    font_type_weight: float = 0.0


@dataclass
class SelectConfig:
    """VS2-Select / disambiguation parameters."""

    #: Eq. 2 weights (α, β, γ, ν) by dataset; §5.3.2: visually ornate
    #: corpora (D2) weigh visual terms above the textual term γ, while
    #: balanced corpora (D1, D3) use α ≈ β ≈ γ ≈ ν.
    eq2_weights: Dict[str, Tuple[float, float, float, float]] = field(
        default_factory=lambda: {
            "D1": (0.25, 0.25, 0.25, 0.25),
            "D2": (0.30, 0.30, 0.10, 0.30),
            "D3": (0.25, 0.25, 0.25, 0.25),
        }
    )
    #: Use the multimodal disambiguation (Table 9 ablation A3 turns it
    #: off — first match wins; A4 swaps in text-only Lesk).
    disambiguation: str = "multimodal"  # "multimodal" | "none" | "lesk"
    #: Minimum support fraction when mining patterns from the holdout.
    min_support_fraction: float = 0.25
    #: Pattern source: "mined" (holdout + subtree mining) or "curated"
    #: (the compiled Tables 3/4 pattern library).
    pattern_source: str = "curated"
    #: Skip visual selection entirely and answer from the NER fallback.
    #: This is the proactive form of the select→ner_fallback degradation
    #: rung: the serve-layer circuit breaker flips it while the select
    #: stage's breaker is open, instead of waiting for each doc to fail.
    ner_only: bool = False


@dataclass
class VS2Config:
    """Top-level configuration."""

    segment: SegmentConfig = field(default_factory=SegmentConfig)
    select: SelectConfig = field(default_factory=SelectConfig)
    ocr_seed: int = 0

    @staticmethod
    def for_dataset(dataset: str) -> "VS2Config":
        """Defaults per dataset (only Eq. 2 weights differ)."""
        return VS2Config()
