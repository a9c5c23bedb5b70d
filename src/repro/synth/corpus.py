"""Corpus containers and generation dispatch."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.doc import Document
from repro.synth.flyers import FlyerGenerator
from repro.synth.posters import PosterGenerator
from repro.synth.tax_forms import TaxFormGenerator

#: Paper corpus sizes (we default to smaller slices for tractable runs;
#: pass ``n`` explicitly to scale up).
PAPER_SIZES = {"D1": 5595, "D2": 2190, "D3": 1200}
DEFAULT_SIZES = {"D1": 60, "D2": 80, "D3": 60}


@dataclass
class Corpus:
    """A generated dataset slice."""

    dataset: str
    documents: List[Document] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def __getitem__(self, i: int) -> Document:
        return self.documents[i]

    def entity_types(self) -> List[str]:
        seen: Dict[str, None] = {}
        for doc in self.documents:
            for a in doc.annotations:
                seen.setdefault(a.entity_type, None)
        return list(seen)

    def total_annotations(self) -> int:
        return sum(len(d.annotations) for d in self.documents)

    def by_source(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for doc in self.documents:
            counts[doc.source] = counts.get(doc.source, 0) + 1
        return counts


def generate_corpus(dataset: str, n: int = 0, seed: int = 0) -> Corpus:
    """Generate ``n`` documents of ``dataset`` ("D1" | "D2" | "D3").

    ``n == 0`` uses :data:`DEFAULT_SIZES`.  Deterministic in
    ``(dataset, n, seed)``; document ``i`` is identical across corpus
    sizes, so growing a corpus extends it rather than reshuffling.
    """
    dataset = dataset.upper()
    if dataset not in PAPER_SIZES:
        raise ValueError(f"unknown dataset {dataset!r} (expected D1/D2/D3)")
    if n <= 0:
        n = DEFAULT_SIZES[dataset]
    if dataset == "D1":
        generator = TaxFormGenerator(seed)
    elif dataset == "D2":
        generator = PosterGenerator(seed)
    else:
        generator = FlyerGenerator(seed)
    documents = [generator.generate(f"{dataset}-{i:05d}", i) for i in range(n)]
    return Corpus(dataset, documents)


def train_test_split(
    corpus: Corpus, train_fraction: float, seed: int = 0
) -> Tuple[Corpus, Corpus]:
    """Shuffled split (ReportMiner's 60/40 protocol uses this)."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus))
    cut = int(round(train_fraction * len(corpus)))
    train = [corpus.documents[int(i)] for i in order[:cut]]
    test = [corpus.documents[int(i)] for i in order[cut:]]
    return Corpus(corpus.dataset, train), Corpus(corpus.dataset, test)
