#!/usr/bin/env python
"""Record the golden decision ledgers of ``tests/goldens/``.

Usage (from the root of a checkout)::

    PYTHONPATH=src python tools/record_goldens.py

For each corpus in :data:`CORPORA` the full pipeline runs traced over a
fixed seeded sample, and one JSONL file records, per document, every
decision event of :data:`EVENTS` in canonical ledger form
(:func:`repro.trace.ledger_lines`) followed by one ``extractions`` row
holding the document's final extractions with exact float values.
``tests/test_goldens.py`` re-runs the same corpora and diffs the
ledgers with :func:`repro.trace.ledger_diff`, so any change of a
segmentation or selection decision shows up as the first diverging
line.

Run this only when a change of behaviour is intended, and explain the
resulting diff in the change that commits it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "goldens"

#: Every decision event the pipeline emits.
EVENTS = (
    "cut.decision",
    "merge.decision",
    "merge.pass",
    "pareto.front",
    "select.decision",
    "pipeline.degrade",
)
#: ``dataset: (documents, seed)`` of each golden corpus.
CORPORA: Dict[str, Tuple[int, int]] = {"D1": (2, 11), "D2": (12, 12), "D3": (6, 13)}


def _box(bbox) -> List[float]:
    return [bbox.x, bbox.y, bbox.w, bbox.h]


def golden_lines(dataset: str) -> List[str]:
    """The canonical ledger of one golden corpus, as recorded."""
    from repro.core.pipeline import VS2Pipeline
    from repro.synth import generate_corpus
    from repro.trace import Tracer, ledger_lines

    count, seed = CORPORA[dataset]
    tracer = Tracer()
    pipeline = VS2Pipeline(dataset, tracer=tracer)
    lines: List[str] = []
    for doc in generate_corpus(dataset, n=count, seed=seed):
        with tracer.span("doc", doc_id=doc.doc_id):
            result = pipeline.run(doc)
        lines.extend(ledger_lines(tracer.drain(), EVENTS))
        rows = [
            {
                "entity": e.entity_type,
                "text": e.text,
                "bbox": _box(e.bbox),
                "span_bbox": _box(e.span_bbox),
                "score": e.score,
            }
            for e in result.extractions
        ]
        lines.append(
            json.dumps(
                {
                    "event": "extractions",
                    "doc": doc.doc_id,
                    "rows": rows,
                    "degradations": [d.to_dict() for d in result.degradations],
                },
                sort_keys=True,
                ensure_ascii=False,
            )
        )
    return lines


def golden_path(dataset: str) -> Path:
    return GOLDEN_DIR / f"{dataset}.jsonl"


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for dataset in CORPORA:
        lines = golden_lines(dataset)
        path = golden_path(dataset)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{path.relative_to(ROOT)}: {len(lines)} lines, {path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
