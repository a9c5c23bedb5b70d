"""Fast-vs-reference cut-path gate (``bench_smoke`` marker).

Proves the ``segment.cuts`` profile path on all three corpora: the
``cut.decision`` ledgers of a normal run and of one with the per-slope
reference scan swapped in must be byte-identical, and the normal run
must actually be faster (the regression gate; docs/PERFORMANCE.md).
Kept deliberately small so it can run on every change::

    make bench-smoke
    # or
    PYTHONPATH=src python -m pytest benchmarks/test_bench_smoke.py -m bench_smoke -q

Pipeline speed itself is measured by the repo benchmark
(``perfbench/``, ``BENCHMARK.json``).
"""

from __future__ import annotations

import pytest

import repro.core.segment as segment
from repro.core.config import VS2Config
from repro.core.pipeline import VS2Pipeline
from repro.geometry.cuts import reference_interior_cut_sets
from repro.instrument import PipelineMetrics
from repro.ocr.cache import TranscriptionCache
from repro.synth import generate_corpus
from repro.trace import Tracer, ledger_diff, ledger_lines

from conftest import save_result

#: Fast-path regression gate: the prefix-sum path must beat the per-
#: slope reference rescan by at least this factor on ``segment.cuts``
#: (measured 2–3× across corpora; the loose floor absorbs machine noise
#: while still failing if the fast path silently stops being wired in).
MIN_CUTS_SPEEDUP = 1.3


class _NoProfiles:
    """Stands in for ``ProfileStore``: the reference side builds no
    projection profile, so its ``segment.cuts`` time is the plain scan."""

    def profile_for(self, *args):
        return None


def _reference_cuts(grid, orientation, profile=None):
    return reference_interior_cut_sets(grid, orientation)


def _paired_ledger_run(dataset: str, n_docs: int):
    """Run ``n_docs`` of ``dataset`` through the pipeline twice — with
    the profile path and with the reference scan swapped in — sharing
    one transcription cache so both see byte-identical observed
    documents.  Returns per-variant canonical ledgers and
    ``segment.cuts`` seconds."""
    corpus = generate_corpus(dataset, n=n_docs, seed=0)
    cache = TranscriptionCache()
    out = {}
    for fast in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not fast:
                patch.setattr(segment, "ProfileStore", _NoProfiles)
                patch.setattr(segment, "interior_cut_sets", _reference_cuts)
            tracer = Tracer()
            metrics = PipelineMetrics()
            pipeline = VS2Pipeline(
                dataset,
                config=VS2Config.for_dataset(dataset),
                cache=cache,
                metrics=metrics,
                tracer=tracer,
            )
            for i, doc in enumerate(corpus):
                with tracer.span("doc", index=i, doc_id=doc.doc_id):
                    pipeline.run(doc)
        out[fast] = (ledger_lines(tracer.drain()), metrics["segment.cuts"].seconds)
    return out


@pytest.mark.bench_smoke
def test_bench_smoke_fast_naive_equivalence(results_dir):
    """Acceptance gate of the fast cut path: ledger byte-identity on
    all three corpora plus the speedup floor."""
    report = []
    total_fast = total_naive = 0.0
    for dataset in ("D1", "D2", "D3"):
        runs = _paired_ledger_run(dataset, n_docs=4)
        fast_ledger, fast_s = runs[True]
        naive_ledger, naive_s = runs[False]
        assert fast_ledger, f"{dataset}: no cut.decision events traced"
        diff = ledger_diff(naive_ledger, fast_ledger, "reference-cuts", "profile-cuts")
        assert not diff, (
            f"{dataset}: profile and reference cut decisions diverge:\n"
            + "\n".join(diff[:40])
        )
        total_fast += fast_s
        total_naive += naive_s
        report.append(
            f"{dataset}: {len(fast_ledger)} decisions identical; "
            f"segment.cuts fast={fast_s:.3f}s naive={naive_s:.3f}s"
        )
    speedup = total_naive / total_fast if total_fast > 0 else float("inf")
    report.append(f"TOTAL segment.cuts speedup: {speedup:.2f}x (gate {MIN_CUTS_SPEEDUP}x)")
    save_result(results_dir, "bench_smoke_equivalence", "\n".join(report))
    assert speedup >= MIN_CUTS_SPEEDUP, (
        f"segment.cuts fast path regressed: {speedup:.2f}x < {MIN_CUTS_SPEEDUP}x "
        f"(fast={total_fast:.3f}s naive={total_naive:.3f}s)"
    )

