"""Perf-trajectory smoke bench (``bench_smoke`` marker).

Runs one tiny corpus through the instrumented parallel runner and
writes ``benchmarks/results/BENCH_pipeline.json`` — the per-stage
timing snapshot future PRs diff against (docs/PROFILING.md) — then
proves the ``segment.cuts`` fast path on all three corpora: the
``cut.decision`` ledgers of a fast and a ``--naive-cuts`` run must be
byte-identical, and the fast run must actually be faster (the
regression gate; docs/PERFORMANCE.md).  Kept deliberately small so it
can run on every change::

    make bench-smoke
    # or
    PYTHONPATH=src python -m pytest benchmarks/test_bench_smoke.py -m bench_smoke -q
"""

from __future__ import annotations

import pytest

from repro.analysis.contracts import contracts_mode
from repro.core.config import VS2Config
from repro.core.pipeline import VS2Pipeline
from repro.harness import ExperimentContext, timing_table
from repro.instrument import PipelineMetrics
from repro.ocr.cache import TranscriptionCache
from repro.perf.snapshot import write_snapshot
from repro.synth import generate_corpus
from repro.trace import Tracer, ledger_diff, ledger_lines, validate_chrome_trace, write_chrome_trace

from conftest import save_result

SMOKE_DOCS = 8
SMOKE_WORKERS = 2

#: Fast-path regression gate: the prefix-sum path must beat the naive
#: rescan by at least this factor on ``segment.cuts`` (measured 2–3×
#: across corpora; the loose floor absorbs machine noise while still
#: failing if the fast path silently stops being wired in).
MIN_CUTS_SPEEDUP = 1.3


def _paired_ledger_run(dataset: str, n_docs: int):
    """Run ``n_docs`` of ``dataset`` through the pipeline twice — fast
    and naive cut search — sharing one transcription cache so both see
    byte-identical observed documents.  Returns per-variant canonical
    ledgers and ``segment.cuts`` seconds."""
    corpus = generate_corpus(dataset, n=n_docs, seed=0)
    cache = TranscriptionCache()
    out = {}
    for fast in (True, False):
        config = VS2Config.for_dataset(dataset)
        config.segment.fast_cuts = fast
        tracer = Tracer()
        metrics = PipelineMetrics()
        pipeline = VS2Pipeline(
            dataset, config=config, cache=cache, metrics=metrics, tracer=tracer
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
        diff = ledger_diff(naive_ledger, fast_ledger, "naive-cuts", "fast-cuts")
        assert not diff, (
            f"{dataset}: fast and naive cut decisions diverge:\n"
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


@pytest.mark.bench_smoke
def test_bench_smoke_pipeline(results_dir):
    tracer = Tracer()
    ctx = ExperimentContext({"D2": SMOKE_DOCS}, seed=0)
    outcome = ctx.run_pipeline("D2", workers=SMOKE_WORKERS, tracer=tracer)

    assert not outcome.failures, [str(f) for f in outcome.failures]
    assert len(outcome.ok) == SMOKE_DOCS
    for stage in ("ocr", "deskew", "segment", "select"):
        assert outcome.metrics[stage].calls > 0, f"stage {stage} not recorded"
        assert outcome.metrics[stage].p95_ms is not None, f"stage {stage} has no histogram"

    snapshot_path = write_snapshot(
        results_dir / "BENCH_pipeline.json",
        outcome.metrics,
        contracts=contracts_mode(),
        dataset="D2",
        n_docs=SMOKE_DOCS,
        workers=SMOKE_WORKERS,
        seed=0,
        failures=len(outcome.failures),
    )
    assert "p95" in snapshot_path.read_text() or "hist" in snapshot_path.read_text()

    # The smoke bench doubles as the trace exporter's schema check:
    # normalised so the artefact is diffable across machines.
    trace_path = write_chrome_trace(
        results_dir / "BENCH_pipeline_trace.json", tracer.drain(), normalize=True
    )
    assert validate_chrome_trace(trace_path) > 0

    save_result(
        results_dir,
        "bench_smoke",
        timing_table(outcome.metrics, title="Pipeline per-stage timing (smoke)").format(),
    )

    # Run-health gate: append this run to the bench history and judge
    # it against the recorded trajectory (docs/OBSERVABILITY.md).  With
    # too little history the verdict passes vacuously, so a fresh
    # checkout is never blocked.
    from repro.obs import (
        append_history,
        evaluate,
        format_verdict,
        history_record,
        load_history,
    )

    history_path = results_dir / "BENCH_history.jsonl"
    append_history(
        history_path,
        history_record(
            outcome.metrics,
            dataset="D2",
            n_docs=SMOKE_DOCS,
            workers=SMOKE_WORKERS,
            seed=0,
            failures=len(outcome.failures),
        ),
    )
    records = [
        r for r in load_history(history_path)
        if r.get("meta", {}).get("dataset") == "D2"
    ]
    verdict = evaluate(records[-1], records[:-1][-20:])
    save_result(results_dir, "bench_smoke_health", format_verdict(verdict))
    assert verdict.ok, "run-health SLO verdict failed:\n" + format_verdict(verdict)
