"""The perf layer: metrics accumulator, transcription cache, and the
parallel corpus runner (serial/parallel equivalence, error isolation,
deterministic ordering)."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.core.pipeline import VS2Pipeline
from repro.harness import ExperimentContext
from repro.ocr import OcrEngine
from repro.instrument import PipelineMetrics
from repro.ocr.cache import TranscriptionCache
from repro.perf import CorpusRunner
from repro.synth import generate_corpus

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _extraction_key(result):
    """Byte-stable view of one document's extractions."""
    return [
        (e.entity_type, e.text, tuple(vars(e.bbox).values()),
         tuple(vars(e.span_bbox).values()), e.score)
        for e in result.extractions
    ]


class ExplodingPipeline(VS2Pipeline):
    """Raises mid-pipeline for one specific document."""

    BAD_DOC = "D2-00002"

    def run(self, doc):
        if doc.doc_id == self.BAD_DOC:
            raise RuntimeError("injected mid-pipeline failure")
        return super().run(doc)


def _exploding_factory():
    return ExplodingPipeline("D2", cache=TranscriptionCache())


class ExplodeAllPipeline(VS2Pipeline):
    """Raises for every document (failure-ordering tests)."""

    def run(self, doc):
        raise RuntimeError("boom")


def _explode_all_factory():
    return ExplodeAllPipeline("D2", cache=TranscriptionCache())


@pytest.fixture(scope="module")
def corpus():
    return list(generate_corpus("D2", n=8, seed=3))


# ----------------------------------------------------------------------
# PipelineMetrics / StageTimer
# ----------------------------------------------------------------------
class TestPipelineMetrics:
    def test_stage_timer_records(self):
        m = PipelineMetrics()
        with m.stage("segment") as t:
            t.items = 5
        assert m["segment"].calls == 1
        assert m["segment"].items == 5
        assert m["segment"].seconds >= 0.0

    def test_records_even_when_block_raises(self):
        m = PipelineMetrics()
        with pytest.raises(ValueError):
            with m.stage("segment"):
                raise ValueError("boom")
        assert m["segment"].calls == 1

    def test_merge_and_drain(self):
        a, b = PipelineMetrics(), PipelineMetrics()
        a.record("ocr", 0.5, items=10)
        b.record("ocr", 0.25, items=5)
        b.record("select", 0.1)
        a.merge(b)
        assert a["ocr"].calls == 2
        assert a["ocr"].seconds == pytest.approx(0.75)
        assert a["ocr"].items == 15
        drained = a.drain()
        assert not a.stages and drained["select"].calls == 1

    def test_dict_roundtrip(self):
        m = PipelineMetrics()
        m.record("ocr", 1.5, items=3, calls=2)
        again = PipelineMetrics.from_dict(m.to_dict())
        assert again.to_dict() == m.to_dict()

    def test_format_table_lists_stages(self):
        m = PipelineMetrics()
        m.record("ocr", 0.1, items=7)
        m.record("segment.cuts", 0.05)
        table = m.format_table()
        assert "ocr" in table and "segment.cuts" in table

    def test_total_excludes_substages(self):
        m = PipelineMetrics()
        m.record("segment", 1.0)
        m.record("segment.cuts", 0.8)
        m.record("corpus", 2.0)
        assert m.total_seconds() == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Latency histograms (p50/p95/max)
# ----------------------------------------------------------------------
class TestLatencyHistograms:
    def test_observed_samples_populate_quantiles(self):
        m = PipelineMetrics()
        for seconds in (0.001, 0.002, 0.004, 0.100):
            m.record("segment", seconds)
        latency = m["segment"].latency
        assert latency.count == sum(latency.buckets) == 4
        assert latency.max == pytest.approx(0.100)
        p50, p95 = latency.quantile(0.50), latency.quantile(0.95)
        assert p50 is not None and p95 is not None
        # Quantiles are bucket upper-edge estimates: monotone and
        # bounded by the observed maximum.
        assert p50 <= p95 <= latency.max

    def test_aggregate_records_stay_out_of_the_histogram(self):
        """A multi-call aggregate carries no per-call distribution, so
        it must not fabricate histogram samples."""
        m = PipelineMetrics()
        m.record("ocr", 1.5, calls=3)
        assert m["ocr"].calls == 3
        assert m["ocr"].latency.count == sum(m["ocr"].latency.buckets) == 0
        assert m["ocr"].latency.quantile(0.50) is None and m["ocr"].latency.max == 0.0

    def test_count_is_not_a_latency_sample(self):
        m = PipelineMetrics()
        m.count("ocr.cache_hit", items=1)
        assert m["ocr.cache_hit"].calls == 1
        assert m["ocr.cache_hit"].latency.count == 0

    def test_merge_folds_histograms(self):
        a, b = PipelineMetrics(), PipelineMetrics()
        a.record("segment", 0.010)
        b.record("segment", 0.500)
        a.merge(b)
        assert a["segment"].latency.count == 2
        assert a["segment"].latency.max == pytest.approx(0.500)

    def test_format_table_has_percentile_columns(self):
        m = PipelineMetrics()
        m.record("segment", 0.020)
        table = m.format_table()
        assert "p50 ms" in table and "p95 ms" in table and "max ms" in table


class TestMetricsRoundTripProperty:
    """Satellite invariant: ``from_dict(m.to_dict()) == m`` exactly,
    for any accumulator reachable through the public recording API."""

    def test_property_roundtrip_is_lossless(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        ops = st.lists(
            st.tuples(
                st.sampled_from(["ocr", "segment", "segment.cuts", "select", "odd"]),
                st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=1, max_value=7),
            ),
            max_size=40,
        )

        @settings(max_examples=200, deadline=None)
        @given(ops=ops)
        def check(ops):
            m = PipelineMetrics()
            for name, seconds, items, calls in ops:
                m.record(name, seconds, items=items, calls=calls)
            again = PipelineMetrics.from_dict(m.to_dict())
            assert again == m
            assert again.to_dict() == m.to_dict()
            # And through JSON, as the benchmark's serve trace carries it.
            assert PipelineMetrics.from_dict(
                json.loads(json.dumps(m.to_dict()))
            ) == m

        check()

    def test_degenerate_stats_survive(self):
        """calls=0 with nonzero seconds (a hand-edited dict) must
        not be 'repaired' by the round-trip."""
        payload = {"ocr": {"calls": 0, "seconds": 1.25, "items": 3}}
        m = PipelineMetrics.from_dict(payload)
        assert m["ocr"].calls == 0 and m["ocr"].seconds == 1.25
        assert m.to_dict() == payload


# ----------------------------------------------------------------------
# TranscriptionCache
# ----------------------------------------------------------------------
class TestTranscriptionCache:
    def test_hit_returns_identical_transcription(self, corpus):
        engine = OcrEngine(seed=7)
        cache = TranscriptionCache()
        doc = corpus[0]
        ocr1, obs1, angle1 = cache.cleaned(engine, doc)
        ocr2, obs2, angle2 = cache.cleaned(engine, doc)
        assert cache.hits == 1 and cache.misses == 1
        assert ocr1 is ocr2 and obs1 is obs2 and angle1 == angle2

    def test_matches_uncached_clean_step(self, corpus):
        """Cached output must equal what engine+deskew produce directly."""
        from repro.ocr.deskew import deskew

        engine = OcrEngine(seed=7)
        doc = corpus[1]
        cached_ocr, cached_obs, cached_angle = TranscriptionCache().cleaned(engine, doc)
        direct = engine.transcribe(doc)
        direct_obs, direct_angle = deskew(direct.as_document(doc))
        assert [w.text for w in cached_ocr.words] == [w.text for w in direct.words]
        assert cached_angle == direct_angle
        assert [e.text for e in cached_obs.elements] == [
            e.text for e in direct_obs.elements
        ]

    def test_seed_partitions_the_key(self, corpus):
        cache = TranscriptionCache()
        doc = corpus[0]
        cache.cleaned(OcrEngine(seed=1), doc)
        cache.cleaned(OcrEngine(seed=2), doc)
        assert cache.misses == 2 and len(cache) == 2

    def test_max_entries_bounds_memory(self, corpus):
        cache = TranscriptionCache(max_entries=2)
        engine = OcrEngine(seed=7)
        for doc in corpus[:4]:
            cache.cleaned(engine, doc)
        assert len(cache) == 2

    def test_shared_between_pipeline_and_harness(self):
        """One cache serves ExperimentContext and VS2Pipeline: the
        pipeline's engine seed matches, so the corpus transcribes once."""
        ctx = ExperimentContext({"D2": 3}, seed=1, ocr_seed=0)
        ctx.cleaned("D2")
        misses_after_harness = ctx.cache.misses
        pipeline = VS2Pipeline("D2", cache=ctx.cache)
        for doc in ctx.corpus("D2"):
            pipeline.run(doc)
        assert ctx.cache.misses == misses_after_harness
        assert ctx.cache.hits >= len(ctx.corpus("D2"))

    def test_context_keeps_an_empty_shared_cache(self):
        shared = TranscriptionCache()
        assert ExperimentContext({"D2": 2}, cache=shared).cache is shared

    def test_serial_runner_fills_an_empty_shared_cache(self, corpus):
        shared = TranscriptionCache()
        CorpusRunner("D2", workers=1, cache=shared).run(corpus[:2])
        assert shared.misses == 2 and len(shared) == 2

    def test_default_bound_keeps_pipeline_memory_flat(self):
        """A long-lived pipeline's cache stops growing at 32 documents."""
        cache = TranscriptionCache()
        pipeline = VS2Pipeline("D2", cache=cache)
        for doc in generate_corpus("D2", n=36, seed=5):
            pipeline.run(doc)
        assert cache.misses == 36
        assert len(cache) == 32

    def test_context_transcribes_a_large_corpus_once(self):
        """The context's own cache is unbounded: cleaning then running
        more than 32 documents still transcribes each exactly once."""
        ctx = ExperimentContext({"D2": 36}, seed=5, ocr_seed=0)
        ctx.cleaned("D2")
        outcome = ctx.run_pipeline("D2")
        assert not outcome.failures
        assert ctx.cache.misses == len(ctx.corpus("D2")) == 36
        assert ctx.cache.hits == 36


# ----------------------------------------------------------------------
# CorpusRunner
# ----------------------------------------------------------------------
class TestCorpusRunner:
    def test_serial_run_collects_everything(self, corpus):
        outcome = CorpusRunner("D2", workers=1).run(corpus)
        assert not outcome.failures
        assert [r.doc_id for r in outcome.results] == [d.doc_id for d in corpus]

    def test_parallel_identical_to_serial(self, corpus):
        serial = CorpusRunner("D2", workers=1).run(corpus)
        parallel = CorpusRunner("D2", workers=3, chunk_size=2).run(corpus)
        assert [r.doc_id for r in parallel.results] == [d.doc_id for d in corpus]
        for s, p in zip(serial.results, parallel.results):
            assert _extraction_key(s) == _extraction_key(p)
            assert s.skew_angle == p.skew_angle

        def canon(outcome):
            return json.dumps(
                [_extraction_key(r) for r in outcome.results],
                sort_keys=True, default=float,
            ).encode()

        assert canon(serial) == canon(parallel)  # byte-identical output

    def test_metrics_cover_all_stages(self, corpus):
        outcome = CorpusRunner("D2", workers=2).run(corpus[:4])
        for stage in ("ocr", "deskew", "segment", "select"):
            assert outcome.metrics[stage].calls > 0, stage
        assert outcome.metrics["ocr"].items > 0  # words transcribed
        assert outcome.metrics["segment"].items > 0  # blocks produced

    def test_failure_isolated_serial(self, corpus):
        runner = CorpusRunner("D2", workers=1, pipeline_factory=_exploding_factory)
        outcome = runner.run(corpus[:5])
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.doc_id == ExplodingPipeline.BAD_DOC
        assert failure.error_type == "RuntimeError"
        assert "injected" in failure.message
        bad_index = [d.doc_id for d in corpus].index(ExplodingPipeline.BAD_DOC)
        assert outcome.results[bad_index] is None
        assert len(outcome.ok) == 4

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_failure_isolated_parallel(self, corpus):
        runner = CorpusRunner(
            "D2", workers=2, chunk_size=1, pipeline_factory=_exploding_factory
        )
        outcome = runner.run(corpus[:5])
        assert [f.doc_id for f in outcome.failures] == [ExplodingPipeline.BAD_DOC]
        assert len(outcome.ok) == 4
        # the surviving documents still match the healthy serial run
        healthy = CorpusRunner("D2", workers=1).run(corpus[:5])
        for h, p in zip(healthy.results, outcome.results):
            if p is not None:
                assert _extraction_key(h) == _extraction_key(p)

    def test_run_corpus_workers_via_pipeline(self, corpus):
        pipeline = VS2Pipeline("D2")
        results = pipeline.run_corpus(corpus[:4], workers=2)
        assert [r.doc_id for r in results] == [d.doc_id for d in corpus[:4]]
        assert pipeline.metrics["segment"].calls >= 4

    def test_context_run_pipeline(self):
        ctx = ExperimentContext({"D2": 4}, seed=0)
        outcome = ctx.run_pipeline("D2", workers=2)
        assert not outcome.failures
        assert len(outcome.ok) == 4
        assert ctx.metrics["select"].calls >= 4


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
class TestWarmProcessPool:
    def test_boot_spawns_every_worker_up_front(self):
        from repro.perf import WarmProcessPool

        with WarmProcessPool("D2", workers=2) as pool:
            pool.boot()
            assert pool.booted
            assert len(pool.pids()) == 2
        assert not pool.booted

    def test_shared_pool_survives_runner_runs(self, corpus):
        from repro.perf import WarmProcessPool

        serial = CorpusRunner("D2", workers=1).run(corpus)
        pool = WarmProcessPool("D2", workers=2).boot()
        try:
            runner = CorpusRunner("D2", chunk_size=2, pool=pool)
            assert runner.workers == 2  # adopted from the pool
            first = runner.run(corpus)
            assert pool.booted  # the runner must not shut a shared pool
            second = runner.run(corpus)
        finally:
            pool.close()
        for outcome in (first, second):
            assert not outcome.failures
            for s, p in zip(serial.results, outcome.results):
                assert _extraction_key(s) == _extraction_key(p)
        # metrics drain per chunk: the second run is not double-counted
        assert first.metrics["select"].calls == second.metrics["select"].calls

    def test_lone_document_runs_on_a_borrowed_pool(self, corpus, monkeypatch):
        """A runner given a warm pool sends a one-document call to a
        worker too, instead of building a second pipeline in-process."""
        from repro.perf import WarmProcessPool

        serial = CorpusRunner("D2").run(corpus[:1])

        def no_serial(self):
            raise AssertionError("ran in-process beside a warm pool")

        monkeypatch.setattr(CorpusRunner, "_serial", no_serial)
        pool = WarmProcessPool("D2", workers=2).boot()
        try:
            workers = {f"pid{pid}" for pid in pool.pids()}
            outcome = CorpusRunner("D2", pool=pool).run(corpus[:1])
        finally:
            pool.close()
        assert not outcome.failures and outcome.degrade_reason is None
        assert _extraction_key(outcome.results[0]) == _extraction_key(serial.results[0])
        reporters = {
            labels["worker"]
            for labels, _ in outcome.registry.samples("repro.process.rss_max_bytes")
        }
        assert reporters & workers  # a worker's resource sample came back

    def test_killed_worker_is_replaced_not_fatal(self, corpus):
        from repro.perf import WarmProcessPool

        pool = WarmProcessPool("D2", workers=2).boot()
        try:
            runner = CorpusRunner("D2", pool=pool)
            runner.run(corpus)
            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
            assert not victim.is_alive()
            second = runner.run(corpus)
            assert len(pool.pids()) == 2
            assert victim.pid not in pool.pids()
        finally:
            pool.close()
        assert not second.failures
        assert all(r is not None for r in second.results)

    def test_close_is_idempotent_and_reboots(self):
        from repro.perf import WarmProcessPool

        pool = WarmProcessPool("D2", workers=2)
        pool.close()  # never booted: a no-op
        pool.boot()
        pool.close()
        pool.close()
        pool.boot()  # a drained pool can boot again
        assert pool.booted
        pool.close()

    def test_boot_refuses_to_fork_beside_a_live_thread(self):
        """A fork copies every lock another thread may hold into the
        child; boot() names the live thread and forks nothing."""
        from repro.perf import WarmProcessPool

        release = threading.Event()
        bystander = threading.Thread(target=release.wait, name="bystander")
        bystander.start()
        pool = WarmProcessPool("D2", workers=2)
        try:
            with pytest.raises(RuntimeError, match="bystander"):
                pool.boot()
        finally:
            release.set()
            bystander.join(timeout=10)
        assert not bystander.is_alive()
        assert not pool.booted
        assert multiprocessing.active_children() == []

    def test_private_pool_runs_serially_beside_a_live_thread(self, corpus, monkeypatch):
        """A runner's own pool meets the same hazard as boot(): with
        another thread alive it forks nothing and the run degrades to
        serial, whose output is byte-identical."""
        from repro.perf import WarmProcessPool

        serial = CorpusRunner("D2").run(corpus)

        def no_fork(self):
            raise AssertionError("forked beside a live thread")

        monkeypatch.setattr(WarmProcessPool, "_spawn", no_fork)
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, name="bystander")
        bystander.start()
        try:
            outcome = CorpusRunner("D2", workers=2).run(corpus)
        finally:
            release.set()
            bystander.join(timeout=10)
        assert multiprocessing.active_children() == []
        assert "bystander" in outcome.degrade_reason
        assert not outcome.failures
        assert [_extraction_key(r) for r in outcome.results] == [
            _extraction_key(r) for r in serial.results
        ]

    def test_importing_the_program_starts_no_process_or_thread(self):
        """A pool or thread created at import time would fork before
        any caller could boot first."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        probe = (
            "import multiprocessing, threading; "
            "import repro.core.pipeline, repro.perf.runner, repro.serve; "
            "print(len(multiprocessing.active_children()), threading.active_count())"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.split() == ["0", "1"]


# ----------------------------------------------------------------------
# DocumentFailure context (doc index, seed, span path)
# ----------------------------------------------------------------------
class TestDocumentFailureContext:
    def test_failure_carries_index_and_span_path(self, corpus):
        from repro.trace import Tracer

        tracer = Tracer()
        runner = CorpusRunner(
            "D2", workers=1, pipeline_factory=_exploding_factory, tracer=tracer
        )
        outcome = runner.run(corpus[:5])
        failure = outcome.failures[0]
        bad_index = [d.doc_id for d in corpus].index(ExplodingPipeline.BAD_DOC)
        assert failure.doc_index == bad_index
        assert f"doc[{bad_index}]" in failure.span_path
        rendered = str(failure)
        assert f"doc[{bad_index}]" in rendered
        assert ExplodingPipeline.BAD_DOC in rendered
        assert failure.span_path in rendered

    def test_failure_without_tracer_still_reports_index(self, corpus):
        outcome = CorpusRunner(
            "D2", workers=1, pipeline_factory=_exploding_factory
        ).run(corpus[:5])
        failure = outcome.failures[0]
        assert failure.doc_index >= 0
        assert failure.span_path == ""
        assert failure.ocr_seed is not None  # from the pipeline's config

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_failures_sorted_by_document_index(self, corpus):
        outcome = CorpusRunner(
            "D2", workers=2, chunk_size=1, pipeline_factory=_explode_all_factory
        ).run(corpus[:4])
        assert [f.doc_index for f in outcome.failures] == [0, 1, 2, 3]


class TestStageStatsEdges:
    """Satellite fixes: quantiles on empty stats, width-mismatched
    histogram merges, and the CPU-time column."""

    def test_quantile_of_zero_observations_is_none(self):
        from repro.instrument import StageStats

        stats = StageStats()
        stats.add(1.5, calls=3)  # aggregate only: no histogram samples
        assert stats.latency.quantile(0.95) is None
        assert stats.latency.quantile(0.50) is None

    def test_merge_widens_shorter_histogram(self):
        from repro.instrument import HistogramValue, StageStats, hist_bucket

        short, long = StageStats(latency=HistogramValue([0] * 5)), StageStats()
        short.latency.buckets[2] = 4
        long.observe(0.5)  # lands far beyond bucket 5
        short.merge_from(long)
        assert len(short.latency.buckets) == len(long.latency.buckets)
        assert short.latency.buckets[2] == 4
        assert short.latency.buckets[hist_bucket(0.5)] == 1

    def test_from_dict_widens_for_out_of_range_buckets(self):
        from repro.instrument import HIST_BUCKETS, StageStats

        stats = StageStats.from_dict({
            "calls": 1, "seconds": 1.0,
            "latency": {"count": 1, "sum": 1.0, "buckets": {str(HIST_BUCKETS + 3): 1}},
        })
        assert sum(stats.latency.buckets) == 1  # widened, never dropped
        assert len(stats.latency.buckets) == HIST_BUCKETS + 4

    def test_cpu_seconds_round_trips_and_merges(self):
        from repro.instrument import StageStats

        a, b = StageStats(), StageStats()
        a.observe(0.01, cpu_seconds=0.004)
        b.observe(0.02, cpu_seconds=0.006)
        a.merge_from(b)
        assert a.cpu_seconds == pytest.approx(0.010)
        clone = StageStats.from_dict(a.to_dict())
        assert clone.cpu_seconds == pytest.approx(a.cpu_seconds)

    def test_stage_timer_measures_cpu(self):
        from repro.instrument import PipelineMetrics

        m = PipelineMetrics()
        with m.stage("busy"):
            sum(i * i for i in range(200_000))
        stats = m["busy"]
        assert stats.calls == 1
        # getrusage is available on this platform; a busy loop must
        # charge a nonzero user-CPU delta.
        assert stats.cpu_seconds > 0.0

    def test_stage_timer_wall_window_excludes_its_cpu_reads(self, monkeypatch):
        """A CPU-time read may be preempted on a busy machine.  With fake
        clocks where each read costs 1 s of wall time, the stage's wall
        time is its body's 0.25 s alone; the CPU delta is unchanged."""
        from types import SimpleNamespace

        import repro.instrument as instrument

        wall = [100.0]
        cpu = [5.0]

        def preempted_cpu_read():
            wall[0] += 1.0
            return cpu[0]

        monkeypatch.setattr(instrument, "time", SimpleNamespace(perf_counter=lambda: wall[0]))
        monkeypatch.setattr(instrument, "_cpu_now", preempted_cpu_read)
        m = PipelineMetrics()
        with m.stage("body"):
            wall[0] += 0.25
            cpu[0] += 0.125
        assert m["body"].seconds == 0.25
        assert m["body"].cpu_seconds == 0.125
