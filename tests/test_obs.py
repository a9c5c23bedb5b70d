"""Tests for :mod:`repro.obs` — registry algebra and exporters.

The contract under test is the tentpole claim of the observability
layer: a :class:`MetricRegistry` is a *mergeable* value (associative,
serialisation round-trips losslessly), the serial and parallel
execution paths produce byte-identical normalised dumps, the
``repro.resilience.*`` counters mirror the supervision ledger exactly,
the Prometheus exposition survives a parse round-trip, and a pooled
``repro extract --metrics`` run exports a clean, complete registry.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.instrument import PipelineMetrics
from repro.obs.export import (
    exposition_samples,
    parse_prometheus,
    read_metrics_jsonl,
    to_prometheus,
    validate_prometheus,
    write_metrics_jsonl,
)
from repro.obs.names import METRIC_NAMES
from repro.obs.registry import MetricRegistry, get_registry, ingest_pipeline_metrics
from repro.perf import CorpusRunner
from repro.resilience import FaultPlan, SupervisionPolicy, uninstall
from repro.synth import generate_corpus

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(autouse=True)
def _clean_ambient():
    """Tests must not inherit (or leak) ambient samples or fault plans."""
    get_registry().drain()
    uninstall()
    yield
    get_registry().drain()
    uninstall()


def corpus(n: int = 4, seed: int = 3):
    return list(generate_corpus("D2", n=n, seed=seed))


# ----------------------------------------------------------------------
# Registry algebra (property-based)
# ----------------------------------------------------------------------
_NAMES = st.sampled_from(["alpha", "beta", "gamma"])
_LABELS = st.dictionaries(
    st.sampled_from(["stage", "corpus"]), st.sampled_from(["a", "b"]), max_size=2
)

_COUNTER_OPS = st.tuples(st.just("counter"), _NAMES, _LABELS, st.integers(0, 50))
_GAUGE_OPS = st.tuples(st.just("gauge"), _NAMES, _LABELS, st.integers(-5, 50))
# Histogram observations as integers too: bucket counts and integer
# sums merge associatively, so equality is exact.
_HIST_OPS = st.tuples(st.just("hist"), _NAMES, _LABELS, st.integers(0, 1 << 12))
_OPS = st.lists(st.one_of(_COUNTER_OPS, _GAUGE_OPS, _HIST_OPS), max_size=24)


def _apply(ops) -> MetricRegistry:
    reg = MetricRegistry(strict=False)
    for kind, name, labels, value in ops:
        # One registry must use each name with a single kind.
        name = f"{kind}.{name}"
        if kind == "counter":
            reg.counter(name, **labels).inc(value)
        elif kind == "gauge":
            reg.gauge(name, **labels).set_max(value)
        else:
            reg.histogram(name, **labels).observe(value)
    return reg


class TestRegistryProperties:
    @settings(max_examples=60, deadline=None)
    @given(_OPS)
    def test_dict_round_trip(self, ops):
        reg = _apply(ops)
        clone = MetricRegistry.from_dict(reg.to_dict(), strict=False)
        assert clone.to_dict() == reg.to_dict()
        assert clone.normalized_dump() == reg.normalized_dump()

    @settings(max_examples=60, deadline=None)
    @given(_OPS, _OPS, _OPS)
    def test_merge_is_associative(self, a, b, c):
        left = _apply(a).merge(_apply(b)).merge(_apply(c))
        right = _apply(a).merge(_apply(b).merge(_apply(c)))
        assert left.to_dict() == right.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(_OPS, _OPS)
    def test_split_equals_whole(self, a, b):
        """Emitting in one registry == emitting in two and merging —
        the property the chunked parallel return path relies on."""
        whole = _apply(a + b)
        split = _apply(a).merge(_apply(b))
        assert split.to_dict() == whole.to_dict()

    def test_strict_rejects_undeclared_and_wrong_kind(self):
        reg = MetricRegistry()
        with pytest.raises(KeyError):
            reg.counter("repro.docs.procesed")
        with pytest.raises(TypeError):
            reg.gauge("repro.docs.processed")  # declared as a counter

    def test_drain_moves_everything(self):
        reg = MetricRegistry(strict=False)
        reg.counter("n").inc(3)
        drained = reg.drain()
        assert drained.counter("n").value == 3
        assert reg.to_dict()["metrics"] == {}


# ----------------------------------------------------------------------
# Serial vs parallel byte-identity
# ----------------------------------------------------------------------
class TestSerialParallelParity:
    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_normalized_dump_is_byte_identical(self):
        docs = corpus()
        serial = CorpusRunner("D2").run(docs)
        parallel = CorpusRunner("D2", workers=2).run(docs)
        assert (
            serial.registry.normalized_dump()
            == parallel.registry.normalized_dump()
        )

    def test_deterministic_dump_excludes_environment_metrics(self):
        outcome = CorpusRunner("D2").run(corpus())
        dump = json.loads(outcome.registry.normalized_dump())
        names = set(dump["metrics"])
        assert "repro.docs.processed" in names
        assert not any(n.startswith("repro.process.") for n in names)
        assert "repro.stage.seconds" not in names
        assert "repro.stage.latency" not in names

    def test_docs_processed_counts_the_corpus(self):
        docs = corpus()
        outcome = CorpusRunner("D2").run(docs)
        [(labels, value)] = outcome.registry.samples("repro.docs.processed")
        assert labels == {"corpus": "D2", "status": "ok"}
        assert value == len(docs)


# ----------------------------------------------------------------------
# Resilience counters mirror the supervision ledger
# ----------------------------------------------------------------------
class TestChaosCounters:
    def test_counters_match_the_ledger(self):
        docs = corpus(n=6)
        plan = FaultPlan.from_spec("ocr:flaky@0.4@attempts=1,worker:fail@doc=2", seed=3)
        runner = CorpusRunner(
            "D2",
            fault_plan=plan,
            supervision=SupervisionPolicy(backoff_base_s=0.01, backoff_cap_s=0.04),
        )
        outcome = runner.run(docs)
        report = outcome.supervision
        assert report is not None
        ledger = report.ledger()

        def total(name):
            return sum(v for _, v in outcome.registry.samples(name))

        assert total("repro.resilience.retries") == sum(
            1 for row in ledger if row["kind"] == "retry"
        )
        assert total("repro.resilience.quarantines") == len(
            report.quarantine.entries
        )
        assert total("repro.resilience.backoff_seconds") == pytest.approx(
            report.backoff_s
        )
        injected = {
            (labels["site"], labels["kind"]): v
            for labels, v in outcome.registry.samples("repro.faults.injected")
        }
        assert injected.get(("ocr.transcribe", "flaky"), 0) >= 1
        assert injected.get(("worker.chunk", "fail")) == 1


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _populated_registry() -> MetricRegistry:
    metrics = PipelineMetrics()
    metrics.record("clean", 0.012, items=3)
    metrics.record("segment", 0.034, items=7)
    metrics.record("segment.cuts", 0.020, items=7)
    reg = MetricRegistry()
    ingest_pipeline_metrics(metrics, reg)
    reg.counter("repro.docs.processed", corpus="D2", status="ok").inc(3)
    reg.gauge("repro.process.rss_max_bytes", worker="main").set_max(1 << 20)
    return reg


class TestPrometheusExport:
    def test_parse_round_trip(self, tmp_path):
        reg = _populated_registry()
        path = tmp_path / "metrics.prom"
        path.write_text(to_prometheus(reg), encoding="utf-8")
        assert validate_prometheus(path) > 0
        assert parse_prometheus(path.read_text()) == sorted(exposition_samples(reg))

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        reg = _populated_registry()
        buckets = sorted(
            (labels, v)
            for name, labels, v in exposition_samples(reg)
            if name == "repro_stage_latency_bucket"
            and dict(labels).get("stage") == "segment"
        )
        values = [v for _, v in buckets]
        assert values == sorted(values)  # cumulative
        assert any(dict(l).get("le") == "+Inf" for l, _ in buckets)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not an exposition\n")

    def test_label_values_escape_per_exposition_format(self):
        # Exposition format 0.0.4: backslash, double quote and newline
        # must be escaped in label values — including the nasty cases
        # (a literal backslash-n, a trailing backslash, a quote).
        reg = MetricRegistry()
        for corpus in ('back\\slash', 'quo"te', 'new\nline', 'literal\\n', 'trail\\'):
            reg.counter("repro.docs.processed", corpus=corpus, status="ok").inc()
        text = to_prometheus(reg)
        assert 'corpus="back\\\\slash"' in text
        assert 'corpus="quo\\"te"' in text
        assert 'corpus="new\\nline"' in text
        assert 'corpus="literal\\\\n"' in text
        assert "\n".join(  # no raw newline ever splits a sample line
            line for line in text.splitlines() if "new" in line
        ).count("repro_docs_processed") == 1
        assert parse_prometheus(text) == sorted(exposition_samples(reg))

    def test_escaped_label_round_trip_recovers_exact_values(self):
        reg = MetricRegistry()
        reg.counter("repro.docs.processed", corpus='a\\"b\nc\\n', status="ok").inc(2)
        parsed = parse_prometheus(to_prometheus(reg))
        labels = [dict(ls) for _, ls, _ in parsed]
        assert {"corpus": 'a\\"b\nc\\n', "status": "ok"} in labels

    def test_jsonl_round_trip(self, tmp_path):
        reg = _populated_registry()
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(path, reg)
        loaded = read_metrics_jsonl(path)
        assert loaded.to_dict() == reg.to_dict()


# ----------------------------------------------------------------------
# The CLI's metric exports
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_extract_metrics_export_is_valid_and_clean(tmp_path, capsys):
    """A pooled ``repro extract --metrics/--metrics-jsonl`` run: the
    exposition parses, the dump loads, every document succeeded, and
    every pipeline stage recorded latency samples."""
    from repro.__main__ import main

    prom, dump = tmp_path / "run.prom", tmp_path / "run.jsonl"
    assert main([
        "extract", "--dataset", "D2", "--n", "4", "--workers", "2",
        "--metrics", str(prom), "--metrics-jsonl", str(dump),
    ]) == 0
    capsys.readouterr()
    assert validate_prometheus(prom) > 0
    read_metrics_jsonl(dump)
    samples = [(name, dict(labels), value)
               for name, labels, value in parse_prometheus(prom.read_text())]
    processed = [(labels["status"], value)
                 for name, labels, value in samples if name == "repro_docs_processed"]
    assert processed == [("ok", 4)]
    assert not [name for name, _, _ in samples if name.startswith("repro_doc_failures")]
    latency_counts = {labels["stage"]: value
                      for name, labels, value in samples
                      if name == "repro_stage_latency_count"}
    for stage in ("ocr", "deskew", "segment", "select"):
        assert latency_counts.get(stage, 0) > 0, f"stage {stage} has no latency samples"
