"""The ``repro.trace`` subsystem: spans, decision events, exporters,
cross-process adoption, the explain report, and the CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main as repro_main
from repro.trace import (
    NULL_TRACER,
    Span,
    Tracer,
    chrome_trace_events,
    collect_events,
    explain_report,
    jsonl_lines,
    validate_chrome_trace,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
)


def _fake_clock(start: float = 0.0, step: float = 1.0):
    """A deterministic perf_counter stand-in."""
    state = {"t": start - step}

    def clock() -> float:
        state["t"] += step
        return state["t"]

    return clock


def small_trace() -> Tracer:
    tracer = Tracer(clock=_fake_clock())
    with tracer.span("corpus", dataset="D2", docs=1):
        with tracer.span("doc", index=0, doc_id="D2-00000"):
            tracer.event("ocr.cache", hit=False, doc_id="D2-00000")
            with tracer.span("segment"):
                with tracer.span("segment.cuts", depth=0):
                    tracer.event(
                        "cut.decision", orientation="horizontal",
                        position=10.0, span_units=4.0, normalized_width=3.5,
                        correlation=0.0, floor=1.0, accepted=True,
                        reason="delimiter",
                    )
                tracer.event(
                    "merge.decision", height=2, level=1, theta=0.3, sc=0.5,
                    node="'Title'@(0,0,10,4)", merged=True,
                    partner="'Sub'@(0,5,10,4)", sim=0.9, reason="merged",
                )
                tracer.event("merge.pass", height=2, theta=0.3, merges=1)
            with tracer.span("select"):
                tracer.event(
                    "pareto.front",
                    blocks=[
                        {"index": 0, "height": 12.0, "coherence": 1.5,
                         "density": 0.2, "selected": True},
                        {"index": 1, "height": 4.0, "coherence": 0.1,
                         "density": 0.8, "selected": False},
                    ],
                    selected=1, total=2,
                )
                tracer.event(
                    "select.decision", entity="event_title", candidates=2,
                    matched=True, block=0, text="Jazz Night",
                )
    return tracer


# ----------------------------------------------------------------------
# Tracer / spans
# ----------------------------------------------------------------------
class TestTracer:
    def test_spans_nest_and_time(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("corpus") as corpus:
            with tracer.span("doc", index=0) as doc:
                pass
        assert corpus.children == [doc]
        assert doc.t1 > doc.t0 and corpus.t1 > corpus.t0
        assert corpus.duration >= doc.duration

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("doc", index=0) as doc:
            tracer.event("cut.decision", accepted=True)
        assert [e.name for e in doc.events] == ["cut.decision"]
        assert doc.events[0].attrs == {"accepted": True}

    def test_orphan_events_survive_in_detached_root(self):
        tracer = Tracer()
        tracer.event("stray", x=1)
        roots = tracer.drain()
        assert [r.name for r in roots] == ["detached"]
        assert roots[0].events[0].attrs == {"x": 1}

    def test_current_path_renders_indices(self):
        tracer = Tracer()
        with tracer.span("corpus"):
            with tracer.span("doc", index=3):
                with tracer.span("segment"):
                    assert tracer.current_path() == "corpus/doc[3]/segment"

    def test_drain_resets_buffer(self):
        tracer = small_trace()
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []

    def test_crashed_span_is_recorded_with_error_path(self):
        tracer = Tracer()
        exc = ValueError("boom")
        with pytest.raises(ValueError):
            with tracer.span("corpus"):
                with tracer.span("doc", index=0):
                    with tracer.span("segment"):
                        raise exc
        assert tracer.consume_error_path(exc) == "corpus/doc[0]/segment"
        # consumed: a second ask returns nothing
        assert tracer.consume_error_path(exc) is None
        (root,) = tracer.drain()
        segment = root.find("segment")[0]
        assert segment.t1 >= segment.t0  # closed despite the raise

    def test_span_dict_roundtrip(self):
        (root,) = small_trace().drain()
        again = Span.from_dict(json.loads(json.dumps(root.to_dict())))
        assert again.to_dict() == root.to_dict()

    def test_adopt_reparents_under_current_span(self):
        tracer = Tracer()
        foreign = Span("doc", {"index": 2})
        with tracer.span("corpus") as corpus:
            tracer.adopt(foreign)
        assert foreign in corpus.children

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("corpus", x=1) as span:
            NULL_TRACER.event("anything", y=2)
            NULL_TRACER.adopt(span)
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.current_path() == ""


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_jsonl_is_valid_and_balanced(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl", small_trace().drain())
        assert validate_jsonl(path) > 0

    def test_jsonl_normalized_is_clock_independent(self):
        a = jsonl_lines(small_trace().drain(), normalize=True)
        slow = Tracer(clock=_fake_clock(start=100.0, step=17.0))
        slow_roots = []
        # Rebuild the same structure on a very different clock.
        with slow.span("corpus", dataset="D2", docs=1):
            with slow.span("doc", index=0, doc_id="D2-00000"):
                pass
        slow_roots = slow.drain()
        fast = Tracer(clock=_fake_clock())
        with fast.span("corpus", dataset="D2", docs=1):
            with fast.span("doc", index=0, doc_id="D2-00000"):
                pass
        assert jsonl_lines(slow_roots, normalize=True) == jsonl_lines(
            fast.drain(), normalize=True
        )
        assert len(a) > 2

    def test_chrome_trace_valid_and_nested(self, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", small_trace().drain())
        assert validate_chrome_trace(path) > 0
        data = json.loads(path.read_text())
        spans = {e["name"]: e for e in data["traceEvents"] if e["ph"] == "X"}
        assert {"corpus", "doc[0]", "segment", "select"} <= set(spans)
        # Nesting: each child interval lies within its parent's.
        doc, seg = spans["doc[0]"], spans["segment"]
        assert doc["ts"] <= seg["ts"]
        assert seg["ts"] + seg["dur"] <= doc["ts"] + doc["dur"]
        # Decision events ride along as instants.
        instants = [e for e in data["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "cut.decision" for e in instants)

    def test_doc_subtrees_get_their_own_track(self):
        tracer = Tracer()
        with tracer.span("corpus"):
            with tracer.span("doc", index=0):
                with tracer.span("segment"):
                    pass
            with tracer.span("doc", index=1):
                pass
        events = chrome_trace_events(tracer.drain())
        tid = {e["name"]: e["tid"] for e in events}
        assert tid["corpus"] == 0
        assert tid["doc[0]"] == 1 and tid["doc[1]"] == 2
        assert tid["segment"] == 1  # inherits its doc's track

    def test_validators_reject_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "X"}]}')
        with pytest.raises(ValueError, match="missing"):
            validate_chrome_trace(bad)
        bad_jsonl = tmp_path / "bad.jsonl"
        bad_jsonl.write_text(
            json.dumps({"type": "span_end", "name": "x", "path": "x", "t": 0, "dur": 0})
            + "\n"
        )
        with pytest.raises(ValueError, match="unbalanced"):
            validate_jsonl(bad_jsonl)

    def test_unclosed_span_rejected(self, tmp_path):
        p = tmp_path / "open.jsonl"
        p.write_text(
            json.dumps({"type": "span_start", "name": "x", "path": "x", "t": 0}) + "\n"
        )
        with pytest.raises(ValueError, match="unclosed"):
            validate_jsonl(p)


# ----------------------------------------------------------------------
# Explain report
# ----------------------------------------------------------------------
class TestExplain:
    def test_collect_events_filters_by_family(self):
        roots = small_trace().drain()
        assert len(collect_events(roots, "merge.")) == 2
        assert len(collect_events(roots, "merge.pass")) == 1
        assert len(collect_events(roots)) == 6

    def test_report_contains_all_ledgers(self):
        report = explain_report(
            small_trace().drain(),
            extraction_rows=[{"entity": "event_title", "text": "Jazz Night"}],
        )
        assert "Cut ledger" in report
        assert "Merge ledger" in report
        assert "Pareto front" in report
        assert "Selection ledger" in report
        assert "Final extractions" in report
        assert "Jazz Night" in report
        assert "delimiter" in report  # the cut verdict reason
        assert "1 miss" in report  # ocr cache line

    def test_empty_trace_reports_gracefully(self):
        report = explain_report([])
        assert "(no events recorded)" in report


# ----------------------------------------------------------------------
# End-to-end over the real pipeline
# ----------------------------------------------------------------------
class TestPipelineTraces:
    @pytest.fixture(scope="class", params=["D1", "D2"])
    def traced_run(self, request):
        from repro.perf import CorpusRunner
        from repro.synth import generate_corpus

        tracer = Tracer()
        docs = list(generate_corpus(request.param, n=2, seed=3))
        outcome = CorpusRunner(request.param, tracer=tracer).run(docs)
        assert not outcome.failures
        return tracer.drain()

    def test_every_doc_has_the_decision_families(self, traced_run):
        (corpus,) = traced_run
        docs = corpus.find("doc")
        assert len(docs) == 2
        for doc in docs:
            names = {e.name for s in doc.walk() for e in s.events}
            assert "cut.decision" in names
            assert any(n.startswith("merge.") for n in names)
            assert "pareto.front" in names
            assert "select.decision" in names
            assert "ocr.cache" in names

    def test_stage_spans_nest_under_docs(self, traced_run):
        (corpus,) = traced_run
        for doc in corpus.find("doc"):
            child_names = {c.name for c in doc.children}
            assert {"ocr", "deskew", "segment", "select"} <= child_names
            assert doc.find("segment.cuts")

    def test_tracing_off_adds_no_spans(self):
        from repro.perf import CorpusRunner
        from repro.synth import generate_corpus

        docs = list(generate_corpus("D2", n=1, seed=3))
        outcome = CorpusRunner("D2").run(docs)  # default NULL_TRACER
        assert not outcome.failures
        assert NULL_TRACER.drain() == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_extract_trace_flags_write_valid_files(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        code = repro_main([
            "extract", "--dataset", "d2", "--n", "2", "--seed", "3",
            "--observe", str(tmp_path),
        ])
        assert code == 0
        assert validate_chrome_trace(chrome) > 0
        assert validate_jsonl(jsonl) > 0
        assert "Perfetto" in capsys.readouterr().out

    def test_explain_observe_writes_trace_and_profile(self, tmp_path, capsys):
        out = tmp_path / "observe"
        assert repro_main(
            ["explain", "--dataset", "D2", "--doc", "0", "--observe", str(out)]
        ) == 0
        assert "Decision report" in capsys.readouterr().out
        assert validate_chrome_trace(out / "trace.json") > 0
        assert validate_jsonl(out / "trace.jsonl") > 0
        profile = (out / "profile.txt").read_text()
        for stage in ("ocr", "deskew", "segment", "select"):
            assert f"\n{stage} " in profile, stage
        assert not (out / "metrics.prom").exists()  # explain keeps no registry

    def test_table_observe_writes_only_the_profile(self, tmp_path, capsys):
        """``table`` has a stage table but no tracer or registry, so
        ``--observe`` writes exactly one view."""
        out = tmp_path / "observe"
        assert repro_main(["table", "6", "--n-d2", "2", "--observe", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert [p.name for p in out.iterdir()] == ["profile.txt"]
        assert "segment" in (out / "profile.txt").read_text()

    def test_no_observe_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert repro_main(["extract", "--dataset", "D2", "--n", "1"]) == 0
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_explain_prints_ledgers(self, capsys):
        assert repro_main(["explain", "--dataset", "D2", "--doc", "0"]) == 0
        out = capsys.readouterr().out
        assert "Decision report" in out
        assert "Cut ledger" in out
        assert "Merge ledger" in out
        assert "Pareto front" in out
        assert "Final extractions" in out

    def test_dataset_flag_is_case_insensitive(self, capsys):
        assert repro_main(["explain", "--dataset", "d1", "--doc", "0"]) == 0
        assert "Pareto front" in capsys.readouterr().out
