"""Chaos suite for :mod:`repro.resilience`.

Everything here runs under a *deterministic* :class:`FaultPlan` — the
same seed schedules the same faults whether the corpus runs serially,
across a supervised worker pool, or resumed from a checkpoint.  The
suite covers the three layers of the resilience stack:

* the fault plan itself (spec grammar, seeded decisions, OCR
  corruption),
* the degradation ladder inside :class:`VS2Pipeline` (semantic-merge
  and pattern-match failures fall back instead of failing the doc),
* the supervised runner (retry with virtual backoff, quarantine,
  per-document timeout with worker replacement, crash containment,
  checkpoint/resume byte-identity).
"""

from __future__ import annotations

import json
import logging
import multiprocessing
from dataclasses import dataclass

import pytest

from repro.instrument import PipelineMetrics
from repro.perf import CorpusRunError, CorpusRunner
from repro.resilience import (
    FaultPlan,
    FaultRule,
    PermanentFault,
    SupervisionPolicy,
    TransientFault,
    doc_scope,
    drain_virtual_latency,
    fault_site,
    install,
    uninstall,
)
from repro.synth import generate_corpus
from repro.trace import Tracer, jsonl_lines

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Fast supervision knobs shared by most tests: tiny virtual backoff,
#: short (real) watchdog timeout for the hang tests.
FAST = {"backoff_base_s": 0.01, "backoff_cap_s": 0.04}


def corpus(n: int = 6, seed: int = 3):
    return list(generate_corpus("D2", n=n, seed=seed))


def canonical(outcome) -> bytes:
    """Byte-stable JSON of the extractable output (``None`` slots —
    quarantined docs — serialise as ``null``)."""
    payload = [
        None
        if r is None
        else {
            "doc_id": r.doc_id,
            "skew": r.skew_angle,
            "extractions": [
                (e.entity_type, e.text, e.bbox.as_tuple(), e.score)
                for e in r.extractions
            ],
        }
        for r in outcome.results
    ]
    return json.dumps(payload, sort_keys=True).encode()


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no ambient plan installed."""
    uninstall()
    yield
    uninstall()


# ----------------------------------------------------------------------
# The fault plan
# ----------------------------------------------------------------------
class TestFaultPlanSpec:
    def test_spec_grammar(self):
        plan = FaultPlan.from_spec(
            "ocr:flaky@0.1,worker:crash@doc=7,merge:slow@latency=0.5,select:corrupt@severity=0.9@p=0.2",
            seed=5,
        )
        assert plan.seed == 5
        assert [r.site for r in plan.rules] == [
            "ocr.transcribe", "worker.chunk", "segment.merge", "select.match",
        ]
        assert plan.rules[0].kind == "flaky" and plan.rules[0].p == 0.1
        assert plan.rules[1].kind == "crash" and plan.rules[1].doc == 7
        assert plan.rules[2].latency_s == 0.5
        assert plan.rules[3].severity == 0.9 and plan.rules[3].p == 0.2

    @pytest.mark.parametrize(
        "bad", ["ocr", "nowhere:fail", "ocr:melt", "ocr:fail@banana=1"]
    )
    def test_spec_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(bad)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.from_spec("ocr:corrupt@0.3@severity=0.7,boot:fail@doc=1", seed=9)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        loaded = FaultPlan.from_file(str(path))
        assert loaded == plan
        assert loaded.spec_key() == plan.spec_key()

    def test_decide_is_a_pure_function_of_coordinates(self):
        plan = FaultPlan.from_spec("ocr:flaky@0.5", seed=13)
        draws = [
            plan.decide("ocr.transcribe", f"doc-{i}", i, attempt)
            for i in range(40)
            for attempt in (1, 2)
        ]
        again = [
            plan.decide("ocr.transcribe", f"doc-{i}", i, attempt)
            for i in range(40)
            for attempt in (1, 2)
        ]
        assert [d is not None for d in draws] == [d is not None for d in again]
        fired = sum(d is not None for d in draws)
        assert 0 < fired < len(draws)  # p=0.5 actually samples

    def test_decide_respects_doc_and_attempt_filters(self):
        plan = FaultPlan.from_spec("ocr:fail@doc=2@attempts=1")
        assert plan.decide("ocr.transcribe", "a", 2, 1) is not None
        assert plan.decide("ocr.transcribe", "a", 1, 1) is None  # wrong doc
        assert plan.decide("ocr.transcribe", "a", 2, 2) is None  # attempt window over
        assert plan.decide("segment.cuts", "a", 2, 1) is None  # wrong site

    def test_first_matching_rule_wins(self):
        plan = FaultPlan.from_spec("ocr:fail@doc=1,ocr:flaky")
        assert plan.decide("ocr.transcribe", "x", 1, 1).kind == "fail"
        assert plan.decide("ocr.transcribe", "x", 0, 1).kind == "flaky"


class _Word:
    def __init__(self, text):
        self.text = text

    def with_text(self, text):
        return _Word(text)


class TestFaultActions:
    def test_corrupt_words_is_deterministic(self):
        plan = FaultPlan.from_spec("ocr:corrupt@severity=0.5", seed=4)
        action = plan.decide("ocr.transcribe", "doc-0", 0, 1)
        words = [_Word(w) for w in ("invoice", "total", "42.50", "due")]
        first = [w.text for w in action.corrupt_words(words)]
        second = [w.text for w in action.corrupt_words(words)]
        assert first == second
        assert first != [w.text for w in words]  # something got garbled

    def test_corrupt_full_severity_garbles_everything(self):
        plan = FaultPlan.from_spec("ocr:corrupt@severity=1.0", seed=4)
        action = plan.decide("ocr.transcribe", "doc-0", 0, 1)
        out = action.corrupt_words([_Word("ab-1")])
        assert out[0].text == "##-#"

    def test_slow_charges_virtual_latency_once_per_site(self):
        install(FaultPlan.from_spec("merge:slow@latency=0.5"))
        with doc_scope("doc-0", 0, attempt=1):
            assert fault_site("segment.merge") is None
            assert fault_site("segment.merge") is None  # memoised, no double charge
        assert drain_virtual_latency() == pytest.approx(0.5)
        assert drain_virtual_latency() == 0.0

    def test_typed_raises(self):
        install(FaultPlan.from_spec("ocr:flaky,select:fail"))
        with doc_scope("doc-0", 0):
            with pytest.raises(TransientFault):
                fault_site("ocr.transcribe")
            with pytest.raises(PermanentFault):
                fault_site("select.match")

    def test_hang_and_crash_simulate_as_transient_outside_workers(self):
        install(FaultPlan.from_spec("merge:hang,worker:crash"), preemptible=False)
        with doc_scope("doc-0", 0):
            with pytest.raises(TransientFault):
                fault_site("segment.merge")
            with pytest.raises(TransientFault):
                fault_site("worker.chunk")


# ----------------------------------------------------------------------
# The degradation ladder inside the pipeline
# ----------------------------------------------------------------------
class TestDegradationLadder:
    def test_merge_failure_degrades_to_visual_only(self):
        docs = corpus(n=3)
        outcome = CorpusRunner("D2", fault_plan=FaultPlan.from_spec("merge:fail@doc=1")).run(docs)
        assert not outcome.failures
        degraded = outcome.results[1]
        assert [d.to_dict() for d in degraded.degradations] == [
            {
                "stage": "segment",
                "fallback": "visual_only",
                "error_type": "PermanentFault",
                "message": degraded.degradations[0].message,
            }
        ]
        assert not outcome.results[0].degradations
        assert degraded.extractions  # the visual-only tree still extracts

    def test_select_failure_degrades_to_ner_fallback(self):
        docs = corpus(n=3)
        outcome = CorpusRunner("D2", fault_plan=FaultPlan.from_spec("select:fail@doc=2")).run(docs)
        assert not outcome.failures
        degraded = outcome.results[2]
        assert [(d.stage, d.fallback) for d in degraded.degradations] == [
            ("select", "ner_fallback")
        ]
        assert degraded.extractions
        assert all(e.entity_type.startswith("ner:") for e in degraded.extractions)

    def test_transient_faults_pass_through_the_ladder(self):
        """A ``TransientFault`` inside a ladder stage must reach the
        supervisor (for retry) instead of being absorbed as a
        degradation."""
        docs = corpus(n=3)
        outcome = CorpusRunner("D2", fault_plan=FaultPlan.from_spec("merge:flaky@doc=1")).run(docs)
        assert [f.doc_id for f in outcome.failures] == [docs[1].doc_id]
        assert outcome.failures[0].transient


# ----------------------------------------------------------------------
# Plain-runner satellites
# ----------------------------------------------------------------------
@dataclass
class _Exploding:
    def __post_init__(self):
        self.metrics = PipelineMetrics()

    def run(self, doc):
        raise ValueError(f"no parser for {doc.doc_id}")


class TestRunnerFailureReporting:
    def test_raise_first_preserves_type_and_chains_cause(self):
        docs = corpus(n=2)
        outcome = CorpusRunner("D2", pipeline_factory=_Exploding).run(docs)
        assert [f.error_type for f in outcome.failures] == ["ValueError"] * 2
        with pytest.raises(CorpusRunError) as excinfo:
            outcome.raise_first()
        assert excinfo.value.error_type == "ValueError"
        assert docs[0].doc_id in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_degrade_to_serial_is_loud(self, monkeypatch, caplog):
        """The old silent ``except (OSError, ValueError)`` fallback now
        logs, traces ``runner.degrade`` and records the reason."""
        from repro.perf import runner as runner_mod

        def _no_spawn(*args, **kwargs):
            raise OSError("process pools forbidden here")

        monkeypatch.setattr(runner_mod.WarmProcessPool, "_spawn", _no_spawn)
        tracer = Tracer()
        docs = corpus(n=3)
        with caplog.at_level(logging.WARNING, logger="repro.perf.runner"):
            outcome = CorpusRunner("D2", workers=2, tracer=tracer).run(docs)
        assert all(r is not None for r in outcome.results)
        assert outcome.degrade_reason == "OSError: process pools forbidden here"
        assert any("degraded to serial" in r.message for r in caplog.records)
        log = "\n".join(jsonl_lines(tracer.drain(), normalize=True))
        assert "runner.degrade" in log


# ----------------------------------------------------------------------
# Supervised execution
# ----------------------------------------------------------------------
def supervised(docs, plan, workers=1, tracer=None, **policy):
    policy = SupervisionPolicy(**{**FAST, **policy})
    runner = CorpusRunner(
        "D2",
        workers=workers,
        fault_plan=plan,
        supervision=policy,
        tracer=tracer if tracer is not None else Tracer(),
    )
    return runner.run(docs)


class TestSupervisedSerial:
    def test_flaky_doc_succeeds_on_retry(self):
        docs = corpus()
        tracer = Tracer()
        outcome = supervised(
            docs, FaultPlan.from_spec("ocr:flaky@doc=1@attempts=1"), tracer=tracer
        )
        assert not outcome.failures and all(r is not None for r in outcome.results)
        report = outcome.supervision
        assert report.attempts[docs[1].doc_id] == 2
        retries = [e for e in report.events if e.kind == "retry"]
        assert [(e.doc_index, e.attempt, e.error_type) for e in retries] == [
            (1, 1, "TransientFault")
        ]
        assert report.backoff_s == pytest.approx(FAST["backoff_base_s"])
        log = "\n".join(jsonl_lines(tracer.drain(), normalize=True))
        assert "runner.retry" in log and "fault.injected" in log

    def test_poison_doc_quarantined_after_max_attempts(self, tmp_path):
        docs = corpus()
        report_path = tmp_path / "quarantine.json"
        outcome = supervised(
            docs,
            FaultPlan.from_spec("ocr:flaky@doc=2"),  # never clears
            max_attempts=3,
            quarantine_report_path=str(report_path),
        )
        assert outcome.results[2] is None
        assert [f.doc_id for f in outcome.failures] == [docs[2].doc_id]
        entry = outcome.supervision.quarantine.entries[0]
        assert entry.doc_index == 2 and entry.error_type == "TransientFault"
        assert [(a.attempt, a.kind) for a in entry.attempts] == [
            (1, "transient"), (2, "transient"), (3, "transient"),
        ]
        written = json.loads(report_path.read_text())
        assert written["schema"] == "repro.quarantine/1"
        assert [e["doc_id"] for e in written["entries"]] == [docs[2].doc_id]

    def test_permanent_fault_skips_retries(self):
        docs = corpus()
        outcome = supervised(docs, FaultPlan.from_spec("ocr:fail@doc=0"))
        report = outcome.supervision
        assert not [e for e in report.events if e.kind == "retry"]
        assert report.attempts[docs[0].doc_id] == 1
        assert outcome.supervision.quarantine.doc_ids() == [docs[0].doc_id]
        assert outcome.failures[0].error_type == "PermanentFault"
        assert not outcome.failures[0].transient

    def test_virtual_backoff_never_sleeps(self):
        """The retry schedule is charged to the virtual clock — three
        capped-exponential backoffs, zero wall time."""
        import time as _time

        docs = corpus(n=4)
        start = _time.monotonic()
        outcome = supervised(
            docs,
            FaultPlan.from_spec("ocr:flaky"),
            max_attempts=4,
            backoff_base_s=10.0,
            backoff_cap_s=30.0,
        )
        elapsed = _time.monotonic() - start
        # 4 docs x backoffs of 10 + 20 + 30 virtual seconds each
        assert outcome.supervision.backoff_s == pytest.approx(240.0)
        assert elapsed < 240.0  # and nothing actually slept


class TestCheckpointResume:
    def _plan(self):
        return FaultPlan.from_spec("ocr:flaky@doc=1@attempts=1,worker:fail@doc=3", seed=7)

    def test_kill_and_resume_is_byte_identical(self, tmp_path):
        docs = corpus()
        baseline = supervised(docs, self._plan(), checkpoint_path=str(tmp_path / "a.jsonl"))
        want = canonical(baseline)

        # Uninterrupted first run, then simulate a kill by truncating
        # the log mid-record (a torn final write).
        path = tmp_path / "b.jsonl"
        supervised(docs, self._plan(), checkpoint_path=str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 1 + len(docs)  # header + one record per doc
        path.write_bytes(b"".join(lines[:4]) + lines[4][: len(lines[4]) // 2])

        resumed = supervised(docs, self._plan(), checkpoint_path=str(path))
        assert canonical(resumed) == want
        assert resumed.supervision.resumed_docs == 3
        resume_docs = [e.doc_index for e in resumed.supervision.events if e.kind == "resume"]
        assert resume_docs == [0, 1, 2]

        # A third run over the repaired log resumes everything.
        final = supervised(docs, self._plan(), checkpoint_path=str(path))
        assert canonical(final) == want
        assert final.supervision.resumed_docs == len(docs)

    def test_truncated_payload_in_final_record_is_dropped(self, tmp_path, caplog):
        docs = corpus()
        baseline = supervised(docs, self._plan(), checkpoint_path=str(tmp_path / "a.jsonl"))
        want = canonical(baseline)

        # A crash can land after the JSON framing of the final record
        # was flushed but with its pickle payload torn: the line parses,
        # the payload does not.  That is the same kill artefact as a
        # torn line and must be dropped with a warning, not crash the
        # resume.
        path = tmp_path / "b.jsonl"
        supervised(docs, self._plan(), checkpoint_path=str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[-1])
        assert record["type"] == "result"
        record["payload"] = record["payload"][: len(record["payload"]) // 2]
        torn = (json.dumps(record, sort_keys=True) + "\n").encode()
        path.write_bytes(b"".join(lines[:-1]) + torn)

        with caplog.at_level(logging.WARNING, logger="repro.resilience.checkpoint"):
            resumed = supervised(docs, self._plan(), checkpoint_path=str(path))
        assert canonical(resumed) == want
        assert resumed.supervision.resumed_docs == len(docs) - 1  # torn doc re-ran
        assert any("truncated final record" in m for m in caplog.messages)

    def test_final_line_cut_inside_a_multibyte_char_is_dropped(self, tmp_path):
        docs = corpus()
        path = tmp_path / "run.jsonl"
        first = supervised(docs, self._plan(), checkpoint_path=str(path))
        want = canonical(first)
        # Simulate a kill mid-write that stops inside a multi-byte
        # UTF-8 sequence: the final line is not even decodable, let
        # alone parseable.  Loading must drop it, not raise
        # UnicodeDecodeError.
        torn = '{"type": "result", "doc_id": "é'.encode("utf-8")
        path.write_bytes(path.read_bytes() + torn[:-1])
        resumed = supervised(docs, self._plan(), checkpoint_path=str(path))
        assert canonical(resumed) == want
        assert resumed.supervision.resumed_docs == len(docs)  # nothing re-ran

    def test_undecodable_payload_before_the_end_is_corrupt(self, tmp_path):
        docs = corpus()
        path = tmp_path / "run.jsonl"
        supervised(docs, self._plan(), checkpoint_path=str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[2])
        assert record["type"] == "result"
        record["payload"] = record["payload"][: len(record["payload"]) // 2]
        lines[2] = (json.dumps(record, sort_keys=True) + "\n").encode()
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match="undecodable result payload on line 3"):
            supervised(docs, self._plan(), checkpoint_path=str(path))

    def test_resume_restores_quarantine(self, tmp_path):
        docs = corpus()
        path = tmp_path / "run.jsonl"
        first = supervised(docs, self._plan(), checkpoint_path=str(path))
        assert [f.doc_id for f in first.failures] == [docs[3].doc_id]
        resumed = supervised(docs, self._plan(), checkpoint_path=str(path))
        assert [f.doc_id for f in resumed.failures] == [docs[3].doc_id]
        assert resumed.failures[0].error_type == first.failures[0].error_type
        assert resumed.supervision.quarantine.doc_ids() == [docs[3].doc_id]

    def test_checkpoint_refuses_a_different_run(self, tmp_path):
        docs = corpus()
        path = tmp_path / "run.jsonl"
        supervised(docs, self._plan(), checkpoint_path=str(path))
        with pytest.raises(ValueError, match="different run"):
            supervised(docs, FaultPlan.from_spec("ocr:fail@doc=0"), checkpoint_path=str(path))


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
class TestSupervisedParallel:
    def test_hang_times_out_and_worker_is_replaced(self):
        docs = corpus()
        tracer = Tracer()
        outcome = supervised(
            docs,
            FaultPlan.from_spec("merge:hang@doc=1@attempts=1"),
            workers=2,
            tracer=tracer,
            timeout_s=3.0,
        )
        assert not outcome.failures and all(r is not None for r in outcome.results)
        report = outcome.supervision
        assert report.attempts[docs[1].doc_id] == 2
        assert report.worker_replacements >= 1
        kinds = [(e.kind, e.doc_index) for e in report.events if e.doc_index == 1]
        assert ("retry", 1) in kinds
        retry = next(e for e in report.events if e.kind == "retry")
        assert retry.error_type == "DocumentTimeout"
        log = "\n".join(jsonl_lines(tracer.drain(), normalize=True))
        assert "runner.timeout" in log and "runner.worker_replace" in log

    def test_crash_mid_chunk_leaves_rest_of_corpus_intact(self):
        docs = corpus()
        outcome = supervised(
            docs,
            FaultPlan.from_spec("worker:crash@doc=3@attempts=1"),
            workers=2,
            timeout_s=30.0,
        )
        assert not outcome.failures and all(r is not None for r in outcome.results)
        report = outcome.supervision
        assert report.attempts[docs[3].doc_id] == 2
        retry = next(e for e in report.events if e.kind == "retry")
        assert (retry.doc_index, retry.error_type) == (3, "WorkerCrash")
        assert report.worker_replacements >= 1

    def test_parallel_results_match_serial_under_the_same_plan(self):
        docs = corpus()
        plan = FaultPlan.from_spec(
            "ocr:fail@doc=2,worker:flaky@doc=4@attempts=2", seed=7
        )
        serial = supervised(docs, plan, workers=1)
        parallel = supervised(docs, plan, workers=2, timeout_s=30.0)
        assert canonical(serial) == canonical(parallel)
        assert serial.supervision.ledger() == parallel.supervision.ledger()


# ----------------------------------------------------------------------
# The chaos smoke (the acceptance scenario; also wired to `make chaos-smoke`)
# ----------------------------------------------------------------------
@pytest.mark.chaos_smoke
@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_chaos_smoke_every_failure_is_explained():
    """20 documents under a hang + crash + poison + 10% transient plan:
    every non-quarantined document extracts, and every document that
    did not is explained by the supervision ledger."""
    docs = corpus(n=20, seed=11)
    plan = FaultPlan.from_spec(
        "merge:hang@doc=2@attempts=1,"
        "worker:crash@doc=11@attempts=1,"
        "worker:fail@doc=5,"
        "select:fail@doc=8,"
        "ocr:flaky@0.1",
        seed=11,
    )
    tracer = Tracer()
    outcome = supervised(docs, plan, workers=2, tracer=tracer, timeout_s=3.0, max_attempts=3)
    report = outcome.supervision

    quarantined = set(report.quarantine.doc_ids())
    for index, doc in enumerate(docs):
        if doc.doc_id in quarantined:
            assert outcome.results[index] is None
        else:
            assert outcome.results[index] is not None, f"doc {index} lost without explanation"
            assert outcome.results[index].extractions or outcome.results[index].degradations

    # Zero unexplained failures: the failure list and the quarantine
    # ledger agree exactly, and each quarantine has its attempt history.
    assert {f.doc_id for f in outcome.failures} == quarantined
    assert docs[5].doc_id in quarantined  # the poison doc
    ledger = report.ledger()
    for entry in report.quarantine.entries:
        assert entry.attempts  # every quarantine explains its attempts
        assert any(
            row["kind"] == "quarantine" and row["doc_id"] == entry.doc_id for row in ledger
        )

    # The pattern-match poison on doc 8 degraded to the NER fallback
    # instead of failing the document.
    assert outcome.results[8] is not None
    assert [(d.stage, d.fallback) for d in outcome.results[8].degradations] == [
        ("select", "ner_fallback")
    ]

    # The hang and the crash were both survived.
    assert outcome.results[2] is not None and outcome.results[11] is not None
    assert report.attempts[docs[2].doc_id] >= 2
    assert report.attempts[docs[11].doc_id] >= 2
    assert report.worker_replacements >= 2

    # And the run narrates itself: the trace carries the whole story.
    log = "\n".join(jsonl_lines(tracer.drain(), normalize=True))
    for needle in ("fault.injected", "runner.retry", "runner.quarantine"):
        assert needle in log
