"""End-to-end determinism regression (what the DET* lint rules protect).

The pipeline promises byte-identical output for identical inputs —
across reruns, across serial/parallel execution, and across Python
hash-seed randomisation (the channel through which accidental set
iteration leaks into results).  The canonical form is a sorted-key
JSON document covering every extraction field and the skew estimate.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.perf import CorpusRunner
from repro.synth import generate_corpus

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
REPO_ROOT = Path(__file__).resolve().parents[1]

#: The D2 smoke corpus: mixed digital/mobile-capture posters, so the
#: deskew + sloped-cut paths are exercised, small enough to run twice.
SMOKE = {"dataset": "D2", "n": 4, "seed": 3}

#: Smaller corpora of the other two datasets: D1 runs form-field
#: selection (and the per-process form-face memo), D3 the flyer wiring.
SMOKE_SIZES = {"D1": 2, "D2": SMOKE["n"], "D3": 2}


def canonical_bytes(outcome) -> bytes:
    """Byte-stable JSON of a corpus run's observable output."""
    payload = [
        {
            "doc_id": r.doc_id,
            "skew": r.skew_angle,
            "extractions": [
                {
                    "entity": e.entity_type,
                    "text": e.text,
                    "bbox": e.bbox.as_tuple(),
                    "span": e.span_bbox.as_tuple(),
                    "score": e.score,
                }
                for e in r.extractions
            ],
        }
        for r in outcome.results
    ]
    return json.dumps(payload, sort_keys=True).encode()


def smoke_corpus(dataset: str):
    return list(generate_corpus(dataset, n=SMOKE_SIZES[dataset], seed=SMOKE["seed"]))


def run_smoke(workers: int, dataset: str = SMOKE["dataset"]) -> bytes:
    outcome = CorpusRunner(dataset, workers=workers).run(smoke_corpus(dataset))
    assert not outcome.failures
    return canonical_bytes(outcome)


def run_traced_smoke(workers: int, dataset: str = SMOKE["dataset"]) -> bytes:
    """The normalised JSONL event log of a traced smoke run: a pure
    function of the decisions taken, independent of wall time and of
    which process produced each span."""
    from repro.trace import Tracer, jsonl_lines

    tracer = Tracer()
    outcome = CorpusRunner(dataset, workers=workers, tracer=tracer).run(smoke_corpus(dataset))
    assert not outcome.failures
    return ("\n".join(jsonl_lines(tracer.drain(), normalize=True)) + "\n").encode()


class TestDeterminism:
    """Reruns and serial vs ``--workers 2`` agree to the byte.  A
    worker that kept module-level state feeding its output (a memo
    that changes an extraction) would diverge from the serial run,
    which sees every document in one process.  The subclasses below
    repeat each test on D1 and D3."""

    dataset = "D2"

    def test_serial_rerun_byte_identical(self):
        assert run_smoke(1, self.dataset) == run_smoke(1, self.dataset)

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_parallel_byte_identical_to_serial(self):
        assert run_smoke(1, self.dataset) == run_smoke(2, self.dataset)


class TestDeterminismD1(TestDeterminism):
    dataset = "D1"


class TestDeterminismD3(TestDeterminism):
    dataset = "D3"


class TestTraceDeterminism:
    """The trace is part of the determinism contract: once timestamps
    are normalised away, the event log depends only on the pipeline's
    decisions — so serial and multi-process traced runs must agree to
    the byte.  The subclasses below repeat each test on D1 and D3."""

    dataset = "D2"

    def test_traced_serial_rerun_byte_identical(self):
        assert run_traced_smoke(1, self.dataset) == run_traced_smoke(1, self.dataset)

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_traced_parallel_byte_identical_to_serial(self):
        assert run_traced_smoke(1, self.dataset) == run_traced_smoke(2, self.dataset)

    def test_traced_log_covers_every_document(self):
        log = run_traced_smoke(1, self.dataset).decode()
        for index in range(SMOKE_SIZES[self.dataset]):
            assert f"doc[{index}]" in log
        for family in ("cut.decision", "merge.", "pareto.front", "select.decision"):
            assert family in log


class TestTraceDeterminismD1(TestTraceDeterminism):
    dataset = "D1"


class TestTraceDeterminismD3(TestTraceDeterminism):
    dataset = "D3"


class TestFaultDeterminism:
    """Injected faults and the supervision decisions they trigger are
    part of the determinism contract: the fault schedule is keyed on
    ``(plan seed, site, doc, attempt)`` — never on process identity or
    scheduling order — so a supervised serial run and a supervised
    parallel run of the same plan produce identical results *and*
    identical retry/quarantine ledgers."""

    #: Transient faults that always clear on retry (``attempts=1``)
    #: plus one permanent poison doc — exercises both ledger kinds.
    PLAN_SPEC = "ocr:flaky@0.4@attempts=1,worker:fail@doc=2"
    PLAN_SEED = 7

    def run_supervised_smoke(self, workers: int):
        from repro.resilience import FaultPlan, SupervisionPolicy

        corpus = smoke_corpus(SMOKE["dataset"])
        runner = CorpusRunner(
            SMOKE["dataset"],
            workers=workers,
            fault_plan=FaultPlan.from_spec(self.PLAN_SPEC, seed=self.PLAN_SEED),
            supervision=SupervisionPolicy(backoff_base_s=0.01, timeout_s=30.0),
        )
        outcome = runner.run(corpus)
        payload = {
            "results": [
                None if r is None else {"doc_id": r.doc_id, "skew": r.skew_angle}
                for r in outcome.results
            ],
            "failures": [
                (f.doc_index, f.doc_id, f.error_type) for f in outcome.failures
            ],
            "ledger": outcome.supervision.ledger(),
            "backoff_s": outcome.supervision.backoff_s,
        }
        return json.dumps(payload, sort_keys=True).encode()

    def test_supervised_serial_rerun_byte_identical(self):
        assert self.run_supervised_smoke(workers=1) == self.run_supervised_smoke(workers=1)

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_supervised_ledger_parity_serial_vs_parallel(self):
        assert self.run_supervised_smoke(workers=1) == self.run_supervised_smoke(workers=2)


class TestDeterminismAcrossInterpreters:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_hash_seed_independence(self, workers):
        """Fresh interpreters with different PYTHONHASHSEEDs agree —
        the strongest guard against set-iteration order reaching the
        output (lint rule DET003's runtime counterpart)."""
        if workers > 1 and not HAVE_FORK:
            pytest.skip("needs fork start method")
        script = (
            "import sys, json\n"
            "sys.path.insert(0, 'src')\n"
            "from tests.test_determinism import run_smoke\n"
            f"sys.stdout.buffer.write(run_smoke(workers={workers}))\n"
        )
        outputs = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = "src" + os.pathsep + str(REPO_ROOT)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                cwd=REPO_ROOT,
                env=env,
                capture_output=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])  # non-empty, well-formed
