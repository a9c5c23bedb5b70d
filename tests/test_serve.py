"""Tests of ``repro.serve``: the long-lived extraction service.

Three layers:

* unit tests of the sans-IO state machine — admission/shedding,
  deadline expiry at every stage, batch retry budgets, circuit-breaker
  transitions, drain accounting;
* the deterministic virtual-clock harness — chaos under >= 2x offered
  load with a fault plan armed (every request resolves 200/429/504,
  nothing unaccounted) and the byte-identity of a 1-worker vs an
  N-worker server over the same seeded schedule;
* the ``serve_smoke``-marked end-to-end test — a real subprocess
  server, real sockets, SIGTERM drain, exit 0, no orphan workers.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience import FaultPlan
from repro.serve import (
    ExtractionService,
    LoadSpec,
    ServeConfig,
    arrival_schedule,
    run_virtual,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.config import BreakerConfig
from repro.serve.http import (
    MAX_BODY_BYTES,
    RequestRejected,
    ServeHTTP,
    parse_extract_body,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

#: The canned chaos plan the acceptance tests arm: admission faults,
#: whole-batch faults, and pipeline-level merge failures, all seeded.
CHAOS_SPEC = "admit:flaky@0.1,batch:flaky@0.2,merge:flaky@0.3"


def _config(**overrides) -> ServeConfig:
    base = dict(dataset="D2", workers=1, corpus_n=8, queue_limit=4,
                deadline_s=10.0, batch_max=2, max_attempts=2)
    base.update(overrides)
    return ServeConfig(**base)


def _service(config=None, fault_plan=None) -> ExtractionService:
    return ExtractionService(config or _config(), fault_plan=fault_plan)


# ----------------------------------------------------------------------
# Admission and shedding
# ----------------------------------------------------------------------
class TestAdmission:
    def test_admit_returns_a_ticket_and_queues_it(self):
        service = _service().boot()
        try:
            ticket, response = service.admit(3, now=1.0)
            assert response is None and ticket is not None
            assert ticket.doc_index == 3
            assert ticket.deadline == pytest.approx(11.0)
            assert service.pending() == 1
            assert service.accounting["submitted"] == 1
        finally:
            service.shutdown()

    def test_full_queue_sheds_with_retry_after(self):
        service = _service(_config(queue_limit=2)).boot()
        try:
            assert service.admit(0, now=0.0)[1] is None
            assert service.admit(1, now=0.0)[1] is None
            ticket, response = service.admit(2, now=0.0)
            assert ticket is None
            assert response.status == 429
            assert response.body["reason"] == "queue_full"
            assert response.retry_after_s == service.config.retry_after_s
            assert service.pending() == 2
            assert service.accounting["shed"] == 1
        finally:
            service.shutdown()

    def test_draining_sheds_every_new_request(self):
        service = _service().boot()
        try:
            service.begin_drain(0.0)
            _, response = service.admit(0, now=0.0)
            assert response.status == 429
            assert response.body["reason"] == "draining"
        finally:
            service.shutdown()

    def test_admit_fault_sheds_as_fault(self):
        service = _service(fault_plan=FaultPlan.from_spec("admit:fail")).boot()
        try:
            _, response = service.admit(0, now=0.0)
            assert response.status == 429
            assert response.body["reason"] == "fault"
        finally:
            service.shutdown()

    def test_request_ids_are_unique_and_stable(self):
        service = _service().boot()
        try:
            t1, _ = service.admit(0, now=0.0)
            t2, _ = service.admit(1, now=0.0)
            assert t1.request_id != t2.request_id
            t3, _ = service.admit(2, now=0.0, request_id="mine")
            assert t3.request_id == "mine"
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# Deadlines: 504 at every stage, never a hung slot
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_queue_expiry_resolves_504_at_dequeue(self):
        service = _service().boot()
        try:
            service.admit(0, now=0.0, deadline_s=1.0)
            service.admit(1, now=0.0, deadline_s=30.0)
            batch, expired = service.take_batch(now=2.0)
            assert [r.status for r in expired] == [504]
            assert expired[0].body["where"] == "queue"
            assert len(batch) == 1  # the live request still dispatches
        finally:
            service.shutdown()

    def test_completion_past_deadline_resolves_504(self):
        service = _service().boot()
        try:
            service.admit(0, now=0.0, deadline_s=1.0)
            batch, expired = service.take_batch(now=0.5)
            assert not expired and len(batch) == 1
            outcome = service.run_batch(batch)
            responses = service.resolve(batch, outcome, now=2.0)
            assert [r.status for r in responses] == [504]
            assert responses[0].body["where"] == "result"
        finally:
            service.shutdown()

    def test_accounting_closes_after_timeouts(self):
        service = _service().boot()
        try:
            service.admit(0, now=0.0, deadline_s=1.0)
            service.take_batch(now=5.0)
            snapshot = service.accounting_snapshot()
            assert snapshot["timeout"] == 1
            assert snapshot["unaccounted"] == 0
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# Batch faults and the retry budget
# ----------------------------------------------------------------------
class TestBatchRetry:
    def test_whole_batch_fault_requeues_then_succeeds(self):
        plan = FaultPlan.from_spec("batch:flaky@attempts=1")
        service = _service(fault_plan=plan).boot()
        try:
            ticket, _ = service.admit(0, now=0.0)
            batch, _ = service.take_batch(now=0.0)
            outcome = service.run_batch(batch)
            assert outcome.result is None and outcome.fault is not None
            assert service.resolve(batch, outcome, now=0.1) == []
            assert service.pending() == 1  # re-enqueued at the front
            batch, _ = service.take_batch(now=0.2)
            assert batch[0].attempt == 2
            outcome = service.run_batch(batch)
            responses = service.resolve(batch, outcome, now=0.3)
            assert [r.status for r in responses] == [200]
            assert responses[0].body["attempt"] == 2
            assert responses[0].request_id == ticket.request_id
        finally:
            service.shutdown()

    def test_exhausted_attempts_resolve_504_where_batch(self):
        plan = FaultPlan.from_spec("batch:fail")
        service = _service(_config(max_attempts=1), fault_plan=plan).boot()
        try:
            service.admit(0, now=0.0)
            batch, _ = service.take_batch(now=0.0)
            outcome = service.run_batch(batch)
            responses = service.resolve(batch, outcome, now=0.1)
            assert [r.status for r in responses] == [504]
            assert responses[0].body["where"] == "batch"
            assert service.accounting_snapshot()["unaccounted"] == 0
        finally:
            service.shutdown()

    def test_ok_response_carries_extractions(self):
        service = _service().boot()
        try:
            service.admit(2, now=0.0)
            batch, _ = service.take_batch(now=0.0)
            responses = service.resolve(batch, service.run_batch(batch), now=0.5)
            body = responses[0].body
            assert body["status"] == 200
            assert body["doc_id"] == service.corpus[2].doc_id
            assert isinstance(body["extractions"], dict) and body["extractions"]
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# Circuit breakers
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            "segment", BreakerConfig(window=4, threshold=0.5, cooldown_batches=1)
        )

    def test_trips_open_at_threshold_and_degrades(self):
        breaker = self._breaker()
        assert breaker.state == CLOSED and not breaker.degrade
        breaker.record_batch(failed=2, total=4, degraded=False)
        assert breaker.state == OPEN and breaker.degrade

    def test_cooldown_leads_to_half_open_trial_then_close(self):
        breaker = self._breaker()
        breaker.record_batch(2, 4, degraded=False)
        breaker.record_batch(0, 4, degraded=True)  # cooldown batch
        assert breaker.state == HALF_OPEN and not breaker.degrade
        breaker.record_batch(0, 4, degraded=False)  # clean trial
        assert breaker.state == CLOSED

    def test_failed_trial_reopens(self):
        breaker = self._breaker()
        breaker.record_batch(2, 4, degraded=False)
        breaker.record_batch(0, 4, degraded=True)
        breaker.record_batch(1, 4, degraded=False)  # trial still failing
        assert breaker.state == OPEN

    def test_below_threshold_stays_closed(self):
        breaker = self._breaker()
        for _ in range(8):
            breaker.record_batch(1, 4, degraded=False)  # 25% < 50%
        assert breaker.state == CLOSED

    def test_transitions_are_counted(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        breaker = CircuitBreaker(
            "select", BreakerConfig(window=2, threshold=0.5, cooldown_batches=1),
            registry=registry,
        )
        breaker.record_batch(2, 2, degraded=False)
        breaker.record_batch(0, 2, degraded=True)
        breaker.record_batch(0, 2, degraded=False)
        states = {
            labels["state"]: value
            for labels, value in registry.samples("repro.serve.breaker_transitions")
            if labels["stage"] == "select"
        }
        assert states == {"open": 1, "half_open": 1, "closed": 1}

    def test_open_segment_breaker_runs_batches_visual_only(self):
        service = _service().boot()
        try:
            service.breakers["segment"]._trip()
            service.admit(0, now=0.0)
            batch, _ = service.take_batch(now=0.0)
            outcome = service.run_batch(batch)
            assert outcome.open_stages == frozenset({"segment"})
            runner = service._runner(frozenset({"segment"}))
            assert runner.config.segment.use_semantic_merging is False
            responses = service.resolve(batch, outcome, now=0.5)
            assert [r.status for r in responses] == [200]
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_checkpoint_and_final_snapshot(self, tmp_path):
        path = tmp_path / "drain.json"
        service = _service(_config(checkpoint_path=str(path))).boot()
        service.admit(0, now=0.0)
        batch, _ = service.take_batch(now=0.0)
        service.resolve(batch, service.run_batch(batch), now=0.5)
        service.begin_drain(1.0)
        snapshot = service.finish_drain(1.0)
        assert snapshot == {
            "submitted": 1, "ok": 1, "shed": 0, "timeout": 0,
            "pending": 0, "unaccounted": 0,
        }
        record = json.loads(path.read_text())
        assert record["schema"] == "repro.serve.checkpoint/1"
        assert record["accounting"] == snapshot
        assert not service.ready  # shut down, pool released


# ----------------------------------------------------------------------
# Virtual-clock load generation: chaos under overload + determinism
# ----------------------------------------------------------------------
def _chaos_spec(workers: int = 1) -> tuple:
    config = _config(workers=workers, corpus_n=16, queue_limit=8,
                     batch_max=4, max_attempts=2)
    spec = LoadSpec(n_requests=32, rate=10.0, seed=7, deadline_s=2.0,
                    doc_service_s=0.25)
    return config, spec


def _p95(values) -> float:
    """Nearest-rank p95 (no interpolation)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


class TestVirtualLoadgen:
    def test_schedule_is_seeded_and_sorted(self):
        spec = LoadSpec(n_requests=16, seed=3)
        first, second = arrival_schedule(spec), arrival_schedule(spec)
        assert first == second
        times = [t for t, _ in first]
        assert times == sorted(times)
        assert arrival_schedule(LoadSpec(n_requests=16, seed=4)) != first

    def test_chaos_under_overload_accounts_for_every_request(self):
        """Each load resolves every request 200/429/504 and meets the
        serving objectives: nothing unaccounted, at most 3/4 shed, and
        a p95 of the 200/504 latencies within 1.5x the deadline."""
        loads = [
            (*_chaos_spec(), 7, None),
            # 64 requests over the default 32-document corpus, plan
            # seeded 0 (p95 4.95 s against a 4 s deadline).
            (
                ServeConfig(dataset="D2", workers=1, queue_limit=16,
                            batch_max=4, max_attempts=2),
                LoadSpec(n_requests=64, rate=10.0, seed=0, deadline_s=4.0),
                0,
                {"ok": 16, "shed": 28, "timeout": 20},
            ),
        ]
        for config, spec, plan_seed, outcomes in loads:
            assert spec.overload_factor >= 2.0
            service = ExtractionService(
                config, fault_plan=FaultPlan.from_spec(CHAOS_SPEC, seed=plan_seed)
            )
            responses, snapshot = run_virtual(service, spec)
            assert len(responses) == spec.n_requests == snapshot["submitted"]
            assert {r.status for r in responses} <= {200, 429, 504}
            assert snapshot["shed"] > 0 and snapshot["timeout"] > 0  # overload bites
            assert snapshot["ok"] > 0  # but the service still serves
            assert snapshot["pending"] == 0
            assert snapshot["unaccounted"] == 0
            ids = [r.request_id for r in responses]
            assert len(set(ids)) == len(ids)
            assert snapshot["shed"] / snapshot["submitted"] <= 0.75
            latencies = [r.latency_s for r in responses if r.status in (200, 504)]
            assert _p95(latencies) <= 1.5 * spec.deadline_s
            if outcomes is not None:
                assert {k: snapshot[k] for k in outcomes} == outcomes

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_one_worker_and_n_worker_servers_are_byte_identical(self):
        outputs = []
        for workers in (1, 3):
            config, spec = _chaos_spec(workers)
            service = ExtractionService(
                config, fault_plan=FaultPlan.from_spec(CHAOS_SPEC, seed=7)
            )
            responses, snapshot = run_virtual(service, spec)
            outputs.append((
                snapshot,
                b"\n".join(r.payload() for r in responses),
                service.registry.normalized_dump(),
            ))
        assert outputs[0][0] == outputs[1][0]  # accounting
        assert outputs[0][1] == outputs[1][1]  # every response payload
        assert outputs[0][2] == outputs[1][2]  # normalized metrics dump


# ----------------------------------------------------------------------
# HTTP request handling without sockets
# ----------------------------------------------------------------------
def _raw_request(body: bytes, length=None) -> bytes:
    length = len(body) if length is None else length
    head = f"POST /extract HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
    return head.encode("latin-1") + body


async def _answer(http: ServeHTTP, raw: bytes) -> int:
    """Status the server gives one raw request: ``_read_request`` on an
    in-memory stream, then ``_extract`` on the body it read."""
    reader = asyncio.StreamReader()
    reader.feed_data(raw)
    reader.feed_eof()
    try:
        _, _, body = await http._read_request(reader)
    except RequestRejected as exc:
        return exc.status
    status, _, _ = await http._extract(body)
    return status


#: JSON scalars: nulls, bools, huge and negative ints, floats (nan,
#: infinities, -0.0) and strings with non-ASCII text.
_JSON_SCALARS = st.one_of(
    st.builds(lambda digits, sign: sign * 10 ** digits,
              st.integers(300, 1000), st.sampled_from([1, -1])),
    st.floats(),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=12),
)
_JSON_VALUES = _JSON_SCALARS | st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
_FIELDS = _JSON_SCALARS | _JSON_VALUES
_REQUEST_OBJECTS = st.one_of(
    # An integer index, so the checks of the other fields are reached.
    st.fixed_dictionaries(
        {"index": st.integers(), "deadline_s": _FIELDS}, optional={"request_id": _FIELDS}
    ),
    st.fixed_dictionaries({"index": st.integers(), "request_id": _FIELDS}),
    st.fixed_dictionaries(
        {}, optional={"index": _FIELDS, "deadline_s": _FIELDS, "request_id": _FIELDS}
    ),
)


@st.composite
def _fuzzed_requests(draw):
    """``(raw request, declared length exceeds the body sent)``.  Most
    draws are well-framed request objects, so the field checks see the
    bulk of the examples."""
    shape = draw(st.sampled_from(["object"] * 6 + ["json", "bytes", "truncated", "nested"]))
    if shape in ("object", "json", "truncated"):
        value = draw(_JSON_VALUES if shape == "json" else _REQUEST_OBJECTS)
        body = json.dumps(value, ensure_ascii=draw(st.booleans())).encode("utf-8")
        if shape == "truncated":
            body = body[: draw(st.integers(0, max(0, len(body) - 1)))]
    elif shape == "bytes":
        body = draw(st.binary(max_size=48))  # mostly not UTF-8, let alone JSON
    else:
        depth = draw(st.integers(1, 5000))
        body = b'{"index": ' + b"[" * depth + (b"]" * depth + b"}" if draw(st.booleans()) else b"")
    framing = draw(st.sampled_from(["exact"] * 6 + ["negative", "not-a-number", "over-cap", "short"]))
    if framing == "exact":
        length = str(len(body))
    elif framing == "negative":
        length = str(draw(st.integers(max_value=-1)))
    elif framing == "not-a-number":
        length = draw(st.text(alphabet="abx.+-_ ", min_size=1, max_size=6))
    elif framing == "over-cap":
        length = str(draw(st.integers(MAX_BODY_BYTES + 1, 1 << 40)))
    else:
        length = str(len(body) + draw(st.integers(1, 64)))
    head = f"POST /extract HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
    return head.encode("latin-1") + body, framing == "short"


class TestServeHTTPRequests:
    @pytest.mark.parametrize(
        "raw, status",
        [
            pytest.param(_raw_request(b"[1]"), 400, id="array"),
            pytest.param(_raw_request(b'"x"'), 400, id="string"),
            pytest.param(_raw_request(b'{"index": null}'), 400, id="index-null"),
            pytest.param(_raw_request(b'{"index": [0]}'), 400, id="index-list"),
            pytest.param(_raw_request(b'{"index": true}'), 400, id="index-bool"),
            pytest.param(
                _raw_request(b'{"index": 0, "deadline_s": "soon"}'), 400, id="deadline-str"
            ),
            pytest.param(_raw_request(b'{"index": 0, "deadline_s": 0}'), 400, id="deadline-0"),
            pytest.param(
                _raw_request(b'{"index": 0, "deadline_s": Infinity}'), 400, id="deadline-inf"
            ),
            pytest.param(
                _raw_request(b'{"index": 0, "deadline_s": 1' + b"0" * 400 + b"}"),
                400,
                id="deadline-huge-int",
            ),
            pytest.param(
                _raw_request(b'{"index": 0, "request_id": ["a"]}'), 400, id="request-id-list"
            ),
            pytest.param(_raw_request(b"[" * 50_000), 400, id="deep-nesting"),
            pytest.param(_raw_request(b"\xff"), 400, id="not-utf8"),
            pytest.param(_raw_request(b"", length=-1), 400, id="length-negative"),
            pytest.param(_raw_request(b"", length="ten"), 400, id="length-not-int"),
            # Over the cap: answered without reading (there is no body
            # to read, so reading it would raise instead).
            pytest.param(_raw_request(b"", length=MAX_BODY_BYTES + 1), 413, id="length-over-cap"),
        ],
    )
    def test_malformed_request_is_4xx_before_admission(self, raw, status):
        service = _service()
        assert asyncio.run(_answer(ServeHTTP(service), raw)) == status
        assert service.accounting == {"submitted": 0, "ok": 0, "shed": 0, "timeout": 0}
        assert service.pending() == 0

    def test_fuzzed_requests_get_a_typed_answer_or_a_4xx(self):
        """Whatever the client sends, reading and parsing a request ends
        in a well-typed ``(index, request_id, deadline_s)``, a 400/413,
        ``None`` (no request line), or an incomplete read when the
        declared length exceeds the bytes sent; a rejected body never
        reaches the service's accounting."""
        service = _service()
        http = ServeHTTP(service)
        before = dict(service.accounting)

        async def outcome(raw: bytes):
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            try:
                request = await http._read_request(reader)
            except RequestRejected as exc:
                return exc.status
            except asyncio.IncompleteReadError:
                return "short"
            if request is None:
                return None
            body = request[2]
            try:
                parsed = parse_extract_body(body)
            except RequestRejected as exc:
                status, _, _ = await http._extract(body)
                assert status == exc.status
                return exc.status
            return parsed

        @settings(max_examples=200, deadline=None)
        @given(_fuzzed_requests())
        def check(case):
            raw, declared_excess = case
            result = asyncio.run(outcome(raw))
            if result == "short":
                assert declared_excess
            elif isinstance(result, tuple):
                index, request_id, deadline_s = result
                assert type(index) is int
                assert request_id is None or (type(request_id) is str and request_id)
                assert deadline_s is None or (
                    type(deadline_s) is float and math.isfinite(deadline_s) and deadline_s > 0
                )
            else:
                assert result in (None, 400, 413)
            assert service.accounting == before and service.pending() == 0

        check()

    def test_benchmark_and_loadgen_bodies_stay_valid(self):
        assert parse_extract_body(b'{"index": 3, "request_id": "s0-00001"}') == (
            3, "s0-00001", None
        )
        assert parse_extract_body(b'{"index": 3, "deadline_s": 4.0}') == (3, None, 4.0)

    def test_duplicate_in_flight_request_id_is_409(self):
        """Responses are matched to handlers by request id: a second
        request under an id already in flight is refused before
        admission instead of receiving the first one's answer, and a
        request without an id is never assigned one a client holds."""
        service = _service().boot()
        http = ServeHTTP(service)
        # The form the server assigns itself to requests without an id.
        taken = b'"request_id": "req-000001"'

        async def scenario():
            http._wake = asyncio.Event()
            first = asyncio.create_task(http._extract(b'{"index": 0, ' + taken + b"}"))
            await asyncio.sleep(0)
            assert service.pending() == 1
            before = dict(service.accounting)
            second = asyncio.create_task(http._extract(b'{"index": 1, ' + taken + b"}"))
            await asyncio.sleep(0)
            assert second.done(), "the duplicate id was admitted"
            assert second.result()[0] == 409
            assert service.accounting == before and service.pending() == 1
            third = asyncio.create_task(http._extract(b'{"index": 1}'))
            await asyncio.sleep(0)
            assert service.pending() == 2
            batch, _ = service.take_batch(time.monotonic())
            outcome = service.run_batch(batch)
            http._publish(service.resolve(batch, outcome, time.monotonic()))
            answers = [json.loads((await task)[2]) for task in (first, third)]
            assert [(a["status"], a["doc_index"]) for a in answers] == [(200, 0), (200, 1)]
            assert answers[0]["request_id"] != answers[1]["request_id"]

        try:
            asyncio.run(scenario())
        finally:
            service.shutdown()

    def test_timed_out_handler_keeps_its_id_until_resolved(self, monkeypatch):
        """A handler that stops waiting leaves its ticket in the service;
        the id stays taken until that ticket resolves, so a retry under
        it never picks up the stale answer."""
        import repro.serve.http as http_mod

        monkeypatch.setattr(http_mod, "_HANDLER_GRACE_S", 0.0)
        service = _service()
        http = ServeHTTP(service)
        body = b'{"index": 0, "request_id": "late", "deadline_s": 0.01}'

        async def scenario():
            http._wake = asyncio.Event()
            status, _, payload = await http._extract(body)
            assert status == 504 and json.loads(payload)["where"] == "handler"
            assert (await http._extract(body))[0] == 409
            _, expired = service.take_batch(time.monotonic())
            http._publish(expired)
            assert "late" not in http._futures

        asyncio.run(scenario())
        assert service.accounting["timeout"] == 1 and service.pending() == 0


# ----------------------------------------------------------------------
# End to end: real server, real sockets, SIGTERM drain
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
class TestServeHTTP:
    def _boot(self, tmp_path, *extra):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2",
             "--corpus-n", "8", "--deadline", "20",
             "--checkpoint", str(tmp_path / "drain.json"), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, start_new_session=True,
        )
        line = proc.stdout.readline()
        match = re.search(r"listening on [\d.]+:(\d+)", line)
        assert match, f"unexpected boot line: {line!r}"
        return proc, int(match.group(1))

    def _get(self, port, path):
        import urllib.request

        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30
        ) as resp:
            return resp.status, resp.read()

    def test_server_lifecycle_sigterm_drains_cleanly(self, tmp_path):
        import urllib.request

        from repro.obs import validate_prometheus
        from repro.trace import validate_jsonl

        observe = tmp_path / "observe"
        proc, port = self._boot(tmp_path, "--observe", str(observe))
        try:
            status, body = self._get(port, "/health")
            assert status == 200 and json.loads(body)["status"] == "ok"
            status, body = self._get(port, "/ready")
            assert status == 200 and json.loads(body)["ready"] is True

            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/extract",
                data=json.dumps({"index": 3}).encode(), method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as resp:
                body = json.loads(resp.read())
            assert resp.status == 200
            assert body["doc_id"] and body["extractions"]

            status, text = self._get(port, "/metrics")
            assert status == 200
            assert 'repro_serve_requests{status="200"} 1' in text.decode()
        finally:
            pgid = os.getpgid(proc.pid)
            os.killpg(pgid, signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        drained = [l for l in out.splitlines() if "drained" in l]
        assert drained and json.loads(drained[0].split("drained ", 1)[1]) == {
            "submitted": 1, "ok": 1, "shed": 0, "timeout": 0,
            "pending": 0, "unaccounted": 0,
        }
        with pytest.raises(ProcessLookupError):  # no orphan workers
            os.killpg(pgid, 0)
        record = json.loads((tmp_path / "drain.json").read_text())
        assert record["accounting"]["unaccounted"] == 0
        # --observe held the spans until the drain, then wrote every view.
        assert validate_prometheus(observe / "metrics.prom") > 0
        assert validate_jsonl(observe / "trace.jsonl") > 0
        assert f"wrote {observe / 'metrics.prom'}" in out

    def test_http_loadgen_accounts_for_every_request(self, tmp_path):
        from repro.serve import run_http

        proc, port = self._boot(
            tmp_path, "--queue-limit", "4", "--faults", CHAOS_SPEC,
        )
        try:
            counts = run_http(
                "127.0.0.1", port,
                LoadSpec(n_requests=12, rate=50.0, seed=7, deadline_s=20.0,
                         http_concurrency=12),
            )
            assert set(counts) <= {"200", "429", "504"}
            assert sum(counts.values()) == 12
        finally:
            pgid = os.getpgid(proc.pid)
            os.killpg(pgid, signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        with pytest.raises(ProcessLookupError):
            os.killpg(pgid, 0)

    def _extract(self, port, index):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/extract",
            data=json.dumps({"index": index}).encode(), method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as resp:
                return resp.status
        except urllib.error.HTTPError as err:
            err.close()
            return err.code

    def test_killed_worker_is_replaced_while_serving(self, tmp_path):
        """SIGKILL a pool worker while 2-document batches are in flight:
        its documents retry, a replacement forks from the dispatcher
        thread (after the event loop's threads exist) without hanging,
        and the server still drains every request and exits 0."""
        from concurrent.futures import ThreadPoolExecutor

        def children(pid):
            out = set()
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    out.update(int(p) for p in fh.read().split())
            return sorted(out)

        proc, port = self._boot(tmp_path, "--batch-max", "2", "--queue-limit", "32")
        pgid = os.getpgid(proc.pid)
        try:
            victim = children(proc.pid)[0]
            with ThreadPoolExecutor(max_workers=16) as clients:
                first = [clients.submit(self._extract, port, i % 8) for i in range(16)]
                time.sleep(0.3)
                os.kill(victim, signal.SIGKILL)
                assert [f.result() for f in first] == [200] * 16
                later = [clients.submit(self._extract, port, i % 8) for i in range(8)]
                assert [f.result() for f in later] == [200] * 8
            live = children(proc.pid)
            assert len(live) == 2 and victim not in live
        finally:
            os.killpg(pgid, signal.SIGTERM)
            try:
                out, _ = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(pgid, signal.SIGKILL)
                proc.communicate()
                raise
        assert proc.returncode == 0, out
        drained = [l for l in out.splitlines() if "drained" in l]
        accounting = json.loads(drained[0].split("drained ", 1)[1])
        assert accounting["unaccounted"] == 0
        assert accounting["ok"] == accounting["submitted"] == 24

    def test_malformed_extract_body_is_400(self, tmp_path):
        import urllib.error
        import urllib.request

        proc, port = self._boot(tmp_path)
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/extract",
                data=b"not json", method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=30)
            err.value.close()
            assert err.value.code == 400
        finally:
            os.killpg(os.getpgid(proc.pid), signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
