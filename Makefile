# Developer entry points.  Everything runs from a source checkout with
# no install step: src/ goes on PYTHONPATH (the package is pure Python).

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint lint-cold lint-cache contracts bench-smoke perfbench-selftest tables trace-smoke chaos-smoke serve-smoke docs-check

test: lint       ## the tier-1 suite (~600 unit/integration tests) + contract pass
	$(PY) -m pytest -x -q
	REPRO_CONTRACTS=1 $(PY) -m pytest -x -q -m contracts

lint:            ## repo-specific static analysis (see docs/STATIC_ANALYSIS.md)
	$(PY) -m repro check src tests --cache .repro_check_cache.json --stats --timings

lint-cold:       ## same, but from scratch (ignores and rebuilds the result cache)
	rm -f .repro_check_cache.json
	$(PY) -m repro check src tests --cache .repro_check_cache.json --stats --timings

lint-cache:      ## cold+warm result-cache round trip; the warm run must parse nothing
	rm -f .lint_cache_check.json
	$(PY) -m repro check src tests --cache .lint_cache_check.json --stats
	$(PY) -m repro check src tests --cache .lint_cache_check.json --stats 2>&1 \
	    | tee /dev/stderr | grep -qF "file(s), 0 parsed,"
	rm -f .lint_cache_check.json

contracts:       ## the runtime-contract test subset with contracts forced on
	REPRO_CONTRACTS=1 $(PY) -m pytest -x -q -m contracts

docs-check:      ## dead intra-repo markdown links + docs/ reachability from README
	$(PY) tools/docs_check.py

bench-smoke:     ## fast-vs-naive cut.decision ledger gate + 1.3x speed floor (docs/PERFORMANCE.md)
	$(PY) -m pytest benchmarks/test_bench_smoke.py -m bench_smoke -q -s

perfbench-selftest: ## every benchmark workload, traced and untraced, at tiny sizes + golden digests (~1 min)
	$(PY) perfbench/selftest.py

trace-smoke:     ## traced 3-doc extract (--observe) + schema validation of both trace files
	$(PY) -m repro extract --dataset D2 --n 3 --seed 0 \
	    --observe /tmp/repro_trace_smoke > /dev/null
	$(PY) -c "from repro.trace import validate_chrome_trace, validate_jsonl; \
	    n = validate_chrome_trace('/tmp/repro_trace_smoke/trace.json'); \
	    m = validate_jsonl('/tmp/repro_trace_smoke/trace.jsonl'); \
	    print(f'trace-smoke: chrome trace ok ({n} events), jsonl ok ({m} records)')"

chaos-smoke:     ## supervised 20-doc corpus under a canned hang+crash+poison+flaky FaultPlan
	$(PY) -m pytest tests/test_resilience.py -m chaos_smoke -q

serve-smoke:     ## live-server e2e: real sockets, chaos load, SIGTERM drain, no orphan workers (docs/SERVING.md)
	$(PY) -m pytest tests/test_serve.py -m serve_smoke -q

tables:          ## regenerate every paper table/figure into benchmarks/results/
	$(PY) -m pytest benchmarks/ -q -s
