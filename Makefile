# Developer entry points.  Everything runs from a source checkout with
# no install step: src/ goes on PYTHONPATH (the package is pure Python).

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint lint-cold lint-flow contracts bench bench-smoke perfbench-selftest tables trace-smoke chaos-smoke metrics-smoke serve-smoke docs-check

test: lint       ## the tier-1 suite (~600 unit/integration tests) + contract pass
	$(PY) -m pytest -x -q
	REPRO_CONTRACTS=1 $(PY) -m pytest -x -q -m contracts

lint:            ## repo-specific static analysis (see docs/STATIC_ANALYSIS.md)
	$(PY) -m repro check src tests --cache .repro_check_cache.json --stats --timings

lint-cold:       ## same, but from scratch (ignores and rebuilds the result cache)
	rm -f .repro_check_cache.json
	$(PY) -m repro check src tests --cache .repro_check_cache.json --stats --timings

lint-flow:       ## cold+warm flow-analysis round trip; the warm run must rebuild nothing
	rm -f .lint_flow_cache.json
	$(PY) -m repro check src tests --cache .lint_flow_cache.json --stats
	$(PY) -m repro check src tests --cache .lint_flow_cache.json --stats 2>&1 \
	    | tee /dev/stderr | grep -q ", 0 CFG(s) built$$"
	rm -f .lint_flow_cache.json

contracts:       ## the runtime-contract test subset with contracts forced on
	REPRO_CONTRACTS=1 $(PY) -m pytest -x -q -m contracts

docs-check:      ## dead intra-repo markdown links + docs/ reachability from README
	$(PY) tools/docs_check.py

bench-smoke:     ## snapshot refresh + fast-vs-naive cut.decision ledger gate (docs/PERFORMANCE.md)
	$(PY) -m pytest benchmarks/test_bench_smoke.py -m bench_smoke -q -s

perfbench-selftest: ## every benchmark workload, traced and untraced, at tiny sizes + golden digests (~1 min)
	$(PY) perfbench/selftest.py

trace-smoke:     ## traced 3-doc extract + schema validation of both exporters
	$(PY) -m repro extract --dataset D2 --n 3 --seed 0 \
	    --trace /tmp/repro_trace_smoke.json \
	    --trace-jsonl /tmp/repro_trace_smoke.jsonl > /dev/null
	$(PY) -c "from repro.trace import validate_chrome_trace, validate_jsonl; \
	    n = validate_chrome_trace('/tmp/repro_trace_smoke.json'); \
	    m = validate_jsonl('/tmp/repro_trace_smoke.jsonl'); \
	    print(f'trace-smoke: chrome trace ok ({n} events), jsonl ok ({m} records)')"

chaos-smoke:     ## supervised 20-doc corpus under a canned hang+crash+poison+flaky FaultPlan
	$(PY) -m pytest tests/test_resilience.py -m chaos_smoke -q

metrics-smoke:   ## metric-exporting bench + Prometheus parse + SLO-gated run-health verdict
	$(PY) -m repro bench --dataset D2 --n 4 --seed 0 \
	    --out /tmp/repro_metrics_smoke.json \
	    --metrics /tmp/repro_metrics_smoke.prom \
	    --metrics-jsonl /tmp/repro_metrics_smoke.jsonl > /dev/null
	$(PY) -c "from repro.obs import validate_prometheus; \
	    n = validate_prometheus('/tmp/repro_metrics_smoke.prom'); \
	    print(f'metrics-smoke: prometheus exposition ok ({n} samples)')"
	$(PY) -m repro report --dataset D2

serve-smoke:     ## chaos loadgen -> BENCH_serve.json -> serve-SLO verdict -> live-server e2e (docs/SERVING.md)
	$(PY) -m repro loadgen --n 64 --rate 10 --deadline 4 \
	    --faults 'admit:flaky@0.1,batch:flaky@0.2,merge:flaky@0.3' \
	    --out benchmarks/BENCH_serve.json
	$(PY) -m repro report --serve benchmarks/BENCH_serve.json
	$(PY) -m pytest tests/test_serve.py -m serve_smoke -q

bench:           ## same snapshot via the CLI, tunable (N=…, WORKERS=…, DATASET=…)
	$(PY) -m repro bench --dataset $(or $(DATASET),D2) --n $(or $(N),8) \
	    --workers $(or $(WORKERS),2) --out benchmarks/results/BENCH_pipeline.json

tables:          ## regenerate every paper table/figure into benchmarks/results/
	$(PY) -m pytest benchmarks/ -q -s
