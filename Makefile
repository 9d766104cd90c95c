# Convenience targets for the AB-ORAM reproduction.

PYTEST ?= python -m pytest
PYTHON ?= python

# Make every target work from a bare checkout (no `pip install -e .`):
# src/ layout, so the package root just needs to be importable.
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test bench bench-full figures examples lint perf-smoke \
	pipeline-smoke faults-smoke telemetry-smoke serve-smoke chaos-smoke \
	shard-smoke obs-smoke ci clean

install:
	pip install -e . || python setup.py develop

test:
	$(PYTEST) tests/

test-output:
	$(PYTEST) tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTEST) benchmarks/ --benchmark-only

bench-output:
	$(PYTEST) benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Full-scale sweep (slow): all 17 SPEC benchmarks at a deeper tree.
bench-full:
	REPRO_BENCH_SUITE=all REPRO_BENCH_LEVELS=16 REPRO_BENCH_REQUESTS=2500 \
	  $(PYTEST) benchmarks/ --benchmark-only

figures:
	$(PYTHON) -m repro space
	$(PYTHON) -m repro sweep --schemes baseline dr ns ab

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

# Uses ruff when installed (what CI runs); falls back to the bundled
# AST-based checker so `make lint` works in a bare environment.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
	  ruff check src tests benchmarks examples tools && \
	  ruff format --check src tests benchmarks examples tools; \
	else \
	  echo "ruff not installed; running tools/lint.py fallback"; \
	  $(PYTHON) tools/lint.py src tests benchmarks examples tools; \
	fi

# Every smoke target below is the one definition of its gate: CI's
# smoke job runs `make <target>` and uploads generated/ (gitignored
# scratch, where every report lands).
#
# Perf smoke: the seconds-scale perf matrix, serial and over two
# workers. Hard gates: the two reports' deterministic views (every
# cell's sim block, pipelined @pN and sharded @sN cells included) must
# be byte-identical, and equal to the committed baseline's. Then a
# warn-only compare of the serial run's wall-clock throughput (too noisy
# on shared runners to hard-gate; the two-worker run's cells contend
# for cores, so its wall times are not comparable to the baseline).
perf-smoke:
	$(PYTHON) -m repro perf run --smoke \
	  --out generated/BENCH_perf_serial.json
	$(PYTHON) -m repro perf run --smoke --workers 2 \
	  --out generated/BENCH_perf_new.json
	$(PYTHON) tools/report_determinism.py \
	  generated/BENCH_perf_serial.json generated/BENCH_perf_new.json
	$(PYTHON) tools/report_determinism.py \
	  benchmarks/baselines/BENCH_perf_smoke.json \
	  generated/BENCH_perf_new.json
	$(PYTHON) -m repro perf compare \
	  benchmarks/baselines/BENCH_perf_smoke.json \
	  generated/BENCH_perf_serial.json --warn-only

# CI pipeline smoke: the transaction-pipelined controller's three
# gates, all hard failures. (1) the smoke matrix's ns/mcf@p4 cell must
# beat its serial twin by >= 1.5x on simulated DRAM-ns with every
# logical sim field identical, and the serial cells must match the
# committed baseline bit for bit (depth 1 untouched by the pipeline);
# its wall_s may be at most 2x its serial twin's from the same report
# (best of 3 each). (2) a second run over two spawn workers must
# produce a byte-identical deterministic report view. (3) a pipelined
# traced run must emit a schema-valid Perfetto trace (per-lane
# pipeline tracks included).
pipeline-smoke:
	$(PYTHON) -m repro perf run --smoke --repeats 3 \
	  --out generated/BENCH_pipeline.json
	$(PYTHON) tools/check_pipeline.py generated/BENCH_pipeline.json \
	  --baseline benchmarks/baselines/BENCH_perf_smoke.json \
	  --min-speedup 1.5 --max-wall-ratio 2.0
	$(PYTHON) -m repro perf run --smoke --repeats 3 --workers 2 \
	  --out generated/BENCH_pipeline_w2.json
	$(PYTHON) tools/report_determinism.py \
	  generated/BENCH_pipeline.json generated/BENCH_pipeline_w2.json
	$(PYTHON) -m repro simulate --scheme ns --levels 10 --requests 500 \
	  --warmup 100 --pipeline-depth 4 \
	  --trace-out generated/trace_pipeline.json
	$(PYTHON) tools/check_trace.py generated/trace_pipeline.json \
	  --require-kinds readPath evictPath earlyReshuffle
	$(PYTHON) tools/telemetry_overhead.py --max-overhead-pct 10 \
	  --pipeline-depth 4

# CI robustness smoke: fault-injection campaign; fails unless every
# tampering fault (bit flip, replay) was detected, unless a rerun over
# two workers reproduces the report file byte for byte (it carries no
# wall-clock fields), and unless the report's deterministic view (all
# but the environment block) is byte-identical to the committed
# baseline -- a hard gate on the seal/open/fault sequence.
faults-smoke:
	$(PYTHON) -m repro faults run --smoke \
	  --out generated/BENCH_faults.json --require-detection
	$(PYTHON) -m repro faults run --smoke --workers 2 \
	  --out generated/BENCH_faults_par.json
	cmp generated/BENCH_faults.json generated/BENCH_faults_par.json
	$(PYTHON) tools/report_determinism.py \
	  benchmarks/baselines/BENCH_faults_smoke.json \
	  generated/BENCH_faults.json

# CI telemetry smoke: trace an L12 AB cell, validate the Chrome trace
# against the schema checker, require the golden cells to hold
# bit-for-bit with tracing attached (telemetry observes, never steers),
# and bound the telemetry overhead.
telemetry-smoke:
	$(PYTHON) -m repro simulate --scheme ab --levels 12 --requests 600 \
	  --warmup 0 --trace-out generated/BENCH_trace.json
	$(PYTHON) tools/check_trace.py generated/BENCH_trace.json \
	  --require-kinds readPath evictPath earlyReshuffle
	$(PYTEST) tests/test_reshuffle_golden.py -x -q
	$(PYTHON) tools/telemetry_overhead.py --max-overhead-pct 10

# CI serving smoke: open-loop workloads through the batching scheduler;
# fails unless batch scheduling beats naive FIFO on oblivious accesses,
# unless a rerun over two workers reproduces the deterministic report
# view, and unless that view is byte-identical to the committed
# baseline. Also writes a per-request Perfetto trace and validates it,
# then soft-compares the wall-clock fields against the baseline.
serve-smoke:
	$(PYTHON) -m repro serve bench --smoke \
	  --out generated/BENCH_serve.json \
	  --trace-out generated/trace_serve.json --require-dedup-win
	$(PYTHON) tools/check_trace.py generated/trace_serve.json \
	  --require-kinds readPath evictPath queue get --min-spans 500
	$(PYTHON) -m repro serve bench --smoke --workers 2 \
	  --out generated/BENCH_serve_par.json
	$(PYTHON) tools/report_determinism.py \
	  generated/BENCH_serve.json generated/BENCH_serve_par.json
	$(PYTHON) tools/report_determinism.py \
	  benchmarks/baselines/BENCH_serve_smoke.json \
	  generated/BENCH_serve.json
	$(PYTHON) -m repro serve compare \
	  benchmarks/baselines/BENCH_serve_smoke.json \
	  generated/BENCH_serve.json --warn-only

# CI chaos smoke: fault injection under live serving load through the
# resilient loop. Fails unless availability floors hold and every
# tampering fault (bit flip, replay) was detected *while serving*.
# Runs twice -- serial and over two spawn workers -- and requires the
# deterministic report view byte-identical across the two and to the
# committed baseline, then soft-compares the wall-clock fields
# (p99-under-fault) against that baseline. The traced cell's timeline (degraded windows, fault
# markers) is schema-checked like the other Perfetto artifacts.
chaos-smoke:
	$(PYTHON) -m repro serve chaos --smoke \
	  --out generated/BENCH_chaos.json \
	  --trace-out generated/trace_chaos.json --require-detection
	$(PYTHON) tools/check_trace.py generated/trace_chaos.json \
	  --require-kinds readPath queue get degraded_enter faults \
	  --min-spans 200
	$(PYTHON) -m repro serve chaos --smoke --workers 2 \
	  --out generated/BENCH_chaos_w2.json --require-detection
	$(PYTHON) tools/report_determinism.py \
	  generated/BENCH_chaos.json generated/BENCH_chaos_w2.json
	$(PYTHON) tools/report_determinism.py \
	  benchmarks/baselines/BENCH_chaos_smoke.json \
	  generated/BENCH_chaos.json
	$(PYTHON) -m repro serve compare \
	  benchmarks/baselines/BENCH_chaos_smoke.json \
	  generated/BENCH_chaos.json --warn-only

# CI shard smoke: the sharded fleet's capacity curve. Hard gates: the
# shards=4 fleet must clear 3x the single-shard served throughput, and
# the kill-a-shard drill must stay above its availability floor with
# 100% tamper detection and an all-healthy control plane. Runs twice
# -- serial and with one spawn worker per shard -- and requires the
# deterministic report view byte-identical across the two and to the
# committed baseline curve, then soft-compares its wall-clock fields.
shard-smoke:
	$(PYTHON) -m repro serve scaling --smoke \
	  --out generated/BENCH_scaling.json --require-speedup 3.0
	$(PYTHON) -m repro serve scaling --smoke --workers 2 \
	  --out generated/BENCH_scaling_w2.json
	$(PYTHON) tools/report_determinism.py \
	  generated/BENCH_scaling.json generated/BENCH_scaling_w2.json
	$(PYTHON) tools/report_determinism.py \
	  benchmarks/baselines/BENCH_scaling_smoke.json \
	  generated/BENCH_scaling.json
	$(PYTHON) -m repro serve compare \
	  benchmarks/baselines/BENCH_scaling_smoke.json \
	  generated/BENCH_scaling.json --warn-only

# CI observability smoke: the chaos campaign as a 4-shard fleet with
# the full observability plane on -- one merged Perfetto trace
# (per-shard process tracks, router flow events, control/SLO
# timelines), the streaming SLO JSONL and the ops stream the console
# replays. Gates: the merged trace must pass the flow/process schema
# checks; a --workers 2 rerun must reproduce the deterministic report
# view AND the trace file byte-for-byte; the report's deterministic
# view must equal the committed baseline; the recorded ops stream must
# replay through `serve top`; and the observability plane must cost
# <= 10% wall time on the serving loop (best of 7 runs: best of 3 read
# +13% to +27% for unchanged code on a shared 2-vCPU host).
obs-smoke:
	$(PYTHON) -m repro serve chaos --smoke --shards 4 \
	  --out generated/BENCH_chaos_fleet.json \
	  --trace-out generated/trace_fleet.json \
	  --slo-out generated/slo_fleet.jsonl \
	  --ops-out generated/ops_fleet.jsonl --require-detection
	$(PYTHON) tools/check_trace.py generated/trace_fleet.json \
	  --require-kinds route readPath queue get --min-spans 500 \
	  --require-flows 200 \
	  --require-process fleet-router shard-0 shard-1 shard-2 shard-3
	$(PYTHON) -m repro serve chaos --smoke --shards 4 --workers 2 \
	  --out generated/BENCH_chaos_fleet_w2.json \
	  --trace-out generated/trace_fleet_w2.json
	$(PYTHON) tools/report_determinism.py \
	  generated/BENCH_chaos_fleet.json generated/BENCH_chaos_fleet_w2.json
	cmp generated/trace_fleet.json generated/trace_fleet_w2.json
	$(PYTHON) tools/report_determinism.py \
	  benchmarks/baselines/BENCH_chaos_fleet_smoke.json \
	  generated/BENCH_chaos_fleet.json
	$(PYTHON) -m repro serve top --replay generated/ops_fleet.jsonl \
	  --frames 3 --no-clear
	$(PYTHON) tools/telemetry_overhead.py --serve --max-overhead-pct 10 \
	  --repeats 7

# Mirror of the CI pipeline: lint, tier-1 tests, perf/pipeline/faults/
# telemetry/serve/chaos/shard/observability smoke.
ci: lint test perf-smoke pipeline-smoke faults-smoke telemetry-smoke \
	serve-smoke chaos-smoke shard-smoke obs-smoke

# Removes only regenerated artifacts. Committed reference outputs
# (benchmarks/out/, benchmarks/baselines/, BENCH_perf.json) survive.
clean:
	rm -rf benchmarks/generated generated .pytest_cache .ruff_cache
	rm -f BENCH_perf_new.json BENCH_faults.json test_output.txt \
	  bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
