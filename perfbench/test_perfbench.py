"""Tests of the benchmark itself: the gate, the tracer, the reporters.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import diff, run, workloads  # noqa: E402
from perfbench.reference import check_fifo  # noqa: E402
from perfbench.tracer import Tracer, self_times_from_spans  # noqa: E402
from repro.serve import (  # noqa: E402
    BatchScheduler, ResilienceConfig, WorkloadConfig, build_stack,
    generate_requests, resilient_replay,
)
from repro.serve.loadgen import initial_items  # noqa: E402


def _served(n: int = 300, seed: int = 5):
    wl = WorkloadConfig(name="t", n_requests=n, n_keys=1000, stored_keys=40,
                        rate_rps=200_000.0, read_fraction=0.6,
                        delete_fraction=0.1, seed=seed)
    stack = build_stack("ab", 8, seed=seed)
    items = initial_items(wl)
    stack.kv.preload(items)
    reqs = generate_requests(wl)
    sched = BatchScheduler(stack.kv, seed=seed, clock=lambda: stack.dram_sink.now)
    res = resilient_replay(stack, reqs, sched, ResilienceConfig())
    return items, reqs, res.completions


def test_fifo_gate_passes_on_the_program():
    items, reqs, comps = _served()
    assert check_fifo(items, reqs, comps) == []


def test_fifo_gate_catches_a_corrupted_value():
    items, reqs, comps = _served()
    victim = next(c for c in comps if c.op == "get" and c.value)
    victim.value = victim.value[:-1] + b"?"
    problems = check_fifo(items, reqs, comps)
    assert problems and f"rid {victim.rid} get" in problems[0]


def test_fifo_gate_catches_a_wrong_delete_ack():
    items, reqs, comps = _served()
    victim = next(c for c in comps if c.op == "delete")
    victim.ok = not victim.ok
    assert any(f"rid {victim.rid} delete" in p for p in check_fifo(items, reqs, comps))


def test_fifo_gate_catches_a_missing_completion():
    items, reqs, comps = _served()
    assert check_fifo(items, reqs, comps[:-1])


def test_failed_requests_leave_the_model_untouched():
    req = [SimpleNamespace(rid=0, op="put", key=b"k", value=b"new", arrival_ns=1.0),
           SimpleNamespace(rid=1, op="get", key=b"k", value=None, arrival_ns=2.0)]
    comps = [SimpleNamespace(rid=0, status="shed", ok=False, value=None),
             SimpleNamespace(rid=1, status="ok", ok=True, value=b"old")]
    assert check_fifo([(b"k", b"old")], req, comps) == []


def test_tracer_self_time_adds_up():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    inner = tracer.wrap(lambda: (leaf(), leaf()), "oram.bucket")
    outer = tracer.wrap(lambda: (inner(), time.sleep(0.003)), "oram.ring")
    t0 = time.perf_counter_ns()
    outer()
    total = time.perf_counter_ns() - t0
    ledger = tracer.ledger(total / 1e9)
    assert ledger["oram.ring"]["calls"] == 1 and ledger["oram.bucket"]["calls"] == 1
    assert ledger["oram.bucket"]["self_s"] >= 0.004
    assert ledger["oram.ring"]["self_s"] >= 0.003
    # Self times partition the outermost span exactly.
    ring, bucket = tracer.layers.index("oram.ring"), tracer.layers.index("oram.bucket")
    root = list(tracer.span_parent).index(-1)
    assert tracer.self_ns[ring] + tracer.self_ns[bucket] == \
        tracer.span_end[root] - tracer.span_start[root]
    assert sum(row["share"] for row in ledger.values()) <= 1.0
    recomputed = self_times_from_spans(
        tracer.span_layer, tracer.span_parent, tracer.span_start,
        tracer.span_end, len(tracer.layers),
    )
    assert recomputed == tracer.self_ns


def test_tracer_restores_the_program():
    from repro.oram.ring import RingOram
    from repro.serve import resilience
    before = (RingOram.access, resilience.resilient_replay, workloads.resilient_replay)
    with Tracer():
        assert RingOram.access is not before[0]
        assert workloads.resilient_replay is not before[2]
    assert (RingOram.access, resilience.resilient_replay,
            workloads.resilient_replay) == before


def test_backlog_guard():
    def comps(latency_of):
        return [SimpleNamespace(arrival_ns=float(i * 100),
                                done_ns=float(i * 100 + latency_of(i)),
                                latency_ns=float(latency_of(i)), status="ok")
                for i in range(400)]
    steady, _ = workloads.backlog_problems("w", comps(lambda i: 250))
    growing, _ = workloads.backlog_problems("w", comps(lambda i: 250 + 200 * i))
    assert steady == []
    assert growing and "backlog grows" in growing[0]


def _kv_poisson(rate_rps: float):
    spec = replace(
        workloads.KV_ZIPF_READ, warm_min=0, warm_cap=500, chunk=250, setup_repeats=1,
        workload=replace(workloads.KV_ZIPF_READ.workload, arrival="poisson",
                         rate_rps=rate_rps),
    )
    out = workloads.run_kv(spec, seed=3, seconds=1.0, trace=False)
    return [p for p in out.problems if "backlog" in p]


def test_moderate_overload_fails_the_guard():
    # kv-zipf-read's request mix saturates at ~1.8M req/s of simulated
    # time; 2.4M req/s is ~1.35x that.
    grown = _kv_poisson(2_400_000.0)
    assert grown and "backlog grows" in grown[0]


def test_load_below_capacity_passes_the_guard():
    assert _kv_poisson(1_200_000.0) == []


def test_sim_runs_are_deterministic():
    a = workloads.run_sim(seed=7, seconds=0.3, trace=True)
    b = workloads.run_sim(seed=7, seconds=0.3, trace=True)
    assert a.problems == [] and b.problems == []
    assert a.deterministic == b.deterministic
    assert a.tracer.calls == b.tracer.calls
    assert a.record["trace"]["extras"] == b.record["trace"]["extras"]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_diff_ranks_layers_by_contribution():
    def result(ops, ring, dram):
        return {
            "workload": "w", "seed": 1, "trace": 1, "deterministic": {"x": 1},
            "end_to_end": {"ops_per_s": {"value": ops, "unit": "op/s"}},
            "ledger": {"ops": 100, "uncovered_share": 1 - ring - dram,
                       "layers": {"oram.ring": {"share": ring, "calls": 100},
                                  "mem.dram": {"share": dram, "calls": 300}},
                       "extras": {"mem.dram.requests": 5}},
        }
    base = diff.summarize([result(1000.0, 0.5, 0.3)])
    new = diff.summarize([result(1250.0, 0.375, 0.375)])
    out = io.StringIO()
    diff.report(base, new, out)
    lines = [ln for ln in out.getvalue().splitlines() if "us/op " in ln and "->" in ln]
    assert lines[1].split()[0] == "oram.ring"   # 500 -> 300 us: the move


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-zipf-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_waits_for_the_resource_tracker():
    import multiprocessing
    from multiprocessing import resource_tracker
    multiprocessing.get_context("spawn").Lock()   # starts the tracker
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_child_processes()
    assert resource_tracker._resource_tracker._pid is None
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass   # already waited for: nothing is left behind
    else:
        raise AssertionError(f"resource tracker {pid} was not waited for")
