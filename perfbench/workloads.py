"""The four benchmark workloads, driven through the program's public API.

Each workload runner returns an :class:`Outcome`: the end-to-end metrics, the
exact (deterministic) block, the correctness verdict and, for a traced
run, the layer ledger. Inputs are generated here from the seed; the
program only ever sees the generated requests and traces.

Window lengths are fixed request counts per second of ``--seconds``,
never "whatever finished in time": that keeps every simulated metric
and every layer count a pure function of (seed, seconds), so two runs
at the same seed can be compared byte for byte. The counts are the
steady-state host rates of a 2-core x86 host; a faster host finishes a
window sooner.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.space import overhead_report
from repro.core import schemes
from repro.core.security import GuessingAttacker
from repro.core.sharding.fleet import FleetConfig, run_fleet, shard_requests
from repro.faults.plan import FaultPlan
from repro.oram.recovery import RobustnessConfig
from repro.parallel.executor import derive_seed
from repro.serve import (
    BatchScheduler, ResilienceConfig, WorkloadConfig, build_stack,
    generate_requests, resilient_replay,
)
from repro.serve.loadgen import initial_items
from repro.sim.engine import SimConfig, Simulation
from repro.traces.spec import spec_trace

from perfbench.hostspeed import INTERVAL_NS, REFERENCE_NS, HostSpeed
from perfbench.reference import check_fifo
from perfbench.tracer import Tracer

OK = "ok"
LEVELS = 10
#: Timed stretches per sim window; ops_per_s is their median rate.
SIM_STRETCHES = 20
#: Smallest sample a tail percentile is taken over: a p99 of 1,000
#: values has 10 beyond it.
TAIL_CHUNK = 1000
#: Backlog guard. Under an offered load r times the service capacity
#: each request waits (r - 1) inter-arrival times longer than the one
#: before, so queueing delay rises by r - 1 ns per ns of arrivals,
#: whatever lag the warm-up left behind. The guard fits that slope
#: through the median latency of BACKLOG_SEGMENTS arrival stretches of
#: the window and fails above MAX_LAG_GROWTH. Measured on kv-zipf-read's
#: request mix (saturated capacity ~1.8M req/s): |slope| < 0.001 at the
#: steady bursty 300k req/s, 0.09 at Poisson 2M req/s, 0.64 at 3M.
BACKLOG_SEGMENTS = 8
MAX_LAG_GROWTH = 0.05
#: The closed-loop sim has no queue: its read-path p99 over the second
#: half's stretches may not exceed the first half's by this much.
GROWTH_FACTOR = 2.5
SIM_LATENCY_SLACK_US = 1.0
#: Warm-up levelling: dead slots (and the stash) averaged over the
#: last LEVEL_WINDOW chunks may exceed the previous LEVEL_WINDOW
#: chunks' average by at most this share.
LEVEL_WINDOW = 3
DEAD_TOLERANCE = 0.03
STASH_TOLERANCE = 0.25
STASH_SLACK = 4.0


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    deterministic: Dict[str, Any]
    record: Dict[str, Any] = field(default_factory=dict)
    tracer: Optional[Tracer] = None


# ------------------------------------------------------------------ helpers

def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def tail_p99(values: Sequence[float]) -> float:
    """p99 of each consecutive TAIL_CHUNK-sized stretch, median over them.

    One long stall or one long burst moves a single stretch's p99, not
    the reported value; a tail that is heavy throughout still shows.
    """
    chunks = len(values) // TAIL_CHUNK
    if chunks <= 1:
        return percentile(values, 99)
    arr = np.asarray(values, dtype=np.float64)
    return float(np.median([np.percentile(c, 99) for c in np.array_split(arr, chunks)]))


def peak_rss_mb(children: int = 0) -> float:
    """Peak resident MiB of this process, plus ``children`` workers.

    Workers are counted at the largest reaped child's peak (Linux
    reports ``ru_maxrss`` in KiB), an upper bound on their concurrent
    sum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * kids) / 1024.0


def space_ratio(cfg: Any) -> float:
    """Physical tree bytes (data + metadata) per byte of real capacity."""
    meta = overhead_report(cfg)["metadata_tree_bytes"]
    return (cfg.tree_bytes + meta) / (cfg.n_real_blocks * cfg.block_bytes)


def attacker_ratio(attackers: Sequence[GuessingAttacker]) -> float:
    """Guessing-attacker success rate over the chance rate 1/L.

    1.0 is chance. Guesses on paths that return no real block (stash
    hits, background evictions) always miss, so a leak-free run sits
    at or below 1.0.
    """
    guesses = sum(a.guesses for a in attackers)
    correct = sum(a.correct for a in attackers)
    if guesses == 0:
        return 1.0
    return (correct / guesses) / attackers[0].expected_rate


def digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def completions_digest(comps: Sequence[Any]) -> str:
    h = hashlib.sha256()
    for c in comps:
        h.update(repr((
            c.rid, c.op, c.key, c.status, c.ok, c.value, c.arrival_ns,
            c.start_ns, c.done_ns, c.accesses, c.dedup, c.coalesced,
            c.degraded,
        )).encode())
    return h.hexdigest()


def timed_setups(build: Callable[[], Any], repeats: int,
                 speed: HostSpeed) -> Tuple[Any, List[float], List[float]]:
    """Build ``repeats`` times; returns the last build and the raw and
    reference-speed seconds of every build."""
    raw: List[float] = []
    norm: List[float] = []
    built = None
    for _ in range(repeats):
        built = None
        gc.collect()
        before = speed.sample()
        t0 = time.perf_counter()
        built = build()
        raw.append(time.perf_counter() - t0)
        norm.append(raw[-1] * 2 * REFERENCE_NS / (before + speed.sample()))
    return built, raw, norm


def counters(orams: Sequence[Any], drams: Sequence[Any], sinks: Sequence[Any],
             stores: Sequence[Any], faulty: Sequence[Any],
             scheds: Sequence[Any]) -> Dict[str, float]:
    """Exact protocol counters summed over the given instances."""
    return {
        "evictions": sum(o.evict_counter for o in orams),
        "reshuffles": sum(int(o.store.reshuffles_by_level.sum()) for o in orams),
        "stash_peak": max((o.stash.peak_occupancy for o in orams), default=0),
        "ext_attempts": sum(o.ext.extension_attempts for o in orams if o.ext is not None),
        "ext_grants": sum(o.ext.extension_grants for o in orams if o.ext is not None),
        "dram_requests": sum(d.stats.reads + d.stats.writes for d in drams),
        "dram_row_hits": sum(d.stats.row_hits for d in drams),
        "conflict_stalls": sum(getattr(s, "conflict_stalls", 0) for s in sinks),
        "seals": sum(s.seals for s in stores),
        "opens": sum(s.opens for s in stores),
        "injected": sum(sum(f.injected.values()) for f in faulty),
        "detected": sum(sum(f.detected.values()) for f in faulty),
        "sched_requests": sum(s.requests for s in scheds),
        "sched_batches": sum(s.batches for s in scheds),
        "dedup_hits": sum(s.dedup_hits for s in scheds),
        "accesses_issued": sum(s.accesses_issued for s in scheds),
    }


def window_extras(c0: Dict[str, float], c1: Dict[str, float],
                  loop: Dict[str, float]) -> Dict[str, float]:
    """Per-layer counts and ratios over one traced window."""
    d = {k: c1[k] - c0.get(k, 0) for k in c1}
    reqs = d["sched_requests"]
    return {
        "oram.ring.evictions": d["evictions"],
        "oram.ring.reshuffles": d["reshuffles"],
        "oram.ring.stash_peak": c1["stash_peak"],
        "oram.datastore.seals": d["seals"],
        "oram.datastore.opens": d["opens"],
        "core.remote.extension_ratio": (
            d["ext_grants"] / d["ext_attempts"] if d["ext_attempts"] else 0.0),
        "mem.dram.requests": d["dram_requests"],
        "mem.dram.row_hit_rate": (
            d["dram_row_hits"] / d["dram_requests"] if d["dram_requests"] else 0.0),
        "core.pipeline.conflict_stalls": d["conflict_stalls"],
        "serve.scheduler.accesses_per_request": (
            d["accesses_issued"] / reqs if reqs else 0.0),
        "serve.scheduler.dedup_hits": d["dedup_hits"],
        "serve.scheduler.batch_mean": (
            reqs / d["sched_batches"] if d["sched_batches"] else 0.0),
        "faults.memory.injected": d["injected"],
        "faults.memory.detected": d["detected"],
        "serve.loop.retries": loop.get("retries", 0),
        "serve.loop.degraded_reads": loop.get("degraded_reads", 0),
        "serve.loop.queue_depth_p99": loop.get("queue_depth_p99", 0.0),
    }


class HostTimes:
    """Host time of one measured window, stretch by stretch.

    Each stretch is read at reference host speed through the mean
    kernel time at its two ends (hostspeed.py): rates are multiplied
    and per-operation times divided by ``kernel / REFERENCE_NS``.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.rates_raw: List[float] = []
        self.rates: List[float] = []
        self.op_us_raw: List[float] = []
        self.op_us: List[float] = []

    def add(self, ops: int, ns: int, kernel_ns: float,
            op_us: Sequence[float] = ()) -> None:
        factor = kernel_ns / REFERENCE_NS
        if ops > 0 and ns > 0:
            raw = ops * 1e9 / ns
            self.rates_raw.append(raw)
            self.rates.append(raw * factor)
        self.op_us_raw.extend(op_us)
        self.op_us.extend(u / factor for u in op_us)

    def ops_per_s(self) -> float:
        return statistics.median(self.rates) if self.rates else 0.0


class RoundSampler:
    """Probe for ``resilient_replay``: host time per stretch of rounds.

    It only reads the loop's state, so the loop decides exactly as it
    would without it. Every INTERVAL_NS it closes a stretch and runs
    the host-speed kernel, whose time is outside every stretch. A
    stretch's per-operation times are the ``Completion.wall_s`` of the
    requests completed in it that ran their own accesses.
    """

    def __init__(self, times: HostTimes) -> None:
        self.times = times
        self._cal = times.speed.sample()
        self._t0 = time.perf_counter_ns()
        self._done0 = 0

    def _close(self, comps: Sequence[Any], t: int) -> None:
        done = len(comps)
        own = [c.wall_s * 1e6 for c in comps[self._done0:done] if c.accesses > 0]
        cal = self.times.speed.sample()
        self.times.add(done - self._done0, t - self._t0, (self._cal + cal) / 2, own)
        self._cal = cal
        self._t0 = time.perf_counter_ns()
        self._done0 = done

    def sample(self, now: float, queue_len: int, completions: Sequence[Any],
               degraded: bool, journal_len: int) -> None:
        t = time.perf_counter_ns()
        if t - self._t0 >= INTERVAL_NS:
            self._close(completions, t)

    def finish(self, end_ns: float, completions: Sequence[Any]) -> None:
        self._close(completions, time.perf_counter_ns())


def in_system(comps: Sequence[Any]) -> Tuple[np.ndarray, np.ndarray]:
    """Requests in the system at each arrival, in arrival order.

    Counts every earlier arrival not yet done, the arriving request
    included; returns (arrival times, counts).
    """
    arr = np.sort(np.array([c.arrival_ns for c in comps], dtype=np.float64))
    done = np.sort(np.array([c.done_ns for c in comps], dtype=np.float64))
    finished = np.searchsorted(done, arr, side="right")
    return arr, np.arange(1, len(arr) + 1) - finished


def backlog_problems(label: str, comps: Sequence[Any],
                     earlier: Sequence[Any] = ()) -> Tuple[List[str], Dict[str, Any]]:
    """Queueing-delay slope over the window ``comps`` (see MAX_LAG_GROWTH).

    ``earlier`` are the completions of the stream's requests before the
    window; they count toward the in-system depth the record reports.
    """
    ok = sorted((c for c in comps if c.status == OK), key=lambda c: c.arrival_ns)
    if len(ok) < BACKLOG_SEGMENTS:
        return [], {}
    arr = np.array([c.arrival_ns for c in ok], dtype=np.float64)
    lat = np.array([c.latency_ns for c in ok], dtype=np.float64)
    t = [float(np.median(x)) for x in np.array_split(arr, BACKLOG_SEGMENTS)]
    m = [float(np.median(x)) for x in np.array_split(lat, BACKLOG_SEGMENTS)]
    growth = float(np.polyfit(t, m, 1)[0]) if t[-1] > t[0] else 0.0
    problems = []
    if growth > MAX_LAG_GROWTH:
        problems.append(
            f"backlog grows: {label} queueing delay rises {growth:.3f} ns per ns "
            f"of arrivals (limit {MAX_LAG_GROWTH})"
        )
    _, depth = in_system(list(earlier) + list(comps))
    return problems, {"lag_growth": growth,
                      "latency_us_by_segment": [x / 1e3 for x in m],
                      "in_system_p99": percentile(depth[-len(comps):], 99)}


def host_metrics(record: Dict[str, Any], rates: HostTimes, ops: HostTimes,
                 setup_raw: Sequence[float],
                 setup_norm: Sequence[float]) -> Dict[str, float]:
    """The host-clock metrics at reference host speed; the raw figures
    go to ``record["host"]``."""
    record["host"] = {
        "raw": {
            "ops_per_s": statistics.median(rates.rates_raw) if rates.rates_raw else 0.0,
            "host_op_us_p50": percentile(ops.op_us_raw, 50),
            "host_op_us_p99": tail_p99(ops.op_us_raw),
            "setup_s": statistics.median(setup_raw),
        },
        "stretch_rates": rates.rates,
        "kernel_ns_median": statistics.median(rates.speed.samples),
        "calibrations": len(rates.speed.samples),
    }
    return {
        "ops_per_s": rates.ops_per_s(),
        "host_op_us_p50": percentile(ops.op_us, 50),
        "host_op_us_p99": tail_p99(ops.op_us),
        "setup_s": statistics.median(setup_norm),
    }


# ---------------------------------------------------------------- kv serving

@dataclass(frozen=True)
class KvSpec:
    sealed: bool
    workload: WorkloadConfig
    resilience: ResilienceConfig
    fault_rates: Dict[str, float]
    chunk: int              # warm-up chunk (requests)
    warm_min: int           # requests
    warm_cap: int           # requests
    window_per_s: float     # window requests per second of --seconds
    setup_repeats: int


KV_ZIPF_READ = KvSpec(
    sealed=False,
    workload=WorkloadConfig(
        name="kv-zipf-read", n_keys=2_000_000, stored_keys=700,
        arrival="bursty", rate_rps=300_000.0, burst_factor=6.0,
        idle_factor=0.25, zipf_s=1.1, read_fraction=0.9, value_bytes=80,
    ),
    resilience=ResilienceConfig(), fault_rates={},
    chunk=500, warm_min=3000, warm_cap=12_000, window_per_s=950.0,
    setup_repeats=31,
)

KV_SEALED_WRITE = KvSpec(
    sealed=True,
    workload=WorkloadConfig(
        name="kv-sealed-write", n_keys=100_000, stored_keys=100,
        arrival="poisson", rate_rps=150_000.0, zipf_s=0.8,
        read_fraction=0.5, delete_fraction=0.05, value_bytes=40,
    ),
    resilience=ResilienceConfig(deadline_ns=5e6, queue_limit=256, retry_budget=8),
    fault_rates={"unavailable": 5e-4},
    chunk=250, warm_min=2000, warm_cap=6000, window_per_s=130.0,
    setup_repeats=5,
)

#: The same sealed workload with ciphertext bit flips added. Not a
#: tracked workload: the FIFO gate fails on it. A flipped block is
#: detected and its bucket rebuilt, but the block's payload is lost
#: (the ORAM zero-fills it and counts a ``payload_reset``), and the
#: KV layer then serves the lost value as an OK empty value.
KV_SEALED_TAMPER = replace(
    KV_SEALED_WRITE, fault_rates={"bit_flip": 5e-4, "unavailable": 5e-4},
)


class KvRun:
    """One served stack plus everything the gate needs to replay it."""

    def __init__(self, spec: KvSpec, seed: int, n_requests: int) -> None:
        self.spec = spec
        self.seed = seed
        self.speed = HostSpeed()
        self.wl = replace(spec.workload, seed=seed, n_requests=n_requests)
        self.items = initial_items(self.wl)
        self.stack, self.setup_raw, self.setup_norm = timed_setups(
            self._build, spec.setup_repeats, self.speed)
        self.sched = BatchScheduler(
            self.stack.kv, policy="batch", seed=seed,
            clock=lambda: self.stack.dram_sink.now,
        )
        # Sealed stacks are populated by real puts; arrivals start at
        # the clock population left behind (as the chaos campaign does).
        t0 = self.stack.dram_sink.now
        self.stream = [
            replace(r, arrival_ns=r.arrival_ns + t0)
            for r in generate_requests(self.wl)
        ]
        self.requests: List[Any] = []
        self.completions: List[Any] = []
        self.loop = {"retries": 0, "degraded_reads": 0}

    def _build(self) -> Any:
        spec = self.spec
        if spec.sealed:
            stack = build_stack(
                "ab", LEVELS, seed=self.seed, observer=True,
                robustness=RobustnessConfig(integrity=True),
                fault_plan=FaultPlan(rates=spec.fault_rates, seed=self.seed),
            )
            for key, value in self.items:
                stack.kv.put(key, value)
            stack.arm_faults()
        else:
            stack = build_stack("ab", LEVELS, seed=self.seed, observer=True)
            stack.kv.preload(self.items)
        return stack

    def serve(self, reqs: Sequence[Any], sampler: Any = None) -> List[Any]:
        """Serve ``reqs`` on the live stack; returns their completions."""
        res = resilient_replay(self.stack, reqs, self.sched,
                               self.spec.resilience, sampler=sampler)
        self.loop["retries"] += res.retries
        self.loop["degraded_reads"] += res.degraded_reads
        self.requests.extend(reqs)
        self.completions.extend(res.completions)
        return res.completions

    def oram_state(self) -> Tuple[int, int]:
        oram = self.stack.kv.oram
        return oram.store.total_dead_slots(), oram.stash.occupancy

    def warm_up(self) -> Dict[str, Any]:
        """Serve chunks until dead slots and stash level off."""
        spec = self.spec
        dead: List[int] = []
        stash: List[int] = []
        pos = 0
        levelled = False
        while pos < spec.warm_cap:
            self.serve(self.stream[pos:pos + spec.chunk])
            pos += spec.chunk
            self.speed.sample()
            d, s = self.oram_state()
            dead.append(d)
            stash.append(s)
            if pos >= spec.warm_min and len(dead) >= 2 * LEVEL_WINDOW:
                w = LEVEL_WINDOW
                d_old, d_new = np.mean(dead[-2 * w:-w]), np.mean(dead[-w:])
                s_old, s_new = np.mean(stash[-2 * w:-w]), np.mean(stash[-w:])
                if (d_new <= d_old * (1 + DEAD_TOLERANCE)
                        and s_new <= s_old * (1 + STASH_TOLERANCE) + STASH_SLACK):
                    levelled = True
                    break
        return {"requests": pos, "levelled": levelled, "dead_slots": dead,
                "stash": stash}

    def instances(self) -> Dict[str, List[Any]]:
        st = self.stack
        sinks = [st.dram_sink]
        return {
            "orams": [st.kv.oram], "drams": [st.dram_sink.dram],
            "sinks": sinks, "stores": [st.datastore] if st.datastore is not None else [],
            "faulty": [st.faulty] if st.faulty is not None else [],
            "scheds": [self.sched],
        }

    def busy_ns(self) -> float:
        return float(sum(self.stack.dram_sink.time_by_kind.values()))


def run_kv(spec: KvSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    n_measure = max(200, int(round(spec.window_per_s * seconds)))
    run = KvRun(spec, seed, spec.warm_cap + n_measure)
    warm = run.warm_up()
    problems: List[str] = []
    if not warm["levelled"]:
        problems.append(
            f"dead slots / stash did not level within {spec.warm_cap} requests"
        )
    start = warm["requests"]
    window = run.stream[start:start + n_measure]
    tracer = None
    record: Dict[str, Any] = {"warmup": warm}
    times = HostTimes(run.speed)
    if trace:
        # Untraced first half, traced second half: the difference in
        # ops/s is the tracing overhead on the same stack state. The
        # host-speed kernel runs only outside the traced half.
        half = n_measure // 2
        run.serve(window[:half], RoundSampler(times))
        window = window[half:]
        inst = run.instances()
        c0 = counters(**inst)
        loop0 = dict(run.loop)
        tracer = Tracer()
        busy0 = run.busy_ns()
        before = run.speed.sample()
        with tracer:
            t0 = time.perf_counter_ns()
            comps = run.serve(window)
            traced_ns = time.perf_counter_ns() - t0
        traced = HostTimes(run.speed)
        traced.add(len(window), traced_ns, (before + run.speed.sample()) / 2)
    else:
        busy0 = run.busy_ns()
        comps = run.serve(window, RoundSampler(times))
    busy = run.busy_ns() - busy0
    # ---- correctness gate: dict model over every request, then the ORAM
    problems += check_fifo(run.items, run.requests, run.completions)
    try:
        run.stack.kv.oram.check_invariants()
    except AssertionError as exc:   # the program's invariant check
        problems.append(f"ORAM invariants: {exc}")
    # ---- steady-state guard over the measured window
    grown, record["backlog"] = backlog_problems(
        "window", comps, run.completions[:-len(comps)])
    problems += grown
    if trace:
        loop = {k: run.loop[k] - loop0[k] for k in loop0}
        loop["queue_depth_p99"] = record["backlog"]["in_system_p99"]
        record["trace"] = {
            "traced_s": traced_ns / 1e9,
            "untraced_ops_per_s": times.ops_per_s(),
            "traced_ops_per_s": traced.ops_per_s(),
            "extras": window_extras(c0, counters(**inst), loop),
        }
    served = [c for c in comps if c.status == OK]
    lats = [c.latency_ns / 1e3 for c in served]
    sim = {
        "sim_latency_us_p50": percentile(lats, 50),
        "sim_latency_us_p99": tail_p99(lats),
        "sim_ns_per_op": busy / len(window),
        "availability": len(served) / len(window),
        "space_ratio": space_ratio(run.stack.kv.oram.cfg),
        "attacker_advantage": attacker_ratio([run.stack.attacker]),
    }
    metrics = host_metrics(record, times, times, run.setup_raw, run.setup_norm)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics.update(sim)
    deterministic = {
        "sim": sim,
        "warmup_requests": warm["requests"],
        "window_requests": len(window),
        "completions_sha256": completions_digest(run.completions),
        "counters": counters(**run.instances()),
        "faults": run.stack.faulty.summary() if run.stack.faulty else None,
    }
    return Outcome(
        metrics=metrics, attempted=len(window),
        failed=len(window) - len(served), problems=problems,
        deterministic=deterministic, record=record, tracer=tracer,
    )


# -------------------------------------------------------------------- fleet

FLEET_ROUND = 4000
FLEET_WINDOW_PER_S = 900.0
FLEET_WORKERS = 2
FLEET_SETUP_REPEATS = 5


def fleet_config(seed: int, n_requests: int, workers: int) -> FleetConfig:
    return FleetConfig(
        workload=WorkloadConfig(
            name="fleet-s4", n_requests=n_requests, stored_keys=3000,
            arrival="poisson", rate_rps=2_000_000.0, zipf_s=0.99,
            read_fraction=0.85, seed=seed,
        ),
        scheme="ab", levels=LEVELS, num_shards=4, seed=seed, workers=workers,
    )


def timed_fleet(cfg: FleetConfig, rounds: HostTimes) -> Dict[str, Any]:
    """One timed fleet round.

    Round rates stay raw: the round runs in worker processes on both
    cores, which the parent's one-core kernel does not predict -- over
    ten seeds, scaling by it widened the ops/s spread from 0.16 to 0.27.
    """
    t0 = time.perf_counter_ns()
    doc = run_fleet(cfg)
    rounds.add(cfg.workload.n_requests, time.perf_counter_ns() - t0, REFERENCE_NS)
    return doc


def fleet_problems(doc: Dict[str, Any], n: int) -> List[str]:
    out = []
    if "error" in doc:
        out.append(f"fleet error: {doc['error']}")
    fleet = doc["fleet"]
    if fleet["completions"] != n or fleet["requests"] != n:
        out.append(f"fleet completed {fleet['completions']} of {n} requests")
    if not doc["control"]["all_healthy"]:
        out.append("control plane did not end all-healthy")
    return out


def fleet_probe(cfg: FleetConfig, doc: Dict[str, Any],
                times: HostTimes) -> Dict[str, Any]:
    """Re-serve every shard in-process from its public slice.

    A shard is a pure function of (config, shard id), so each probe
    shard must reproduce run_fleet's shard block exactly; the probe
    also yields what the workers hide: per-request host time, served
    values for the FIFO gate, and the guessing attacker's tally.
    """
    problems: List[str] = []
    lat_us: List[float] = []
    attackers = []
    shard_comps: List[Any] = []
    for shard in range(cfg.num_shards):
        items, reqs = shard_requests(cfg, shard)
        seed = derive_seed(cfg.seed, f"shard:{shard}")
        stack = build_stack(cfg.scheme, cfg.levels, seed=seed, observer=True)
        stack.kv.preload(items)
        sched = BatchScheduler(stack.kv, policy=cfg.policy, seed=seed,
                               clock=lambda s=stack: s.dram_sink.now)
        res = resilient_replay(stack, reqs, sched, ResilienceConfig(),
                               max_batch=cfg.max_batch, sampler=RoundSampler(times))
        comps = res.completions
        want = doc["shards"][shard]["sim"]
        got = {
            "completions": len(comps),
            "accesses_issued": sched.stats()["accesses_issued"],
            "dedup_hits": sched.dedup_hits,
            "coalesced_puts": sched.coalesced_puts,
            "absent_gets": sched.absent_gets,
            "sim_ns": res.sim_ns,
        }
        for key, value in got.items():
            if want.get(key) != value:
                problems.append(
                    f"shard {shard} {key}: fleet {want.get(key)} != probe {value}"
                )
        problems += [f"shard {shard}: {p}" for p in check_fifo(items, reqs, comps)]
        lat_us += [c.latency_ns / 1e3 for c in comps if c.status == OK]
        attackers.append(stack.attacker)
        grown, backlog = backlog_problems(f"shard {shard}", comps)
        problems += grown
        shard_comps.append(backlog)
    return {"problems": problems, "lat_us": lat_us,
            "attackers": attackers, "backlog": shard_comps}


def run_fleet_workload(seed: int, seconds: float, trace: bool) -> Outcome:
    n_rounds = max(2, math.ceil(seconds * FLEET_WINDOW_PER_S / FLEET_ROUND))
    speed = HostSpeed()
    _, setup_raw, setup_norm = timed_setups(
        lambda: run_fleet(fleet_config(seed, 1, FLEET_WORKERS)),
        FLEET_SETUP_REPEATS, speed,
    )
    cfg = fleet_config(seed, FLEET_ROUND, FLEET_WORKERS)
    problems: List[str] = []
    record: Dict[str, Any] = {"rounds": n_rounds}
    tracer = None
    rounds = HostTimes(speed)
    if trace:
        one = HostTimes(speed)
        doc = timed_fleet(cfg, rounds)
        doc1 = timed_fleet(replace(cfg, workers=1), one)
        tracer = Tracer()
        made: Dict[str, List[Any]] = {k: [] for k in
                                      ("orams", "drams", "sinks", "stores", "faulty", "scheds")}
        with tracer, _InstanceLog(made):
            t0 = time.perf_counter_ns()
            doc_t = run_fleet(replace(cfg, workers=1))
            traced_s = (time.perf_counter_ns() - t0) / 1e9
        docs = [doc, doc1, doc_t]
        extras = window_extras({}, counters(**made), {})
        extras["parallel.pool.efficiency"] = (
            rounds.rates_raw[0] / (FLEET_WORKERS * one.rates_raw[0]))
        record["trace"] = {
            "traced_s": traced_s,
            "untraced_ops_per_s": one.rates_raw[0],
            "traced_ops_per_s": FLEET_ROUND / traced_s,
            "extras": extras,
        }
    else:
        docs = [timed_fleet(cfg, rounds) for _ in range(n_rounds)]
    rss = peak_rss_mb(children=FLEET_WORKERS)
    ref = digest(docs[0])
    for i, d in enumerate(docs):
        problems += fleet_problems(d, FLEET_ROUND)
        if digest(d) != ref:
            problems.append(f"fleet round {i} differs from round 0")
    probe_times = HostTimes(speed)
    probe = fleet_probe(cfg, docs[0], probe_times)
    problems += probe["problems"]
    fleet = docs[0]["fleet"]
    record["backlog"] = probe["backlog"]
    sim = {
        "sim_latency_us_p50": percentile(probe["lat_us"], 50),
        "sim_latency_us_p99": tail_p99(probe["lat_us"]),
        "sim_ns_per_op": fleet["ns_per_request"],
        "availability": fleet["availability"],
        "space_ratio": space_ratio(schemes.by_name("ab", LEVELS)),
        "attacker_advantage": attacker_ratio(probe["attackers"]),
    }
    metrics = host_metrics(record, rounds, probe_times, setup_raw, setup_norm)
    metrics["peak_rss_mb"] = rss
    metrics.update(sim)
    deterministic = {
        "sim": sim,
        "fleet_sha256": ref,
        "fleet": fleet,
        "control": docs[0]["control"],
    }
    attempted = FLEET_ROUND * len(docs)
    failed = sum(d["fleet"]["completions"] - d["fleet"]["status"][OK] for d in docs)
    return Outcome(metrics=metrics, attempted=attempted, failed=failed,
                   problems=problems, deterministic=deterministic,
                   record=record, tracer=tracer)


class _InstanceLog:
    """Collect the program objects a traced in-process fleet builds."""

    def __init__(self, made: Dict[str, List[Any]]) -> None:
        self.made = made
        self._saved: List[Tuple[Any, Any]] = []

    def __enter__(self) -> "_InstanceLog":
        from repro.core.pipeline import PipelinedDramSink
        from repro.faults.memory import FaultyMemory
        from repro.mem.dram import DramModel
        from repro.oram.datastore import EncryptedTreeStore
        from repro.oram.ring import RingOram
        from repro.sim.engine import DramSink
        for cls, bucket in ((RingOram, "orams"), (DramModel, "drams"),
                            (DramSink, "sinks"), (PipelinedDramSink, "sinks"),
                            (EncryptedTreeStore, "stores"),
                            (FaultyMemory, "faulty"), (BatchScheduler, "scheds")):
            orig = cls.__dict__["__init__"]

            def init(obj: Any, *a: Any, _orig: Any = orig, _b: str = bucket,
                     _cls: Any = cls, **k: Any) -> None:
                _orig(obj, *a, **k)
                if type(obj) is _cls:
                    self.made[_b].append(obj)

            cls.__init__ = init
            self._saved.append((cls, orig))
        return self

    def __exit__(self, *exc: Any) -> None:
        for cls, orig in reversed(self._saved):
            cls.__init__ = orig
        self._saved.clear()


# ---------------------------------------------------------------------- sim

SIM_WARMUP = 2000
SIM_WINDOW_PER_S = 900.0
SIM_SETUP_REPEATS = 41


def run_sim(seed: int, seconds: float, trace: bool) -> Outcome:
    n_measure = max(200, int(round(SIM_WINDOW_PER_S * seconds)))
    cfg = schemes.by_name("ns", LEVELS)
    trace_in = spec_trace("mcf", cfg.n_real_blocks, SIM_WARMUP + n_measure, seed=seed)
    attacker: List[GuessingAttacker] = []

    def build() -> Simulation:
        attacker[:] = [GuessingAttacker(cfg.levels, seed=seed + 1)]
        return Simulation(cfg, trace_in, SimConfig(
            seed=seed, pipeline_depth=4, dram_window=32,
            warmup_requests=SIM_WARMUP, observers=attacker,
        ))

    speed = HostSpeed()
    sim, setup_raw, setup_norm = timed_setups(build, SIM_SETUP_REPEATS, speed)
    for _ in range(SIM_WARMUP):
        sim.step()
    problems: List[str] = []
    record: Dict[str, Any] = {"warmup": {"requests": SIM_WARMUP}}
    inst = {"orams": [sim.oram], "drams": [sim.dram], "sinks": [sim.dram_sink],
            "stores": [], "faulty": [], "scheds": []}

    def steps(n: int) -> HostTimes:
        """Time ``n`` steps, each one and each of SIM_STRETCHES stretches."""
        step = sim.step
        clock = time.perf_counter_ns
        times = HostTimes(speed)
        every = max(1, n // SIM_STRETCHES)
        cal = speed.sample()
        for lo in range(0, n, every):
            count = min(every, n - lo)
            step_us = []
            start = clock()
            for _ in range(count):
                t0 = clock()
                step()
                step_us.append((clock() - t0) / 1e3)
            elapsed = clock() - start
            after = speed.sample()
            times.add(count, elapsed, (cal + after) / 2, step_us)
            cal = after
        return times

    tracer = None
    attempted = n_measure
    if trace:
        # As on kv: untraced first half, traced second half, and the
        # host-speed kernel only outside the traced half.
        half = n_measure // 2
        attempted = n_measure - half
        times = steps(half)
        c0 = counters(**inst)
        tracer = Tracer()
        before = speed.sample()
        with tracer:
            step = sim.step
            t0 = time.perf_counter_ns()
            for _ in range(attempted):
                step()
            traced_ns = time.perf_counter_ns() - t0
        traced = HostTimes(speed)
        traced.add(attempted, traced_ns, (before + speed.sample()) / 2)
        record["trace"] = {
            "traced_s": traced_ns / 1e9,
            "untraced_ops_per_s": times.ops_per_s(),
            "traced_ops_per_s": traced.ops_per_s(),
            "extras": window_extras(c0, counters(**inst), {}),
        }
    else:
        times = steps(n_measure)
    result = sim.result()
    try:
        sim.oram.check_invariants()
    except AssertionError as exc:
        problems.append(f"ORAM invariants: {exc}")
    segs = np.array_split(np.asarray(sim.dram_sink.readpath_latencies) / 1e3,
                          BACKLOG_SEGMENTS)
    seg_p99 = [float(np.percentile(x, 99)) for x in segs]
    half = BACKLOG_SEGMENTS // 2
    record["backlog"] = {"p99_us_by_segment": seg_p99}
    first, second = statistics.median(seg_p99[:half]), statistics.median(seg_p99[half:])
    if second > GROWTH_FACTOR * first + SIM_LATENCY_SLACK_US:
        problems.append(f"read path slows: sim p99 read-path latency us "
                        f"{first:.2f} -> {second:.2f} between window halves")
    sim_block = {
        "sim_latency_us_p50": result.readpath_p50_ns / 1e3,
        "sim_latency_us_p99": result.readpath_p99_ns / 1e3,
        "sim_ns_per_op": result.exec_ns / result.requests,
        "availability": 1.0,
        "space_ratio": space_ratio(cfg),
        "attacker_advantage": attacker_ratio(attacker),
    }
    metrics = host_metrics(record, times, times, setup_raw, setup_norm)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics.update(sim_block)
    deterministic = {
        "sim": sim_block,
        "result_sha256": digest(result.to_dict()),
        "counters": counters(**inst),
    }
    return Outcome(metrics=metrics, attempted=attempted, failed=0,
                   problems=problems, deterministic=deterministic,
                   record=record, tracer=tracer)


# ------------------------------------------------------------------ registry

WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "kv-zipf-read": lambda seed, s, t: run_kv(KV_ZIPF_READ, seed, s, t),
    "kv-sealed-write": lambda seed, s, t: run_kv(KV_SEALED_WRITE, seed, s, t),
    "kv-sealed-tamper": lambda seed, s, t: run_kv(KV_SEALED_TAMPER, seed, s, t),
    "fleet-s4": run_fleet_workload,
    "sim-ns-mcf-p4": run_sim,
}
