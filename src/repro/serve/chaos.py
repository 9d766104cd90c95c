"""The chaos campaign: fault injection under live serving load.

Every cell of ``BENCH_chaos.json`` serves one workload end-to-end on a
*sealed* stack (ChaCha20 + MAC + Merkle) with a
:class:`~repro.faults.memory.FaultyMemory` armed underneath it, through
the resilient serving loop of :mod:`repro.serve.resilience`. Where the
fault campaign of :mod:`repro.faults.campaign` asks "does the memory
detect and recover?", the chaos campaign asks the serving question:
**what did clients experience while it did?** -- availability, tail
latency under fault, shed/timeout counts, time-to-recover.

The cells escalate:

- ``baseline``  -- no faults; the resilient loop must serve exactly
  like the plain one (availability 1.0, nothing shed).
- ``transient`` -- short outages the ORAM-level retry ladder absorbs
  inline; clients see latency, never errors (availability >= 99%).
- ``tamper``    -- bit flips + replays; detection quarantines buckets,
  serving drops to degraded mode (stash-resident reads + write
  journal) and recovers. Detection must be 100%.
- ``outage``    -- long outages past the retry budget plus dropped
  writes, against a small admission queue: the overload story, load
  shedding by policy instead of unbounded queues.

Like ``BENCH_serve.json``, the ``sim`` block of every cell is a pure
function of the config: seeded workload, seeded ORAM, seed-pinned
stateless fault plan, event-based DRAM clock. CI asserts the
deterministic view is byte-identical across runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.oram.recovery import RobustnessConfig
from repro.parallel.executor import Cell, derive_seed, report_progress, run_cells
from repro.reports import CHAOS
from repro.serve.bench import _environment
from repro.serve.cell import (
    TAMPER_KINDS, degraded_block, detection_block, episode_block,
    percentiles, request_block, serve_cell,
)
from repro.serve.loadgen import (
    WorkloadConfig, generate_requests, initial_items,
)
from repro.serve.request import OK, STATUSES
from repro.serve.resilience import ResilienceConfig
from repro.serve.stack import attacker_block
from repro.serve.tracing import request_trace_doc, write_trace

@dataclass(frozen=True)
class ChaosCell:
    """One campaign cell: a workload, a fault plan, a survival policy.

    The ``min_availability`` / ``expect_*`` fields are the cell's CI
    gate, carried inside the report config so :func:`chaos_check` needs
    nothing but the document.
    """

    name: str
    workload: WorkloadConfig
    faults: Optional[FaultPlan]
    resilience: ResilienceConfig
    min_availability: float = 0.0
    expect_faults: bool = False
    expect_episodes: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "workload": self.workload.to_dict(),
            "faults": None if self.faults is None else self.faults.to_dict(),
            "resilience": self.resilience.to_dict(),
            "min_availability": self.min_availability,
            "expect_faults": self.expect_faults,
            "expect_episodes": self.expect_episodes,
        }


@dataclass
class ChaosConfig:
    """One chaos-harness invocation (the report's ``config`` block)."""

    scheme: str = "ab"
    levels: int = 8
    seed: int = 0
    max_batch: int = 16
    #: ORAM-level recovery policy every cell's stack runs under. The
    #: retry budget comfortably exceeds the transient cell's longest
    #: outage so short blips recover inline, never via quarantine.
    robustness: RobustnessConfig = field(
        default_factory=lambda: RobustnessConfig(
            integrity=True, retry_budget=6,
        )
    )
    cells: Sequence[ChaosCell] = ()
    smoke: bool = False
    workers: int = 1
    progress: Any = None   # callable(str) for live cell updates
    trace_out: Optional[str] = None
    trace_cell: Optional[str] = None
    #: ``num_shards > 1`` runs every cell as a partitioned fleet: the
    #: workload is split by the keyed-PRF partition map, each shard
    #: serves its slice on an independent seeded stack (with a
    #: per-shard derived fault plan), and the parent folds the shard
    #: results, drives the control plane, evaluates SLOs and merges
    #: the distributed trace. ``num_shards == 1`` is the exact PR-7
    #: single-stack path.
    num_shards: int = 1
    heartbeat_ns: float = 100_000.0
    #: Simulated window the SLO engine and ops sampler fold on.
    slo_window_ns: float = 50_000.0
    #: JSONL output paths (sharded campaigns only): the SLO event
    #: stream and the per-shard ops stream ``serve top`` replays.
    slo_out: Optional[str] = None
    ops_out: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "levels": self.levels,
            "seed": self.seed,
            "max_batch": self.max_batch,
            "robustness": self.robustness.to_dict(),
            "cells": [c.to_dict() for c in self.cells],
            "smoke": self.smoke,
            "num_shards": self.num_shards,
            "heartbeat_ns": self.heartbeat_ns,
            "slo_window_ns": self.slo_window_ns,
        }


# ------------------------------------------------------------------- cells

def _mix(name: str, n_requests: int, stored_keys: int, **kw: Any) -> WorkloadConfig:
    base: Dict[str, Any] = dict(
        name=name,
        n_requests=n_requests,
        n_keys=4_000,
        stored_keys=stored_keys,
        arrival="poisson",
        rate_rps=1_000_000.0,
        zipf_s=0.9,
        read_fraction=0.8,
        delete_fraction=0.02,
        value_bytes=40,
        expect_dedup=False,
    )
    base.update(kw)
    return WorkloadConfig(**base)


def _smoke_cells() -> Tuple[ChaosCell, ...]:
    wl = _mix("chaos-mix", 240, 64)
    return (
        ChaosCell(
            name="baseline",
            workload=wl,
            faults=None,
            resilience=ResilienceConfig(),
            min_availability=1.0,
        ),
        ChaosCell(
            name="transient",
            workload=wl,
            faults=FaultPlan(
                seed=101, rates={"unavailable": 0.02}, max_outage_ops=2,
            ),
            resilience=ResilienceConfig(
                deadline_ns=5_000_000.0, queue_limit=64,
            ),
            min_availability=0.99,
            expect_faults=True,
        ),
        ChaosCell(
            name="tamper",
            workload=wl,
            faults=FaultPlan(
                seed=202, rates={"bit_flip": 0.006, "replay": 0.005},
            ),
            resilience=ResilienceConfig(
                deadline_ns=4_000_000.0, queue_limit=128,
                retry_budget=8, backoff_base_ns=5_000.0,
                backoff_factor=1.6,
                journal_limit=96, repair_ns=30_000.0,
            ),
            min_availability=0.90,
            expect_faults=True,
            expect_episodes=True,
        ),
        ChaosCell(
            name="outage",
            workload=_mix(
                "chaos-burst", 240, 64,
                arrival="bursty", rate_rps=900_000.0, burst_factor=5.0,
            ),
            faults=FaultPlan(
                seed=303,
                rates={"unavailable": 0.015, "dropped_write": 0.01},
                max_outage_ops=10,
            ),
            resilience=ResilienceConfig(
                deadline_ns=600_000.0, queue_limit=12,
                shed_policy="drop-oldest",
                retry_budget=4, backoff_base_ns=8_000.0,
                journal_limit=32, repair_ns=25_000.0,
            ),
            min_availability=0.60,
            expect_faults=True,
        ),
    )


def _full_cells() -> Tuple[ChaosCell, ...]:
    scaled = []
    for cell in _smoke_cells():
        wl = replace(cell.workload, n_requests=1200, stored_keys=160)
        scaled.append(replace(cell, workload=wl))
    return tuple(scaled)


def smoke_config(**overrides: Any) -> ChaosConfig:
    """Seconds-scale campaign for CI."""
    base = ChaosConfig(cells=_smoke_cells(), smoke=True)
    return replace(base, **overrides)


def full_config(**overrides: Any) -> ChaosConfig:
    """The nightly soak: same cells, 5x the load, a deeper tree."""
    base = ChaosConfig(levels=10, cells=_full_cells(), smoke=False)
    return replace(base, **overrides)


# ------------------------------------------------------------------ runner

def _cell_fleet(cfg: ChaosConfig, cell: ChaosCell) -> Any:
    """The fleet a sharded cell runs as: its workload over every shard."""
    from repro.core.sharding.fleet import FleetConfig
    return FleetConfig(
        workload=cell.workload, scheme=cfg.scheme, levels=cfg.levels,
        num_shards=cfg.num_shards, seed=cfg.seed, max_batch=cfg.max_batch,
        heartbeat_ns=cfg.heartbeat_ns,
    )


def _serve_chaos(
    payload: Tuple[ChaosConfig, ChaosCell, Optional[int]],
) -> Dict[str, Any]:
    """One campaign cell, or one shard of it, in-process or in a worker.

    A shard serves exactly the keys the fleet-wide keyed-PRF partition
    map assigns it (:func:`~repro.core.sharding.fleet.shard_requests`),
    on an independently seeded stack with an independently seeded fault
    plan -- so the split never depends on which process runs it.
    """
    cfg, cell, shard = payload
    meta: Dict[str, Any] = {"cell": cell.name}
    faults = cell.faults
    if shard is None:
        report_progress(f"chaos {cell.name} ...")
        workload = (
            initial_items(cell.workload), generate_requests(cell.workload),
        )
    else:
        from repro.core.sharding.fleet import shard_requests
        report_progress(f"chaos {cell.name}/s{shard} ...")
        meta["shard"] = shard
        if faults is not None:
            faults = replace(
                faults, seed=derive_seed(faults.seed, f"shard:{shard}"),
            )
        workload = shard_requests(_cell_fleet(cfg, cell), shard)
    meta.update(scheme=cfg.scheme, levels=cfg.levels, seed=cfg.seed)
    want_trace = cfg.trace_out is not None and cfg.trace_cell == cell.name
    sample = cfg.ops_out is not None and shard is not None
    served = serve_cell(
        {
            "scheme": cfg.scheme, "levels": cfg.levels, "seed": cfg.seed,
            "robustness": cfg.robustness, "fault_plan": faults,
        },
        workload, cell.resilience, shard, max_batch=cfg.max_batch,
        trace_meta=meta if want_trace else None,
        ops=(cell.name, cfg.slo_window_ns) if sample else None,
    )
    result = served.result
    comps = result.completions
    latencies = [c.latency_ns for c in comps if c.status == OK]
    stack = served.stack
    sim: Dict[str, Any] = {
        **request_block(served),
        **degraded_block(result),
        "scheduler_timeouts": served.scheduler.stats()["timeouts"],
        "robust": {
            "counters": stack.kv.oram.robust.to_dict(),
            "backoff_stalled_ns": stack.dram_sink.dram.stats.stalled_ns,
        },
    }
    if stack.faulty is not None:
        sim["faults"] = stack.faulty.summary()
    if shard is not None:
        sim.update(
            shard=shard, episodes=len(result.episodes),
            start_ns=result.start_ns, end_ns=result.end_ns,
        )
        return {
            "partial": sim,
            "episode_list": list(result.episodes),
            "latencies": latencies,
            "completions": comps,
            "spans": list(served.telemetry.spans) if want_trace else None,
            "events": list(result.events) if want_trace else None,
            "ops_records": (
                list(served.sampler.records) if sample else []
            ),
            "wall_s": result.wall_s,
        }
    sim_s = result.sim_ns / 1e9
    sim.update({
        "episodes": episode_block(result.episodes),
        "sim_ns": result.sim_ns,
        "requests_per_s_sim": len(comps) / sim_s if sim_s > 0 else 0.0,
        "latency_ns": percentiles(latencies),
    })
    if "faults" in sim:
        sim["detection"] = detection_block(sim["faults"])
    security = attacker_block(stack.attacker)
    if security is not None:
        sim["security"] = security
    if want_trace:
        doc = request_trace_doc(
            comps, served.telemetry.spans, meta=served.telemetry.meta,
            resilience_events=result.events,
        )
        write_trace(doc, cfg.trace_out)
    return {
        "name": cell.name,
        "wall_s": result.wall_s,
        "requests_per_s_wall": (
            len(comps) / result.wall_s if result.wall_s > 0 else 0.0
        ),
        "sim": sim,
    }


# ----------------------------------------------------------- sharded fold

def _cell_slo_rules(cell: ChaosCell) -> Tuple[Any, ...]:
    """Derive a cell's SLO rule set from its CI gate fields."""
    from repro.telemetry import default_slo_rules
    deadline = cell.resilience.deadline_ns
    return default_slo_rules(
        min_availability=cell.min_availability,
        p99_ns=deadline if deadline > 0 else 2_000_000.0,
        detection=cell.expect_faults,
    )


def _sum_tree(blocks: Sequence[Any]) -> Any:
    """Element-wise sum of parallel dict-of-numbers trees."""
    if isinstance(blocks[0], dict):
        return {k: _sum_tree([b[k] for b in blocks]) for k in blocks[0]}
    return sum(blocks)


def _merge_shard_cell(
    cfg: ChaosConfig,
    cell: ChaosCell,
    outputs: Sequence[Dict[str, Any]],
) -> Tuple[Dict[str, Any], Any]:
    """Fold one cell's shard outputs into a report cell + SLO engine.

    Counts sum; latency percentiles re-derive from the concatenated
    per-shard served latencies (shard order, so the fold is a pure
    function of the outputs); the control plane replays every shard's
    serving window on one merged timeline; the SLO engine folds the
    fleet's completion stream in ``(done_ns, rid)`` order. Everything
    the ``sim`` block carries is derived from worker-returned simulated
    state only -- byte-identical at any worker count.
    """
    from repro.core.sharding.control import fold_control
    from repro.telemetry import SloEngine, fold_completions

    outputs = sorted(outputs, key=lambda o: o["partial"]["shard"])
    partials = [o["partial"] for o in outputs]
    episodes = [e for o in outputs for e in o["episode_list"]]
    latencies = [lat for o in outputs for lat in o["latencies"]]
    n_comps = sum(p["completions"] for p in partials)
    status = {
        s: sum(p["status"][s] for p in partials) for s in STATUSES
    }
    start_ns = min(p["start_ns"] for p in partials)
    end_ns = max(p["end_ns"] for p in partials)
    sim_ns = end_ns - start_ns
    sim_s = sim_ns / 1e9
    summed = (
        "requests", "completions", "accesses_issued", "dedup_hits",
        "coalesced_puts", "absent_gets", "scheduler_timeouts",
        "degraded_reads", "retries",
    )
    sim: Dict[str, Any] = {
        k: sum(p[k] for p in partials) for k in summed
    }
    sim.update({
        "status": status,
        "availability": status[OK] / n_comps if n_comps else 1.0,
        "journal": _sum_tree([p["journal"] for p in partials]),
        "episodes": episode_block(episodes),
        "sim_ns": sim_ns,
        "requests_per_s_sim": n_comps / sim_s if sim_s > 0 else 0.0,
        "latency_ns": percentiles(latencies),
        "robust": _sum_tree([p["robust"] for p in partials]),
        "shards": partials,
    })
    if any("faults" in p for p in partials):
        faults = _sum_tree([p["faults"] for p in partials if "faults" in p])
        sim["faults"] = faults
        sim["detection"] = detection_block(faults)
    fleet = _cell_fleet(cfg, cell)
    sim["control"] = fold_control(
        [(p["shard"], p["start_ns"], p["end_ns"], o["episode_list"])
         for p, o in zip(partials, outputs)],
        fleet.heartbeat_ns, fleet.miss_after,
    ).summary()
    engine = SloEngine(_cell_slo_rules(cell), cfg.slo_window_ns)
    fold_completions(
        engine, [c for o in outputs for c in o["completions"]],
    )
    sim["slo"] = engine.finish(end_ns, detection=sim.get("detection"))
    wall_s = sum(o["wall_s"] for o in outputs)
    return {
        "name": cell.name,
        "wall_s": wall_s,
        "requests_per_s_wall": n_comps / wall_s if wall_s > 0 else 0.0,
        "sim": sim,
    }, engine


def _write_jsonl(path: str, records: Sequence[Dict[str, Any]]) -> None:
    import json
    with open(path, "w") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def _fold_sharded(
    cfg: ChaosConfig, outputs: Sequence[Any],
) -> List[Dict[str, Any]]:
    """Merge every cell's shard outputs; write the trace and streams."""
    from repro.telemetry import ShardFragment, fleet_trace_doc
    from repro.telemetry.fleet import SLO_TID

    cells: List[Dict[str, Any]] = []
    slo_stream: List[Dict[str, Any]] = [{
        "type": "meta", "kind": "repro-slo-stream",
        "schema_version": CHAOS.schema_version, "seed": cfg.seed,
        "num_shards": cfg.num_shards, "window_ns": cfg.slo_window_ns,
    }]
    ops_stream: List[Dict[str, Any]] = [{
        "type": "meta", "kind": "repro-ops-stream",
        "schema_version": CHAOS.schema_version, "seed": cfg.seed,
        "num_shards": cfg.num_shards, "window_ns": cfg.slo_window_ns,
    }]
    slo_summaries: Dict[str, Any] = {}
    for i, cell in enumerate(cfg.cells):
        chunk = outputs[i * cfg.num_shards:(i + 1) * cfg.num_shards]
        errors = [res.error for res in chunk if not res.ok]
        if errors:
            cells.append({"name": cell.name, "error": errors[0]})
            continue
        shard_outputs = [res.value for res in chunk]
        merged, engine = _merge_shard_cell(cfg, cell, shard_outputs)
        cells.append(merged)
        alerts = [
            {**r, "cell": cell.name} for r in engine.records
            if r["type"] == "slo_alert"
        ]
        slo_stream.extend(
            {**r, "cell": cell.name} for r in engine.records
        )
        slo_summaries[cell.name] = merged["sim"]["slo"]
        snapshots = [
            snap for o in shard_outputs for snap in o["ops_records"]
        ]
        snapshots.sort(key=lambda s: (s["window"], s["shard"]))
        ops_stream.extend(snapshots)
        ops_stream.extend(alerts)
        if cfg.trace_out is not None and cfg.trace_cell == cell.name:
            fragments = [
                ShardFragment(
                    shard=o["partial"]["shard"],
                    completions=o["completions"],
                    spans=o["spans"] or [],
                    events=o["events"] or [],
                    start_ns=o["partial"]["start_ns"],
                    end_ns=o["partial"]["end_ns"],
                )
                for o in shard_outputs
            ]
            doc = fleet_trace_doc(
                fragments, seed=cfg.seed,
                meta={
                    "cell": cell.name, "scheme": cfg.scheme,
                    "levels": cfg.levels, "seed": cfg.seed,
                    "num_shards": cfg.num_shards,
                },
                control=merged["sim"]["control"],
                slo_instants=engine.trace_instants(SLO_TID),
            )
            write_trace(doc, cfg.trace_out)
    slo_stream.append({"type": "summary", "cells": slo_summaries})
    ops_stream.append({"type": "summary", "cells": slo_summaries})
    if cfg.slo_out is not None:
        _write_jsonl(cfg.slo_out, slo_stream)
    if cfg.ops_out is not None:
        _write_jsonl(cfg.ops_out, ops_stream)
    return cells


def run_chaos(cfg: Optional[ChaosConfig] = None) -> Dict[str, Any]:
    """Run the chaos campaign and return the report document.

    ``cfg.workers > 1`` fans the independent cells over a spawn pool;
    the ``sim`` blocks are byte-identical to a serial run. A cell whose
    worker raises becomes an ``{"name", "error"}`` entry.

    ``cfg.num_shards > 1`` partitions every cell over a fleet of
    independently seeded shard stacks (one spawn cell per shard), folds
    the shard results through the control plane and the streaming SLO
    engine, and -- for the traced cell -- merges every shard's spans
    into one distributed Perfetto trace.
    """
    cfg = cfg or smoke_config()
    if not cfg.cells:
        raise ValueError("config has no cells")
    if cfg.trace_out is not None and cfg.trace_cell is None:
        # Default to the cell expected to enter degraded mode -- the
        # timeline with something to show.
        interesting = next(
            (c for c in cfg.cells if c.expect_episodes), cfg.cells[0]
        )
        cfg = replace(cfg, trace_cell=interesting.name)
    worker_cfg = replace(cfg, progress=None, workers=1)
    sharded = cfg.num_shards > 1
    shards = range(cfg.num_shards) if sharded else (None,)
    outputs = run_cells(
        _serve_chaos,
        [
            Cell(c.name if k is None else f"{c.name}/s{k}",
                 (worker_cfg, c, k))
            for c in cfg.cells for k in shards
        ],
        workers=cfg.workers,
        progress=cfg.progress,
    )
    if sharded:
        cells = _fold_sharded(cfg, outputs)
    else:
        cells = [
            res.value if res.ok else {"name": cell.name, "error": res.error}
            for cell, res in zip(cfg.cells, outputs)
        ]
    return {
        "kind": CHAOS.kind,
        "schema_version": CHAOS.schema_version,
        "config": cfg.to_dict(),
        "environment": _environment(),
        "cells": cells,
    }


# -------------------------------------------------------------------- gate

def chaos_check(doc: Dict[str, Any]) -> List[str]:
    """CI gate over one chaos report; returns findings (empty = pass).

    Per cell, from the gate fields its config carries: every injected
    tamper fault (bit flip / replay) must have been detected *while
    serving live load*; availability must not fall below the cell's
    floor; cells expected to inject faults (or enter degraded mode)
    must actually have done so -- a campaign that injected nothing
    proves nothing.
    """
    problems: List[str] = []
    gates = {c["name"]: c for c in doc.get("config", {}).get("cells", [])}
    for cell in doc.get("cells", []):
        name = cell.get("name", "?")
        if "error" in cell:
            problems.append(f"{name}: cell errored, chaos gate unverified")
            continue
        gate = gates.get(name, {})
        sim = cell.get("sim", {})
        avail = sim.get("availability", 0.0)
        floor = gate.get("min_availability", 0.0)
        if avail < floor:
            problems.append(
                f"{name}: availability {avail:.4f} below floor {floor:.4f}"
            )
        det = sim.get("detection")
        if det is not None and det["tamper_detected"] < det["tamper_injected"]:
            problems.append(
                f"{name}: tamper detection gap "
                f"({det['tamper_detected']}/{det['tamper_injected']} detected)"
            )
        if gate.get("expect_faults"):
            injected = sum(
                sim.get("faults", {}).get("injected", {}).get(k, 0)
                for k in FAULT_KINDS
            )
            if injected == 0:
                problems.append(
                    f"{name}: expected fault injection, none fired"
                )
        if gate.get("expect_episodes"):
            if sim.get("episodes", {}).get("count", 0) < 1:
                problems.append(
                    f"{name}: expected degraded-mode episodes, none occurred"
                )
    return problems


__all__ = [
    "ChaosCell",
    "ChaosConfig",
    "TAMPER_KINDS",
    "chaos_check",
    "full_config",
    "run_chaos",
    "smoke_config",
]
