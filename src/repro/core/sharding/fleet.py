"""The serving fleet: N worker shards behind one keyed-PRF router.

This is the serving-layer face of sharding (the simulator face lives
in :mod:`repro.core.sharding.sharded`): each shard is a complete
:class:`~repro.serve.stack.ServedStack` -- its own ORAM, DRAM model,
clock and scheduler -- and a request stream is split across them by
the keyed-PRF partition map over the request *key*. Because one key
maps to exactly one shard, the scheduler's per-key FIFO contract holds
fleet-wide: every operation on a key lands on one scheduler in arrival
order.

:func:`run_fleet` runs each shard as one cell of
:func:`repro.parallel.executor.run_cells`, rebuilt in its worker from
``(FleetConfig, shard id)`` alone. A shard regenerates the full
workload, keeps exactly the requests the partition map routes to it
(:func:`shard_requests`), and serves them through
:func:`~repro.serve.cell.serve_cell` on its own simulated clock -- so
an N-shard fleet *is* N independently-run serial reference shards by
construction, and the merged per-shard blocks are byte-identical to
running each shard alone (the fleet-vs-serial CI gate).

Fleet timing: shards drain concurrently, so the fleet's service time
for a window of requests is the *makespan* -- the slowest shard's
simulated serving window -- and fleet throughput is total completions
over that makespan. That is the quantity the capacity benchmark's
>=3x-at-4-shards gate measures.

The fleet also carries the minimal control plane
(:mod:`repro.core.sharding.control`): every shard cell reports its
serving window and degraded episodes on its simulated clock, and the
parent folds them into heartbeat trains and degraded markers and
drives the health state machines over the merged timeline. The
``kill-a-shard-under-load`` drill arms a fault plan under exactly one
shard (a sealed chaos stack), which drives that shard through
quarantine -> degraded serving -> rebuild while the rest of the fleet
serves untouched -- PR 2's recovery ladder and PR 7's degraded mode,
exercised at fleet scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.sharding.control import control_metrics, fold_control
from repro.core.sharding.partition import PartitionMap
from repro.faults.plan import FaultPlan
from repro.oram.recovery import RobustnessConfig
from repro.parallel.executor import Cell, report_progress, run_cells
from repro.serve.cell import (
    degraded_block, detection_block, episode_block, percentiles,
    request_block, serve_cell,
)
from repro.serve.loadgen import WorkloadConfig, generate_requests, initial_items
from repro.serve.request import OK, STATUSES, Request
from repro.serve.resilience import ResilienceConfig
from repro.telemetry.metrics import merge_snapshots


# ---------------------------------------------------------- the fleet sweep

#: ORAM-level recovery policy a drilled shard's sealed stack runs
#: under (matches the chaos campaign's default: transient blips retry
#: inline, persistent tamper escalates to quarantine-and-rebuild).
DRILL_ROBUSTNESS = RobustnessConfig(integrity=True, retry_budget=6)


@dataclass(frozen=True)
class KillShardDrill:
    """Kill-a-shard-under-load: one shard serves through a fault plan.

    The drilled shard is built as a sealed chaos stack
    (ChaCha20 + MAC + Merkle with a
    :class:`~repro.faults.memory.FaultyMemory` underneath) and served
    through :func:`~repro.serve.resilience.resilient_replay`; every
    other shard serves normally. The fleet gate then asks: did the
    drilled shard's quarantine-and-rebuild complete (control plane back
    to all-healthy) and did clients keep being answered (availability
    above the floor) while it happened?
    """

    shard: int = 0
    faults: Optional[FaultPlan] = None
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    min_availability: float = 0.0
    robustness: RobustnessConfig = field(
        default_factory=lambda: DRILL_ROBUSTNESS
    )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "faults": None if self.faults is None else self.faults.to_dict(),
            "resilience": self.resilience.to_dict(),
            "min_availability": self.min_availability,
            "robustness": self.robustness.to_dict(),
        }


@dataclass
class FleetConfig:
    """One fleet serving run: workload, shard count, optional drill."""

    workload: WorkloadConfig
    scheme: str = "ab"
    #: Per-shard tree depth (every subtree runs at the same depth so
    #: per-access costs are comparable across shard counts).
    levels: int = 9
    num_shards: int = 4
    seed: int = 0
    max_batch: int = 32
    policy: str = "batch"
    drill: Optional[KillShardDrill] = None
    #: Heartbeat cadence on the shards' simulated clocks.
    heartbeat_ns: float = 100_000.0
    miss_after: int = 3
    workers: int = 1
    progress: Any = None   # callable(str) for live shard updates

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload.to_dict(),
            "scheme": self.scheme,
            "levels": self.levels,
            "num_shards": self.num_shards,
            "seed": self.seed,
            "max_batch": self.max_batch,
            "policy": self.policy,
            "drill": None if self.drill is None else self.drill.to_dict(),
            "heartbeat_ns": self.heartbeat_ns,
            "miss_after": self.miss_after,
        }


def shard_requests(
    cfg: FleetConfig, shard: int
) -> Tuple[List[Tuple[bytes, bytes]], List[Request]]:
    """The slice of the fleet workload one shard owns.

    Regenerates the full workload (a pure function of its config) and
    keeps the items/requests the partition map routes to ``shard``,
    preserving arrival order and request ids -- this is the "serial
    reference shard" the fleet-vs-serial identity gate quantifies over.
    """
    pmap = PartitionMap(cfg.num_shards, seed=cfg.seed)
    items = [
        (key, value) for key, value in initial_items(cfg.workload)
        if pmap.shard_of_bytes(key) == shard
    ]
    reqs = [
        r for r in generate_requests(cfg.workload)
        if pmap.shard_of_bytes(r.key) == shard
    ]
    return items, reqs


def _serve_shard(payload: Tuple[FleetConfig, int]) -> Dict[str, Any]:
    """Serve one shard's slice end-to-end; the unit of fleet fan-out.

    Pure in ``(cfg, shard)``: workload, partition map, stack seed and
    scheduler seed are all derived from the payload, so the result is
    identical whether the shard runs in-process, in a spawn worker, or
    alone as a serial reference. Returns the shard's deterministic
    report block plus its serving window for the control plane and the
    latency samples the parent folds into fleet percentiles. No
    wall-clock fields: everything here lands in the deterministic view.
    """
    cfg, shard = payload
    drill = cfg.drill
    if drill is not None and drill.shard != shard:
        drill = None
    report_progress(
        f"shard {shard}/{cfg.num_shards}{' [drill]' if drill else ''} ..."
    )
    stack: Dict[str, Any] = {
        "scheme": cfg.scheme, "levels": cfg.levels, "seed": cfg.seed,
    }
    if drill is not None:
        stack.update(robustness=drill.robustness, fault_plan=drill.faults)
    served = serve_cell(
        stack, shard_requests(cfg, shard),
        ResilienceConfig() if drill is None else drill.resilience,
        shard, policy=cfg.policy, max_batch=cfg.max_batch,
    )
    result = served.result
    latencies = [c.latency_ns for c in result.completions if c.status == OK]
    sim: Dict[str, Any] = {
        **request_block(served),
        "sim_ns": result.sim_ns,
        "latency_ns": percentiles(latencies),
    }
    if drill is not None:
        sim.update(degraded_block(result))
        sim["episodes"] = episode_block(result.episodes)
        if served.stack.faulty is not None:
            summary = served.stack.faulty.summary()
            sim["faults"] = summary
            sim["detection"] = detection_block(summary)
    return {
        "cell": {
            "shard": shard,
            "drill": drill is not None,
            "stored_keys": served.stored_keys,
            "sim": sim,
        },
        "window": (shard, result.start_ns, result.end_ns, result.episodes),
        "latencies": latencies,
    }


def run_fleet(cfg: FleetConfig) -> Dict[str, Any]:
    """Serve one workload across the fleet; returns the fleet block.

    Fans the shards over :func:`run_cells` (``cfg.workers > 1`` uses
    the spawn pool; the merged result is byte-identical at any worker
    count), drives the control plane over the merged event timeline,
    and folds per-shard telemetry snapshots in shard order. A shard
    whose worker raises becomes an ``{"shard", "error"}`` entry and
    fails the control plane's ``all_healthy``.
    """
    if cfg.num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {cfg.num_shards}")
    if cfg.drill is not None and not (
        0 <= cfg.drill.shard < cfg.num_shards
    ):
        raise ValueError(
            f"drill shard {cfg.drill.shard} outside fleet of "
            f"{cfg.num_shards}"
        )
    worker_cfg = replace(cfg, progress=None, workers=1)
    outputs = run_cells(
        _serve_shard,
        [Cell(f"shard:{i}", (worker_cfg, i)) for i in range(cfg.num_shards)],
        workers=cfg.workers,
        progress=cfg.progress,
    )
    shards: List[Dict[str, Any]] = []
    windows: List[Tuple[int, float, float, Any]] = []
    latencies: List[float] = []
    snapshots: List[dict] = []
    failed = False
    for i, res in enumerate(outputs):
        if not res.ok:
            shards.append({"shard": i, "error": res.error})
            failed = True
            continue
        shards.append(res.value["cell"])
        windows.append(res.value["window"])
        latencies.extend(res.value["latencies"])
        if res.metrics:
            snapshots.append(res.metrics)
    control = fold_control(windows, cfg.heartbeat_ns, cfg.miss_after)
    ok_cells = [s for s in shards if "error" not in s]
    completions = sum(s["sim"]["completions"] for s in ok_cells)
    requests = sum(s["sim"]["requests"] for s in ok_cells)
    served = sum(s["sim"]["status"][OK] for s in ok_cells)
    makespan = max((s["sim"]["sim_ns"] for s in ok_cells), default=0.0)
    status: Dict[str, int] = {s: 0 for s in STATUSES}
    for cell in ok_cells:
        for key, count in cell["sim"]["status"].items():
            status[key] += count
    fleet: Dict[str, Any] = {
        "requests": requests,
        "completions": completions,
        "status": status,
        "availability": served / completions if completions else 1.0,
        "makespan_ns": makespan,
        "ns_per_request": makespan / completions if completions else 0.0,
        "requests_per_s_sim": (
            completions / (makespan / 1e9) if makespan > 0 else 0.0
        ),
        "latency_ns": percentiles(latencies),
    }
    doc: Dict[str, Any] = {
        "num_shards": cfg.num_shards,
        "shards": shards,
        "fleet": fleet,
        "control": control.summary(),
    }
    if failed:
        doc["error"] = "one or more shards failed"
    # The control plane's health story rides along as metrics: shard
    # telemetry snapshots (when any) merged with the transition
    # counters and state gauges derived from the summary above.
    from repro.telemetry.metrics import MetricsRegistry
    registry = control_metrics(doc["control"], MetricsRegistry())
    doc["metrics"] = merge_snapshots(snapshots + [registry.snapshot()])
    return doc


__all__ = [
    "DRILL_ROBUSTNESS",
    "FleetConfig",
    "KillShardDrill",
    "run_fleet",
    "shard_requests",
]
