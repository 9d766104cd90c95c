"""One served cell: the serving core every harness runs.

``serve bench``, the chaos campaign (single-stack and sharded), the
fleet's shards and therefore the capacity curve all serve through
:func:`serve_cell`: build a stack from a spec, populate it, put a
:class:`~repro.serve.scheduler.BatchScheduler` in front of it and run
the workload slice through
:func:`~repro.serve.resilience.resilient_replay`, the one open-loop
serving loop. Under a default :class:`ResilienceConfig` (no deadline,
no queue bound) a fault-free stack never sheds, times out or degrades,
so the loop serves exactly what a plain replay would.

Population follows the stack's data path. Plaintext stacks bulk-load
the initial items without oblivious accesses. Sealed stacks cannot:
they populate through real puts while the fault wrapper is disarmed,
then arm it and shift arrivals past the clock the population left
behind, so faults fire only on the live-serving portion.

The report pieces the harnesses share -- request accounting,
percentiles, degraded-mode episodes, tamper detection -- are derived
here once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.executor import derive_seed
from repro.serve.request import OK, STATUSES, Completion, Request
from repro.serve.resilience import (
    ChaosReplayResult, ResilienceConfig, resilient_replay,
)
from repro.serve.scheduler import BatchScheduler
from repro.serve.stack import ServedStack, build_stack

#: Fault kinds whose detection is synchronous at the injection site --
#: the 100%-detection gates quantify over these. ``dropped_write``
#: detection is lazy (a later read of the bucket) and ``unavailable``
#: is overt (the error *is* the fault), so neither belongs in a gate.
TAMPER_KINDS = ("bit_flip", "replay")

#: Scheduler counters every report carries verbatim.
SCHEDULER_COUNTS = (
    "accesses_issued", "dedup_hits", "coalesced_puts", "absent_gets",
)


@dataclass
class ServedCell:
    """One served workload slice and the live objects that served it."""

    stack: ServedStack
    scheduler: BatchScheduler
    result: ChaosReplayResult
    #: The requests as served (sealed stacks shift their arrivals).
    requests: List[Request]
    stored_keys: int
    telemetry: Optional[Any] = None
    sampler: Optional[Any] = None

    @property
    def completions(self) -> List[Completion]:
        return self.result.completions


def serve_cell(
    stack: Dict[str, Any],
    workload: Tuple[Sequence[Tuple[bytes, bytes]], Sequence[Request]],
    resilience: ResilienceConfig = ResilienceConfig(),
    shard: Optional[int] = None,
    *,
    policy: str = "batch",
    max_batch: int = 32,
    trace_meta: Optional[Dict[str, Any]] = None,
    ops: Optional[Tuple[str, float]] = None,
) -> ServedCell:
    """Build, populate and serve one cell.

    ``stack`` holds :func:`~repro.serve.stack.build_stack` keyword
    arguments; a ``robustness`` policy or ``fault_plan`` makes it a
    sealed stack. ``workload`` is the ``(items, requests)`` slice to
    serve: a whole generated workload, or one shard's
    :func:`~repro.core.sharding.fleet.shard_requests`. ``shard`` names
    that shard: the stack and scheduler then run on
    ``derive_seed(seed, "shard:<shard>")`` and ops snapshots carry its
    id. ``trace_meta`` attaches per-operation telemetry with that
    metadata; ``ops=(cell, window_ns)`` attaches an
    :class:`~repro.telemetry.console.OpsSampler`.

    Pure in its arguments: the same call serves the same completions
    in-process, in a spawn worker, or as a serial reference.
    """
    spec = dict(stack)
    if shard is not None:
        spec["seed"] = derive_seed(spec["seed"], f"shard:{shard}")
    telemetry = None
    if trace_meta is not None:
        from repro.telemetry import Telemetry
        telemetry = Telemetry(meta=trace_meta)
    built = build_stack(telemetry=telemetry, **spec)
    items, requests = workload
    if built.datastore is None:
        built.kv.preload(items)
    else:
        for key, value in items:
            built.kv.put(key, value)
        built.arm_faults()
        t0 = built.dram_sink.now
        requests = [replace(r, arrival_ns=r.arrival_ns + t0) for r in requests]
    scheduler = BatchScheduler(
        built.kv, policy=policy, seed=spec["seed"],
        clock=lambda: built.dram_sink.now,
    )
    sampler = None
    if ops is not None:
        from repro.telemetry import OpsSampler
        sampler = OpsSampler(ops[0], shard or 0, ops[1], built)
    result = resilient_replay(
        built, requests, scheduler, resilience,
        max_batch=max_batch, sampler=sampler,
    )
    return ServedCell(
        stack=built, scheduler=scheduler, result=result,
        requests=list(requests), stored_keys=len(items),
        telemetry=telemetry, sampler=sampler,
    )


# ------------------------------------------------------------ report pieces

def percentiles(values: Sequence[float]) -> Dict[str, float]:
    if not len(values):
        return {"p50": 0.0, "p99": 0.0, "p999": 0.0, "mean": 0.0, "max": 0.0}
    arr = np.asarray(values, dtype=np.float64)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
        "p999": float(np.percentile(arr, 99.9)),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


def request_block(served: ServedCell) -> Dict[str, Any]:
    """Request accounting: counts, status mix, availability.

    A slice with no requests failed nothing, so its availability is
    1.0 -- an empty shard must not drag a fleet's floor down.
    """
    comps = served.completions
    status = {s: 0 for s in STATUSES}
    for c in comps:
        status[c.status] += 1
    stats = served.scheduler.stats()
    return {
        "requests": len(served.requests),
        "completions": len(comps),
        "status": status,
        "availability": status[OK] / len(comps) if comps else 1.0,
        **{k: stats[k] for k in SCHEDULER_COUNTS},
    }


def degraded_block(result: ChaosReplayResult) -> Dict[str, Any]:
    """What the resilient loop did beyond plain serving."""
    return {
        "degraded_reads": result.degraded_reads,
        "retries": result.retries,
        "journal": {
            "appends": result.journal_appends,
            "replayed": result.journal_replayed,
            "sheds": result.journal_sheds,
        },
    }


def episode_block(episodes: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    spans = [e["exit_ns"] - e["enter_ns"] for e in episodes]
    return {
        "count": len(episodes),
        "recover_ns_mean": sum(spans) / len(spans) if spans else 0.0,
        "recover_ns_max": max(spans) if spans else 0.0,
        "rebuilt": sum(e["rebuilt"] for e in episodes),
        "journal_replayed": sum(e["journal_replayed"] for e in episodes),
    }


def detection_block(summary: Dict[str, Any]) -> Dict[str, Any]:
    injected = sum(summary["injected"][k] for k in TAMPER_KINDS)
    detected = sum(summary["detected"][k] for k in TAMPER_KINDS)
    return {
        "tamper_injected": injected,
        "tamper_detected": detected,
        "rate": detected / injected if injected else 1.0,
    }


__all__ = [
    "SCHEDULER_COUNTS",
    "ServedCell",
    "TAMPER_KINDS",
    "degraded_block",
    "detection_block",
    "episode_block",
    "percentiles",
    "request_block",
    "serve_cell",
]
