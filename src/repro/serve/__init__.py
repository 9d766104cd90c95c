"""``repro.serve``: a request front-end over the oblivious KV store.

The serving layer turns the single-caller
:class:`~repro.app.kvstore.ObliviousKV` into a *system*:

- :mod:`repro.serve.request` -- the request/completion records every
  layer exchanges;
- :mod:`repro.serve.scheduler` -- the batching scheduler: admits one
  oblivious access at a time but batches and reorders queued clients,
  deduping same-block hits (the block is stash-resident after the
  first access) and coalescing superseded writes;
- :mod:`repro.serve.loadgen` -- the open-loop load generator:
  seed-pinned Poisson and bursty arrivals, zipf key popularity over
  key universes up to millions of keys;
- :mod:`repro.serve.resilience` -- the serving loop: drives a
  generated workload through the scheduler on the simulated DRAM-ns
  clock (open loop: arrivals never wait for service, so queueing is
  measured honestly), with per-request deadlines, bounded admission
  with load shedding, and degraded-mode serving (stash-resident reads
  + a write journal) while quarantined buckets rebuild;
- :mod:`repro.serve.cell` -- :func:`serve_cell`, the one way every
  harness serves a cell: build and populate a stack, then run a
  workload slice through the loop;
- :mod:`repro.serve.server` -- a thread-pool front-end for wall-clock
  serving: clients submit concurrently, one scheduler thread services
  batches;
- :mod:`repro.serve.bench` / :mod:`~repro.serve.schema` /
  :mod:`~repro.serve.compare` / :mod:`~repro.serve.report` -- the
  ``BENCH_serve.json`` harness (the tail-latency yardstick CI gates);
- :mod:`repro.serve.tracing` -- per-request Perfetto traces splitting
  queueing vs. ORAM vs. DRAM time;
- :mod:`repro.serve.chaos` -- the ``BENCH_chaos.json`` campaign: fault
  injection under live load, gated on availability and detection;
- :mod:`repro.serve.scaling` -- the ``BENCH_scaling.json`` capacity
  curve: one workload served by 1..16 AB-ORAM shards
  (:mod:`repro.core.sharding`), gated on fleet speedup, drill
  availability, and control-plane health.
"""

from repro.serve.cell import ServedCell, serve_cell
from repro.serve.chaos import ChaosCell, ChaosConfig, run_chaos
from repro.serve.scaling import (
    ScalingCell, ScalingConfig, run_scaling, scaling_check,
)
from repro.serve.loadgen import WorkloadConfig, generate_requests, key_name, value_for
from repro.serve.request import DELETE, GET, PUT, Completion, Request
from repro.serve.resilience import (
    ChaosReplayResult, ResilienceConfig, resilient_replay,
)
from repro.serve.scheduler import BatchScheduler
from repro.serve.server import KVServer
from repro.serve.stack import ServedStack, build_stack

__all__ = [
    "BatchScheduler",
    "ChaosCell",
    "ChaosConfig",
    "ChaosReplayResult",
    "Completion",
    "DELETE",
    "GET",
    "KVServer",
    "PUT",
    "Request",
    "ResilienceConfig",
    "ScalingCell",
    "ScalingConfig",
    "ServedCell",
    "ServedStack",
    "WorkloadConfig",
    "build_stack",
    "run_scaling",
    "scaling_check",
    "generate_requests",
    "key_name",
    "resilient_replay",
    "run_chaos",
    "serve_cell",
    "value_for",
]
