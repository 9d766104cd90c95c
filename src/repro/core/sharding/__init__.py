"""Horizontal scale: N AB-ORAM subtrees behind an oblivious router.

- :mod:`~repro.core.sharding.partition` -- the keyed-PRF partition map
  (block/key -> shard; the security-relevant piece).
- :mod:`~repro.core.sharding.sharded` -- ``ShardedOram`` and the
  partitioned trace simulator with its merged fleet ``sim`` block.
- :mod:`~repro.core.sharding.fleet` -- the serving fleet: per-shard
  worker processes, keyed-PRF request routing, the kill-a-shard drill.
- :mod:`~repro.core.sharding.control` -- shard registration,
  heartbeats, and the health state machine.

See ``docs/design/sharding.md`` for the partition-map security
argument and the control-plane state diagram.
"""

from repro.core.sharding.control import (
    ControlPlane, ShardEvent, ShardHealth, fold_control, heartbeat_events,
)
from repro.core.sharding.fleet import (
    FleetConfig, KillShardDrill, run_fleet, shard_requests,
)
from repro.core.sharding.partition import PartitionMap
from repro.core.sharding.sharded import (
    ShardedOram, ShardedSimOutcome, levels_for_blocks, run_sharded_sim,
    split_trace,
)

__all__ = [
    "ControlPlane",
    "FleetConfig",
    "KillShardDrill",
    "PartitionMap",
    "ShardEvent",
    "ShardHealth",
    "ShardedOram",
    "ShardedSimOutcome",
    "fold_control",
    "heartbeat_events",
    "levels_for_blocks",
    "run_fleet",
    "run_sharded_sim",
    "shard_requests",
    "split_trace",
]
