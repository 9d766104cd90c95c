"""The fleet control plane: registration, heartbeats, health states.

Each shard of a fleet runs in its own worker process on its own
simulated clock; the control plane lives in the parent and never
touches a shard directly. Instead, every shard cell returns its
serving window and degraded episodes, and :func:`fold_control` turns
each into a deterministic *event stream* stamped in the shard's
simulated DRAM-ns -- ``register`` at start, ``heartbeat`` at a fixed
cadence, paired ``degraded_enter``/``degraded_exit`` markers when the
resilient serving loop quarantines storage, and ``complete`` at the
end. The streams merge into one global timeline (ordered by
``(ns, shard, kind)``) and drives a per-shard state machine over it::

    REGISTERED --heartbeat--> HEALTHY
    HEALTHY    --degraded_enter--> DEGRADED        (quarantine hit)
    DEGRADED   --degraded_exit--> REBUILDING       (repair + journal)
    REBUILDING --heartbeat--> HEALTHY              (back in rotation)
    any live   --heartbeat gap > miss_after*interval--> DEAD
    DEAD       --heartbeat--> REBUILDING           (rejoin)

Because the event streams are pure functions of each shard's seeded
run and the merge order is total, the control summary is byte-stable:
the same fleet config produces the same transition log at any worker
count, which is what lets reports embed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

REGISTERED = "registered"
HEALTHY = "healthy"
DEGRADED = "degraded"
REBUILDING = "rebuilding"
DEAD = "dead"

STATES = (REGISTERED, HEALTHY, DEGRADED, REBUILDING, DEAD)

#: Event kinds a shard stream may carry, in tie-break order for events
#: sharing a timestamp (an exit processes before the heartbeat that
#: proves the rebuild worked).
EVENT_KINDS = (
    "register", "degraded_enter", "degraded_exit", "heartbeat", "complete",
)


@dataclass(frozen=True)
class ShardEvent:
    """One control-plane observation from a shard's simulated timeline."""

    shard: int
    kind: str
    ns: float

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {"shard": self.shard, "kind": self.kind, "ns": self.ns}


class ShardHealth:
    """State machine of one registered shard."""

    def __init__(self, shard: int, registered_ns: float) -> None:
        self.shard = shard
        self.state = REGISTERED
        self.last_heartbeat_ns = registered_ns
        self.completed = False
        #: Transition log: (ns, from_state, to_state, event_kind).
        self.transitions: List[Tuple[float, str, str, str]] = []

    def _move(self, ns: float, to_state: str, kind: str) -> None:
        if to_state != self.state:
            self.transitions.append((ns, self.state, to_state, kind))
            self.state = to_state

    def observe(self, event: ShardEvent) -> None:
        kind = event.kind
        if kind == "heartbeat":
            self.last_heartbeat_ns = event.ns
            if self.state == DEAD:
                # A DEAD shard's first heartbeat re-enters through
                # REBUILDING: it must prove a clean cycle before
                # counting as healthy again.
                self._move(event.ns, REBUILDING, kind)
            elif self.state in (REGISTERED, REBUILDING):
                self._move(event.ns, HEALTHY, kind)
        elif kind == "degraded_enter":
            self._move(event.ns, DEGRADED, kind)
        elif kind == "degraded_exit":
            if self.state == DEGRADED:
                self._move(event.ns, REBUILDING, kind)
        elif kind == "complete":
            self.completed = True
            self.last_heartbeat_ns = event.ns
            if self.state in (REGISTERED, REBUILDING):
                # The run finished before the next heartbeat tick; a
                # clean completion is the same evidence of health a
                # heartbeat would have been.
                self._move(event.ns, HEALTHY, kind)

    def miss_check(self, now_ns: float, timeout_ns: float) -> None:
        """Declare the shard DEAD if its heartbeats stopped."""
        if self.completed or self.state == DEAD:
            return
        if now_ns - self.last_heartbeat_ns > timeout_ns:
            self._move(now_ns, DEAD, "heartbeat")


class ControlPlane:
    """Fleet-scope registry driven by merged shard event streams."""

    def __init__(self, heartbeat_ns: float, miss_after: int = 3) -> None:
        if heartbeat_ns <= 0:
            raise ValueError("heartbeat_ns must be positive")
        if miss_after < 1:
            raise ValueError("miss_after must be >= 1")
        self.heartbeat_ns = float(heartbeat_ns)
        self.miss_after = int(miss_after)
        self.shards: Dict[int, ShardHealth] = {}

    def register(self, shard: int, ns: float = 0.0) -> ShardHealth:
        if shard in self.shards:
            raise ValueError(f"shard {shard} already registered")
        health = ShardHealth(shard, ns)
        self.shards[shard] = health
        return health

    def observe(self, event: ShardEvent) -> None:
        if event.kind == "register":
            if event.shard not in self.shards:
                self.register(event.shard, event.ns)
            return
        if event.shard not in self.shards:
            raise ValueError(f"event for unregistered shard {event.shard}")
        # A long silence is noticed when the *next* event (from any
        # shard) advances the timeline past the miss window.
        self.shards[event.shard].miss_check(
            event.ns, self.miss_after * self.heartbeat_ns
        )
        self.shards[event.shard].observe(event)

    def run(self, events: Iterable[ShardEvent]) -> None:
        """Drive the fleet over a merged timeline (total order)."""
        ordered = sorted(
            events, key=lambda e: (e.ns, e.shard, EVENT_KINDS.index(e.kind))
        )
        for event in ordered:
            self.observe(event)
        if ordered:
            self.finalize(ordered[-1].ns)

    def finalize(self, end_ns: float) -> None:
        """End-of-run sweep: shards that fell silent are DEAD."""
        for health in self.shards.values():
            health.miss_check(end_ns, self.miss_after * self.heartbeat_ns)

    # -------------------------------------------------------------- report

    def all_healthy(self) -> bool:
        return bool(self.shards) and all(
            h.state == HEALTHY for h in self.shards.values()
        )

    def summary(self) -> Dict[str, Any]:
        """Deterministic control block for fleet reports."""
        shards = []
        for shard in sorted(self.shards):
            h = self.shards[shard]
            shards.append({
                "shard": shard,
                "state": h.state,
                "completed": h.completed,
                "transitions": [
                    {"ns": ns, "from": a, "to": b, "event": kind}
                    for ns, a, b, kind in h.transitions
                ],
            })
        return {
            "heartbeat_ns": self.heartbeat_ns,
            "miss_after": self.miss_after,
            "all_healthy": self.all_healthy(),
            "shards": shards,
        }


def control_metrics(summary: Dict[str, Any], registry: Any) -> Any:
    """Fold a control summary into a metrics registry.

    The observability bridge for health transitions: every ``from ->
    to`` edge becomes a ``control.transitions.<from>_to_<to>`` counter,
    each shard's terminal state a ``control.shard.<k>.state`` gauge
    (indexed into :data:`STATES`, so dashboards can threshold on it),
    plus fleet-level ``control.all_healthy`` / ``control.completed`` /
    ``control.deaths``. ``registry`` is a
    :class:`~repro.telemetry.metrics.MetricsRegistry`; passed in rather
    than imported so the control plane stays telemetry-agnostic.
    """
    registry.gauge("control.all_healthy").set(
        1.0 if summary.get("all_healthy") else 0.0
    )
    registry.gauge("control.shards").set(float(len(summary.get("shards", []))))
    for entry in summary.get("shards", []):
        shard = entry["shard"]
        registry.gauge(f"control.shard.{shard}.state").set(
            float(STATES.index(entry["state"]))
        )
        if entry.get("completed"):
            registry.counter("control.completed").inc()
        for t in entry.get("transitions", []):
            registry.counter(
                f"control.transitions.{t['from']}_to_{t['to']}"
            ).inc()
            if t["to"] == DEAD:
                registry.counter("control.deaths").inc()
    return registry


def heartbeat_events(
    shard: int, start_ns: float, end_ns: float, heartbeat_ns: float
) -> List[ShardEvent]:
    """The deterministic heartbeat train of one shard's serving window."""
    events = [ShardEvent(shard, "register", start_ns)]
    k = 1
    while start_ns + k * heartbeat_ns < end_ns:
        events.append(
            ShardEvent(shard, "heartbeat", start_ns + k * heartbeat_ns)
        )
        k += 1
    events.append(ShardEvent(shard, "complete", end_ns))
    return events


def fold_control(
    windows: Iterable[Tuple[int, float, float, Sequence[Dict[str, Any]]]],
    heartbeat_ns: float,
    miss_after: int = 3,
) -> ControlPlane:
    """Drive a control plane over shards' serving windows.

    Each window is ``(shard, start_ns, end_ns, episodes)``: the shard's
    heartbeat train over ``[start_ns, end_ns]`` plus one
    ``degraded_enter``/``degraded_exit`` pair per degraded episode of
    the resilient serving loop, merged into one fleet timeline.
    """
    events: List[ShardEvent] = []
    for shard, start_ns, end_ns, episodes in windows:
        events.extend(heartbeat_events(shard, start_ns, end_ns, heartbeat_ns))
        for episode in episodes:
            events.append(
                ShardEvent(shard, "degraded_enter", episode["enter_ns"])
            )
            events.append(
                ShardEvent(shard, "degraded_exit", episode["exit_ns"])
            )
    plane = ControlPlane(heartbeat_ns, miss_after=miss_after)
    plane.run(events)
    return plane
