"""The harness reports: five kinds, one framework.

Every number the harnesses publish -- simulated ns/access, the
guessing-attacker advantage, tamper detection, the fleet capacity
curve -- reaches a reader as one JSON report. Each report kind is
declared once below as a :class:`ReportKind`: its fields, cell key,
host-dependent fields, compare gates, table row and invariants. One
validator, one deterministic view, one compare, one loader and one
renderer serve all five. Validation is plain code with the stock
interpreter (CI and the tests need no schema library).

Every kind shares one top level::

    {
      "kind": "repro-<kind>-report",
      "schema_version": 1,
      "config":      { the harness config, "smoke": bool },
      "environment": { "python": ..., "numpy": ..., "platform": ... },
      "cells":       [ { cell }, ... ]
    }

A cell whose worker failed (crashed process, raised exception) is an
*error cell* -- its key fields plus ``"error": "<traceback>"`` -- so a
sweep never shrinks silently. Compare treats a baseline cell that
errored or vanished in the new report as an ERROR (exit 2), never as
a pass.

**Deterministic view.** The report minus ``environment``, with each
cell minus its kind's host-dependent fields. Everything left is a pure
function of the config, byte-identical across runs, hosts and worker
counts; ``tools/report_determinism.py`` and the smoke gates compare
it against the committed baselines.

**Compare.** Cells are matched by key. Each kind declares its gates as
``(path, better, tolerance, label)``; the tolerance is ``PCT`` (the
``--threshold`` percent, relative), ``PP`` (1.0 percentage point,
absolute, for rates on [0, 1]), ``ANY`` (must not get worse at all) or
``BEST`` (a baseline that is true / 1.0 must stay so). Exit 0 ok,
1 regression, 2 load/schema/missing-cell/mixed-kind error. A drift note
names the ``sim`` keys that differ; it is informational, never a gate.

The kinds and their cells:

``repro-perf-report`` (``perf run``), one cell per (scheme, trace)::

    {"scheme": "ring", "trace": "mcf",
     "pipeline_depth": 4, "shards": 4,   # optional, omitted when 1
     "wall_s": 0.63, "accesses_per_s": 3171.9,          # host-dependent
     "sim": {"exec_ns", "ns_per_access", "stash_peak", "reshuffles_total",
             "reshuffles_by_level", "dram_reads", "dram_writes",
             "row_hit_rate", "online_accesses", "background_accesses",
             "evictions", "dead_blocks", "remote_accesses"}}

  Key ``ring/mcf``, ``ns/mcf@p4``, ``ab/mcf@s4``. Gate: wall-clock
  throughput (``accesses_per_s``).

``repro-faults-report`` (``faults run``) adds a ``doctor`` list of
robustness findings and a fault-free ``baseline`` block
(``exec_ns``, ``stash_peak``, ``seals``, ``opens``); one cell per
(fault, rate)::

    {"fault": "bit_flip", "rate": 0.005,
     "injected", "detected", "undetected", "masked", "latent",
     "detection_rate",                     # detected / observed
     "recovered", "unrecovered", "recovery_rate", "retries", "rebuilds",
     "quarantines", "payload_resets", "stash_served",
     "exec_ns", "overhead_x", "stash_peak"}

  Key ``bit_flip@0.005``. No wall-clock fields: two runs write
  byte-identical files but for ``environment``. ``detection_rate``
  divides by *observed* faults (detected + undetected); masked and
  latent dropped writes are excluded. No compare gates.

``repro-serve-report`` (``serve bench``), one cell per (workload,
policy)::

    {"workload": "zipf-bursty", "policy": "batch",
     "wall_s", "requests_per_s_wall",                   # host-dependent
     "wall_latency_us": {"p50", "p99", "p999"},         # host-dependent
     "sim": {"requests", "accesses_issued", "dedup_hits",
             "coalesced_puts", "absent_gets", "accesses_per_request",
             "ops": {"get", "put", "delete"},
             "batch_size_hist": [[size, count], ...],
             "sim_ns", "requests_per_s_sim",
             "latency_ns": {"p50", "p99", "p999", "mean", "max"},
             "queue_ns": {...}, "service_ns": {...},
             "security": {"guesses", "success_rate", "expected_rate",
                          "advantage"}}}

  Key ``zipf-bursty/batch``. Gates: simulated throughput and p99.

``repro-chaos-report`` (``serve chaos``), one cell per campaign cell::

    {"name": "tamper", "wall_s", "requests_per_s_wall",  # host-dependent
     "sim": {"requests", "completions",
             "status": {"ok", "timed_out", "shed", "failed"},
             "availability", "accesses_issued", "dedup_hits",
             "coalesced_puts", "absent_gets", "scheduler_timeouts",
             "degraded_reads", "journal", "retries", "episodes",
             "sim_ns", "requests_per_s_sim", "latency_ns", "robust",
             "detection": {"tamper_injected", "tamper_detected", "rate"},
             ...}}                    # sharded: "shards", "control", "slo"

  Key: the bare cell name. Every request completes with exactly one
  status (``completions == requests`` and the counts sum to it). Gates:
  availability, served p99 under fault, and perfect tamper detection.

``repro-scaling-report`` (``serve scaling``), one cell per (name,
shards) point of the capacity curve::

    {"name": "uniform", "shards": 4, "total_blocks", "drill": bool,
     "wall_s",                                          # host-dependent
     "memory": {"per_shard_capacity", "shard_levels", "per_shard_bytes",
                "fleet_bytes", "single_tree_levels", "single_tree_bytes"},
     "sim": {"fleet": {"requests", "completions", "status",
                       "availability", "makespan_ns", "ns_per_request",
                       "requests_per_s_sim", "latency_ns"},
             "shards": [ one block per shard ],
             "control": {"all_healthy": bool, ...}}}

  Key ``uniform@s4``. ``fleet_bytes == shards * per_shard_bytes`` and
  ``sim.shards`` has ``shards`` entries. Gates: aggregate ns/request,
  availability, an all-healthy fleet, and per-shard memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Tuple

from repro.analysis.report import render_mapping_table

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2

DEFAULT_THRESHOLD_PCT = 10.0

#: How far a ``PP`` gate's rate may fall, in percentage points
#: (absolute: on [0, 1] a relative threshold is meaningless near 1.0).
PP_TOLERANCE = 1.0

HIGHER, LOWER = "higher", "lower"
PCT, PP, ANY, BEST = "pct", "pp", "any", "best"

NUM = (int, float)
#: The latency percentiles every percentile block must carry.
PCTL = {"p50": NUM, "p99": NUM, "p999": NUM}

#: A field spec: name -> type, tuple of types, or a nested spec (an
#: object that must carry those fields in turn).
Spec = Dict[str, Any]


class Gate(NamedTuple):
    """One compare gate on the value at dotted ``path`` in a cell."""

    path: str
    better: str
    tolerance: str
    label: str


#: Range rules for ``ReportKind.bounds`` entries ``(dotted path, rule)``:
#: a rule is (predicate, what the value must be). Absent or non-numeric
#: values are left to the field specs.
POSITIVE = (lambda v: v > 0, "positive")
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
NON_NEGATIVE = (lambda v: v >= 0, ">= 0")


def _pctl_bounds(prefix: str) -> Tuple[Tuple[str, Any], ...]:
    return tuple((f"{prefix}.{p}", NON_NEGATIVE) for p in PCTL)


@dataclass(frozen=True)
class ReportKind:
    """The declaration of one report kind; see the module docstring.

    ``config``/``cell``/``error_cell`` and the ``*_optional`` specs
    type-check those objects; ``blocks`` adds top-level objects beyond
    ``config``/``environment``/``cells``. ``key`` names a cell,
    ``host_fields`` are the cell fields the deterministic view drops,
    ``gates`` drive compare, ``row``/``title`` the rendered table
    (under ``label``). ``bounds`` are range invariants on every cell;
    ``check`` yields the problems of a completed cell's cross-field
    invariants.
    """

    kind: str
    schema_version: int
    label: str
    config: Spec
    cell: Spec
    error_cell: Spec
    key: Callable[[Dict[str, Any]], str]
    row: Callable[[Dict[str, Any]], Dict[str, Any]]
    title: Callable[[Dict[str, Any]], str]
    config_optional: Spec = field(default_factory=dict)
    cell_optional: Spec = field(default_factory=dict)
    blocks: Spec = field(default_factory=dict)
    host_fields: Tuple[str, ...] = ()
    gates: Tuple[Gate, ...] = ()
    bounds: Tuple[Tuple[str, Any], ...] = ()
    check: Callable[[Dict[str, Any]], Iterable[str]] = lambda cell: ()


def _get(obj: Any, path: str) -> Any:
    """The value at a dotted path, or None where any step is missing."""
    for part in path.split("."):
        if not isinstance(obj, dict):
            return None
        obj = obj.get(part)
    return obj


def _first_line(error: Any) -> str:
    lines = str(error).strip().splitlines()
    return lines[0] if lines else "cell failed"


# ---------------------------------------------------------------- perf

def _perf_key(cell: Dict[str, Any]) -> str:
    key = f"{cell['scheme']}/{cell['trace']}"
    depth = cell.get("pipeline_depth", 1)
    if depth > 1:
        key += f"@p{depth}"
    shards = cell.get("shards", 1)
    if shards > 1:
        key += f"@s{shards}"
    return key


def _perf_row(cell: Dict[str, Any]) -> Dict[str, Any]:
    sim = cell["sim"]
    return {
        "wall_s": cell["wall_s"],
        "acc_per_s": cell["accesses_per_s"],
        "ns_per_access": sim["ns_per_access"],
        "stash_peak": sim["stash_peak"],
        "reshuffles": sim["reshuffles_total"],
        "row_hit": sim["row_hit_rate"],
    }


def _perf_title(doc: Dict[str, Any]) -> str:
    cfg = doc["config"]
    return (
        f"L={cfg['levels']} requests={cfg['n_requests']} "
        f"warmup={cfg['warmup_requests']} seed={cfg['seed']}"
    )


PERF = ReportKind(
    kind="repro-perf-report",
    schema_version=1,
    label="perf matrix",
    config={
        "schemes": list, "benchmarks": list, "suite": str, "levels": int,
        "n_requests": int, "warmup_requests": int, "seed": int,
        "repeats": int, "smoke": bool,
    },
    # Extra pipelined / sharded cells as [scheme, trace, depth|shards]
    # triples; reports written before they existed stay valid.
    config_optional={"pipeline_cells": list, "shard_cells": list},
    cell={
        "scheme": str, "trace": str, "wall_s": NUM, "accesses_per_s": NUM,
        "sim": {
            "exec_ns": NUM, "ns_per_access": NUM, "stash_peak": int,
            "reshuffles_total": int, "reshuffles_by_level": list,
            "dram_reads": int, "dram_writes": int, "row_hit_rate": NUM,
            "online_accesses": int, "background_accesses": int,
            "evictions": int, "dead_blocks": int, "remote_accesses": int,
        },
    },
    # Serial cells omit both, keeping historical reports byte-identical.
    cell_optional={"pipeline_depth": int, "shards": int},
    error_cell={"scheme": str, "trace": str, "error": str},
    key=_perf_key,
    host_fields=("wall_s", "accesses_per_s"),
    gates=(Gate("accesses_per_s", HIGHER, PCT, "throughput"),),
    bounds=(
        ("wall_s", POSITIVE),
        ("pipeline_depth", AT_LEAST_1),
        ("shards", AT_LEAST_1),
    ),
    row=_perf_row,
    title=_perf_title,
)


# -------------------------------------------------------------- faults

def _faults_row(cell: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "inj": cell["injected"],
        "det": cell["detected"],
        "undet": cell["undetected"],
        "masked": cell["masked"],
        "latent": cell["latent"],
        "det_rate": cell["detection_rate"],
        "recov": cell["recovered"],
        "unrec": cell["unrecovered"],
        "rebuilds": cell["rebuilds"],
        "retries": cell["retries"],
        "overhead_x": cell["overhead_x"],
        "stash_peak": cell["stash_peak"],
    }


def _faults_title(doc: Dict[str, Any]) -> str:
    cfg = doc["config"]
    return (
        f"{cfg['scheme']}/{cfg['bench']} "
        f"L={cfg['levels']} requests={cfg['n_requests']} "
        f"seed={cfg['seed']} integrity={'on' if cfg['integrity'] else 'off'} "
        f"| baseline exec_ns={doc['baseline']['exec_ns']:.0f}"
    )


FAULTS = ReportKind(
    kind="repro-faults-report",
    schema_version=1,
    label="fault campaign",
    config={
        "scheme": str, "suite": str, "bench": str, "levels": int,
        "n_requests": int, "warmup_requests": int, "seed": int,
        "kinds": list, "rates": list, "retry_budget": int,
        "backoff_base_ns": NUM, "quarantine": bool, "integrity": bool,
        "max_outage_ops": int, "smoke": bool,
    },
    blocks={
        "doctor": list,
        "baseline": {
            "exec_ns": NUM, "stash_peak": int, "seals": int, "opens": int,
        },
    },
    cell={
        "fault": str, "rate": NUM, "injected": int, "detected": int,
        "undetected": int, "masked": int, "latent": int,
        "detection_rate": NUM, "recovered": int, "unrecovered": int,
        "recovery_rate": NUM, "retries": int, "rebuilds": int,
        "quarantines": int, "payload_resets": int, "stash_served": int,
        "exec_ns": NUM, "overhead_x": NUM, "stash_peak": int,
    },
    error_cell={"fault": str, "rate": NUM, "error": str},
    key=lambda cell: f"{cell['fault']}@{cell['rate']:g}",
    bounds=(("rate", UNIT), ("detection_rate", UNIT)),
    row=_faults_row,
    title=_faults_title,
)


# --------------------------------------------------------------- serve

_SERVE_HOST_FIELDS = ("wall_s", "requests_per_s_wall", "wall_latency_us")


def _serve_row(cell: Dict[str, Any]) -> Dict[str, Any]:
    sim = cell["sim"]
    return {
        "req_per_s_sim": sim["requests_per_s_sim"],
        "acc_per_req": sim["accesses_per_request"],
        "dedup": sim["dedup_hits"],
        "coalesced": sim["coalesced_puts"],
        "p50_us": sim["latency_ns"]["p50"] / 1000.0,
        "p99_us": sim["latency_ns"]["p99"] / 1000.0,
        "p999_us": sim["latency_ns"]["p999"] / 1000.0,
        "wall_s": cell["wall_s"],
    }


def _serve_title(doc: Dict[str, Any]) -> str:
    cfg = doc["config"]
    return (
        f"{cfg['scheme']} L={cfg['levels']} "
        f"max_batch={cfg['max_batch']} seed={cfg['seed']}"
    )


SERVE = ReportKind(
    kind="repro-serve-report",
    schema_version=1,
    label="serve matrix",
    config={
        "scheme": str, "levels": int, "seed": int, "max_batch": int,
        "policies": list, "workloads": list, "smoke": bool,
    },
    cell={
        "workload": str, "policy": str, "wall_s": NUM,
        "requests_per_s_wall": NUM, "wall_latency_us": dict,
        "sim": {
            "requests": int, "accesses_issued": int, "dedup_hits": int,
            "coalesced_puts": int, "absent_gets": int,
            "accesses_per_request": NUM, "ops": dict,
            "batch_size_hist": list, "sim_ns": NUM,
            "requests_per_s_sim": NUM, "latency_ns": PCTL,
            "queue_ns": PCTL, "service_ns": PCTL,
        },
    },
    error_cell={"workload": str, "policy": str, "error": str},
    key=lambda cell: f"{cell['workload']}/{cell['policy']}",
    host_fields=_SERVE_HOST_FIELDS,
    gates=(
        Gate("sim.requests_per_s_sim", HIGHER, PCT, "sim throughput"),
        Gate("sim.latency_ns.p99", LOWER, PCT, "p99 latency"),
    ),
    bounds=(("wall_s", POSITIVE),) + _pctl_bounds("sim.latency_ns")
    + _pctl_bounds("sim.queue_ns") + _pctl_bounds("sim.service_ns"),
    row=_serve_row,
    title=_serve_title,
)


# --------------------------------------------------------------- chaos

def _chaos_accounting(cell: Dict[str, Any]) -> Iterable[str]:
    """Every generated request completed with exactly one status."""
    sim = cell.get("sim")
    if not isinstance(sim, dict):
        return
    requests, completions = sim.get("requests"), sim.get("completions")
    status = sim.get("status")
    if not (isinstance(requests, int) and isinstance(completions, int)
            and isinstance(status, dict)):
        return
    if completions != requests:
        yield f"sim: {completions} completions for {requests} requests"
    total = sum(v for v in status.values() if isinstance(v, int))
    if total != completions:
        yield f"sim.status: counts sum to {total}, expected {completions}"


def _chaos_row(cell: Dict[str, Any]) -> Dict[str, Any]:
    sim = cell["sim"]
    status = sim["status"]
    det = sim.get("detection")
    episodes = sim["episodes"]
    return {
        "avail": sim["availability"],
        "p99_us": sim["latency_ns"]["p99"] / 1000.0,
        "shed": status["shed"],
        "timeout": status["timed_out"] + sim["scheduler_timeouts"],
        "failed": status["failed"],
        "degr_reads": sim["degraded_reads"],
        "episodes": episodes["count"],
        "recover_us": episodes["recover_ns_max"] / 1000.0,
        "detect": "-" if det is None else (
            f"{det['tamper_detected']}/{det['tamper_injected']}"
        ),
    }


CHAOS = ReportKind(
    kind="repro-chaos-report",
    schema_version=1,
    label="chaos campaign",
    config={
        "scheme": str, "levels": int, "seed": int, "max_batch": int,
        "robustness": dict, "cells": list, "smoke": bool,
    },
    cell={
        "name": str, "wall_s": NUM, "requests_per_s_wall": NUM,
        "sim": {
            "requests": int, "completions": int,
            "status": {"ok": int, "timed_out": int, "shed": int,
                       "failed": int},
            "availability": NUM, "accesses_issued": int, "dedup_hits": int,
            "coalesced_puts": int, "absent_gets": int,
            "scheduler_timeouts": int, "degraded_reads": int,
            "journal": dict, "retries": int, "episodes": dict,
            "sim_ns": NUM, "requests_per_s_sim": NUM, "latency_ns": PCTL,
            "robust": dict,
        },
    },
    error_cell={"name": str, "error": str},
    key=lambda cell: cell["name"],
    host_fields=_SERVE_HOST_FIELDS,
    gates=(
        Gate("sim.availability", HIGHER, PP, "availability"),
        Gate("sim.latency_ns.p99", LOWER, PCT, "p99-under-fault"),
        Gate("sim.detection.rate", HIGHER, BEST, "tamper detection"),
    ),
    bounds=(("wall_s", POSITIVE), ("sim.availability", UNIT))
    + _pctl_bounds("sim.latency_ns"),
    check=_chaos_accounting,
    row=_chaos_row,
    title=_serve_title,
)


# ------------------------------------------------------------- scaling

def _scaling_shape(cell: Dict[str, Any]) -> Iterable[str]:
    """Memory and per-shard blocks must agree with the fleet width."""
    shards = cell.get("shards")
    if not isinstance(shards, int):
        return
    per_shard = _get(cell, "memory.per_shard_bytes")
    fleet = _get(cell, "memory.fleet_bytes")
    if (isinstance(per_shard, int) and isinstance(fleet, int)
            and fleet != per_shard * shards):
        yield "memory: fleet_bytes is not shards * per_shard_bytes"
    blocks = _get(cell, "sim.shards")
    if isinstance(blocks, list) and len(blocks) != shards:
        yield f"sim.shards: {len(blocks)} entries for {shards} shards"


def _scaling_row(cell: Dict[str, Any]) -> Dict[str, Any]:
    fleet = cell["sim"]["fleet"]
    memory = cell["memory"]
    return {
        "blocks": cell["total_blocks"],
        "ns_per_req": fleet["ns_per_request"],
        "req_per_s_sim": fleet["requests_per_s_sim"],
        "avail": fleet["availability"],
        "p99_us": fleet["latency_ns"]["p99"] / 1000.0,
        "shard_MiB": memory["per_shard_bytes"] / 2 ** 20,
        "fleet_MiB": memory["fleet_bytes"] / 2 ** 20,
        "healthy": cell["sim"]["control"]["all_healthy"],
        "drill": cell["drill"],
    }


def _scaling_title(doc: Dict[str, Any]) -> str:
    cfg = doc["config"]
    return (
        f"{cfg['scheme']} measured L={cfg['measured_levels']} "
        f"max_batch={cfg['max_batch']} seed={cfg['seed']}"
    )


SCALING = ReportKind(
    kind="repro-scaling-report",
    schema_version=1,
    label="capacity curve",
    config={
        "scheme": str, "measured_levels": int, "seed": int,
        "max_batch": int, "policy": str, "min_speedup": NUM,
        "heartbeat_ns": NUM, "miss_after": int, "cells": list,
        "smoke": bool,
    },
    cell={
        "name": str, "shards": int, "total_blocks": int, "drill": bool,
        "wall_s": NUM,
        "memory": {
            "per_shard_capacity": int, "shard_levels": int,
            "per_shard_bytes": int, "fleet_bytes": int,
            "single_tree_levels": int, "single_tree_bytes": int,
        },
        "sim": {
            "fleet": {
                "requests": int, "completions": int, "status": dict,
                "availability": NUM, "makespan_ns": NUM,
                "ns_per_request": NUM, "requests_per_s_sim": NUM,
                "latency_ns": PCTL,
            },
            "shards": list,
            "control": {"all_healthy": bool},
        },
    },
    error_cell={"name": str, "shards": int, "error": str},
    key=lambda cell: f"{cell['name']}@s{cell['shards']}",
    host_fields=("wall_s",),
    gates=(
        Gate("sim.fleet.ns_per_request", LOWER, PCT, "aggregate ns/req"),
        Gate("sim.fleet.availability", HIGHER, PP, "availability"),
        Gate("sim.control.all_healthy", HIGHER, BEST, "fleet all-healthy"),
        Gate("memory.per_shard_bytes", LOWER, ANY, "per-shard memory"),
    ),
    bounds=(("wall_s", POSITIVE), ("sim.fleet.availability", UNIT))
    + _pctl_bounds("sim.fleet.latency_ns"),
    check=_scaling_shape,
    row=_scaling_row,
    title=_scaling_title,
)


KINDS: Dict[str, ReportKind] = {
    k.kind: k for k in (PERF, FAULTS, SERVE, CHAOS, SCALING)
}


def kind_of(doc: Any) -> ReportKind:
    """The declaration a report's ``kind`` names; ValueError if none."""
    tag = doc.get("kind") if isinstance(doc, dict) else None
    if tag not in KINDS:
        raise ValueError(
            f"kind is {tag!r}, expected one of {', '.join(sorted(KINDS))}"
        )
    return KINDS[tag]


# ------------------------------------------------------------ validate

def _check_fields(
    obj: Dict[str, Any], spec: Spec, where: str, errors: List[str],
    optional: bool = False,
) -> None:
    for name, typ in spec.items():
        if name not in obj:
            if not optional:
                errors.append(f"{where}: missing field {name!r}")
            continue
        val = obj[name]
        if isinstance(typ, dict):
            if isinstance(val, dict):
                _check_fields(val, typ, f"{where}.{name}", errors)
                continue
            ok, typ = False, "object"
        elif typ is bool:
            ok = isinstance(val, bool)
        else:
            # bool subclasses int; reject it where a number is expected.
            ok = not isinstance(val, bool) and isinstance(val, typ)
        if not ok:
            errors.append(
                f"{where}: field {name!r} has type "
                f"{type(val).__name__}, expected {typ}"
            )


def validate_report(doc: Any, kind: ReportKind | None = None) -> List[str]:
    """Validate a parsed report; returns a list of problems (empty = ok).

    Checks against ``kind`` when given, else against the declaration
    the report's own ``kind`` names.
    """
    if not isinstance(doc, dict):
        return [f"report root is {type(doc).__name__}, expected object"]
    if kind is None:
        try:
            kind = kind_of(doc)
        except ValueError as exc:
            return [str(exc)]
    errors: List[str] = []
    if doc.get("kind") != kind.kind:
        errors.append(f"kind is {doc.get('kind')!r}, expected {kind.kind!r}")
    if doc.get("schema_version") != kind.schema_version:
        errors.append(
            f"schema_version is {doc.get('schema_version')!r}, "
            f"expected {kind.schema_version}"
        )
    _check_fields(doc, {"config": kind.config, "environment": {},
                        **kind.blocks}, "report", errors)
    if isinstance(doc.get("config"), dict):
        _check_fields(doc["config"], kind.config_optional, "config",
                      errors, optional=True)
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append("cells: missing, not a list, or empty")
        return errors
    seen = set()
    for i, cell in enumerate(cells):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            errors.append(f"{where}: not an object")
            continue
        if "error" in cell:
            _check_fields(cell, kind.error_cell, where, errors)
        else:
            _check_fields(cell, kind.cell, where, errors)
            _check_fields(cell, kind.cell_optional, where, errors,
                          optional=True)
            errors.extend(f"{where}.{msg}" for msg in kind.check(cell))
        for path, (ok, must) in kind.bounds:
            val = _get(cell, path)
            numeric = isinstance(val, NUM) and not isinstance(val, bool)
            if numeric and not ok(val):
                errors.append(f"{where}: {path} must be {must}, got {val!r}")
        try:
            key = kind.key(cell)
        except (KeyError, TypeError, ValueError):
            continue  # the missing or mistyped key field is reported above
        if key in seen:
            errors.append(f"{where}: duplicate cell {key!r}")
        seen.add(key)
    return errors


def load_report(path: str) -> Tuple[Any, List[str]]:
    """Parse and validate one report file; returns (doc, errors)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError:
        # truncated, corrupted or binary files get a one-line diagnosis.
        return None, [f"{path}: cannot load report: {exc}"]
    return doc, [f"{path}: {e}" for e in validate_report(doc)]


# --------------------------------------------------- deterministic view

def deterministic_view(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The report minus ``environment`` and host-dependent cell fields.

    Two runs of one config -- on any host, at any worker count -- give
    identical views. Raises ValueError for an unknown ``kind``.
    """
    host = kind_of(doc).host_fields
    out = {k: v for k, v in doc.items() if k != "environment"}
    out["cells"] = [
        {k: v for k, v in cell.items() if k not in host}
        for cell in doc.get("cells", [])
    ]
    return out


def deterministic_bytes(doc: Dict[str, Any]) -> bytes:
    """Canonical JSON encoding of :func:`deterministic_view`."""
    return json.dumps(
        deterministic_view(doc), sort_keys=True, separators=(",", ":"),
    ).encode()


# ------------------------------------------------------------- compare

def _num(val: Any) -> str:
    return f"{val:.6g}" if isinstance(val, float) else str(val)


def _judge(
    gate: Gate, old: Any, new: Any, threshold_pct: float,
) -> Tuple[str, str | None]:
    """(summary, why the gate fired or None) for one gate."""
    summary = f"{gate.label} {_num(old)} -> {_num(new)}"
    higher = gate.better == HIGHER
    if gate.tolerance == PCT:
        delta, limit, unit = (new - old) / old * 100.0, threshold_pct, "%"
        summary += f" ({delta:+.1f}%)"
    elif gate.tolerance == PP:
        delta, limit, unit = (new - old) * 100.0, PP_TOLERANCE, "pp"
        summary += f" ({delta:+.2f}pp)"
    elif gate.tolerance == ANY:
        if (new < old) if higher else (new > old):
            return summary, f"{gate.label} {'fell' if higher else 'grew'}"
        return summary, None
    else:  # BEST
        if old >= 1 and new < 1:
            return summary, f"{gate.label} fell from {_num(old)} to {_num(new)}"
        return summary, None
    if (-delta if higher else delta) <= limit:
        return summary, None
    trend, sign = ("drop", "-") if higher else ("rise", "+")
    return summary, f"{gate.label} {trend} exceeds {sign}{limit:g}{unit}"


def compare_reports(
    baseline: Dict[str, Any],
    new: Dict[str, Any],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> Tuple[int, List[str]]:
    """Compare two validated reports; returns (exit_code, messages)."""
    if baseline.get("kind") != new.get("kind"):
        return EXIT_ERROR, [
            f"ERROR cannot compare {baseline.get('kind')!r} against "
            f"{new.get('kind')!r} reports"
        ]
    kind = kind_of(baseline)
    base_cells = {kind.key(c): c for c in baseline["cells"]}
    new_cells = {kind.key(c): c for c in new["cells"]}
    code, messages = EXIT_OK, []
    for key, base in base_cells.items():
        cur = new_cells.get(key)
        if cur is None:
            problem = "cell missing from new report"
        elif "error" in base:
            problem = "baseline cell is an error entry"
        elif "error" in cur:
            problem = f"cell errored in new report: {_first_line(cur['error'])}"
        else:
            problem = None
        parts, reasons = [], []
        for gate in kind.gates if problem is None else ():
            old, now = _get(base, gate.path), _get(cur, gate.path)
            if old is None or now is None:
                continue
            if gate.tolerance == PCT and old <= 0:
                problem = f"degenerate baseline ({gate.label} {_num(old)})"
                break
            summary, reason = _judge(gate, old, now, threshold_pct)
            parts.append(summary)
            if reason:
                reasons.append(reason)
        if problem is not None:
            messages.append(f"ERROR {key}: {problem}")
            code = EXIT_ERROR
            continue
        base_sim, cur_sim = base.get("sim") or {}, cur.get("sim") or {}
        drifted = sorted(
            k for k in set(base_sim) | set(cur_sim)
            if base_sim.get(k) != cur_sim.get(k)
        )
        line = f"{key}: {', '.join(parts)}" if parts else key
        if drifted:
            line += f" (sim metrics drifted: {', '.join(drifted)})"
        if reasons:
            messages.append(f"REGRESSION {line} -- {'; '.join(reasons)}")
            code = max(code, EXIT_REGRESSION)
        else:
            messages.append(f"OK {line}")
    for key in new_cells:
        if key not in base_cells:
            messages.append(f"NEW {key}: no baseline entry (matrix grew)")
    return code, messages


def compare_files(
    baseline_path: str,
    new_path: str,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
) -> Tuple[int, List[str]]:
    """File-level entry: load, validate, compare (kinds must match)."""
    base, base_errs = load_report(baseline_path)
    new, new_errs = load_report(new_path)
    errors = base_errs + new_errs
    if errors:
        return EXIT_ERROR, [f"ERROR {e}" for e in errors]
    return compare_reports(base, new, threshold_pct)


# -------------------------------------------------------------- render

def render_report(doc: Dict[str, Any]) -> str:
    """Text table of one report's completed cells, then its errors."""
    kind = kind_of(doc)
    rows = [
        {"cell": kind.key(cell), **kind.row(cell)}
        for cell in doc["cells"] if "error" not in cell
    ]
    flavor = "smoke" if doc["config"].get("smoke") else "full"
    title = f"{kind.label} ({flavor}): {kind.title(doc)}"
    if rows:
        lines = [render_mapping_table(rows, title=title)]
    else:
        lines = [f"{title}\n(no completed cells)"]
    for cell in doc["cells"]:
        if "error" in cell:
            lines.append(f"ERROR {kind.key(cell)}: {_first_line(cell['error'])}")
    if doc.get("doctor"):
        lines.append("doctor findings:")
        lines.extend(f"  {finding}" for finding in doc["doctor"])
    return "\n".join(lines)
