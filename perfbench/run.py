"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kv-zipf-read --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries the per-layer ledger
instead. Full results (host context, the deterministic block, the
ledger with self seconds) go to ``.perfbench_out/`` in the working
directory, and a traced run also writes its spans there.

Exit status: 0 when every correctness check passed, 1 when one failed
(the JSON line then says ``"correct": false``), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.tracer import LAYER_NAMES  # noqa: E402

OUT_DIR = ".perfbench_out"

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("ops_per_s", "op/s", "higher"),
    ("host_op_us_p50", "us", "lower"),
    ("host_op_us_p99", "us", "lower"),
    ("sim_latency_us_p50", "us_sim", "lower"),
    ("sim_latency_us_p99", "us_sim", "lower"),
    ("sim_ns_per_op", "ns_sim", "lower"),
    ("availability", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("space_ratio", "ratio", "lower"),
    ("attacker_advantage", "ratio", "lower"),
)

#: Per-layer counts and ratios beyond each layer's calls and share.
LAYER_EXTRAS: Tuple[Tuple[str, str], ...] = (
    ("oram.ring.evictions", "count"),
    ("oram.ring.reshuffles", "count"),
    ("oram.ring.stash_peak", "count"),
    ("oram.datastore.seals", "count"),
    ("oram.datastore.opens", "count"),
    ("core.remote.extension_ratio", "ratio"),
    ("mem.dram.requests", "count"),
    ("mem.dram.row_hit_rate", "ratio"),
    ("core.pipeline.conflict_stalls", "count"),
    ("serve.scheduler.accesses_per_request", "ratio"),
    ("serve.scheduler.dedup_hits", "count"),
    ("serve.scheduler.batch_mean", "count"),
    ("serve.loop.queue_depth_p99", "count"),
    ("faults.memory.injected", "count"),
    ("faults.memory.detected", "count"),
    ("parallel.pool.efficiency", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.uncovered_share", "ratio"),
    ("trace.spans", "count"),
)


def per_layer_units() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out: List[Tuple[str, str]] = []
    for layer in LAYER_NAMES:
        out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.share", "ratio"))
    return out + list(LAYER_EXTRAS)


def host_context() -> Dict[str, Any]:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def layer_metrics(outcome: Any, stem: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Per-layer JSON metrics and the full ledger of a traced run."""
    trace = outcome.record["trace"]
    total = trace["traced_s"]
    ledger = outcome.tracer.ledger(total)
    covered = sum(row["share"] for row in ledger.values())
    overhead = trace["untraced_ops_per_s"] / trace["traced_ops_per_s"] - 1.0
    values: Dict[str, float] = {}
    for layer, row in ledger.items():
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.share"] = row["share"]
    values.update(trace["extras"])
    values["trace.overhead"] = overhead
    values["trace.uncovered_share"] = 1.0 - covered
    values["trace.spans"] = outcome.tracer.spans
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in per_layer_units()
    }
    spans_file = f"{stem}.spans.npz"
    outcome.tracer.save(spans_file)
    full = {
        "traced_s": total,
        "ops": outcome.attempted,
        "untraced_ops_per_s": trace["untraced_ops_per_s"],
        "traced_ops_per_s": trace["traced_ops_per_s"],
        "overhead": overhead,
        "uncovered_share": 1.0 - covered,
        "spans": outcome.tracer.spans,
        "spans_file": spans_file,
        "layers": ledger,
        "extras": trace["extras"],
    }
    return metrics, full


def print_ledger(ledger: Dict[str, Any]) -> None:
    print(f"  {'layer':<18} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name, row in ledger["layers"].items():
        print(f"  {name:<18} {row['calls']:>9} {row['self_s']:>10.4f} {row['share']:>7.3f}")
    print(f"  tracing overhead {ledger['overhead']:.3f}, uncovered share "
          f"{ledger['uncovered_share']:.4f}, {ledger['spans']} spans")


def print_table(metrics: Dict[str, Dict[str, Any]]) -> None:
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g}  {m['unit']}")


def stop_child_processes() -> None:
    """Wait for every process this run started.

    The fleet's spawn pool joins its workers, but multiprocessing also
    starts a resource-tracker process that would otherwise outlive this
    one for a moment; stopping it here waits until it has ended.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: List[str]) -> int:
    try:
        return run(argv)
    finally:
        stop_child_processes()


def run(argv: List[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(
        OUT_DIR, f"{args.workload}.seed{args.seed}.trace{args.trace}"
    )
    result: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_context(),
        "end_to_end": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit, _better in END_TO_END
        },
        "deterministic": outcome.deterministic,
        "record": {k: v for k, v in outcome.record.items() if k != "trace"},
        "problems": outcome.problems,
    }
    if args.trace:
        metrics, result["ledger"] = layer_metrics(outcome, stem)
    else:
        metrics = result["end_to_end"]
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)

    correct = not outcome.problems
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"correct={correct} attempted={outcome.attempted} "
          f"failed={outcome.failed} -> {stem}.json")
    if args.trace:
        print_ledger(result["ledger"])
    print_table(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
