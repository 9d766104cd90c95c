"""Check the benchmark's steadiness and determinism.

    python3 perfbench/prove.py spread --workloads kv-zipf-read --seeds 1-10
    python3 perfbench/prove.py determinism --workloads sim-ns-mcf-p4 --seed 11
    python3 perfbench/prove.py compare FIRST.json SECOND.json

``spread`` runs each workload once per seed and reports, for every
end-to-end metric, the quartile spread ``(q3 - q1) / median`` against
the metric's bound in ``BENCHMARK.json``; the summary goes to
``.perfbench_out/prove/spread-<label>.json``. ``compare`` checks that
the second of two such summaries has no median worse than the first by
more than the bound. ``determinism`` runs one seed twice, untraced and
traced, and requires identical simulated metrics, exact layer counts
and deterministic blocks; the two result sets land in
``.perfbench_out/prove/determinism/r1`` and ``r2``, ready for
``perfbench/diff.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if os.path.dirname(HERE) not in sys.path:
    sys.path.insert(0, os.path.dirname(HERE))

from perfbench.diff import HOST_EXTRAS  # noqa: E402
from perfbench.run import OUT_DIR  # noqa: E402

OUT = os.path.join(OUT_DIR, "prove")


def bench_spec() -> Dict[str, Any]:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int,
             keep_as: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One benchmark run; returns (last JSON line, full result file)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr[-2000:]}")
    line = json.loads(lines[-1])
    stem = os.path.join(OUT_DIR, f"{workload}.seed{seed}.trace{trace}")
    os.makedirs(os.path.dirname(keep_as), exist_ok=True)
    shutil.copy(stem + ".json", keep_as)
    with open(keep_as) as fh:
        full = json.load(fh)
    if proc.returncode != 0 or not line["correct"]:
        raise RuntimeError(
            f"{workload} seed {seed}: failed (rc {proc.returncode}): "
            f"{full.get('problems')}"
        )
    return line, full


def spread(values: Sequence[float]) -> Tuple[float, float]:
    """(median, (q3 - q1) / |median|) as the acceptance rule computes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / abs(med) if med else 0.0)


def cmd_spread(args: argparse.Namespace) -> int:
    spec = bench_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary: Dict[str, Any] = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    worst = 0.0
    for wl in args.workloads:
        values: Dict[str, List[float]] = {}
        raw: Dict[str, List[float]] = {}
        for seed in seeds:
            line, full = run_once(wl, seed, args.seconds, 0,
                                  os.path.join(OUT, args.label, f"{wl}.seed{seed}.json"))
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in full["record"]["host"]["raw"].items():
                raw.setdefault(name, []).append(value)
            print(f"  {wl} seed {seed}: ops/s {line['metrics']['ops_per_s']['value']:.1f}",
                  file=sys.stderr)
        rows = {}
        print(f"== {wl} ({len(seeds)} seeds)")
        for name, vals in values.items():
            med, sp = spread(vals)
            bound = bounds[name]["bound"]
            rows[name] = {"values": vals, "median": med, "spread": sp, "bound": bound}
            flag = (" OVER BOUND" if sp > bound else
                    (" over bound/3" if sp > bound / 3 else ""))
            worst = max(worst, sp / bound)
            print(f"  {name:<22} median {med:<14.6g} spread {sp:7.4f}  "
                  f"bound {bound:5.3f}{flag}")
        # Not gated: the host figures before scaling to reference speed.
        for name, vals in raw.items():
            med, sp = spread(vals)
            rows[name]["unscaled"] = {"values": vals, "median": med, "spread": sp}
            print(f"  {name + ' unscaled':<22} median {med:<14.6g} spread {sp:7.4f}")
        summary["workloads"][wl] = rows
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spread-{args.label}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"worst spread / bound: {worst:.3f}  -> {path}")
    return 0 if worst <= 1.0 else 1


def cmd_compare(args: argparse.Namespace) -> int:
    spec = bench_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.first) as fh:
        first = json.load(fh)
    with open(args.second) as fh:
        second = json.load(fh)
    bad = 0
    for wl, rows in first["workloads"].items():
        for name, row in rows.items():
            other = second["workloads"].get(wl, {}).get(name)
            if other is None:
                continue
            m = metrics[name]
            a, b = row["median"], other["median"]
            worse = (b - a) / abs(a) if m["better"] == "lower" else (a - b) / abs(a)
            flag = " WORSE THAN BOUND" if worse > m["bound"] else ""
            bad += bool(flag)
            print(f"{wl:<16} {name:<22} {a:<14.6g} {b:<14.6g} "
                  f"{worse:+7.4f} (bound {m['bound']}){flag}")
    return 1 if bad else 0


def exact_view(full: Dict[str, Any]) -> Dict[str, Any]:
    """What must repeat exactly between two runs at one seed."""
    view: Dict[str, Any] = {"deterministic": full["deterministic"]}
    ledger = full.get("ledger")
    if ledger:
        view["calls"] = {k: v["calls"] for k, v in ledger["layers"].items()}
        view["extras"] = {k: v for k, v in ledger["extras"].items()
                          if k not in HOST_EXTRAS}
    return view


def cmd_determinism(args: argparse.Namespace) -> int:
    failures = 0
    for wl in args.workloads:
        for trace in (0, 1):
            views = []
            for rep in (1, 2):
                _, full = run_once(
                    wl, args.seed, args.seconds, trace,
                    os.path.join(OUT, "determinism", f"r{rep}",
                                 f"{wl}.seed{args.seed}.trace{trace}.json"))
                views.append(exact_view(full))
            same = views[0] == views[1]
            failures += not same
            diff = [k for k in views[0] if views[0][k] != views[1].get(k)]
            print(f"{wl:<16} trace {trace}: "
                  f"{'identical' if same else 'DIFFERS in ' + ', '.join(diff)}")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workloads", nargs="+", required=True)
    sp.add_argument("--seeds", default="1-10")
    sp.add_argument("--seconds", type=float, default=None)
    sp.add_argument("--label", default="run")
    dt = sub.add_parser("determinism")
    dt.add_argument("--workloads", nargs="+", required=True)
    dt.add_argument("--seed", type=int, default=11)
    dt.add_argument("--seconds", type=float, default=None)
    cp = sub.add_parser("compare")
    cp.add_argument("first")
    cp.add_argument("second")
    args = ap.parse_args(argv)
    if getattr(args, "seconds", 0) is None:
        args.seconds = bench_spec()["run_seconds"]
    return {"spread": cmd_spread, "determinism": cmd_determinism,
            "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
