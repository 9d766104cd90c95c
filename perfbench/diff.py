"""Layer diff: explain an end-to-end change layer by layer, both clocks.

    python3 perfbench/diff.py BASE NEW

``BASE`` and ``NEW`` are result files written by ``perfbench/run.py``
or directories of them (``.perfbench_out/`` of two checkouts). For each
workload present on both sides it prints the end-to-end deltas on the
host and simulated clocks, then every layer's host time per operation
ranked by its contribution to the change in host time per operation
(``1 / ops_per_s``), then the exact count deltas.

A layer's untraced time per operation is its share of the traced run
times the untraced time per operation, so contributions add up to the
end-to-end change (the uncovered share takes the rest) even though the
traced run itself is slower.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

#: Host-dependent entries of a traced run's extras: excluded from the
#: exact comparison.
HOST_EXTRAS = ("parallel.pool.efficiency",)


def load(path: str) -> List[Dict[str, Any]]:
    """Every result in ``path`` (a file, or a directory of files)."""
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    else:
        files = [path]
    out = []
    for name in files:
        with open(name) as fh:
            doc = json.load(fh)
        if "workload" in doc:   # skip prove.py summaries
            out.append(doc)
    return out


def summarize(results: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per workload: median end-to-end metrics, per-op layer shares and
    counts (median over seeds), and the deterministic blocks by seed."""
    by_wl: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    for r in results:
        side = by_wl.setdefault(r["workload"], {"plain": [], "traced": []})
        side["traced" if r["trace"] else "plain"].append(r)
    out: Dict[str, Dict[str, Any]] = {}
    for wl, side in by_wl.items():
        e2e_src = side["plain"] or side["traced"]
        e2e = {
            name: statistics.median(r["end_to_end"][name]["value"] for r in e2e_src)
            for name in e2e_src[0]["end_to_end"]
        }
        layers: Dict[str, Dict[str, float]] = {}
        counts: Dict[str, float] = {}
        if side["traced"]:
            ledgers = [r["ledger"] for r in side["traced"]]
            for name in ledgers[0]["layers"]:
                layers[name] = {
                    "share": statistics.median(lg["layers"][name]["share"] for lg in ledgers),
                    "calls_per_op": statistics.median(
                        lg["layers"][name]["calls"] / lg["ops"] for lg in ledgers),
                }
            layers["(uncovered)"] = {
                "share": statistics.median(lg["uncovered_share"] for lg in ledgers),
                "calls_per_op": 0.0,
            }
            for name in ledgers[0]["extras"]:
                counts[name] = statistics.median(lg["extras"][name] for lg in ledgers)
        out[wl] = {
            "e2e": e2e, "layers": layers, "counts": counts,
            "deterministic": {
                (r["seed"], r["trace"]): r["deterministic"]
                for r in side["plain"] + side["traced"]
            },
        }
    return out


def _pct(new: float, old: float) -> str:
    if old == 0:
        return "   n/a" if new == 0 else "   new"
    return f"{(new - old) / abs(old) * 100:+6.1f}%"


def report(base: Dict[str, Any], new: Dict[str, Any], out: Any = sys.stdout) -> None:
    for wl in sorted(set(base) & set(new)):
        a, b = base[wl], new[wl]
        print(f"== {wl}", file=out)
        print("  end to end (median over runs)", file=out)
        for name in a["e2e"]:
            va, vb = a["e2e"][name], b["e2e"].get(name, float("nan"))
            print(f"    {name:<22} {va:>14.6g} -> {vb:<14.6g} {_pct(vb, va)}",
                  file=out)
        same = [k for k in a["deterministic"] if k in b["deterministic"]]
        if same:
            moved = [k for k in same if a["deterministic"][k] != b["deterministic"][k]]
            print(f"  deterministic blocks: {len(same) - len(moved)} of "
                  f"{len(same)} shared (seed, trace) runs identical", file=out)
        if a["layers"] and b["layers"]:
            ta = 1e6 / a["e2e"]["ops_per_s"]
            tb = 1e6 / b["e2e"]["ops_per_s"]
            delta = tb - ta
            print(f"  host us/op {ta:.2f} -> {tb:.2f} ({delta:+.2f}); "
                  f"layers ranked by contribution", file=out)
            rows = []
            for name in a["layers"]:
                la, lb = a["layers"][name], b["layers"].get(name, {"share": 0.0, "calls_per_op": 0.0})
                ua, ub = la["share"] * ta, lb["share"] * tb
                rows.append((ub - ua, name, ua, ub, la["calls_per_op"], lb["calls_per_op"]))
            rows.sort(key=lambda r: -abs(r[0]))
            for d, name, ua, ub, ca, cb in rows:
                if ua == 0 and ub == 0:
                    continue
                share = f"{d / delta * 100:+7.1f}%" if delta else "      -"
                print(f"    {name:<18} {ua:9.2f} -> {ub:9.2f} us/op  "
                      f"{d:+8.2f} ({share} of change)  calls/op "
                      f"{ca:8.2f} -> {cb:8.2f}", file=out)
            print("  exact counts over the traced window", file=out)
            for name, va in a["counts"].items():
                if name in HOST_EXTRAS:
                    continue
                vb = b["counts"].get(name, float("nan"))
                mark = "" if va == vb else "  *"
                print(f"    {name:<36} {va:>12.6g} -> {vb:<12.6g}{mark}", file=out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="Layer diff of two result sets")
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    base, new = summarize(load(args.base)), summarize(load(args.new))
    if not set(base) & set(new):
        print("no workload in common", file=sys.stderr)
        return 2
    report(base, new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
