#!/usr/bin/env python
"""Require two benchmark reports to have identical deterministic views.

The serve/chaos harnesses promise their ``sim`` blocks are pure
functions of the config -- byte-identical across repeat runs and any
``--workers`` width. CI enforces that promise by running a harness
twice (e.g. serial and ``--workers 2``) and feeding both artifacts to
this checker, and by checking one run against a committed baseline
(the chaos and faults smoke gates). The checker strips the
host-dependent fields and compares the canonical JSON encodings byte
for byte. Dispatch is by the report's
``kind``: serve, chaos and scaling reports
(``repro-serve-report`` / ``repro-chaos-report`` /
``repro-scaling-report`` -- the last is the fleet capacity curve,
whose per-shard ``sim`` blocks must agree byte-for-byte between a
serial run and a ``--workers N`` fleet) reduce via
:func:`repro.serve.schema.deterministic_view`; perf-matrix reports
(``"kind": "repro-perf-report"``, including their pipelined ``@pN``
and sharded ``@sN`` cells) via
:func:`repro.perf.schema.deterministic_view`; fault-campaign reports
(``"kind": "repro-faults-report"``) via
:func:`repro.faults.schema.deterministic_view`, which drops only the
``environment`` block. An unrecognized kind is an error, not a silent
pass.

Usage: ``python tools/report_determinism.py A.json B.json`` -- exits
non-zero with the first differing path when the reports diverge.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence


def _first_divergence(a: Any, b: Any, path: str = "$") -> str:
    """A human-pointable path to the first structural difference."""
    if type(a) is not type(b):
        return f"{path}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}: present in only one report"
            if a[key] != b[key]:
                return _first_divergence(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_divergence(x, y, f"{path}[{i}]")
    return f"{path}: {a!r} != {b!r}"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs=2, metavar="REPORT",
                        help="two report JSON files to compare")
    args = parser.parse_args(argv)
    docs = []
    for path in args.reports:
        try:
            with open(path) as f:
                docs.append(json.load(f))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
    a, b = docs
    from repro.faults.schema import REPORT_KIND as FAULTS_KIND
    from repro.perf.schema import REPORT_KIND as PERF_KIND
    from repro.serve.schema import (
        CHAOS_REPORT_KIND, REPORT_KIND as SERVE_KIND, SCALING_REPORT_KIND,
    )
    if a.get("kind") != b.get("kind"):
        print(f"report kinds differ: {a.get('kind')!r} vs {b.get('kind')!r}",
              file=sys.stderr)
        return 1
    kind = a.get("kind")
    if kind == PERF_KIND:
        from repro.perf.schema import deterministic_bytes, deterministic_view
    elif kind == FAULTS_KIND:
        from repro.faults.schema import deterministic_bytes, deterministic_view
    elif kind in (SERVE_KIND, CHAOS_REPORT_KIND, SCALING_REPORT_KIND):
        from repro.serve.schema import deterministic_bytes, deterministic_view
    else:
        print(f"unrecognized report kind {kind!r}; cannot reduce to a "
              f"deterministic view", file=sys.stderr)
        return 2
    if deterministic_bytes(a) == deterministic_bytes(b):
        print(f"deterministic views identical: {args.reports[0]} == "
              f"{args.reports[1]}")
        return 0
    where = _first_divergence(deterministic_view(a), deterministic_view(b))
    print(f"deterministic views differ at {where}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
