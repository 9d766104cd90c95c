#!/usr/bin/env python
"""Require two benchmark reports to have identical deterministic views.

Every harness report's deterministic view -- the report minus its
``environment`` block and its kind's host-dependent cell fields
(:func:`repro.reports.deterministic_view`) -- is a pure function of the
config: byte-identical across repeat runs, hosts and any ``--workers``
width. The smoke gates run a harness twice (serial and ``--workers 2``)
and feed both reports to this checker, and check one run against its
committed baseline. Works for every kind :mod:`repro.reports` declares
(perf, faults, serve, chaos, scaling); reports of different kinds, or
of a kind it does not declare, are an error, never a silent pass.

Usage: ``python tools/report_determinism.py A.json B.json`` -- exits
0 when the views match, 1 with the first differing path when they
diverge, 2 when a report cannot be read or has an unknown kind.
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
        except (OSError, ValueError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
    a, b = docs
    from repro.reports import deterministic_bytes, deterministic_view, kind_of

    try:
        kinds = [kind_of(doc).kind for doc in docs]
    except ValueError as exc:
        print(f"cannot reduce to a deterministic view: {exc}", file=sys.stderr)
        return 2
    if kinds[0] != kinds[1]:
        print(f"report kinds differ: {kinds[0]!r} vs {kinds[1]!r}",
              file=sys.stderr)
        return 1
    if deterministic_bytes(a) == deterministic_bytes(b):
        print(f"deterministic views identical: {args.reports[0]} == "
              f"{args.reports[1]}")
        return 0
    where = _first_divergence(deterministic_view(a), deterministic_view(b))
    print(f"deterministic views differ at {where}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
