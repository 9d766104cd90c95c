"""The ``BENCH_faults.json`` report format.

Mirrors :mod:`repro.perf.schema`: machine-checkable with the stock
interpreter, no third-party schema library. Unlike the perf report,
there are no wall-clock numbers and no timestamps, so two back-to-back
runs of the same campaign on one host produce byte-identical files.
Only the ``environment`` block describes the host; the rest is a pure
function of the config, and :func:`deterministic_view` (the report
minus ``environment``) is what a committed baseline is checked against
across machines.

Top-level document::

    {
      "kind": "repro-faults-report",
      "schema_version": 1,
      "config":      { campaign definition, seeds, policy knobs },
      "environment": { "python": ..., "numpy": ..., "platform": ... },
      "doctor":      [ robustness findings as strings ],
      "baseline":    { fault-free run: exec_ns, stash_peak, ... },
      "cells":       [ { cell }, ... ]
    }

One cell per (fault kind, rate) pair::

    {
      "fault": "bit_flip", "rate": 0.005,
      "injected": ..., "detected": ..., "undetected": ...,
      "masked": ..., "latent": ...,        # dropped-write bookkeeping
      "detection_rate": ...,               # detected / observed
      "recovered": ..., "unrecovered": ..., "recovery_rate": ...,
      "retries": ..., "rebuilds": ..., "quarantines": ...,
      "payload_resets": ..., "stash_served": ...,
      "exec_ns": ..., "overhead_x": ...,   # vs the fault-free baseline
      "stash_peak": ...
    }

``detection_rate`` divides by *observed* faults (detected +
undetected): masked dropped writes (overwritten before any read) and
latent ones (never touched again) are excluded by construction.

A cell whose worker failed (crashed process, raised exception) is
recorded as an *error cell* instead of silently shrinking the sweep::

    { "fault": "bit_flip", "rate": 0.01, "error": "<traceback or note>" }

Error cells validate against that three-field shape only; the
``--require-detection`` CI gate treats an errored tampering cell as a
detection gap, never as a pass.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

SCHEMA_VERSION = 1
REPORT_KIND = "repro-faults-report"

_CONFIG_FIELDS = {
    "scheme": str,
    "suite": str,
    "bench": str,
    "levels": int,
    "n_requests": int,
    "warmup_requests": int,
    "seed": int,
    "kinds": list,
    "rates": list,
    "retry_budget": int,
    "backoff_base_ns": (int, float),
    "quarantine": bool,
    "integrity": bool,
    "max_outage_ops": int,
    "smoke": bool,
}

_BASELINE_FIELDS = {
    "exec_ns": (int, float),
    "stash_peak": int,
    "seals": int,
    "opens": int,
}

_CELL_FIELDS = {
    "fault": str,
    "rate": (int, float),
    "injected": int,
    "detected": int,
    "undetected": int,
    "masked": int,
    "latent": int,
    "detection_rate": (int, float),
    "recovered": int,
    "unrecovered": int,
    "recovery_rate": (int, float),
    "retries": int,
    "rebuilds": int,
    "quarantines": int,
    "payload_resets": int,
    "stash_served": int,
    "exec_ns": (int, float),
    "overhead_x": (int, float),
    "stash_peak": int,
}

_ERROR_CELL_FIELDS = {
    "fault": str,
    "rate": (int, float),
    "error": str,
}


def _check_fields(
    obj: Dict[str, Any], fields: Dict[str, Any], where: str, errors: List[str]
) -> None:
    for name, typ in fields.items():
        if name not in obj:
            errors.append(f"{where}: missing field {name!r}")
            continue
        val = obj[name]
        if typ is bool:
            ok = isinstance(val, bool)
        elif isinstance(val, bool):
            # bool subclasses int; reject it where a number is expected.
            ok = False
        else:
            ok = isinstance(val, typ)
        if not ok:
            errors.append(
                f"{where}: field {name!r} has type "
                f"{type(val).__name__}, expected {typ}"
            )


def validate_report(doc: Any) -> List[str]:
    """Validate a parsed report; returns a list of problems (empty = ok)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"report root is {type(doc).__name__}, expected object"]
    if doc.get("kind") != REPORT_KIND:
        errors.append(f"kind is {doc.get('kind')!r}, expected {REPORT_KIND!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version is {doc.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    config = doc.get("config")
    if not isinstance(config, dict):
        errors.append("config: missing or not an object")
    else:
        _check_fields(config, _CONFIG_FIELDS, "config", errors)
    env = doc.get("environment")
    if not isinstance(env, dict):
        errors.append("environment: missing or not an object")
    doctor = doc.get("doctor")
    if not isinstance(doctor, list):
        errors.append("doctor: missing or not a list")
    baseline = doc.get("baseline")
    if not isinstance(baseline, dict):
        errors.append("baseline: missing or not an object")
    else:
        _check_fields(baseline, _BASELINE_FIELDS, "baseline", errors)
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
            _check_fields(cell, _ERROR_CELL_FIELDS, where, errors)
        else:
            _check_fields(cell, _CELL_FIELDS, where, errors)
            det = cell.get("detection_rate")
            if isinstance(det, (int, float)) and not isinstance(det, bool):
                if not 0.0 <= det <= 1.0:
                    errors.append(
                        f"{where}: detection_rate must be in [0, 1], got {det}"
                    )
        key = (cell.get("fault"), cell.get("rate"))
        if key in seen:
            errors.append(f"{where}: duplicate cell {key}")
        seen.add(key)
        rate = cell.get("rate")
        if isinstance(rate, (int, float)) and not isinstance(rate, bool):
            if not 0.0 <= rate <= 1.0:
                errors.append(f"{where}: rate must be in [0, 1], got {rate}")
    return errors


def cell_key(cell: Dict[str, Any]) -> str:
    """Stable identity of one campaign cell."""
    return f"{cell['fault']}@{cell['rate']:g}"


def deterministic_view(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The report minus its host-dependent ``environment`` block."""
    return {k: v for k, v in doc.items() if k != "environment"}


def deterministic_bytes(doc: Dict[str, Any]) -> bytes:
    """Canonical serialization of :func:`deterministic_view`."""
    return json.dumps(
        deterministic_view(doc), sort_keys=True, indent=1,
    ).encode()
