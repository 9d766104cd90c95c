"""Performance-tracking harness (``python -m repro perf``).

This package turns the simulator into its own benchmark subject: a
fixed, seed-pinned matrix of (scheme x trace) cells is replayed through
:func:`repro.sim.runner.run_suite`, and each cell's wall time,
throughput (accesses/sec) and deterministic simulation metrics are
written to a machine-readable JSON report (``BENCH_perf.json``).

- :mod:`repro.perf.runner` runs the matrix (full or ``--smoke``);
- :mod:`repro.perf.profile` profiles one cell;
- :mod:`repro.reports` declares the report format (kind
  ``repro-perf-report``), validates and renders it, and diffs two
  reports, failing on throughput regressions beyond a threshold (the
  CI gate).

Simulation metrics (``cells[*].sim``) are bit-deterministic for a given
(code version, config, seed); wall-clock metrics (``wall_s``,
``accesses_per_s``) vary with the host. Comparisons therefore treat
only throughput as a gate and the ``sim`` block as an identity check.
"""

from repro.perf.profile import profile_cell
from repro.perf.runner import PerfConfig, full_config, run_perf, smoke_config

__all__ = [
    "PerfConfig",
    "full_config",
    "profile_cell",
    "run_perf",
    "smoke_config",
]
