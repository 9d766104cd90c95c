"""cProfile one perf-matrix cell (``python -m repro perf profile``).

Hot-path work on the simulator should start from data, not intuition:
this module runs exactly one (scheme, trace) cell of the perf matrix
under :mod:`cProfile` and renders the top-N functions, so "where does
the AB cell actually spend its time?" is a one-command question. The
profiled region is the simulation only -- trace generation and scheme
construction happen outside the profiler, mirroring what the timed
``perf run`` cells measure.

Profiling overhead inflates absolute times (typically 2-3x for this
workload's many small calls), so the numbers are for *ranking*
functions, never for before/after speedup claims -- use ``perf run``
wall times for those.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Dict

from repro.core import schemes as schemes_mod
from repro.sim.engine import SimConfig, Simulation
from repro.sim.runner import make_trace

#: pstats sort keys accepted by ``perf profile --sort``.
SORT_KEYS = ("cumulative", "tottime", "ncalls")


def parse_cell(spec: str) -> Dict[str, Any]:
    """Parse a ``scheme/trace[@pN]`` cell selector.

    The same key format ``repro.reports.PERF.key`` produces, so
    a cell name copied out of a report or a compare line selects that
    cell: ``ns/mcf@p4`` profiles the pipelined ns/mcf cell at depth 4.
    """
    depth = 1
    body = spec
    if "@p" in spec:
        body, _, suffix = spec.rpartition("@p")
        try:
            depth = int(suffix)
        except ValueError:
            raise ValueError(
                f"bad cell selector {spec!r}: depth suffix must be an int"
            ) from None
        if depth < 1:
            raise ValueError(
                f"bad cell selector {spec!r}: depth must be >= 1"
            )
    scheme, sep, trace = body.partition("/")
    if not sep or not scheme or not trace:
        raise ValueError(
            f"bad cell selector {spec!r}: expected scheme/trace[@pN]"
        )
    return {"scheme": scheme, "benchmark": trace, "pipeline_depth": depth}


def profile_cell(
    scheme: str = "ab",
    benchmark: str = "mcf",
    suite: str = "spec",
    levels: int = 12,
    n_requests: int = 2000,
    warmup_requests: int = 400,
    seed: int = 0,
    top_n: int = 30,
    sort: str = "cumulative",
    pipeline_depth: int = 1,
) -> Dict[str, Any]:
    """Profile one matrix cell; returns the report text plus metadata.

    The defaults profile the AB/mcf cell of the full matrix -- the
    scheme the paper's headline numbers come from and historically the
    slowest one simulated. ``pipeline_depth > 1`` profiles the cell on
    the pipelined controller (same knob as the perf matrix's ``@pN``
    cells).
    """
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")
    cfg = schemes_mod.by_name(scheme, levels)
    trace = make_trace(suite, benchmark, cfg.n_real_blocks, n_requests,
                       seed=seed)
    sim = Simulation(
        cfg, trace,
        SimConfig(
            seed=seed,
            warmup_requests=warmup_requests,
            pipeline_depth=pipeline_depth,
        ),
    )
    profiler = cProfile.Profile()
    profiler.enable()
    result = sim.run()
    profiler.disable()

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats(sort).print_stats(top_n)
    depth_note = (
        f" pipeline_depth={pipeline_depth}" if pipeline_depth > 1 else ""
    )
    header = (
        f"perf profile: scheme={scheme} trace={suite}/{benchmark} "
        f"levels={levels} requests={n_requests} "
        f"warmup={warmup_requests} seed={seed}{depth_note}\n"
        f"sim check: exec_ns={result.exec_ns!r} "
        f"stash_peak={int(result.stash_peak)} "
        f"dead_blocks={int(result.dead_blocks)}\n"
        "(absolute times include profiler overhead; use them to rank "
        "functions, not to claim speedups)\n\n"
    )
    return {
        "scheme": scheme,
        "trace": benchmark,
        "suite": suite,
        "levels": levels,
        "n_requests": n_requests,
        "warmup_requests": warmup_requests,
        "seed": seed,
        "sort": sort,
        "top_n": top_n,
        "pipeline_depth": pipeline_depth,
        "exec_ns": result.exec_ns,
        "text": header + buf.getvalue(),
    }
