"""Assemble the served-KV stack: ORAM + DRAM timing + telemetry.

Mirrors :class:`~repro.sim.engine.Simulation`'s stack construction (the
metadata-aware tree layout, the event-based DRAM model behind a
:class:`~repro.sim.engine.DramSink`) but puts an
:class:`~repro.app.kvstore.ObliviousKV` on top instead of a trace
replayer, optionally wrapping the sink in PR 5's
:class:`~repro.telemetry.spans.TracingSink` (per-operation DRAM-ns
spans) and attaching the section VI-C
:class:`~repro.core.security.GuessingAttacker` so every serve run can
report that batching left per-access indistinguishability intact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.app.kvstore import ObliviousKV
from repro.core import schemes as schemes_mod
from repro.core.ab_oram import build_oram, needs_extensions
from repro.core.security import GuessingAttacker
from repro.mem.address_map import AddressMapping
from repro.mem.dram import DramModel
from repro.mem.layout import TreeLayout
from repro.mem.timing import DDR3_1600
from repro.oram import metadata as md
from repro.oram.recovery import RobustnessConfig
from repro.sim.engine import DramSink


@dataclass
class ServedStack:
    """Everything one serving cell owns."""

    kv: ObliviousKV
    #: DramSink, or a PipelinedDramSink when built with depth > 1
    #: (both expose ``now`` and the per-op attribution counters).
    dram_sink: Any
    telemetry: Optional[Any] = None
    attacker: Optional[GuessingAttacker] = None
    #: Sealed data path + fault wrapper, present only on chaos stacks
    #: (``build_stack`` with a robustness policy / fault plan).
    datastore: Optional[Any] = None
    faulty: Optional[Any] = None

    @property
    def now_ns(self) -> float:
        return self.dram_sink.now

    def arm_faults(self) -> None:
        """Start injecting the fault plan (call after population)."""
        if self.faulty is not None:
            self.faulty.armed = True


def build_stack(
    scheme: str = "ab",
    levels: int = 10,
    seed: int = 0,
    pad_chunks: int = 1,
    telemetry: Optional[Any] = None,
    observer: bool = True,
    robustness: Optional[RobustnessConfig] = None,
    fault_plan: Optional[Any] = None,
    pipeline_depth: int = 1,
    dram_window: int = 32,
) -> ServedStack:
    """Build a timed, observable KV store over a fresh ORAM.

    The default payload path is the plaintext ``store_data`` dict:
    serving benchmarks measure scheduling and simulated memory time,
    and the sealed data path's crypto cost is host CPU the perf/faults
    harnesses already cover.

    Passing ``robustness`` (or a ``fault_plan``, which implies
    ``RobustnessConfig(integrity=True)``) builds the *chaos* variant
    instead, mirroring :class:`~repro.sim.engine.Simulation`: payloads
    route through an :class:`~repro.oram.datastore.EncryptedTreeStore`
    (ChaCha20 + MAC + Merkle) optionally wrapped in a
    :class:`~repro.faults.memory.FaultyMemory` injecting the plan's
    faults. The wrapper starts disarmed so the store can be populated
    cleanly; call :meth:`ServedStack.arm_faults` before the measured
    run. Sealed stacks cannot ``preload`` -- populate with real puts.

    ``pipeline_depth > 1`` serves on the transaction-pipelined
    controller (:mod:`repro.core.pipeline`): path reads of request k+1
    overlap the reshuffle drain of request k on a windowed DRAM model.
    Timing only -- responses are identical at every depth.
    """
    if pipeline_depth < 1:
        raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
    cfg = schemes_mod.by_name(scheme, levels)
    fields = (
        md.ab_metadata_fields(cfg) if needs_extensions(cfg)
        else md.ring_metadata_fields(cfg)
    )
    layout = TreeLayout(cfg, metadata_blocks=md.metadata_blocks(cfg, fields))
    if pipeline_depth > 1:
        from repro.core.pipeline import PipelinedDramSink
        dram = DramModel(DDR3_1600, AddressMapping(),
                         window=dram_window if dram_window > 0 else None)
        # The pipelined sink stamps its own overlapped op spans; a
        # TracingSink wrapper would re-stamp them off a serial clock
        # (mirrors Simulation's stack construction).
        dram_sink = PipelinedDramSink(
            layout, dram, depth=pipeline_depth, telemetry=telemetry
        )
        sink: Any = dram_sink
    else:
        dram_sink = DramSink(layout, DramModel(DDR3_1600, AddressMapping()))
        sink = (dram_sink if telemetry is None
                else telemetry.tracing_sink(dram_sink))
    attacker = GuessingAttacker(cfg.levels, seed=seed + 1) if observer else None
    if robustness is None and fault_plan is not None:
        robustness = RobustnessConfig(integrity=True)
    datastore = None
    faulty = None
    if robustness is not None:
        from repro.faults.memory import FaultyMemory
        from repro.oram.datastore import EncryptedTreeStore
        master_key = hashlib.sha256(
            b"repro/serve|" + str(seed).encode()
        ).digest()
        datastore = EncryptedTreeStore(
            cfg, master_key, seed=seed, with_integrity=robustness.integrity,
        )
        if fault_plan is not None:
            faulty = FaultyMemory(datastore, fault_plan, armed=False)
    oram = build_oram(
        cfg, sink=sink, seed=seed,
        observers=[attacker] if attacker is not None else [],
        store_data=datastore is None,
        datastore=faulty if faulty is not None else datastore,
        robustness=robustness,
    )
    oram.warm_fill()
    kv = ObliviousKV(oram, pad_chunks=pad_chunks)
    return ServedStack(
        kv=kv, dram_sink=dram_sink, telemetry=telemetry, attacker=attacker,
        datastore=datastore, faulty=faulty,
    )


def attacker_block(attacker: Optional[GuessingAttacker]) -> Optional[dict]:
    """The report's ``security`` block (None when no observer ran)."""
    if attacker is None or attacker.guesses == 0:
        return None
    return {
        "guesses": int(attacker.guesses),
        "success_rate": attacker.success_rate,
        "expected_rate": attacker.expected_rate,
        "advantage": attacker.advantage(),
    }


__all__: List[str] = [
    "ServedStack",
    "attacker_block",
    "build_stack",
]
