"""Tests for the transaction pipeline (repro.core.pipeline).

The pipeline's contract has three legs, each tested here:

1. Depth 1 is *bit-identical* to the serial controller -- including
   against the committed ``BENCH_perf_smoke.json`` golden sim blocks.
2. Any depth produces *identical logical results* (protocol counters,
   final stash, final position map); only timing-derived fields move.
3. The windowed DRAM model underneath (interval-ledger bus and bank
   placement, admission window) keeps its own invariants.
"""

import dataclasses
import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import schemes
from repro.mem.address_map import AddressMapping
from repro.mem.dram import DramModel
from repro.mem.timing import DDR3_1600
from repro.perf.profile import parse_cell
from repro.reports import (
    PERF,
    deterministic_bytes,
    deterministic_view,
    validate_report,
)
from repro.sim.engine import SimConfig, Simulation
from repro.traces.spec import spec_trace

BASELINE = os.path.join(
    os.path.dirname(__file__), os.pardir,
    "benchmarks", "baselines", "BENCH_perf_smoke.json",
)

#: SimResult scalar fields that depend on *when* DRAM traffic lands;
#: everything else must be depth-invariant.
TIMING_ATTRS = frozenset((
    "exec_ns", "ns_per_access", "row_hit_rate", "bandwidth_gbps",
))


def _run(scheme="ns", levels=8, requests=200, warmup=40, seed=0, depth=1):
    cfg = schemes.by_name(scheme, levels)
    trace = spec_trace("mcf", cfg.n_real_blocks, requests, seed=seed)
    sim = Simulation(cfg, trace, SimConfig(
        seed=seed, warmup_requests=warmup, pipeline_depth=depth,
    ))
    result = sim.run()
    return sim, result


def _logical_fields(result):
    """SimResult numeric fields minus the timing-derived ones."""
    out = {}
    for name in dir(result):
        if name.startswith("_") or name in TIMING_ATTRS:
            continue
        value = getattr(result, name)
        if callable(value):
            continue
        if isinstance(value, (dict, list)):
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # Timing-scalar aggregates (ns totals) also move with depth.
            if name.endswith("_ns") or name.endswith("_s"):
                continue
            out[name] = value
    return out


def _oram_state(sim):
    """Final protocol state: stash content and position map."""
    stash = sorted(sim.oram.stash.blocks())
    posmap = sim.oram.posmap._leaf.tolist()
    return stash, posmap


class TestLogicalIdentity:
    def test_depths_agree_with_serial(self):
        base_sim, base = _run(depth=1)
        base_fields = _logical_fields(base)
        base_state = _oram_state(base_sim)
        assert base_fields, "no logical fields extracted"
        for depth in (2, 4, 8):
            sim, result = _run(depth=depth)
            assert _logical_fields(result) == base_fields, f"depth {depth}"
            assert _oram_state(sim) == base_state, f"depth {depth}"

    def test_pipelining_reduces_exec_ns(self):
        # A reshuffle-heavy ns run must get faster, not just stay legal.
        _, serial = _run(requests=300, warmup=50, depth=1)
        _, piped = _run(requests=300, warmup=50, depth=4)
        assert piped.exec_ns < serial.exec_ns

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(depth=st.integers(2, 8),
           seed=st.integers(0, 3),
           scheme=st.sampled_from(["ns", "ring", "ab"]))
    def test_any_depth_matches_serial_reference(self, depth, seed, scheme):
        ref_sim, ref = _run(scheme=scheme, levels=7, requests=120,
                            warmup=20, seed=seed, depth=1)
        sim, result = _run(scheme=scheme, levels=7, requests=120,
                           warmup=20, seed=seed, depth=depth)
        assert _logical_fields(result) == _logical_fields(ref)
        assert _oram_state(sim) == _oram_state(ref_sim)
        assert result.stash_peak == ref.stash_peak

    def test_depth_one_is_serial_sink(self):
        sim, _ = _run(depth=1)
        from repro.sim.engine import DramSink
        assert type(sim.dram_sink) is DramSink

    def test_bad_depth_rejected(self):
        cfg = schemes.by_name("ns", 7)
        trace = spec_trace("mcf", cfg.n_real_blocks, 10, seed=0)
        with pytest.raises(ValueError, match="pipeline_depth"):
            Simulation(cfg, trace, SimConfig(pipeline_depth=0))


class TestGoldenBitIdentity:
    @pytest.fixture(scope="class")
    def baseline(self):
        with open(BASELINE) as f:
            return json.load(f)

    def test_baseline_validates(self, baseline):
        assert validate_report(baseline) == []

    def test_baseline_has_pipeline_cell(self, baseline):
        keys = {PERF.key(c) for c in baseline["cells"]}
        assert "ns/mcf@p4" in keys and "ns/mcf" in keys

    def test_depth1_bit_identical_to_golden_cells(self, baseline):
        """Re-simulating every serial golden cell reproduces its sim
        block exactly -- the pipeline work must not perturb depth 1."""
        from repro.perf.runner import _run_one_cell, _sim_block, smoke_config
        cfg = smoke_config()
        config = baseline["config"]
        assert config["levels"] == cfg.levels
        assert config["n_requests"] == cfg.n_requests
        for cell in baseline["cells"]:
            if (cell.get("pipeline_depth", 1) > 1
                    or cell.get("shards", 1) > 1):
                # Sharded cells have their own byte-identity tests in
                # tests/test_sharding.py.
                continue
            _, result = _run_one_cell(cfg, cell["scheme"], cell["trace"])
            assert _sim_block(result) == cell["sim"], PERF.key(cell)

    def test_pipelined_golden_cell_reproduces(self, baseline):
        from repro.perf.runner import _run_one_cell, _sim_block, smoke_config
        cell = next(c for c in baseline["cells"]
                    if PERF.key(c) == "ns/mcf@p4")
        _, result = _run_one_cell(smoke_config(), "ns", "mcf", depth=4)
        assert _sim_block(result) == cell["sim"]

    def test_golden_speedup_gate(self, baseline):
        cells = {PERF.key(c): c for c in baseline["cells"]}
        serial = cells["ns/mcf"]["sim"]["exec_ns"]
        piped = cells["ns/mcf@p4"]["sim"]["exec_ns"]
        assert serial / piped >= 1.5


class _LinearScanDram(DramModel):
    """Reference model: ``DramModel`` with the linear-scan placers.

    ``_bus_place`` and ``_bank_place`` below are the two placers the
    model used before the shared, dead-prefix-skipping ``_place``,
    copied verbatim: each walks its whole ledger from the oldest
    interval.
    ``_place`` only dispatches to them, so every call site (``access``,
    ``access_batch``, ``access_repeat``) is shared with the real model
    and any difference comes from placement alone.
    """

    def _place(self, busy, floors, key, ready, span, write, pad, cap):
        if write is None:
            return self._bank_place(key, ready, span)
        return self._bus_place(key, ready, span, write)

    def _bus_place(
        self, channel: int, ready: float, span: float, write: bool
    ) -> float:
        """Reserve ``span`` ns of bus time at the earliest free slot.

        Returns the burst start: the earliest time >= ``ready`` such
        that ``[start, start + span)`` overlaps no committed interval,
        keeps direction-turnaround spacing from opposite-direction
        neighbours (tWTR after a write, tRTW after a read -- the same
        charges the unwindowed frontier applies on a flip) and lies
        past the channel floor. The interval is inserted (coalescing
        with touching same-direction neighbours) so later placements
        see it; when the ledger exceeds its bound the oldest interval
        retires into the floor.
        """
        busy = self._busy[channel]
        t_wtr = self._t_wtr
        t_rtw = self._t_rtw
        t = self._busy_floor[channel]
        if ready > t:
            t = ready
        idx = len(busy)
        for i, iv in enumerate(busy):
            w = iv[2]
            if w == write:
                lead = 0.0
                trail = 0.0
            elif w:
                # Neighbour writes: we read. us->iv needs tRTW,
                # iv->us needs tWTR.
                lead = t_rtw
                trail = t_wtr
            else:
                lead = t_wtr
                trail = t_rtw
            if t + span + lead <= iv[0]:
                idx = i
                break
            after = iv[1] + trail
            if after > t:
                t = after
        if idx < len(busy):
            # Placed ahead of an already-committed later burst: the
            # out-of-order interleave the pipelined controller exists
            # to exploit.
            self.stats.backfills += 1
        end = t + span
        prev_touch = (
            idx > 0 and busy[idx - 1][2] == write and busy[idx - 1][1] >= t
        )
        next_touch = (
            idx < len(busy) and busy[idx][2] == write and busy[idx][0] <= end
        )
        if prev_touch and next_touch:
            busy[idx - 1][1] = busy[idx][1]
            del busy[idx]
        elif prev_touch:
            busy[idx - 1][1] = end
        elif next_touch:
            busy[idx][0] = t
        else:
            busy.insert(idx, [t, end, write])
        if len(busy) > self._busy_cap:
            oldest = busy.pop(0)
            guard = oldest[1] + self._bus_pad
            if guard > self._busy_floor[channel]:
                self._busy_floor[channel] = guard
        return t

    def _bank_place(self, bank_idx: int, earliest: float, span: float) -> float:
        """Reserve ``span`` ns of bank time at the earliest free slot.

        Same bounded-ledger scheme as :meth:`_bus_place` but per bank
        and without direction spacing -- a bank hold already includes
        its own recovery time.
        """
        busy = self._bank_iv[bank_idx]
        t = self._bank_floor[bank_idx]
        if earliest > t:
            t = earliest
        idx = len(busy)
        for i, iv in enumerate(busy):
            if t + span <= iv[0]:
                idx = i
                break
            if iv[1] > t:
                t = iv[1]
        end = t + span
        prev_touch = idx > 0 and busy[idx - 1][1] >= t
        next_touch = idx < len(busy) and busy[idx][0] <= end
        if prev_touch and next_touch:
            busy[idx - 1][1] = busy[idx][1]
            del busy[idx]
        elif prev_touch:
            busy[idx - 1][1] = end
        elif next_touch:
            busy[idx][0] = t
        else:
            busy.insert(idx, [t, end])
        if len(busy) > self._bank_cap:
            oldest = busy.pop(0)
            if oldest[1] > self._bank_floor[bank_idx]:
                self._bank_floor[bank_idx] = oldest[1]
        return t


#: Two channels of two banks: enough requests land on each ledger to
#: fill the 64-interval bus and 16-interval bank caps and raise floors.
_ORACLE_MAP = AddressMapping(n_channels=2, n_banks=2)

#: Arrival steps: zero, tiny (on and off the DDR3-1600 1.25 ns grid,
#: so ``end + pad == t`` ties happen exactly), one turnaround pad,
#: backward jumps (overlapped stages issue out of time order) and an
#: idle stretch that crosses refresh epochs.
_STEPS = (0.0, 0.0, 0.0, 0.001, 0.25, 1.25, 2.5, 5.0, 7.5, 13.75,
          -7.5, -60.0, 400.0)


def _oracle_addr(channel, bank, row, col):
    m = _ORACLE_MAP
    line = ((row * m.n_banks + bank) * m.lines_per_row + col)
    return (line * m.n_channels + channel) * m.line_bytes


_ADDRS = st.builds(_oracle_addr, st.integers(0, 1), st.integers(0, 1),
                   st.integers(0, 2), st.integers(0, 3))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("access"), _ADDRS, st.booleans(),
              st.sampled_from(_STEPS)),
    st.tuples(st.just("batch"), st.lists(_ADDRS, min_size=1, max_size=6),
              st.booleans(), st.sampled_from(_STEPS)),
    st.tuples(st.just("repeat"), st.tuples(_ADDRS, st.integers(1, 4)),
              st.booleans(), st.sampled_from(_STEPS)),
), min_size=1, max_size=250)


def _random_ops(rng, n):
    """A seeded stream drawn like ``_OPS``, for fixed-coverage runs."""
    def addr():
        return _oracle_addr(rng.randrange(2), rng.randrange(2),
                            rng.randrange(3), rng.randrange(4))
    ops = []
    for _ in range(n):
        kind = rng.choice(("access", "batch", "repeat"))
        if kind == "access":
            arg = addr()
        elif kind == "batch":
            arg = [addr() for _ in range(rng.randint(1, 6))]
        else:
            arg = (addr(), rng.randint(1, 4))
        ops.append((kind, arg, rng.random() < 0.5, rng.choice(_STEPS)))
    return ops


def _drive(models, ops):
    """Feed one op stream to every model; yield each step's results."""
    now = 0.0
    for kind, arg, write, step in ops:
        now = max(0.0, now + step)
        if kind == "access":
            yield [m.access(arg, write, now) for m in models]
        elif kind == "batch":
            yield [m.access_batch(arg, write, now) for m in models]
        else:
            yield [m.access_repeat(arg[0], arg[1], write, now)
                   for m in models]


def _bits(x):
    """Floats as hex strings, recursively: equality is bit equality."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


def _dram_state(m):
    """Every piece of mutable model state, bank ledgers as (start, end)."""
    return _bits([
        dataclasses.astuple(m.stats), m._busy,
        [[iv[:2] for iv in ivs] for ivs in m._bank_iv],
        m._busy_floor, m._bank_floor, m._bank_ready, m._bus_free,
        m._open_row, m._last_activate, m._refresh_epoch, m._win_q,
        m.channel_busy_ns, m.bank_busy_ns,
    ])


def _assert_ledgers_sorted(m):
    """The dead-prefix skip's precondition: sorted, disjoint intervals
    with monotone ends, on every bus and bank ledger."""
    for ivs in m._busy + m._bank_iv:
        for prev, cur in zip(ivs, ivs[1:]):
            assert prev[0] < prev[1] <= cur[0] < cur[1], ivs


class _TieCountingDram(DramModel):
    """Counts placements whose lower bound equals some ``end + pad``."""

    bus_ties = 0
    bank_ties = 0

    def _place(self, busy, floors, key, ready, span, write, pad, cap):
        t = floors[key] if floors[key] > ready else ready
        if any(iv[1] + pad == t for iv in busy):
            if write is None:
                self.bank_ties += 1
            else:
                self.bus_ties += 1
        return super()._place(busy, floors, key, ready, span, write, pad,
                              cap)


class TestWindowedDram:
    def _model(self, window=8):
        return DramModel(DDR3_1600, AddressMapping(), window=window)

    @staticmethod
    def _bus_place(m, ready, span, write, channel=0):
        return m._place(m._busy[channel], m._busy_floor, channel, ready,
                        span, write, m._bus_pad, m._busy_cap)

    def test_legacy_mode_unchanged_by_window_none(self):
        a = DramModel(DDR3_1600, AddressMapping())
        b = DramModel(DDR3_1600, AddressMapping(), window=None)
        for i in range(200):
            addr = (i * 4096 + (i % 3) * 64) % (1 << 22)
            assert (a.access(addr, i % 2 == 0, i * 10.0)
                    == b.access(addr, i % 2 == 0, i * 10.0))
        assert a.stats.row_hits == b.stats.row_hits

    def test_same_direction_bursts_pack(self):
        m = self._model()
        burst = DDR3_1600.burst_ns
        s0 = self._bus_place(m, 0.0, burst, False)
        s1 = self._bus_place(m, 0.0, burst, False)
        # Same direction: back-to-back, no turnaround spacing.
        assert s1 == pytest.approx(s0 + burst)

    def test_direction_turnaround_spacing(self):
        m = self._model()
        burst = DDR3_1600.burst_ns
        s0 = self._bus_place(m, 0.0, burst, True)
        s1 = self._bus_place(m, 0.0, burst, False)
        # A read after a write waits out the write-to-read turnaround.
        assert s1 >= s0 + burst + DDR3_1600.t_wtr

    def test_backfill_into_gap(self):
        m = self._model()
        burst = DDR3_1600.burst_ns
        self._bus_place(m, 100.0, burst, False)
        before = m.stats.backfills
        s = self._bus_place(m, 0.0, burst, False)
        # The earlier-arriving burst lands in the gap before 100ns.
        assert s + burst <= 100.0
        assert m.stats.backfills == before + 1

    def test_bus_placement_is_disjoint(self):
        m = self._model()
        # Hammer one channel with mixed reads/writes at equal arrival.
        for i in range(64):
            m.access((i % 16) * 64, i % 3 == 0, 0.0)
        for busy in m._busy:
            for prev, cur in zip(busy, busy[1:]):
                assert prev[1] <= cur[0], "bus intervals overlap"

    def test_bank_placement_is_disjoint(self):
        m = self._model()
        for i in range(64):
            m.access(i * 64, False, float(i % 5))
        for ivs in m._bank_iv:
            for prev, cur in zip(ivs, ivs[1:]):
                assert prev[1] <= cur[0], "bank intervals overlap"

    def test_backfill_counted(self):
        m = self._model()
        m.access(0, False, 0.0)       # opens bank 0, row 0
        m.access(256, False, 5000.0)  # same channel, bank 1, far future
        # An early row hit on bank 0 lands on the bus *before* the
        # already-committed 5000ns burst: an out-of-order backfill.
        done = m.access(0, False, 100.0)
        assert done < 5000.0
        assert m.stats.backfills >= 1

    def test_window_admission_delays_when_full(self):
        m = self._model(window=2)
        # Saturate one channel's window with concurrent arrivals.
        comps = [m.access((i % 8) * 64, False, 0.0) for i in range(12)]
        assert m.stats.queue_depth_peak <= 2
        assert comps == sorted(comps)

    def test_queue_depth_sampled(self):
        m = self._model(window=16)
        for i in range(32):
            m.access((i % 8) * 64, False, 0.0)
        assert m.stats.queue_depth_peak >= 1
        assert m.stats.queue_depth_mean > 0

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS, window=st.sampled_from([1, 4, 32]))
    def test_placer_matches_linear_scan_reference(self, ops, window):
        """The dead-prefix-skipping placer is bit-identical to the
        linear scan through ``access``, ``access_batch`` and
        ``access_repeat``."""
        new = DramModel(DDR3_1600, _ORACLE_MAP, window=window)
        ref = _LinearScanDram(DDR3_1600, _ORACLE_MAP, window=window)
        for got, want in _drive((new, ref), ops):
            assert _bits(got) == _bits(want)
            _assert_ledgers_sorted(new)
            assert _dram_state(new) == _dram_state(ref)
        assert all(iv[2] is None for ivs in new._bank_iv for iv in ivs)

    def test_placer_oracle_covers_caps_floors_and_ties(self):
        """A long seeded stream fills both caps, raises every floor and
        hits exact ``end + pad == t`` ties on both ledgers -- and still
        matches the linear-scan reference bit for bit."""
        new = _TieCountingDram(DDR3_1600, _ORACLE_MAP, window=32)
        ref = _LinearScanDram(DDR3_1600, _ORACLE_MAP, window=32)
        for got, want in _drive((new, ref), _random_ops(random.Random(7),
                                                        3000)):
            assert _bits(got) == _bits(want)
        _assert_ledgers_sorted(new)
        assert _dram_state(new) == _dram_state(ref)
        assert all(len(ivs) == new._busy_cap for ivs in new._busy)
        assert all(f > 0.0 for f in new._busy_floor + new._bank_floor)
        assert new.bus_ties > 0 and new.bank_ties > 0
        assert new.stats.backfills > 0 and new.stats.refreshes > 0

    @pytest.mark.xfail(strict=True, reason=(
        "known fidelity defect: windowed placement reads only the bank "
        "ledgers, so the tRFC stall _apply_refresh writes to _bank_ready "
        "is never paid"))
    def test_windowed_refresh_pays_trfc(self):
        t = DDR3_1600.t_refi + 1
        for window in (None, 32):
            m = DramModel(DDR3_1600, AddressMapping(), window=window)
            m.access(0, False, 0.0)
            # The refresh closes the row and stalls the bank until
            # t_refi + t_rfc; the serial model charges it (395.25 ns).
            assert (m.access(0, False, t)
                    >= DDR3_1600.t_refi + DDR3_1600.t_rfc), window


class TestTelemetryMetrics:
    def test_dram_and_pipeline_gauges(self, tmp_path):
        from repro.telemetry.handle import Telemetry
        cfg = schemes.by_name("ns", 8)
        trace = spec_trace("mcf", cfg.n_real_blocks, 150, seed=0)
        stream = str(tmp_path / "metrics.jsonl")
        tel = Telemetry(metrics_path=stream, metrics_every=50)
        sim = Simulation(cfg, trace, SimConfig(
            seed=0, warmup_requests=30, pipeline_depth=4,
        ), telemetry=tel)
        sim.run()
        tel.close()
        snap = tel.registry.snapshot()
        gauges = snap["gauges"]
        assert any(k.startswith("dram.channel_busy_ns") for k in gauges)
        assert "dram.queue_depth_peak" in gauges
        assert "dram.bank_busy_peak_ns" in gauges
        assert gauges["pipeline.depth"]["value"] == 4
        assert gauges["pipeline.inflight_peak"]["max"] >= 2
        assert 0.0 < gauges["pipeline.dram_busy_frac"]["value"] <= 1.0
        # The stream's snapshot records carry the same blocks.
        with open(stream) as f:
            records = [json.loads(line) for line in f]
        snaps = [r for r in records if r.get("type") == "snapshot"]
        assert snaps and "dram" in snaps[-1] and "pipeline" in snaps[-1]
        # And the text view renders the new rows.
        from repro.telemetry.view import render_stream
        text = render_stream(stream)
        assert "dram.queue_depth" in text
        assert "pipeline.inflight" in text

    def test_serial_run_has_no_pipeline_block(self, tmp_path):
        from repro.telemetry.handle import Telemetry
        cfg = schemes.by_name("ring", 7)
        trace = spec_trace("mcf", cfg.n_real_blocks, 60, seed=0)
        stream = str(tmp_path / "serial.jsonl")
        tel = Telemetry(metrics_path=stream, metrics_every=20)
        sim = Simulation(cfg, trace, SimConfig(seed=0), telemetry=tel)
        sim.run()
        tel.close()
        with open(stream) as f:
            snaps = [json.loads(line) for line in f
                     if '"snapshot"' in line]
        assert snaps
        assert all("pipeline" not in s for s in snaps)


class TestSchema:
    def _cell(self, scheme="ns", trace="mcf", depth=None):
        sim = {
            "exec_ns": 1.0, "ns_per_access": 1.0, "stash_peak": 1,
            "reshuffles_total": 0, "reshuffles_by_level": [],
            "dram_reads": 0, "dram_writes": 0, "row_hit_rate": 0.5,
            "online_accesses": 1, "background_accesses": 0,
            "evictions": 0, "dead_blocks": 0, "remote_accesses": 0,
        }
        cell = {"scheme": scheme, "trace": trace, "wall_s": 0.1,
                "accesses_per_s": 10.0, "sim": sim}
        if depth is not None:
            cell["pipeline_depth"] = depth
        return cell

    def _doc(self, cells):
        return {
            "kind": "repro-perf-report", "schema_version": 1,
            "config": {
                "schemes": ["ns"], "benchmarks": ["mcf"], "suite": "spec",
                "levels": 8, "n_requests": 10, "warmup_requests": 2,
                "seed": 0, "repeats": 1, "smoke": True,
            },
            "environment": {"python": "x"},
            "cells": cells,
        }

    def test_wall_ratio_gate(self, tmp_path, capsys):
        """``check_pipeline.py --max-wall-ratio`` compares a pipelined
        cell's wall_s with its serial twin's from the same report."""
        import importlib.util
        tool = os.path.join(os.path.dirname(__file__), os.pardir,
                            "tools", "check_pipeline.py")
        spec = importlib.util.spec_from_file_location("check_pipe", tool)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        piped = self._cell(depth=4)
        piped["sim"]["exec_ns"] = 0.5
        piped["wall_s"] = 0.25
        path = tmp_path / "report.json"
        path.write_text(json.dumps(self._doc([self._cell(), piped])))
        assert mod.main([str(path)]) == 0
        assert mod.main([str(path), "--max-wall-ratio", "3.0"]) == 0
        assert mod.main([str(path), "--max-wall-ratio", "2.0"]) == 1
        assert "ratio 2.50x" in capsys.readouterr().out

    def test_cell_key_depth_suffix(self):
        assert PERF.key(self._cell()) == "ns/mcf"
        assert PERF.key(self._cell(depth=1)) == "ns/mcf"
        assert PERF.key(self._cell(depth=4)) == "ns/mcf@p4"

    def test_pipelined_twin_not_duplicate(self):
        doc = self._doc([self._cell(), self._cell(depth=4)])
        assert validate_report(doc) == []

    def test_same_depth_twice_is_duplicate(self):
        doc = self._doc([self._cell(depth=4), self._cell(depth=4)])
        assert any("duplicate" in e for e in validate_report(doc))

    def test_bad_depth_flagged(self):
        for bad in (0, -1, True, 2.5, "4"):
            doc = self._doc([self._cell()])
            doc["cells"][0]["pipeline_depth"] = bad
            assert any("pipeline_depth" in e for e in validate_report(doc)), bad

    def test_pipeline_cells_config_type_checked(self):
        doc = self._doc([self._cell()])
        doc["config"]["pipeline_cells"] = "ns/mcf@p4"
        assert any("pipeline_cells" in e for e in validate_report(doc))
        doc["config"]["pipeline_cells"] = [["ns", "mcf", 4]]
        assert validate_report(doc) == []

    def test_deterministic_view_strips_host_fields(self):
        doc = self._doc([self._cell(depth=4)])
        view = deterministic_view(doc)
        assert "environment" not in view
        assert all("wall_s" not in c and "accesses_per_s" not in c
                   for c in view["cells"])
        assert view["cells"][0]["pipeline_depth"] == 4
        # Byte-stable across wall-time changes.
        doc2 = self._doc([self._cell(depth=4)])
        doc2["cells"][0]["wall_s"] = 99.0
        doc2["environment"] = {"python": "y"}
        assert deterministic_bytes(doc) == deterministic_bytes(doc2)

    def test_parse_cell(self):
        assert parse_cell("ns/mcf") == {
            "scheme": "ns", "benchmark": "mcf", "pipeline_depth": 1}
        assert parse_cell("ns/mcf@p4") == {
            "scheme": "ns", "benchmark": "mcf", "pipeline_depth": 4}
        for bad in ("nsmcf", "ns/", "/mcf", "ns/mcf@px", "ns/mcf@p0"):
            with pytest.raises(ValueError):
                parse_cell(bad)


class TestServeStack:
    def test_pipelined_stack_serves_identically(self):
        from repro.serve.stack import build_stack
        serial = build_stack(scheme="ns", levels=7, seed=0)
        piped = build_stack(scheme="ns", levels=7, seed=0, pipeline_depth=4)
        items = [(f"k{i}".encode(), f"value-{i}".encode()) for i in range(8)]
        for k, v in items:
            serial.kv.put(k, v)
            piped.kv.put(k, v)
        for k, v in items:
            assert serial.kv.get(k) == v
            assert piped.kv.get(k) == v

    def test_bad_depth_rejected(self):
        from repro.serve.stack import build_stack
        with pytest.raises(ValueError, match="pipeline_depth"):
            build_stack(pipeline_depth=0)
