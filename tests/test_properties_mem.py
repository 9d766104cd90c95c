"""Property-based tests for the memory substrate (layout + DRAM)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import schemes
from repro.mem.address_map import AddressMapping
from repro.mem.dram import DramModel
from repro.mem.layout import TreeLayout
from repro.mem.timing import DDR3_1600


class TestLayoutProperties:
    @settings(max_examples=30, deadline=None)
    @given(levels=st.integers(3, 10), data=st.data())
    def test_slot_addresses_unique_and_aligned(self, levels, data):
        cfg = schemes.ab_scheme(levels)
        lay = TreeLayout(cfg)
        seen = set()
        for _ in range(50):
            b = data.draw(st.integers(0, cfg.n_buckets - 1))
            lv = (b + 1).bit_length() - 1
            s = data.draw(st.integers(0, cfg.geometry[lv].z_total - 1))
            addr = lay.data_addr(b, s)
            assert addr % cfg.block_bytes == 0
            assert 0 <= addr < lay.data_bytes
            key = (b, s)
            if key not in seen:
                # Same (bucket, slot) -> same address; distinct -> distinct.
                assert lay.data_addr(b, s) == addr
            seen.add(key)

    @settings(max_examples=20, deadline=None)
    @given(levels=st.integers(3, 10))
    def test_data_and_metadata_regions_disjoint(self, levels):
        cfg = schemes.dr_scheme(levels)
        lay = TreeLayout(cfg, metadata_blocks=2)
        last_data = lay.data_addr(cfg.n_buckets - 1,
                                  cfg.geometry[-1].z_total - 1)
        assert last_data + cfg.block_bytes <= lay.meta_addr(0)
        assert lay.meta_addr(cfg.n_buckets - 1, 1) < lay.total_bytes

    @settings(max_examples=20, deadline=None)
    @given(levels=st.integers(3, 10))
    def test_whole_tree_is_tiled(self, levels):
        """Bucket spans tile [0, data_bytes) with no gaps or overlaps."""
        cfg = schemes.ns_scheme(levels)
        lay = TreeLayout(cfg)
        cursor = 0
        for b in range(cfg.n_buckets):
            assert lay.data_addr(b, 0) == cursor
            lv = (b + 1).bit_length() - 1
            cursor += cfg.geometry[lv].z_total * cfg.block_bytes
        assert cursor == lay.data_bytes


class TestAddressMappingProperties:
    @settings(max_examples=60, deadline=None)
    @given(addr=st.integers(0, 2**40),
           channels=st.sampled_from([1, 2, 4, 8]),
           banks=st.sampled_from([4, 8, 16]))
    def test_decompose_is_injective_per_line(self, addr, channels, banks):
        """(channel, bank, row, col) uniquely identifies the line."""
        m = AddressMapping(n_channels=channels, n_banks=banks)
        c, b, r, col = m.decompose(addr)
        line = ((r * banks + b) * m.lines_per_row + col) * channels + c
        assert line == (addr // m.line_bytes)

    @settings(max_examples=60, deadline=None)
    @given(addr=st.integers(0, 2**40))
    def test_coordinates_in_range(self, addr):
        m = AddressMapping()
        c, b, r, col = m.decompose(addr)
        assert 0 <= c < m.n_channels
        assert 0 <= b < m.n_banks
        assert 0 <= col < m.lines_per_row
        assert r >= 0


#: Every DRAM property holds for the serial model and the windowed
#: (pipelined-controller) model alike.
_WINDOWS = pytest.mark.parametrize(
    "window", [None, 8], ids=["serial", "windowed"]
)


class TestDramProperties:
    @_WINDOWS
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(reqs=st.lists(
        st.tuples(st.integers(0, 2**20), st.booleans(),
                  st.floats(0, 1e6, allow_nan=False)),
        min_size=1, max_size=40,
    ))
    def test_completion_after_arrival(self, reqs, window):
        dram = DramModel(window=window)
        now = 0.0
        for addr, write, gap in reqs:
            now += gap
            done = dram.access(addr * 64, write, now)
            # Completion is strictly after arrival, by at least the burst.
            assert done >= now + DDR3_1600.burst_ns

    @_WINDOWS
    @settings(max_examples=25, deadline=None)
    @given(reqs=st.lists(st.integers(0, 2**16), min_size=2, max_size=40))
    def test_channel_bus_never_double_booked(self, reqs, window):
        """Completions on one channel are spaced by >= one burst."""
        m = AddressMapping(n_channels=1)
        dram = DramModel(mapping=m, window=window)
        times = sorted(dram.access(a * 64, False, 0.0) for a in reqs)
        for t1, t2 in zip(times, times[1:]):
            assert t2 - t1 >= DDR3_1600.burst_ns - 1e-9

    @_WINDOWS
    @settings(max_examples=25, deadline=None)
    @given(reqs=st.lists(st.integers(0, 2**16), min_size=1, max_size=30))
    def test_stats_conserved(self, reqs, window):
        dram = DramModel(window=window)
        for a in reqs:
            dram.access(a * 64, False, 0.0)
        st_ = dram.stats
        assert st_.reads == len(reqs)
        assert st_.row_hits + st_.row_misses == len(reqs)
        assert st_.bytes_transferred == 64 * len(reqs)
