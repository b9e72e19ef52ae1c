"""Unit tests for repro.workloads.base."""

import numpy as np
import pytest

from repro.trace.record import BranchType
from repro.workloads.base import (
    TEXT_BASE,
    AddressAllocator,
    TraceBuilder,
    draw_gap,
)


class TestTraceBuilder:
    def test_build_produces_trace(self):
        builder = TraceBuilder("demo")
        builder.conditional(0x1000, True, 0x1010, gap=3)
        builder.indirect_call(0x1004, 0x2000, gap=1)
        builder.ret(0x2080, 0x1008)
        trace = builder.build()
        assert trace.name == "demo"
        assert len(trace) == 3
        assert trace[0].branch_type is BranchType.CONDITIONAL
        assert trace[1].branch_type is BranchType.INDIRECT_CALL
        assert trace[2].branch_type is BranchType.RETURN

    def test_len_tracks_appends(self):
        builder = TraceBuilder("demo")
        assert len(builder) == 0
        builder.direct_jump(0x1000, 0x2000)
        assert len(builder) == 1

    def test_all_helpers_set_taken_correctly(self):
        builder = TraceBuilder("demo")
        builder.conditional(0x1000, False, 0x1004)
        builder.direct_call(0x1010, 0x2000)
        builder.indirect_jump(0x1020, 0x3000)
        trace = builder.build()
        assert not trace[0].taken
        assert trace[1].taken
        assert trace[2].taken


class TestAddressAllocator:
    def test_functions_do_not_overlap(self):
        alloc = AddressAllocator(function_size=0x200)
        entries = [alloc.function() for _ in range(50)]
        regions = [entry // 0x200 for entry in entries]
        assert len(set(regions)) == 50

    def test_entries_are_aligned(self):
        alloc = AddressAllocator()
        for _ in range(20):
            assert alloc.function() % 4 == 0

    def test_entry_low_bits_vary(self):
        """Jittered entries must differ in low-order bits — BLBP predicts
        those bits, so a perfectly-aligned layout would be degenerate."""
        alloc = AddressAllocator()
        entries = [alloc.function() for _ in range(64)]
        low_bits = {entry & 0xFF for entry in entries}
        assert len(low_bits) > 8

    def test_sites_within_function(self):
        alloc = AddressAllocator(function_size=0x200)
        entry = alloc.function()
        sites = [alloc.site() for _ in range(10)]
        assert sites[0] == entry
        for site in sites:
            assert entry <= site < entry + 0x200

    def test_site_overflow_detected(self):
        alloc = AddressAllocator(function_size=0x40)
        assert alloc.function() == TEXT_BASE + 0x4
        sites = [alloc.site() for _ in range(15)]
        assert sites[-1] == TEXT_BASE + 0x3C  # the region's last slot
        with pytest.raises(RuntimeError):
            alloc.site()

    def test_misaligned_base_rejected(self):
        with pytest.raises(ValueError):
            AddressAllocator(base=0x1001)


class TestDrawGap:
    def test_zero_mean_gives_zero(self, rng):
        assert draw_gap(rng, 0) == 0

    def test_non_negative(self, rng):
        assert all(draw_gap(rng, 10.0) >= 0 for _ in range(200))

    def test_mean_roughly_matches(self, rng):
        samples = [draw_gap(rng, 12.0) for _ in range(5000)]
        assert 10.0 < np.mean(samples) < 14.5
