"""Unit tests for repro.common.history."""

import pytest

from repro.common.history import GlobalHistory, LocalHistoryTable, PathHistory


class TestGlobalHistory:
    def test_push_and_value(self):
        history = GlobalHistory(8)
        for outcome in (True, False, True):  # bit 0 holds the last push
            history.push(outcome)
        assert history.value() == 0b101

    def test_capacity_truncates(self):
        history = GlobalHistory(4)
        for _ in range(10):
            history.push(True)
        assert history.value() == 0b1111

    def test_interval_extraction(self):
        history = GlobalHistory(16)
        # Push 10010 (first push = oldest).
        for outcome in (True, False, False, True, False):
            history.push(outcome)
        # Positions: 0 = most recent (False), 4 = oldest (True).
        assert history.interval(0, 0) == 0
        assert history.interval(4, 4) == 1
        assert history.interval(0, 4) == 0b10010

    def test_interval_bounds_checked(self):
        history = GlobalHistory(8)
        with pytest.raises(ValueError):
            history.interval(0, 8)
        with pytest.raises(ValueError):
            history.interval(5, 3)

    def test_folded_interval_width(self):
        history = GlobalHistory(32)
        for outcome in [True, False] * 16:
            history.push(outcome)
        folded = history.folded_interval(0, 31, 8)
        assert 0 <= folded < 256

    def test_reset(self):
        history = GlobalHistory(8)
        history.push(True)
        history.reset()
        assert history.value() == 0

    def test_len(self):
        assert len(GlobalHistory(630)) == 630


class TestPathHistory:
    def test_folded_changes_with_path(self):
        path_a = PathHistory(8)
        path_b = PathHistory(8)
        for pc in (0x1000, 0x1010, 0x1020):
            path_a.push(pc)
        for pc in (0x1000, 0x1020, 0x1010):
            path_b.push(pc)
        assert path_a.folded(3, 10) != path_b.folded(3, 10)

    def test_depth_limits_memory(self):
        path = PathHistory(2)
        path.push(0x1000)
        path.push(0x2000)
        snapshot = path.folded(2, 10)
        path.push(0x1000)
        path.push(0x2000)
        path.push(0x1000)
        path.push(0x2000)
        assert path.folded(2, 10) == snapshot

    def test_reset(self):
        path = PathHistory(4)
        path.push(0x1234)
        path.reset()
        assert path.folded(4, 8) == 0

    def test_load_rejects_entry_wider_than_bits_per_pc(self):
        path = PathHistory(4)
        state = path.state_dict()
        state["entries"] = [3, 1 << path.bits_per_pc]
        with pytest.raises(ValueError, match="path entry out of range"):
            path.load_state(state)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            PathHistory(0)


class TestLocalHistoryTable:
    def test_per_pc_isolation_when_no_alias(self):
        table = LocalHistoryTable(256, 10)
        table.push(0x1000, 1)
        table.push(0x1000, 1)
        # A different PC (unlikely to alias in 256 entries) is unaffected
        # unless it hashes to the same row; check both directions.
        row_a = table.read(0x1000)
        assert row_a == 0b11

    def test_shift_direction_most_recent_is_bit0(self):
        table = LocalHistoryTable(16, 4)
        table.push(0x40, 1)
        table.push(0x40, 0)
        assert table.read(0x40) == 0b10

    def test_width_truncation(self):
        table = LocalHistoryTable(16, 3)
        for _ in range(5):
            table.push(0x40, 1)
        assert table.read(0x40) == 0b111

    def test_rejects_non_bit(self):
        table = LocalHistoryTable(16, 4)
        with pytest.raises(ValueError):
            table.push(0x40, 2)

    def test_storage_bits(self):
        # The paper's local history: 256 entries x 10 bits.
        assert LocalHistoryTable(256, 10).storage_bits() == 2560

    def test_reset(self):
        table = LocalHistoryTable(16, 4)
        table.push(0x40, 1)
        table.reset()
        assert table.read(0x40) == 0
