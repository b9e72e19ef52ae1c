"""Branch-history registers: global, local, and path histories.

The paper's predictor consumes three kinds of history (§3.3, §3.6):

* a 630-bit **global history** of conditional-branch outcomes, sliced into
  seven tuned intervals;
* a table of 256 10-bit **local histories**, indexed by branch PC, each
  recording bit 3 of the targets taken by that branch;
* conventional **path history** (low-order PC bits of recent branches),
  used by the multiperspective conditional predictor substrate.

All histories are least-recent-last: index 0 is the most recent outcome,
matching the paper's interval notation where interval (1, 33) means
"outcomes from position 1 through position 33 in the global history".
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.common.hashing import fold_int, mix_pc
from repro.common.state import Stateful, check_state, require


class GlobalHistory(Stateful):
    """A fixed-capacity shift register of branch outcomes.

    Stored as a single Python integer where bit 0 is the most recent
    outcome.  Slicing an interval ``(start, end)`` returns outcomes from
    position ``start`` through ``end`` inclusive, as an integer with the
    outcome at ``start`` in its bit 0.
    """

    __slots__ = ("capacity", "_bits", "_mask")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"history capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._bits = 0
        self._mask = (1 << capacity) - 1

    def push(self, outcome: bool) -> None:
        """Shift one branch outcome (True = taken) into the history."""
        self._bits = ((self._bits << 1) | int(bool(outcome))) & self._mask

    def interval(self, start: int, end: int) -> int:
        """Return outcomes at positions ``start..end`` (inclusive), packed
        with position ``start`` at bit 0."""
        if not 0 <= start <= end:
            raise ValueError(f"bad interval ({start}, {end})")
        if end >= self.capacity:
            raise ValueError(
                f"interval end {end} exceeds capacity {self.capacity}"
            )
        width = end - start + 1
        return (self._bits >> start) & ((1 << width) - 1)

    def folded_interval(self, start: int, end: int, width: int) -> int:
        """XOR-fold the interval ``(start, end)`` down to ``width`` bits."""
        return fold_int(self.interval(start, end), end - start + 1, width)

    def value(self) -> int:
        """The raw history bits (bit 0 most recent)."""
        return self._bits

    def reset(self) -> None:
        self._bits = 0

    def __len__(self) -> int:
        return self.capacity

    def state_dict(self) -> Dict[str, Any]:
        return {
            "v": 1,
            "kind": "GlobalHistory",
            "capacity": self.capacity,
            "bits": self._bits,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        check_state(state, "GlobalHistory")
        require(
            state["capacity"] == self.capacity,
            f"GlobalHistory capacity mismatch: snapshot {state['capacity']}, "
            f"this register {self.capacity}",
        )
        bits = state["bits"]
        require(0 <= bits <= self._mask, "history bits out of range")
        self._bits = bits


class PathHistory(Stateful):
    """History of low-order PC bits of recently-executed branches."""

    __slots__ = ("depth", "bits_per_pc", "_entries")

    def __init__(self, depth: int, bits_per_pc: int = 6) -> None:
        if depth < 1:
            raise ValueError(f"path depth must be >= 1, got {depth}")
        self.depth = depth
        self.bits_per_pc = bits_per_pc
        self._entries: List[int] = []

    def push(self, pc: int) -> None:
        self._entries.insert(0, (pc >> 2) & ((1 << self.bits_per_pc) - 1))
        if len(self._entries) > self.depth:
            self._entries.pop()

    def folded(self, depth: int, width: int) -> int:
        """Fold the most recent ``depth`` path entries to ``width`` bits."""
        if depth < 1:
            raise ValueError(f"path fold depth must be >= 1, got {depth}")
        packed = 0
        for entry in self._entries[:depth]:
            packed = (packed << self.bits_per_pc) | entry
        return fold_int(packed, depth * self.bits_per_pc, width)

    def reset(self) -> None:
        self._entries.clear()

    def state_dict(self) -> Dict[str, Any]:
        return {
            "v": 1,
            "kind": "PathHistory",
            "depth": self.depth,
            "bits_per_pc": self.bits_per_pc,
            "entries": list(self._entries),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        check_state(state, "PathHistory")
        require(
            state["depth"] == self.depth
            and state["bits_per_pc"] == self.bits_per_pc,
            "PathHistory geometry mismatch",
        )
        entries = state["entries"]
        require(len(entries) <= self.depth, "too many path entries")
        require(
            all(0 <= entry < 1 << self.bits_per_pc for entry in entries),
            "path entry out of range",
        )
        self._entries = [int(entry) for entry in entries]


class LocalHistoryTable(Stateful):
    """A PC-indexed table of per-branch shift-register histories.

    BLBP keeps 256 10-bit local histories; each records **bit 3 of the
    target address** taken by the branch on previous executions (§3.6),
    rather than a taken/not-taken outcome.  The recorded bit is supplied
    by the caller so the same structure serves conditional predictors too.
    """

    __slots__ = ("num_entries", "history_bits", "_table", "_mask")

    def __init__(self, num_entries: int, history_bits: int) -> None:
        if num_entries < 1:
            raise ValueError(f"need >= 1 entries, got {num_entries}")
        if history_bits < 1:
            raise ValueError(f"need >= 1 history bits, got {history_bits}")
        self.num_entries = num_entries
        self.history_bits = history_bits
        self._table = [0] * num_entries
        self._mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return mix_pc(pc) % self.num_entries

    def read(self, pc: int) -> int:
        """The local history register for ``pc`` (bit 0 most recent)."""
        return self._table[self._index(pc)]

    def push(self, pc: int, bit: int) -> None:
        """Shift ``bit`` into the local history for ``pc``."""
        self.push_at(self._index(pc), bit)

    def index_of(self, pc: int) -> int:
        """The table index ``pc`` hashes to (for callers that memoize)."""
        return self._index(pc)

    def read_at(self, index: int) -> int:
        """Read by precomputed table index (see :meth:`index_of`)."""
        return self._table[index]

    def push_at(self, index: int, bit: int) -> None:
        """Shift ``bit`` into the register at a precomputed index."""
        if bit not in (0, 1):
            raise ValueError(f"local-history bit must be 0 or 1, got {bit!r}")
        self._table[index] = ((self._table[index] << 1) | bit) & self._mask

    def reset(self) -> None:
        self._table = [0] * self.num_entries

    def storage_bits(self) -> int:
        return self.num_entries * self.history_bits

    def state_dict(self) -> Dict[str, Any]:
        return {
            "v": 1,
            "kind": "LocalHistoryTable",
            "num_entries": self.num_entries,
            "history_bits": self.history_bits,
            "table": list(self._table),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        check_state(state, "LocalHistoryTable")
        require(
            state["num_entries"] == self.num_entries
            and state["history_bits"] == self.history_bits,
            "LocalHistoryTable geometry mismatch",
        )
        table = state["table"]
        require(len(table) == self.num_entries, "local-history table size mismatch")
        self._table = [int(value) & self._mask for value in table]


def parse_intervals(intervals: Tuple[Tuple[int, int], ...]) -> Tuple[Tuple[int, int], ...]:
    """Validate a tuple of (start, end) global-history intervals."""
    for start, end in intervals:
        if start < 0 or end < start:
            raise ValueError(f"malformed history interval ({start}, {end})")
    return tuple(intervals)
