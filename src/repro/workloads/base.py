"""Shared machinery for workload generators.

:class:`TraceBuilder` accumulates branch records column-wise (appending
to Python lists, converting to NumPy arrays once) so generating a
100k-record trace stays cheap.  :class:`AddressAllocator` hands out
plausible, non-overlapping code addresses so traces look like real
programs (distinct functions in distinct regions, 4-byte instruction
alignment) — which matters, because BLBP predicts target *bits* and the
bit-level structure of the address space is part of the problem.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.common.hashing import stable_hash64
from repro.trace.record import BranchType
from repro.trace.stream import Trace

#: Base of the synthetic text segment.  Real x86-64 binaries load around
#: this address; using it keeps target bit patterns realistic.
TEXT_BASE = 0x0000_0000_0040_0000


_CONDITIONAL = int(BranchType.CONDITIONAL)
_DIRECT_JUMP = int(BranchType.DIRECT_JUMP)
_DIRECT_CALL = int(BranchType.DIRECT_CALL)
_INDIRECT_JUMP = int(BranchType.INDIRECT_JUMP)
_INDIRECT_CALL = int(BranchType.INDIRECT_CALL)
_RETURN = int(BranchType.RETURN)


class TraceBuilder:
    """Column-wise accumulator for branch records.

    The kind-specific appends are the hot path of every generator, so
    each appends its integer type code straight to the columns rather
    than going through :meth:`branch`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._pcs: List[int] = []
        self._types: List[int] = []
        self._takens: List[bool] = []
        self._targets: List[int] = []
        self._gaps: List[int] = []

    def branch(
        self,
        pc: int,
        branch_type: BranchType,
        taken: bool,
        target: int,
        gap: int = 0,
    ) -> None:
        """Append one dynamic branch execution."""
        self._pcs.append(pc)
        self._types.append(int(branch_type))
        self._takens.append(taken)
        self._targets.append(target)
        self._gaps.append(gap)

    def conditional(self, pc: int, taken: bool, target: int, gap: int = 0) -> None:
        """Append a conditional branch."""
        self._pcs.append(pc)
        self._types.append(_CONDITIONAL)
        self._takens.append(taken)
        self._targets.append(target)
        self._gaps.append(gap)

    def indirect_call(self, pc: int, target: int, gap: int = 0) -> None:
        """Append an indirect call."""
        self._pcs.append(pc)
        self._types.append(_INDIRECT_CALL)
        self._takens.append(True)
        self._targets.append(target)
        self._gaps.append(gap)

    def indirect_jump(self, pc: int, target: int, gap: int = 0) -> None:
        """Append an indirect jump."""
        self._pcs.append(pc)
        self._types.append(_INDIRECT_JUMP)
        self._takens.append(True)
        self._targets.append(target)
        self._gaps.append(gap)

    def direct_call(self, pc: int, target: int, gap: int = 0) -> None:
        """Append a direct call."""
        self._pcs.append(pc)
        self._types.append(_DIRECT_CALL)
        self._takens.append(True)
        self._targets.append(target)
        self._gaps.append(gap)

    def direct_jump(self, pc: int, target: int, gap: int = 0) -> None:
        """Append a direct jump."""
        self._pcs.append(pc)
        self._types.append(_DIRECT_JUMP)
        self._takens.append(True)
        self._targets.append(target)
        self._gaps.append(gap)

    def ret(self, pc: int, target: int, gap: int = 0) -> None:
        """Append a procedure return."""
        self._pcs.append(pc)
        self._types.append(_RETURN)
        self._takens.append(True)
        self._targets.append(target)
        self._gaps.append(gap)

    def extend(self, trace: Trace) -> None:
        """Append every record of ``trace``."""
        self._pcs.extend(trace.pcs.tolist())
        self._types.extend(trace.types.tolist())
        self._takens.extend(trace.takens.tolist())
        self._targets.extend(trace.targets.tolist())
        self._gaps.extend(trace.gaps.tolist())

    def __len__(self) -> int:
        return len(self._pcs)

    def build(self) -> Trace:
        """Freeze the accumulated records into an immutable Trace."""
        return Trace(
            name=self.name,
            pcs=np.array(self._pcs, dtype=np.uint64),
            types=np.array(self._types, dtype=np.uint8),
            takens=np.array(self._takens, dtype=bool),
            targets=np.array(self._targets, dtype=np.uint64),
            gaps=np.array(self._gaps, dtype=np.uint32),
        )


class AddressAllocator:
    """Hands out non-overlapping, 4-byte-aligned code addresses.

    ``function()`` reserves a function-sized region and returns its entry
    point; ``site()`` returns successive instruction addresses inside the
    most recently allocated function.
    """

    def __init__(self, base: int = TEXT_BASE, function_size: int = 0x200) -> None:
        if base % 4 != 0:
            raise ValueError(f"base {base:#x} is not 4-byte aligned")
        if function_size % 4 != 0 or function_size <= 0:
            raise ValueError(f"bad function size {function_size:#x}")
        self._next = base
        self._function_size = function_size
        self._site_cursor = base
        self._count = 0

    def function(self) -> int:
        """Reserve a new function region; return its entry address.

        Entries are deterministically jittered within their region so
        their low-order address bits vary, as in real binaries — this
        matters for bit-level target prediction, where perfectly-aligned
        entries would leave most predicted bits constant.
        """
        region = self._next
        self._next += self._function_size
        self._count += 1
        jitter_slots = self._function_size // 8  # keep room for sites
        entry = region + 4 * (stable_hash64(self._count) % jitter_slots)
        self._site_cursor = entry
        return entry

    def site(self) -> int:
        """Next instruction address within the current function."""
        address = self._site_cursor
        if address >= self._next:
            raise RuntimeError("function region exhausted; allocate a new one")
        self._site_cursor = address + 4
        return address


@dataclass
class WorkloadSpec(abc.ABC):
    """Base class for workload specifications.

    Every concrete spec is a frozen bag of parameters plus a seed; the
    corresponding ``generate_*`` function turns it into a :class:`Trace`
    deterministically.

    Generation is resumable through :meth:`steps`.  The loop generators
    (virtual dispatch, interpreter, switch, call/return) override it to
    append one loop iteration per step and never read ``num_records``,
    so they are *prefix-stable*: the trace for ``k`` records is a prefix
    of the trace for any ``n > k``.  :func:`~repro.workloads.mixed.generate_mixed`
    relies on that to generate each component only as far as its phases
    reach.
    """

    name: str
    seed: int
    num_records: int

    def rng(self) -> np.random.Generator:
        """The seeded generator all randomness in this workload flows from."""
        return np.random.default_rng(self.seed)

    @abc.abstractmethod
    def generate(self) -> Trace:
        """Produce the trace for this spec."""

    def steps(self, builder: TraceBuilder) -> Iterator[None]:
        """Append this workload's records to ``builder``, a step at a time.

        Yields after each step.  This default emits the whole
        :meth:`generate` output as one step, which suits generators whose
        output is not prefix-stable (a recursive walk cut short at
        ``num_records``, a mixture whose phases are sized from it).
        """
        builder.extend(self.generate())
        yield

    def run_steps(self) -> Trace:
        """Run :meth:`steps` until ``num_records`` records exist."""
        builder = TraceBuilder(self.name)
        advance(self.steps(builder), builder, self.num_records)
        return builder.build()


def advance(steps: Iterator[None], builder: TraceBuilder, target: int) -> None:
    """Run ``steps`` until ``builder`` holds ``target`` records or they end.

    Stops at the first step boundary at or past ``target``, so advancing
    a prefix-stable generator to ``k`` and later to ``n >= k`` leaves
    exactly the records a single advance to ``n`` would.
    """
    if len(builder) >= target:
        return
    for _ in steps:
        if len(builder) >= target:
            return


def draw_gap(rng: np.random.Generator, mean_gap: float) -> int:
    """Draw a non-branch instruction gap (geometric-ish, mean ``mean_gap``)."""
    if mean_gap <= 0:
        return 0
    return int(rng.geometric(1.0 / (mean_gap + 1.0)) - 1)
