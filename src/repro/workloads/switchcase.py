"""Switch-statement / jump-table workload generator.

Models code like ``gcc``'s pattern matchers and protocol demultiplexers:
a dispatch loop switches on a case value through a jump table (one
static indirect jump with many targets).  The case stream follows a
structured Markov process, and each case's handler executes conditional
branches at *shared helper PCs* whose outcomes encode the case index —
the mechanism by which real handler code (flag tests, length checks)
leaks the current case into global history, giving history-based
predictors signal for the *next* dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.trace.stream import Trace
from repro.workloads.base import (
    AddressAllocator,
    TraceBuilder,
    WorkloadSpec,
    draw_gap,
)
from repro.workloads.markov import (
    MarkovChain,
    clamped_self_loop,
    structured_transition_matrix,
)


@dataclass
class SwitchCaseSpec(WorkloadSpec):
    """Parameters for a switch/jump-table workload.

    Attributes:
        num_cases: jump-table size (targets of the single dispatch jump).
        determinism: Markov determinism of the case stream.
        handler_noise: probability a handler signal-branch outcome flips.
        handler_signal_bits: how many bits of the case index the handler
            leaks into conditional outcomes (0 = no leak: only target
            history carries information, starving purely conditional-
            history predictors).
        mean_gap: mean non-branch instructions between branches.
        num_switches: distinct switch statements (static dispatch jumps);
            they share one case stream, modelling nested dispatch.
        filler_conditionals: bookkeeping conditionals per dispatch (see
            :class:`repro.workloads.vdispatch.VirtualDispatchSpec`).
        self_loop: probability mass on the case process staying put.
    """

    num_cases: int = 16
    determinism: float = 0.85
    handler_noise: float = 0.02
    handler_signal_bits: int = -1  # -1 = all bits of the case index
    mean_gap: float = 10.0
    num_switches: int = 1
    filler_conditionals: int = 8
    self_loop: float = 0.05

    def __post_init__(self) -> None:
        if self.num_cases < 1:
            raise ValueError(f"need >= 1 cases, got {self.num_cases}")
        if self.num_switches < 1:
            raise ValueError(f"need >= 1 switches, got {self.num_switches}")
        if not 0.0 <= self.handler_noise <= 1.0:
            raise ValueError(f"handler_noise out of [0,1]: {self.handler_noise}")
        if self.filler_conditionals < 0:
            raise ValueError(
                f"negative filler_conditionals {self.filler_conditionals}"
            )

    def generate(self) -> Trace:
        """Produce the trace for this spec."""
        return generate_switchcase(self)

    def steps(self, builder: TraceBuilder) -> Iterator[None]:
        """One switch dispatch per step; see :func:`switchcase_steps`."""
        return switchcase_steps(self, builder)


def switchcase_steps(
    spec: SwitchCaseSpec, builder: TraceBuilder
) -> Iterator[None]:
    """Append jump-table records to ``builder``, one dispatch per step.

    Sets up the program layout, then yields after every loop iteration;
    it never reads ``spec.num_records``, so it is prefix-stable.
    """
    rng = spec.rng()
    alloc = AddressAllocator()

    driver = alloc.function()
    loop_pc = alloc.site()
    inner_pc = alloc.site()
    dispatch_pcs = [alloc.site() for _ in range(spec.num_switches)]

    case_bits = max(1, (spec.num_cases - 1).bit_length())
    if spec.handler_signal_bits < 0:
        signal_bits = case_bits
    else:
        signal_bits = min(spec.handler_signal_bits, case_bits)
    # Shared helper function whose conditionals encode the case index.
    helper = alloc.function()
    signal_pcs = [alloc.site() for _ in range(signal_bits)]

    # One handler block per case per switch (jump-table targets).
    handlers = [
        [alloc.function() for _ in range(spec.num_cases)]
        for _ in range(spec.num_switches)
    ]

    matrix = structured_transition_matrix(
        spec.num_cases, rng, determinism=spec.determinism,
        self_loop=clamped_self_loop(spec.determinism, spec.self_loop)
    )
    chain = MarkovChain(matrix, rng)

    iteration = 0
    while True:
        case = chain.step()
        switch = iteration % spec.num_switches

        # Dispatch-loop back edge.
        builder.conditional(
            loop_pc, True, driver + 0x8, gap=draw_gap(rng, spec.mean_gap)
        )

        # Bookkeeping inner loop (fixed taken/.../not-taken pattern).
        for step in range(spec.filler_conditionals):
            taken = step < spec.filler_conditionals - 1
            builder.conditional(
                inner_pc, taken, inner_pc + (0x10 if taken else 0x4), gap=2
            )

        # The jump-table dispatch.
        handler = handlers[switch][case]
        builder.indirect_jump(
            dispatch_pcs[switch], handler, gap=draw_gap(rng, 3.0)
        )

        # Handler body: a case-specific internal conditional...
        internal = bool((case ^ iteration) & 1)
        builder.conditional(
            handler + 0x10,
            internal,
            handler + (0x40 if internal else 0x14),
            gap=draw_gap(rng, spec.mean_gap),
        )
        # ...then the shared helper leaks the case index, noisily.
        for bit_position, pc in enumerate(signal_pcs):
            outcome = bool((case >> bit_position) & 1)
            if spec.handler_noise > 0 and rng.random() < spec.handler_noise:
                outcome = not outcome
            builder.conditional(pc, outcome, pc + (0x10 if outcome else 0x4), gap=1)
        # Handler jumps back to the loop head.
        builder.direct_jump(handler + 0x60, loop_pc, gap=draw_gap(rng, 2.0))

        iteration += 1
        yield


def generate_switchcase(spec: SwitchCaseSpec) -> Trace:
    """Generate a switch/jump-table trace from ``spec``."""
    return spec.run_steps()
