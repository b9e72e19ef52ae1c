"""Function-pointer call-chain workload generator.

Models callback-driven C code (event loops, qsort comparators, vtable-free
plugin dispatch): a driver repeatedly invokes functions through pointer
tables, with nested direct calls and returns underneath.  Most call sites
here are monomorphic or weakly polymorphic, so this generator supplies
the large population of *easy* indirect branches visible in the paper's
Fig. 6 (many benchmarks dominated by monomorphic branches) and the steep
initial drop of the Fig. 7 target-count distribution.  Returns exercise
the return-address stack rather than the indirect predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

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
class CallReturnSpec(WorkloadSpec):
    """Parameters for a function-pointer/call-return workload.

    Attributes:
        num_callbacks: functions reachable through the pointer table.
        num_sites: static indirect call sites.  Site ``i`` uses only
            ``1 + (i % polymorphism_cap)`` of the callbacks, so most
            sites are monomorphic or nearly so.
        polymorphism_cap: maximum distinct callees per site.
        call_depth: nested direct calls (and returns) under each callback.
        determinism: Markov determinism of the callback-selection stream.
        mean_gap: mean non-branch instructions between branches.
        filler_conditionals: bookkeeping conditionals per iteration.
        self_loop: probability mass on the selector staying put.
    """

    num_callbacks: int = 8
    num_sites: int = 6
    polymorphism_cap: int = 3
    call_depth: int = 2
    determinism: float = 0.9
    mean_gap: float = 14.0
    filler_conditionals: int = 10
    self_loop: float = 0.05

    def __post_init__(self) -> None:
        if self.num_callbacks < 1:
            raise ValueError(f"need >= 1 callbacks, got {self.num_callbacks}")
        if self.num_sites < 1:
            raise ValueError(f"need >= 1 sites, got {self.num_sites}")
        if self.polymorphism_cap < 1:
            raise ValueError(
                f"polymorphism_cap must be >= 1, got {self.polymorphism_cap}"
            )
        if self.call_depth < 0:
            raise ValueError(f"negative call_depth {self.call_depth}")
        if self.filler_conditionals < 0:
            raise ValueError(
                f"negative filler_conditionals {self.filler_conditionals}"
            )

    def generate(self) -> Trace:
        """Produce the trace for this spec."""
        return generate_callret(self)

    def steps(self, builder: TraceBuilder) -> Iterator[None]:
        """One callback call per step; see :func:`callret_steps`."""
        return callret_steps(self, builder)


def callret_steps(
    spec: CallReturnSpec, builder: TraceBuilder
) -> Iterator[None]:
    """Append call-chain records to ``builder``, one callback call per step.

    Sets up the program layout, then yields after every loop iteration;
    it never reads ``spec.num_records``, so it is prefix-stable.
    """
    rng = spec.rng()
    alloc = AddressAllocator()

    driver = alloc.function()
    loop_pc = alloc.site()
    inner_pc = alloc.site()
    site_pcs = [alloc.site() for _ in range(spec.num_sites)]
    callbacks = [alloc.function() for _ in range(spec.num_callbacks)]
    # Nested helper functions for the direct-call chains.
    helpers = [alloc.function() for _ in range(max(1, spec.call_depth))]

    # Per-site callee subsets: site i draws from a small slice, giving the
    # mostly-monomorphic static population.
    site_callees: List[List[int]] = []
    for site in range(spec.num_sites):
        width = 1 + (site % spec.polymorphism_cap)
        start = site % spec.num_callbacks
        subset = [callbacks[(start + j) % spec.num_callbacks] for j in range(width)]
        site_callees.append(subset)

    matrix = structured_transition_matrix(
        spec.num_callbacks,
        rng,
        determinism=spec.determinism,
        self_loop=clamped_self_loop(spec.determinism, spec.self_loop),
    )
    chain = MarkovChain(matrix, rng)

    iteration = 0
    while True:
        selector = chain.step()
        site = iteration % spec.num_sites
        callees = site_callees[site]
        callee = callees[selector % len(callees)]
        site_pc = site_pcs[site]

        # Driver loop back edge plus selector-correlated conditionals so
        # polymorphic sites are predictable from history.
        builder.conditional(
            loop_pc, True, driver + 0x8, gap=draw_gap(rng, spec.mean_gap)
        )
        for step in range(spec.filler_conditionals):
            taken = step < spec.filler_conditionals - 1
            builder.conditional(
                inner_pc, taken, inner_pc + (0x10 if taken else 0x4), gap=2
            )
        hint_bits = max(1, (spec.num_callbacks - 1).bit_length())
        for bit_position in range(hint_bits):
            hint = bool((selector >> bit_position) & 1)
            pc = loop_pc + 0x20 + 4 * bit_position
            builder.conditional(pc, hint, pc + (0x40 if hint else 0x4), gap=1)

        # The indirect call through the function pointer.
        builder.indirect_call(site_pc, callee, gap=draw_gap(rng, 4.0))

        # Nested direct call chain inside the callback, then unwind in
        # LIFO order: each frame returns to its caller's resume address.
        frames = [callee]
        return_stack = [site_pc + 4]
        for depth in range(spec.call_depth):
            helper = helpers[depth % len(helpers)]
            call_pc = frames[-1] + 0x10 + 4 * depth
            builder.direct_call(call_pc, helper, gap=draw_gap(rng, spec.mean_gap))
            return_stack.append(call_pc + 4)
            frames.append(helper)
        while frames:
            returning = frames.pop()
            builder.ret(returning + 0x80, return_stack.pop(), gap=draw_gap(rng, 6.0))

        iteration += 1
        yield


def generate_callret(spec: CallReturnSpec) -> Trace:
    """Generate a function-pointer call-chain trace from ``spec``."""
    return spec.run_steps()
