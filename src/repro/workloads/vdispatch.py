"""Virtual-method-dispatch workload generator.

Models the indirect-branch behaviour of object-oriented programs (the
paper's primary motivation, §1): a driver loop walks a stream of
polymorphic objects whose dynamic type follows a hidden Markov process,
and calls virtual methods on them through indirect calls.

Crucially, the receiver type *leaks into conditional-branch outcomes*
before the dispatch: real programs test object properties that correlate
with the type (null checks, kind flags, size classes).  We model this as
``signal`` conditional branches whose outcomes encode the bits of the
current type index, each independently flipped with probability
``signal_noise``.  History-based indirect predictors (ITTAGE, BLBP) can
learn the mapping from those outcomes to the dispatch target; a plain
BTB cannot, which reproduces the qualitative gap in the paper's Fig. 8.

``signal_lag`` inserts additional predictable conditional branches
between the signal and the dispatch, pushing the informative outcomes
deeper into global history — traces with large lags exercise the long
history intervals of BLBP (§3.6) and the long geometric lengths of
ITTAGE.
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
class VirtualDispatchSpec(WorkloadSpec):
    """Parameters for a virtual-dispatch workload.

    Attributes:
        num_sites: distinct virtual call sites (static indirect branches).
        num_types: receiver types, i.e. targets per call site.
        determinism: Markov determinism of the type stream (1.0 = cyclic,
            perfectly learnable; lower values add an irreducible floor).
        signal_noise: probability each signal-branch outcome is flipped.
        signal_lag: predictable filler conditionals between signal and
            dispatch (pushes signal deeper into history).
        mean_gap: mean non-branch instructions between branches.
        phase_length: dispatches before the type process re-randomizes
            (0 disables phase changes).
        shared_methods: if True, all sites share one vtable (same type
            maps to the same method address at every site), as for calls
            to one virtual function from many places.
        filler_conditionals: bookkeeping conditionals (an inner loop with
            a fixed taken/.../not-taken pattern) emitted per dispatch.
            Real traces run 15-30 conditional branches per indirect
            branch (the paper's Fig. 1); these fillers reproduce that mix
            and keep the global history's context space from exploding.
        self_loop: probability mass on the type process staying put
            (bursty object streams).
    """

    num_sites: int = 4
    num_types: int = 4
    determinism: float = 0.9
    signal_noise: float = 0.0
    signal_lag: int = 0
    mean_gap: float = 12.0
    phase_length: int = 0
    shared_methods: bool = False
    filler_conditionals: int = 10
    self_loop: float = 0.05
    #: Extra call sites that only ever see one receiver type — real C++
    #: programs are full of effectively-monomorphic virtual calls, which
    #: dominate the paper's Fig. 6 for many benchmarks.  One such site
    #: (cycling through the set) is called per dispatch iteration.
    monomorphic_sites: int = 0

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise ValueError(f"need >= 1 sites, got {self.num_sites}")
        if self.num_types < 1:
            raise ValueError(f"need >= 1 types, got {self.num_types}")
        if not 0.0 <= self.signal_noise <= 1.0:
            raise ValueError(f"signal_noise out of [0,1]: {self.signal_noise}")
        if self.signal_lag < 0:
            raise ValueError(f"negative signal_lag {self.signal_lag}")
        if self.filler_conditionals < 0:
            raise ValueError(
                f"negative filler_conditionals {self.filler_conditionals}"
            )
        if not 0.0 <= self.self_loop <= 1.0:
            raise ValueError(f"self_loop out of [0,1]: {self.self_loop}")
        if self.monomorphic_sites < 0:
            raise ValueError(
                f"negative monomorphic_sites {self.monomorphic_sites}"
            )

    def generate(self) -> Trace:
        """Produce the trace for this spec."""
        return generate_vdispatch(self)

    def steps(self, builder: TraceBuilder) -> Iterator[None]:
        """One dispatch per step; see :func:`vdispatch_steps`."""
        return vdispatch_steps(self, builder)


def _signal_bit_count(num_types: int) -> int:
    """Bits needed to encode a type index."""
    return max(1, (num_types - 1).bit_length())


def vdispatch_steps(
    spec: VirtualDispatchSpec, builder: TraceBuilder
) -> Iterator[None]:
    """Append virtual-dispatch records to ``builder``, one dispatch per step.

    Sets up the program layout, then yields after every loop iteration;
    it never reads ``spec.num_records``, so it is prefix-stable.
    """
    rng = spec.rng()
    alloc = AddressAllocator()

    # Static program layout. One driver function holds the loop branch,
    # the signal branches, the lag branches, and the call sites.
    driver = alloc.function()
    loop_pc = alloc.site()
    inner_pc = alloc.site()
    signal_bits = _signal_bit_count(spec.num_types)
    signal_pcs = [alloc.site() for _ in range(signal_bits)]
    lag_pcs = [alloc.site() for _ in range(spec.signal_lag)]
    site_pcs = [alloc.site() for _ in range(spec.num_sites)]

    # Virtual method entry points.  Per-site vtables unless shared.
    if spec.shared_methods:
        shared = [alloc.function() for _ in range(spec.num_types)]
        vtables: List[List[int]] = [shared for _ in range(spec.num_sites)]
    else:
        vtables = [
            [alloc.function() for _ in range(spec.num_types)]
            for _ in range(spec.num_sites)
        ]
    # Each method body ends in a return; give each a return-site PC.
    method_ret_pcs = {
        entry: entry + 0x40 for table in vtables for entry in table
    }

    # Monomorphic call sites, each in its own caller function and bound
    # to a single private callee.
    mono_site_pcs = []
    mono_callees = []
    for _ in range(spec.monomorphic_sites):
        alloc.function()
        mono_site_pcs.append(alloc.site())
        mono_callees.append(alloc.function())

    matrix = structured_transition_matrix(
        spec.num_types, rng, determinism=spec.determinism,
        self_loop=clamped_self_loop(spec.determinism, spec.self_loop)
    )
    chain = MarkovChain(matrix, rng)
    lag_phase = 0

    dispatches = 0
    while True:
        type_index = chain.step()

        # Loop-back conditional (taken; models the driver loop).
        builder.conditional(
            loop_pc, True, driver + 0x8, gap=draw_gap(rng, spec.mean_gap)
        )

        # Inner bookkeeping loop: a fixed taken/.../not-taken pattern.
        for step in range(spec.filler_conditionals):
            taken = step < spec.filler_conditionals - 1
            builder.conditional(
                inner_pc, taken, inner_pc + (0x10 if taken else 0x4), gap=2
            )

        # Signal branches: outcome = bit b of the type index, noisy.
        for bit_position, pc in enumerate(signal_pcs):
            outcome = bool((type_index >> bit_position) & 1)
            if spec.signal_noise > 0 and rng.random() < spec.signal_noise:
                outcome = not outcome
            builder.conditional(
                pc, outcome, pc + (0x10 if outcome else 0x4), gap=1
            )

        # Lag filler: perfectly predictable alternating conditionals.
        for pc in lag_pcs:
            outcome = bool(lag_phase & 1)
            builder.conditional(pc, outcome, pc + (0x10 if outcome else 0x4), gap=1)
        lag_phase += 1

        # The virtual dispatch itself, at a randomly-chosen site (real
        # call sites are not visited in lockstep with the type stream).
        site = int(rng.integers(spec.num_sites))
        site_pc = site_pcs[site]
        method = vtables[site][type_index]
        builder.indirect_call(site_pc, method, gap=draw_gap(rng, 4.0))

        # Method body: a type-correlated conditional with mild noise —
        # real branch outcomes are strongly biased/structured, and an
        # IID-random outcome here would needlessly explode the history
        # context space every predictor hashes over.
        body_outcome = bool((type_index ^ dispatches) & 1)
        if rng.random() < 0.02:
            body_outcome = not body_outcome
        builder.conditional(
            method + 0x10,
            body_outcome,
            method + (0x30 if body_outcome else 0x14),
            gap=draw_gap(rng, spec.mean_gap),
        )
        builder.ret(method_ret_pcs[method], site_pc + 4, gap=draw_gap(rng, 4.0))

        # One monomorphic call per iteration, cycling through the sites.
        if spec.monomorphic_sites:
            mono = dispatches % spec.monomorphic_sites
            mono_pc = mono_site_pcs[mono]
            callee = mono_callees[mono]
            builder.indirect_call(mono_pc, callee, gap=draw_gap(rng, 6.0))
            builder.ret(callee + 0x80, mono_pc + 4, gap=draw_gap(rng, 6.0))

        dispatches += 1
        if spec.phase_length and dispatches % spec.phase_length == 0:
            matrix = structured_transition_matrix(
                spec.num_types,
                rng,
                determinism=spec.determinism,
                self_loop=clamped_self_loop(spec.determinism, spec.self_loop),
            )
            chain = MarkovChain(matrix, rng, initial_state=chain.state)
        yield


def generate_vdispatch(spec: VirtualDispatchSpec) -> Trace:
    """Generate a virtual-dispatch trace from ``spec``."""
    return spec.run_steps()
