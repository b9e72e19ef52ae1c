"""Phase-structured composition of workload generators.

Real traces interleave behaviours: an Android app runs interpreter-like
bytecode, then a burst of virtual dispatch in the UI toolkit, then
callback-heavy I/O.  :func:`generate_mixed` models this by running each
component spec for a phase worth of records and concatenating the phases
round-robin until the requested length is reached.  Phase changes force
predictors to re-warm, which is a large part of why real-world MPKI is
higher than steady-state microbenchmarks suggest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.stream import Trace, concatenate
from repro.workloads.base import TraceBuilder, WorkloadSpec, advance


@dataclass
class MixedSpec(WorkloadSpec):
    """A weighted mixture of component workload specs.

    Attributes:
        components: (spec, weight) pairs; each phase allocates records to
            a component proportionally to its weight.
        phase_records: records per phase before switching components.
    """

    components: Sequence[Tuple[WorkloadSpec, float]] = field(default_factory=list)
    phase_records: int = 4000

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("MixedSpec needs at least one component")
        for _, weight in self.components:
            if weight <= 0:
                raise ValueError(f"component weight must be positive, got {weight}")
        if self.phase_records < 1:
            raise ValueError(f"phase_records must be >= 1, got {self.phase_records}")

    def generate(self) -> Trace:
        """Produce the trace for this spec."""
        return generate_mixed(self)


def generate_mixed(spec: MixedSpec) -> Trace:
    """Generate a phase-interleaved trace from ``spec``.

    Component ``i`` stands for the sub-trace its spec generates at
    ``int(num_records * share_i) + phase_records`` records (``share_i``
    being its weight over the total), seeded from its own seed mixed with
    the mixture seed and relocated to its own 4 GiB "shared library"
    base.  Phases are dealt round-robin: each visit cuts the component's
    next ``phase_records`` records, skipping components that have run
    out, until ``spec.num_records`` records accumulate or all run out.

    Components are generated lazily through
    :meth:`~repro.workloads.base.WorkloadSpec.steps`: each is advanced
    only as far as the phase being cut needs, and one the round-robin
    never reaches is never set up.  Loop generators are prefix-stable and
    every other spec emits its whole trace in one step, so the phases are
    exactly those cut from fully generated sub-traces.
    """
    total_weight = sum(weight for _, weight in spec.components)
    count = len(spec.components)
    needed = [
        int(spec.num_records * (weight / total_weight)) + spec.phase_records
        for _, weight in spec.components
    ]
    builders: List[Optional[TraceBuilder]] = [None] * count
    steps: List[Optional[Iterator[None]]] = [None] * count
    cursors = [0] * count
    cuts: List[Tuple[int, int, int]] = []
    emitted = 0
    position = 0
    idle = 0  # consecutive visits that found their component run out
    while emitted < spec.num_records and idle < count:
        index = position % count
        position += 1
        builder = builders[index]
        if builder is None:
            component = spec.components[index][0]
            sub_spec = replace(
                component,
                name=f"{spec.name}/{component.name}",
                seed=component.seed ^ (spec.seed * 0x9E3779B9 + index),
                num_records=needed[index],
            )
            builder = builders[index] = TraceBuilder(sub_spec.name)
            steps[index] = sub_spec.steps(builder)
        start = cursors[index]
        reach = start + min(spec.phase_records, spec.num_records - emitted)
        # Once a component reaches ``needed`` its length is final, as
        # ``generate()`` at ``needed`` records would leave it; short of
        # that, advancing leaves at least ``reach`` records to cut.
        advance(steps[index], builder, min(reach, needed[index]))
        stop = min(reach, len(builder))
        if stop <= start:
            idle += 1
            continue
        idle = 0
        cursors[index] = stop
        cuts.append((index, start, stop))
        emitted += stop - start

    subs = [None if builder is None else builder.build() for builder in builders]
    phases = []
    for index, start, stop in cuts:
        sub = subs[index]
        # Relocate each component to its own "shared library" base so
        # branches from different components never alias by PC.
        offset = np.uint64(index) * np.uint64(0x0000_0001_0000_0000)
        phases.append(
            Trace(
                name=sub.name,
                pcs=sub.pcs[start:stop] + offset,
                types=sub.types[start:stop],
                takens=sub.takens[start:stop],
                targets=sub.targets[start:stop] + offset,
                gaps=sub.gaps[start:stop],
            )
        )
    return concatenate(spec.name, phases)
