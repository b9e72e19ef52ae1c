"""Seeded benchmark inputs.

Every input is a :class:`~repro.workloads.base.WorkloadSpec`.  Seed 0
(the default) leaves each spec untouched, so the suite is byte for byte
the one the repository ships; any other seed replaces every spec's
seed — nested component specs included — through
``dataclasses.replace``.  The program only ever sees generated traces.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import List

from repro.workloads.base import WorkloadSpec

DEFAULT_SEED = 0


def _derive_seed(original: int, seed: int) -> int:
    """A 32-bit seed mixing the spec's own seed with the benchmark seed."""
    digest = hashlib.sha256(f"{original}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def reseed(spec: WorkloadSpec, seed: int) -> WorkloadSpec:
    """``spec`` with every (nested) workload seed re-derived from ``seed``."""
    if seed == DEFAULT_SEED:
        return spec
    changes = {"seed": _derive_seed(spec.seed, seed)}
    components = getattr(spec, "components", None)
    if components:
        changes["components"] = [
            (reseed(component, seed), weight)
            for component, weight in components
        ]
    return dataclasses.replace(spec, **changes)


def suite_entries(scale: float, seed: int) -> list:
    """The 88-workload suite at ``scale``, re-seeded."""
    from repro.workloads.suite import suite88_specs

    return [
        dataclasses.replace(entry, spec=reseed(entry.spec, seed))
        for entry in suite88_specs(scale)
    ]


def phase_specs(records_per_phase: int, seed: int) -> List[WorkloadSpec]:
    """The five-phase trace of ``benchmarks/bench_sampling.py``, re-seeded."""
    from benchmarks.bench_sampling import phase_specs as bench_phase_specs

    return [reseed(spec, seed) for spec in bench_phase_specs(records_per_phase)]


def serve_stream_spec(stream_index: int, events: int, seed: int):
    """The virtual-dispatch spec behind one serve-fleet event stream.

    ``repro.serve.client.stream_for`` builds its streams from this spec
    but cannot be re-seeded; at seed 0 the two must give the same
    events, which the serve-fleet workload checks on every run.
    """
    from repro.workloads.vdispatch import VirtualDispatchSpec

    spec = VirtualDispatchSpec(
        name=f"serve-load-{stream_index}",
        seed=0xC0FFEE + stream_index,
        num_records=events,
        num_sites=4,
        num_types=4,
        determinism=0.85,
        mean_gap=8.0,
        filler_conditionals=6,
    )
    return reseed(spec, seed)
