"""Unit tests for repro.workloads.mixed."""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.stream import Trace, concatenate
from repro.workloads.base import WorkloadSpec
from repro.workloads.callret import CallReturnSpec
from repro.workloads.interpreter import InterpreterSpec
from repro.workloads.mixed import MixedSpec, generate_mixed
from repro.workloads.recursive import RecursiveSpec
from repro.workloads.switchcase import SwitchCaseSpec
from repro.workloads.vdispatch import VirtualDispatchSpec


def _components():
    return [
        (
            VirtualDispatchSpec(name="vd", seed=1, num_records=1000),
            2.0,
        ),
        (
            SwitchCaseSpec(name="sw", seed=2, num_records=1000),
            1.0,
        ),
    ]


class TestMixedSpec:
    def test_requires_components(self):
        with pytest.raises(ValueError):
            MixedSpec(name="m", seed=1, num_records=100, components=[])

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            MixedSpec(
                name="m",
                seed=1,
                num_records=100,
                components=[(_components()[0][0], 0.0)],
            )

    def test_length_close_to_requested(self):
        spec = MixedSpec(
            name="m", seed=3, num_records=6000, components=_components(),
            phase_records=1000,
        )
        trace = generate_mixed(spec)
        assert len(trace) <= 6000
        assert len(trace) >= 5000

    def test_deterministic(self):
        spec = MixedSpec(
            name="m", seed=3, num_records=4000, components=_components(),
            phase_records=800,
        )
        a = generate_mixed(spec)
        b = generate_mixed(spec)
        np.testing.assert_array_equal(a.pcs, b.pcs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_components_relocated_to_disjoint_ranges(self):
        spec = MixedSpec(
            name="m", seed=4, num_records=6000, components=_components(),
            phase_records=1000,
        )
        trace = generate_mixed(spec)
        libraries = set((trace.pcs >> np.uint64(32)).tolist())
        assert len(libraries) == 2

    def test_phases_interleave(self):
        spec = MixedSpec(
            name="m", seed=5, num_records=8000, components=_components(),
            phase_records=500,
        )
        trace = generate_mixed(spec)
        libraries = (trace.pcs >> np.uint64(32)).astype(np.int64)
        transitions = int(np.count_nonzero(np.diff(libraries)))
        assert transitions >= 4


def _eager_mixed(spec):
    """Reference mixer: generate every component in full, then cut.

    Each component generates ``int(num_records * share) + phase_records``
    records up front; phases are cut round-robin from those sub-traces.
    """
    total_weight = sum(weight for _, weight in spec.components)
    sub_traces = []
    for position, (component, weight) in enumerate(spec.components):
        share = weight / total_weight
        needed = int(spec.num_records * share) + spec.phase_records
        sub_spec = replace(
            component,
            name=f"{spec.name}/{component.name}",
            seed=component.seed ^ (spec.seed * 0x9E3779B9 + position),
            num_records=needed,
        )
        sub = sub_spec.generate()
        offset = np.uint64(position) * np.uint64(0x0000_0001_0000_0000)
        sub_traces.append(
            Trace(
                name=sub.name,
                pcs=sub.pcs + offset,
                types=sub.types,
                takens=sub.takens,
                targets=sub.targets + offset,
                gaps=sub.gaps,
            )
        )

    phases = []
    cursors = [0] * len(sub_traces)
    emitted = 0
    position = 0
    while emitted < spec.num_records:
        index = position % len(sub_traces)
        position += 1
        sub = sub_traces[index]
        start = cursors[index]
        if start >= len(sub):
            continue
        stop = min(start + spec.phase_records, len(sub))
        cursors[index] = stop
        phases.append(
            Trace(
                name=sub.name,
                pcs=sub.pcs[start:stop],
                types=sub.types[start:stop],
                takens=sub.takens[start:stop],
                targets=sub.targets[start:stop],
                gaps=sub.gaps[start:stop],
            )
        )
        emitted += stop - start
        if all(cursor >= len(trace) for cursor, trace in zip(cursors, sub_traces)):
            break

    merged = concatenate(spec.name, phases)
    return merged.head(spec.num_records) if len(merged) > spec.num_records else merged


@dataclass
class _ShortSpec(WorkloadSpec):
    """Emits ``length`` records whatever ``num_records`` asks for."""

    length: int = 10

    def generate(self):
        inner = SwitchCaseSpec(name=self.name, seed=self.seed, num_records=self.length)
        return inner.generate().head(self.length)


@dataclass
class _UnreachableSpec(WorkloadSpec):
    """A component that fails if the mixer ever sets it up."""

    def generate(self):
        raise AssertionError(f"component {self.name} was generated")


_LOOP_COMPONENTS = [
    VirtualDispatchSpec(name="vd", seed=11, num_records=1, signal_lag=3,
                        monomorphic_sites=2, phase_length=40),
    InterpreterSpec(name="in", seed=12, num_records=1, restart_period=3),
    SwitchCaseSpec(name="sw", seed=13, num_records=1, num_switches=2),
    CallReturnSpec(name="cr", seed=14, num_records=1, call_depth=3),
]


@st.composite
def _component(draw):
    kind = draw(st.sampled_from(["loop", "recursive", "mixed", "short"]))
    seed = draw(st.integers(0, 2**32))
    if kind == "loop":
        return replace(draw(st.sampled_from(_LOOP_COMPONENTS)), seed=seed)
    if kind == "recursive":
        return RecursiveSpec(name="rec", seed=seed, num_records=1,
                             max_depth=draw(st.integers(1, 8)))
    if kind == "short":
        return _ShortSpec(name="short", seed=seed, num_records=1,
                          length=draw(st.integers(1, 60)))
    return MixedSpec(
        name="nested",
        seed=seed,
        num_records=1,
        components=[
            (_LOOP_COMPONENTS[0], 1.0),
            (_LOOP_COMPONENTS[3], draw(st.sampled_from([0.01, 1.0, 50.0]))),
        ],
        phase_records=draw(st.integers(1, 700)),
    )


_WEIGHTS = st.one_of(
    st.floats(0.05, 20.0), st.sampled_from([1e-9, 1e-3, 1e3, 1e9])
)


class TestLazyMixingMatchesEager:
    """The lazy mixer cuts exactly the phases full generation would."""

    @settings(max_examples=60, deadline=None)
    @given(
        components=st.lists(st.tuples(_component(), _WEIGHTS),
                            min_size=1, max_size=3),
        num_records=st.one_of(st.integers(1, 300), st.integers(2000, 9000)),
        phase_fraction=st.floats(0.0, 1.3),
        seed=st.integers(0, 2**32),
    )
    def test_matches_eager_reference(
        self, components, num_records, phase_fraction, seed
    ):
        spec = MixedSpec(
            name="mix",
            seed=seed,
            num_records=num_records,
            components=components,
            phase_records=max(1, int(num_records * phase_fraction)),
        )
        lazy = generate_mixed(spec)
        eager = _eager_mixed(spec)
        assert lazy.name == eager.name
        for column in ("pcs", "types", "takens", "targets", "gaps"):
            np.testing.assert_array_equal(
                getattr(lazy, column), getattr(eager, column), err_msg=column
            )

    def test_unreached_component_is_never_set_up(self):
        spec = MixedSpec(
            name="m",
            seed=1,
            num_records=500,
            components=[
                (_LOOP_COMPONENTS[0], 1.0),
                (_UnreachableSpec(name="never", seed=0, num_records=1), 1.0),
            ],
            phase_records=800,
        )
        assert len(generate_mixed(spec)) == 500

    def test_all_components_run_out(self):
        spec = MixedSpec(
            name="m",
            seed=2,
            num_records=1000,
            components=[
                (_ShortSpec(name="a", seed=1, num_records=1, length=7), 1.0),
                (_ShortSpec(name="b", seed=2, num_records=1, length=5), 3.0),
            ],
            phase_records=3,
        )
        trace = generate_mixed(spec)
        assert len(trace) == 12
        np.testing.assert_array_equal(trace.pcs, _eager_mixed(spec).pcs)
