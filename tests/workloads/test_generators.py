"""Tests for the four concrete workload generators.

Each generator is checked for: determinism in the seed, structural
invariants (call/return pairing, branch-type mix), and the statistical
properties the suite relies on (polymorphism degree, signal presence).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.record import BranchType
from repro.trace.stats import compute_stats
from repro.workloads import (
    CallReturnSpec,
    InterpreterSpec,
    SwitchCaseSpec,
    VirtualDispatchSpec,
)


def _call_return_balance(trace):
    """Max depth mismatch between calls and returns along the trace."""
    depth = 0
    min_depth = 0
    for record in trace.records():
        if record.branch_type.is_call:
            depth += 1
        elif record.branch_type is BranchType.RETURN:
            depth -= 1
            min_depth = min(min_depth, depth)
    return depth, min_depth


class TestVirtualDispatch:
    def test_deterministic_in_seed(self):
        spec = VirtualDispatchSpec(name="x", seed=3, num_records=2000)
        trace_a = spec.generate()
        trace_b = spec.generate()
        np.testing.assert_array_equal(trace_a.pcs, trace_b.pcs)
        np.testing.assert_array_equal(trace_a.targets, trace_b.targets)

    def test_different_seeds_differ(self):
        a = VirtualDispatchSpec(name="x", seed=3, num_records=2000).generate()
        b = VirtualDispatchSpec(name="x", seed=4, num_records=2000).generate()
        assert not np.array_equal(a.targets, b.targets)

    def test_target_count_matches_num_types(self):
        spec = VirtualDispatchSpec(
            name="x", seed=5, num_records=6000, num_types=4, num_sites=2,
            determinism=0.9,
        )
        stats = compute_stats(spec.generate())
        polymorphic = [n for n in stats.targets_per_branch.values() if n > 1]
        assert polymorphic
        assert max(polymorphic) <= 4

    def test_returns_never_underflow(self):
        trace = VirtualDispatchSpec(name="x", seed=6, num_records=3000).generate()
        depth, min_depth = _call_return_balance(trace)
        assert min_depth >= 0
        assert 0 <= depth <= 2

    def test_shared_methods_share_targets(self):
        spec = VirtualDispatchSpec(
            name="x", seed=7, num_records=6000, num_sites=3, num_types=3,
            shared_methods=True,
        )
        trace = spec.generate()
        stats = compute_stats(trace)
        all_targets = set()
        polymorphic_sites = 0
        for pc, count in stats.targets_per_branch.items():
            if count > 1:
                polymorphic_sites += 1
        mask = trace.indirect_mask()
        all_targets = set(trace.targets[mask].tolist())
        # Shared vtable: at most num_types distinct polymorphic targets
        # (plus any monomorphic-site callees, disabled here).
        assert polymorphic_sites >= 2
        assert len(all_targets) <= 3

    def test_monomorphic_sites_are_monomorphic(self):
        spec = VirtualDispatchSpec(
            name="x", seed=8, num_records=6000, monomorphic_sites=4,
        )
        stats = compute_stats(spec.generate())
        mono = [n for n in stats.targets_per_branch.values() if n == 1]
        assert len(mono) >= 4

    def test_filler_raises_conditional_density(self):
        low = VirtualDispatchSpec(
            name="x", seed=9, num_records=4000, filler_conditionals=0
        ).generate()
        high = VirtualDispatchSpec(
            name="x", seed=9, num_records=4000, filler_conditionals=20
        ).generate()
        def ratio(trace):
            stats = compute_stats(trace)
            cond = stats.counts_by_type[BranchType.CONDITIONAL]
            ind = stats.indirect_executions
            return cond / max(1, ind)
        assert ratio(high) > ratio(low) + 10

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            VirtualDispatchSpec(name="x", seed=1, num_records=10, num_types=0)
        with pytest.raises(ValueError):
            VirtualDispatchSpec(name="x", seed=1, num_records=10, signal_noise=2.0)
        with pytest.raises(ValueError):
            VirtualDispatchSpec(name="x", seed=1, num_records=10, signal_lag=-1)


class TestSwitchCase:
    def test_single_static_dispatch_per_switch(self):
        spec = SwitchCaseSpec(
            name="x", seed=11, num_records=4000, num_cases=8, num_switches=2
        )
        stats = compute_stats(spec.generate())
        assert len(stats.targets_per_branch) == 2

    def test_dispatch_covers_cases(self):
        spec = SwitchCaseSpec(
            name="x", seed=12, num_records=8000, num_cases=8, num_switches=1,
            determinism=0.9,
        )
        stats = compute_stats(spec.generate())
        (count,) = stats.targets_per_branch.values()
        assert count == 8

    def test_handler_signal_bits_zero_suppresses_signal(self):
        spec = SwitchCaseSpec(
            name="x", seed=13, num_records=3000, num_cases=8,
            handler_signal_bits=0, filler_conditionals=0,
        )
        trace = spec.generate()
        stats = compute_stats(trace)
        baseline = SwitchCaseSpec(
            name="x", seed=13, num_records=3000, num_cases=8,
            handler_signal_bits=-1, filler_conditionals=0,
        )
        stats_with = compute_stats(baseline.generate())
        assert (
            stats.counts_by_type[BranchType.CONDITIONAL]
            < stats_with.counts_by_type[BranchType.CONDITIONAL]
        )

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SwitchCaseSpec(name="x", seed=1, num_records=10, num_cases=0)
        with pytest.raises(ValueError):
            SwitchCaseSpec(name="x", seed=1, num_records=10, handler_noise=-0.1)


class TestInterpreter:
    def test_dispatch_is_periodic_without_noise(self):
        spec = InterpreterSpec(
            name="x", seed=14, num_records=6000, num_opcodes=6,
            program_length=10, data_noise=0.0, restart_period=0,
        )
        trace = spec.generate()
        mask = trace.indirect_mask()
        targets = trace.targets[mask].tolist()
        period = 10
        for i in range(period, len(targets) - period):
            assert targets[i] == targets[i - period]

    def test_restart_changes_program(self):
        spec = InterpreterSpec(
            name="x", seed=15, num_records=8000, num_opcodes=12,
            program_length=16, restart_period=5,
        )
        trace = spec.generate()
        mask = trace.indirect_mask()
        targets = trace.targets[mask].tolist()
        first_program = targets[:16]
        later_program = targets[16 * 5 : 16 * 6]
        assert first_program != later_program

    def test_opcode_skew_concentrates_usage(self):
        skewed = InterpreterSpec(
            name="x", seed=16, num_records=6000, num_opcodes=24,
            program_length=200, opcode_skew=1.5,
        ).generate()
        flat = InterpreterSpec(
            name="x", seed=16, num_records=6000, num_opcodes=24,
            program_length=200, opcode_skew=0.0,
        ).generate()

        def top4_share(trace):
            mask = trace.indirect_mask()
            targets = trace.targets[mask]
            _, counts = np.unique(targets, return_counts=True)
            counts = np.sort(counts)[::-1]
            return counts[:4].sum() / counts.sum()

        assert top4_share(skewed) > top4_share(flat) + 0.15

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            InterpreterSpec(name="x", seed=1, num_records=10, num_opcodes=0)
        with pytest.raises(ValueError):
            InterpreterSpec(name="x", seed=1, num_records=10, program_length=0)


class TestCallReturn:
    def test_returns_balance_calls(self, callret_trace):
        depth, min_depth = _call_return_balance(callret_trace)
        assert min_depth >= 0

    def test_ras_friendly(self, callret_trace):
        """Every return must target the instruction after its call."""
        stack = []
        violations = 0
        for record in callret_trace.records():
            if record.branch_type.is_call:
                stack.append(record.pc + 4)
            elif record.branch_type is BranchType.RETURN:
                if stack:
                    expected = stack.pop()
                    if record.target != expected:
                        violations += 1
        assert violations == 0

    def test_mostly_low_polymorphism(self):
        spec = CallReturnSpec(
            name="x", seed=17, num_records=8000, num_sites=12,
            polymorphism_cap=3,
        )
        stats = compute_stats(spec.generate())
        assert max(stats.targets_per_branch.values()) <= 3

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CallReturnSpec(name="x", seed=1, num_records=10, num_callbacks=0)
        with pytest.raises(ValueError):
            CallReturnSpec(name="x", seed=1, num_records=10, polymorphism_cap=0)


_LOOP_SPECS = [
    VirtualDispatchSpec(name="vd", seed=1, num_records=1, signal_noise=0.1,
                        signal_lag=4, phase_length=30, monomorphic_sites=3),
    InterpreterSpec(name="in", seed=2, num_records=1, restart_period=2),
    SwitchCaseSpec(name="sw", seed=3, num_records=1, num_switches=3),
    CallReturnSpec(name="cr", seed=4, num_records=1, call_depth=3),
]


class TestPrefixStability:
    """A loop generator's trace for k records is a prefix of its trace
    for any n > k, which is what lets mixtures generate lazily."""

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from(_LOOP_SPECS),
        seed=st.integers(0, 2**32),
        k=st.integers(1, 3000),
        extra=st.integers(1, 3000),
    )
    def test_shorter_trace_is_prefix(self, spec, seed, k, extra):
        short = replace(spec, seed=seed, num_records=k).generate()
        long = replace(spec, seed=seed, num_records=k + extra).generate()
        assert k <= len(short) <= len(long)
        for column in ("pcs", "types", "takens", "targets", "gaps"):
            np.testing.assert_array_equal(
                getattr(short, column),
                getattr(long, column)[: len(short)],
                err_msg=column,
            )
