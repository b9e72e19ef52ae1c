"""Lockstep differentials for the ITTAGE/VPC columnar kernels and the
fused multi-predictor columnar pass.

The BLBP kernel's ordering barriers are pinned by
``test_kernel_properties``; this module pins the other two kernels and
the fused entry point:

* :func:`repro.sim.kernel.simulate_columnar` on ITTAGE and VPC must
  emit per-branch predictions and a final ``state_hash`` identical to
  the scalar engine's call sequence — on traces mixing conditionals,
  indirect jumps/calls, returns, and direct branches, from both cold
  and warm predictor state, on both replay paths (compiled and numpy);
* :func:`repro.sim.kernel.simulate_columnar_many` must give every lane
  of a heterogeneous fused group (identical BLBP twins, differing BLBP
  geometries and feature toggles, hierarchical IBTB, ITTAGE, VPC) the
  exact results and final state a solo run produces, and must form a
  single lane-parallel group from identical-config lanes;
* :func:`repro.sim.kernel.columnar_support` reasons must name the
  offending type and the remedy, and the kernels must refuse
  unsupported predictors rather than silently misreplay them.
"""

from __future__ import annotations

import contextlib
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cond.mpp import MultiperspectivePerceptron
from repro.cond.tage import TAGE
from repro.core import BLBP
from repro.core.config import BLBPConfig
from repro.predictors.ittage import ITTAGE, ITTAGEConfig
from repro.predictors.vpc import VPCConfig, VPCPredictor
from repro.sim import kernel
from repro.sim.engine import ColumnarUnsupportedError, simulate
from repro.sim.kernel import (
    columnar_support,
    columnar_supported,
    simulate_columnar,
    simulate_columnar_many,
)
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace

_COND = int(BranchType.CONDITIONAL)
_INDIRECT = (int(BranchType.INDIRECT_JUMP), int(BranchType.INDIRECT_CALL))

#: Tiny pools so back-to-back branches collide in tables and IBTB sets.
_PCS = [0x4000, 0x4008, 0x4040, 0x5000]
_TARGETS = [0x10_0000, 0x10_0040, 0x10_0080, 0x11_0000, 0x12_0000]


@contextlib.contextmanager
def _replay_path(force_numpy: bool):
    """Pin the replay path for the duration: the numpy fallback when
    forced, else whatever the environment resolves (compiled when a C
    compiler is available)."""
    saved = os.environ.get("REPRO_COLUMNAR_COMPILED")
    try:
        if force_numpy:
            os.environ["REPRO_COLUMNAR_COMPILED"] = "0"
        else:
            os.environ.pop("REPRO_COLUMNAR_COMPILED", None)
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_COLUMNAR_COMPILED", None)
        else:
            os.environ["REPRO_COLUMNAR_COMPILED"] = saved


def _append_event(records, depth, kind, pc_index, target_index, taken):
    """Append one event; returns the updated call depth."""
    pc = _PCS[pc_index]
    target = _TARGETS[target_index]
    if kind == "ret" and depth == 0:
        kind = "cond"  # returns only make sense under an open call
    if kind == "cond":
        records.append(
            BranchRecord(0x900 + 8 * pc_index, BranchType.CONDITIONAL,
                         taken, 0x910, inst_gap=1)
        )
    elif kind == "ind":
        records.append(
            BranchRecord(pc, BranchType.INDIRECT_JUMP, True, target,
                         inst_gap=2)
        )
    elif kind == "icall":
        records.append(
            BranchRecord(pc, BranchType.INDIRECT_CALL, True, target,
                         inst_gap=2)
        )
        depth += 1
    elif kind == "dcall":
        records.append(
            BranchRecord(0x7000, BranchType.DIRECT_CALL, True, target,
                         inst_gap=1)
        )
        depth += 1
    elif kind == "ret":
        records.append(
            BranchRecord(0x8000, BranchType.RETURN, True, target,
                         inst_gap=1)
        )
        depth -= 1
    else:  # direct jump
        records.append(
            BranchRecord(0x7100, BranchType.DIRECT_JUMP, True, target,
                         inst_gap=1)
        )
    return depth


_KINDS = ["ind", "ind", "icall", "cond", "cond", "ret", "dcall", "djump"]


def _random_trace(seed: int, name: str, count: int) -> Trace:
    rng = random.Random(seed)
    records = []
    depth = 0
    for _ in range(count):
        depth = _append_event(
            records, depth, rng.choice(_KINDS),
            rng.randrange(len(_PCS)), rng.randrange(len(_TARGETS)),
            rng.random() < 0.5,
        )
    return Trace.from_records(name, records)


@st.composite
def mixed_traces(draw):
    """Traces mixing every branch kind over deliberately tiny pools."""
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_KINDS),
                st.integers(0, len(_PCS) - 1),
                st.integers(0, len(_TARGETS) - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=120,
        )
    )
    records = []
    depth = 0
    for kind, pc_index, target_index, taken in events:
        depth = _append_event(
            records, depth, kind, pc_index, target_index, taken
        )
    return Trace.from_records("hyp-mixed", records)


def _scalar_per_branch(predictor, trace):
    """Per-branch predictions from the engine's exact call sequence."""
    predictions = []
    for pc, branch_type, taken, target in zip(
        trace.pcs.tolist(),
        trace.types.tolist(),
        trace.takens.tolist(),
        trace.targets.tolist(),
    ):
        if branch_type == _COND:
            predictor.on_conditional(pc, taken)
        elif branch_type in _INDIRECT:
            predictions.append(predictor.predict_target(pc))
            predictor.train(pc, target)
            predictor.on_retired(pc, branch_type, target)
        else:
            predictor.on_retired(pc, branch_type, target)
    return predictions


def _assert_lockstep(make_predictor, trace, force_numpy, warm_trace=None):
    scalar_predictor = make_predictor()
    columnar_predictor = make_predictor()
    if warm_trace is not None:
        simulate(scalar_predictor, warm_trace)
        columnar_predictor.load_state(scalar_predictor.state_dict())
    scalar_predictions = _scalar_per_branch(scalar_predictor, trace)
    sink = {}
    with _replay_path(force_numpy):
        simulate_columnar(columnar_predictor, trace, prediction_sink=sink)
    assert len(scalar_predictions) == len(sink["predictions"])
    for position, (scalar, valid, predicted) in enumerate(
        zip(
            scalar_predictions,
            sink["valid"].tolist(),
            sink["predictions"].tolist(),
        )
    ):
        columnar = predicted if valid else None
        assert scalar == columnar, (
            f"{trace.name}: indirect #{position}: scalar {scalar!r} vs "
            f"columnar {columnar!r}"
        )
    assert scalar_predictor.state_hash() == columnar_predictor.state_hash()


def _small_ittage():
    return ITTAGE(
        ITTAGEConfig(base_entries=64, tagged_entries=32, u_reset_period=16)
    )


def _small_vpc():
    return VPCPredictor(VPCConfig(btb_entries=128))


class TestITTAGELockstep:
    @settings(max_examples=40, deadline=None)
    @given(trace=mixed_traces())
    def test_lockstep_on_mixed_traces(self, trace):
        _assert_lockstep(_small_ittage, trace, force_numpy=False)

    @settings(max_examples=40, deadline=None)
    @given(trace=mixed_traces())
    def test_lockstep_on_mixed_traces_numpy_replay(self, trace):
        _assert_lockstep(_small_ittage, trace, force_numpy=True)

    @pytest.mark.parametrize("force_numpy", [False, True])
    def test_warm_start(self, force_numpy):
        """Resuming from mid-stream state (tables, use-alt meta-counter,
        the allocation RNG) must stay bit-identical."""
        warm = _random_trace(7, "ittage-warm", 160)
        main = _random_trace(8, "ittage-main", 200)
        _assert_lockstep(
            _small_ittage, main, force_numpy, warm_trace=warm
        )


class TestVPCLockstep:
    @settings(max_examples=40, deadline=None)
    @given(trace=mixed_traces())
    def test_lockstep_on_mixed_traces(self, trace):
        _assert_lockstep(_small_vpc, trace, force_numpy=False)

    @settings(max_examples=40, deadline=None)
    @given(trace=mixed_traces())
    def test_lockstep_on_mixed_traces_numpy_replay(self, trace):
        _assert_lockstep(_small_vpc, trace, force_numpy=True)

    @pytest.mark.parametrize("force_numpy", [False, True])
    def test_warm_start(self, force_numpy):
        """Resuming with a warm BTB and conditional predictor — the
        virtual-PC iteration depends on both — must stay bit-identical."""
        warm = _random_trace(11, "vpc-warm", 160)
        main = _random_trace(12, "vpc-main", 200)
        _assert_lockstep(_small_vpc, main, force_numpy, warm_trace=warm)


#: Conditional PCs for the multiperspective-perceptron streams: enough
#: of them to spread over the local table, some with high bits set.
_MPP_COND_PCS = [0x900 + 4 * i for i in range(9)] + [
    0xFFFF_FFFF_0000_1004,
    0x7FFF_FFFF_FFFF_FFFC,
    0x1234_5678_9ABC,
]

#: Non-default geometries for the VPC's multiperspective perceptron:
#: a multi-word global history (> 256 bits), path folds past 64 packed
#: bits (depth >= 11), index_bits 10 and 14, weight_bits 4 and 8.
_MPP_GEOMETRIES = {
    "default": {},
    "long-ghist": dict(
        features=(("bias", 0), ("ghist", 7), ("ghist", 300),
                  ("path", 3), ("local", 0)),
        index_bits=10,
        weight_bits=4,
    ),
    "deep-path": dict(
        features=(("bias", 0), ("ghist", 12), ("path", 11),
                  ("path", 16), ("local", 0)),
        index_bits=14,
        weight_bits=8,
    ),
    "narrow": dict(
        features=(("ghist", 0), ("local", 0), ("path", 2), ("bias", 0)),
        index_bits=10,
        weight_bits=4,
        local_entries=8,
        local_bits=64,
    ),
}


def _mpp_vpc(geometry):
    def make():
        mpp = MultiperspectivePerceptron(**_MPP_GEOMETRIES[geometry])
        return VPCPredictor(VPCConfig(btb_entries=64, max_iterations=6), mpp)

    return make


def _mpp_trace(name, events):
    records = []
    for is_cond, pc_index, target_index, taken in events:
        if is_cond:
            pc = _MPP_COND_PCS[pc_index % len(_MPP_COND_PCS)]
            records.append(
                BranchRecord(pc, BranchType.CONDITIONAL, taken, pc + 16,
                             inst_gap=1)
            )
        else:
            records.append(
                BranchRecord(_PCS[pc_index % len(_PCS)],
                             BranchType.INDIRECT_JUMP, True,
                             _TARGETS[target_index], inst_gap=2)
            )
    return Trace.from_records(name, records)


def _random_mpp_trace(seed, name, count, p_taken=0.6, p_cond=0.7):
    rng = random.Random(seed)
    return _mpp_trace(name, [
        (rng.random() < p_cond, rng.randrange(64),
         rng.randrange(len(_TARGETS)), rng.random() < p_taken)
        for _ in range(count)
    ])


@st.composite
def mpp_streams(draw):
    """Conditional-heavy streams with a few indirect branches."""
    events = draw(
        st.lists(
            st.tuples(
                st.booleans() | st.just(True),
                st.integers(0, 63),
                st.integers(0, len(_TARGETS) - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=160,
        )
    )
    return _mpp_trace("hyp-mpp", events)


class TestVPCCompiledMPP:
    """The VPC's multiperspective perceptron ported into ``vpc_replay``:
    per-branch predictions and final state hash equal the scalar loop's
    for every geometry, cold and warm, on both replay paths."""

    @pytest.mark.parametrize("force_numpy", [False, True])
    @pytest.mark.parametrize("geometry", sorted(_MPP_GEOMETRIES))
    @settings(max_examples=15, deadline=None)
    @given(trace=mpp_streams())
    def test_cold_lockstep(self, geometry, force_numpy, trace):
        _assert_lockstep(_mpp_vpc(geometry), trace, force_numpy)

    @pytest.mark.parametrize("force_numpy", [False, True])
    @pytest.mark.parametrize("geometry", sorted(_MPP_GEOMETRIES))
    @settings(max_examples=8, deadline=None)
    @given(trace=mpp_streams())
    def test_warm_lockstep(self, geometry, force_numpy, trace):
        """Resume from a warm ``load_state``: full multi-word history,
        full path, saturated weights, a moved threshold."""
        warm = _random_mpp_trace(21, "mpp-warm", 700)
        _assert_lockstep(
            _mpp_vpc(geometry), trace, force_numpy, warm_trace=warm
        )

    @pytest.mark.parametrize("force_numpy", [False, True])
    def test_path_shorter_than_deepest_fold(self, force_numpy):
        trace = _random_mpp_trace(3, "mpp-short", 12)
        predictor = _mpp_vpc("default")()
        with _replay_path(force_numpy):
            simulate_columnar(predictor, trace)
        assert 0 < len(predictor.conditional._path._entries) < 24
        _assert_lockstep(_mpp_vpc("default"), trace, force_numpy)

    @pytest.mark.parametrize("force_numpy", [False, True])
    @pytest.mark.parametrize(
        "counter, p_taken, p_cond", [(62, 0.0, 1.0), (-63, 0.6, 0.7)]
    )
    def test_threshold_counter_at_its_bounds(
        self, counter, p_taken, p_cond, force_numpy
    ):
        """Resume one step from each end of the threshold counter's
        range, so θ moves up (mispredictions: conditionals only, all
        against the warm-up's bias) and down (training on correct
        predictions) within the replay."""
        warm = _mpp_vpc("default")()
        simulate(warm, _random_mpp_trace(22, "mpp-theta-warm", 300))
        state = warm.state_dict()
        state["conditional"]["threshold"]["counter"] = counter

        def make():
            predictor = _mpp_vpc("default")()
            predictor.load_state(state)
            return predictor

        trace = _random_mpp_trace(23, "mpp-theta", 200, p_taken, p_cond)
        _assert_lockstep(make, trace, force_numpy)

    def test_warm_state_is_really_warm(self):
        """The warm-up stream reaches what the warm lockstep claims."""
        predictor = _mpp_vpc("long-ghist")()
        simulate(predictor, _random_mpp_trace(21, "mpp-warm", 700))
        mpp = predictor.conditional
        assert mpp._ghist.value() >> 256
        assert len(mpp._path._entries) == mpp._path.depth
        assert any(
            int(table.max()) == mpp._weight_max
            or int(table.min()) == mpp._weight_min
            for table in mpp._tables
        )
        assert mpp._threshold.theta != int(2.14 * len(mpp.features) + 20)


def _lanes():
    """A heterogeneous fused group: identical BLBP twins (groupable),
    BLBP geometry/feature variants, hierarchical IBTB, ITTAGE, VPC."""
    return [
        BLBP(BLBPConfig(table_rows=256, ibtb_sets=64)),
        BLBP(BLBPConfig(table_rows=256, ibtb_sets=64)),
        BLBP(BLBPConfig(table_rows=128, ibtb_sets=64)),
        BLBP(BLBPConfig(table_rows=256, ibtb_sets=32)),
        BLBP(BLBPConfig(table_rows=256, ibtb_sets=64,
                        use_local_history=False)),
        BLBP(BLBPConfig(table_rows=256, ibtb_sets=64,
                        use_selective_update=False)),
        BLBP(BLBPConfig(use_hierarchical_ibtb=True)),
        _small_ittage(),
        _small_vpc(),
    ]


def _assert_fused_matches_solo(seed, count, force_numpy, warm):
    trace = _random_trace(seed, f"fused-{seed}", count)
    fused = _lanes()
    solo = _lanes()
    if warm:
        warm_trace = _random_trace(seed + 1000, f"fused-warm-{seed}",
                                   count // 2)
        for lane, reference in zip(fused, solo):
            simulate(reference, warm_trace)
            lane.load_state(reference.state_dict())
    solo_results = [
        simulate(predictor, trace, collect_per_pc=True)
        for predictor in solo
    ]
    with _replay_path(force_numpy):
        fused_results = simulate_columnar_many(
            fused, trace, collect_per_pc=True
        )
    for slot, (fused_result, solo_result) in enumerate(
        zip(fused_results, solo_results)
    ):
        assert fused_result == solo_result, f"lane {slot}: result diverges"
    for slot, (lane, reference) in enumerate(zip(fused, solo)):
        assert lane.state_hash() == reference.state_hash(), (
            f"lane {slot}: final predictor state diverges"
        )


class TestFusedColumnarMany:
    @pytest.mark.parametrize("force_numpy", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_heterogeneous_lanes_match_solo(self, seed, warm, force_numpy):
        _assert_fused_matches_solo(seed, 200, force_numpy, warm)

    @pytest.mark.parametrize("force_numpy", [False, True])
    def test_single_lane(self, force_numpy):
        """One lane is the degenerate fused group: no lane-parallel
        core, but the same prepare/replay/finish path."""
        trace = _random_trace(99, "single-lane", 150)
        fused = BLBP(BLBPConfig(table_rows=128, ibtb_sets=32))
        solo = BLBP(BLBPConfig(table_rows=128, ibtb_sets=32))
        expected = simulate(solo, trace, collect_per_pc=True)
        with _replay_path(force_numpy):
            (result,) = simulate_columnar_many(
                [fused], trace, collect_per_pc=True
            )
        assert result == expected
        assert fused.state_hash() == solo.state_hash()

    def test_identical_lanes_form_one_group(self, monkeypatch):
        """Lanes with identical configurations share every precompute
        artifact, so the kernel must hand all of them to the multi-lane
        replay as a single group."""
        group_sizes = []
        original = kernel._replay_blbp_group

        def spy(preps):
            group_sizes.append(len(preps))
            return original(preps)

        monkeypatch.setattr(kernel, "_replay_blbp_group", spy)
        trace = _random_trace(3, "grouped", 200)
        config = lambda: BLBPConfig(table_rows=256, ibtb_sets=64)  # noqa: E731
        fused = [BLBP(config()) for _ in range(3)]
        solo = [BLBP(config()) for _ in range(3)]
        results = simulate_columnar_many(fused, trace)
        expected = [simulate(predictor, trace) for predictor in solo]
        assert results == expected
        for lane, reference in zip(fused, solo):
            assert lane.state_hash() == reference.state_hash()
        assert 3 in group_sizes, (
            f"identical lanes were not grouped: group sizes {group_sizes}"
        )

    def test_empty_predictor_list(self):
        assert simulate_columnar_many([], _random_trace(0, "t", 20)) == []


class TestColumnarSupport:
    def test_supported_exact_types(self):
        for predictor in (BLBP(), _small_ittage(), _small_vpc()):
            ok, reason = columnar_support(predictor)
            assert ok, reason
            assert "kernel" in reason
            assert columnar_supported(predictor)

    def test_subclass_rejected_with_reason(self):
        class Tweaked(BLBP):
            pass

        ok, reason = columnar_support(Tweaked())
        assert not ok
        assert "Tweaked" in reason
        assert "subclasses BLBP" in reason
        assert "scalar" in reason
        assert not columnar_supported(Tweaked())

    def test_unknown_type_rejected_with_reason(self):
        ok, reason = columnar_support(object())
        assert not ok
        assert "no columnar kernel" in reason
        for name in ("BLBP", "ITTAGE", "VPCPredictor"):
            assert name in reason

    def test_vpc_over_other_conditional_rejected_with_reason(self):
        ok, reason = columnar_support(VPCPredictor(conditional=TAGE()))
        assert not ok
        assert "TAGE" in reason
        assert "MultiperspectivePerceptron" in reason
        assert "scalar" in reason

    @pytest.mark.parametrize("force_numpy", [False, True])
    def test_vpc_over_other_conditional_falls_back(self, force_numpy):
        """``columnar`` warns with the reason and matches scalar exactly;
        ``columnar-strict`` raises — whether or not C is available."""
        trace = _random_trace(5, "vpc-tage", 150)
        scalar = VPCPredictor(VPCConfig(btb_entries=128), TAGE())
        expected = simulate(scalar, trace)
        _, reason = columnar_support(VPCPredictor(conditional=TAGE()))
        fallback = VPCPredictor(VPCConfig(btb_entries=128), TAGE())
        with _replay_path(force_numpy):
            with pytest.warns(RuntimeWarning) as caught:
                result = simulate(fallback, trace, backend="columnar")
            with pytest.raises(ColumnarUnsupportedError) as excinfo:
                simulate(
                    VPCPredictor(VPCConfig(btb_entries=128), TAGE()),
                    trace,
                    backend="columnar-strict",
                )
        assert any(reason in str(w.message) for w in caught)
        assert result == expected
        assert fallback.state_hash() == scalar.state_hash()
        assert str(excinfo.value) == reason

    def test_vpc_local_history_wider_than_core_rejected(self):
        predictor = VPCPredictor(
            conditional=MultiperspectivePerceptron(local_bits=65)
        )
        ok, reason = columnar_support(predictor)
        assert not ok
        assert "65-bit local histories" in reason

    def test_simulate_columnar_refuses_unsupported(self):
        class Tweaked(BLBP):
            pass

        trace = _random_trace(0, "refuse", 30)
        with pytest.raises(TypeError, match="subclasses"):
            simulate_columnar(Tweaked(), trace)
        with pytest.raises(TypeError, match="subclasses"):
            simulate_columnar_many([BLBP(), Tweaked()], trace)


class _FailingRNG:
    def random(self):
        raise RuntimeError("rng failed")


class TestITTAGECallbackFailure:
    @pytest.mark.parametrize("force_numpy", [False, True])
    def test_raising_rng_propagates(self, force_numpy):
        """A draw that raises inside the compiled core's callback stops
        the replay and surfaces, instead of a plausible wrong count."""
        predictor = _small_ittage()
        predictor._rng = _FailingRNG()
        trace = _random_trace(9, "ittage-rng", 300)
        with _replay_path(force_numpy):
            with pytest.raises(RuntimeError, match="rng failed"):
                simulate(predictor, trace, backend="columnar-strict")
