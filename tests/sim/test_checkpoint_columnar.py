"""Columnar checkpoint and resume, in lockstep with the scalar loop.

``simulate(backend="columnar-strict")`` replays each checkpoint span
through the kernels and the span's calls and returns through the real
return-address stack.  Hypothesis draws the shapes that stress that
split: a snapshot after every record, spans of a few records, one span
longer than the whole trace, warm-ups that end inside a later span, and
stacks shallow enough to overflow.  Every snapshot must hash equal to
the scalar one, and resuming from any of them must reach the scalar
run's result and final state.

Both replay paths run: the compiled core when a C compiler is
available, and the numpy replay (forced via
``REPRO_COLUMNAR_COMPILED=0``, which :func:`repro.sim.native.load`
checks per call).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BLBP
from repro.predictors.ittage import ITTAGE
from repro.predictors.vpc import VPCPredictor
from repro.sim.engine import simulate
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace

_FACTORIES = {"BLBP": BLBP, "ITTAGE": ITTAGE, "VPC": VPCPredictor}

_PCS = [0x4000, 0x4040, 0x5000]
_CALL_PCS = [0x6000, 0x6100, 0x6200]
_TARGETS = [0x10_0000, 0x10_0040, 0x11_0000]
_KINDS = ["cond", "cond", "ind", "ind", "icall", "call", "ret", "ret", "jump"]

_MAX_RECORDS = 150


@st.composite
def call_heavy_traces(draw):
    """Short traces whose calls and returns nest, unbalance and overflow.

    Returns target a call site's return address, so the RAS predicts
    some of them right and a shallow stack loses some to overflow.
    """
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_KINDS),
                st.integers(0, 2),
                st.integers(0, 2),
                st.booleans(),
            ),
            min_size=1,
            max_size=_MAX_RECORDS,
        )
    )
    records = []
    for kind, pc_index, target_index, taken in events:
        if kind == "cond":
            record = BranchRecord(
                0x900 + 8 * pc_index, BranchType.CONDITIONAL, taken,
                0x910, inst_gap=1,
            )
        elif kind == "ind":
            record = BranchRecord(
                _PCS[pc_index], BranchType.INDIRECT_JUMP, True,
                _TARGETS[target_index], inst_gap=2,
            )
        elif kind == "icall":
            record = BranchRecord(
                _CALL_PCS[pc_index], BranchType.INDIRECT_CALL, True,
                _TARGETS[target_index], inst_gap=2,
            )
        elif kind == "call":
            record = BranchRecord(
                _CALL_PCS[pc_index], BranchType.DIRECT_CALL, True,
                _TARGETS[target_index], inst_gap=1,
            )
        elif kind == "ret":
            record = BranchRecord(
                0x7000, BranchType.RETURN, True,
                _CALL_PCS[target_index] + 4, inst_gap=1,
            )
        else:
            record = BranchRecord(
                0x8000, BranchType.DIRECT_JUMP, True, 0x8100, inst_gap=1,
            )
        records.append(record)
    return Trace.from_records("hyp-checkpoint", records)


#: A snapshot after every record, spans of a few records, and one span
#: that outlasts the trace (no snapshot at all).
_INTERVALS = st.one_of(
    st.just(1),
    st.integers(2, 40),
    st.integers(_MAX_RECORDS + 1, 2 * _MAX_RECORDS),
)


@contextmanager
def _replay_path(force_numpy: bool):
    saved = os.environ.get("REPRO_COLUMNAR_COMPILED")
    if force_numpy:
        os.environ["REPRO_COLUMNAR_COMPILED"] = "0"
    try:
        yield
    finally:
        if force_numpy:
            if saved is None:
                os.environ.pop("REPRO_COLUMNAR_COMPILED", None)
            else:
                os.environ["REPRO_COLUMNAR_COMPILED"] = saved


def _run(factory, trace, backend, **options):
    predictor = factory()
    snapshots = []
    result = simulate(
        predictor, trace, collect_per_pc=True, backend=backend,
        on_checkpoint=snapshots.append, **options,
    )
    return result, snapshots, predictor.state_hash()


@pytest.mark.parametrize("force_numpy", [False, True], ids=["c", "numpy"])
@settings(max_examples=60, deadline=None)
@given(
    trace=call_heavy_traces(),
    name=st.sampled_from(sorted(_FACTORIES)),
    every=_INTERVALS,
    warmup=st.integers(0, 2 * _MAX_RECORDS),
    ras_depth=st.integers(1, 4),
)
def test_columnar_checkpoints_and_resumes_match_scalar(
    force_numpy, trace, name, every, warmup, ras_depth
):
    factory = _FACTORIES[name]
    options = dict(
        warmup_records=warmup, ras_depth=ras_depth, checkpoint_every=every
    )
    scalar, scalar_snapshots, scalar_hash = _run(
        factory, trace, "scalar", **options
    )
    with _replay_path(force_numpy):
        columnar, snapshots, columnar_hash = _run(
            factory, trace, "columnar-strict", **options
        )
        assert columnar == scalar
        assert columnar.mispredictions_by_pc == scalar.mispredictions_by_pc
        assert [s.checkpoint_hash() for s in snapshots] == [
            s.checkpoint_hash() for s in scalar_snapshots
        ]
        assert columnar_hash == scalar_hash

        for snapshot in snapshots:
            predictor = factory()
            resumed = simulate(
                predictor, trace, warmup_records=warmup,
                ras_depth=ras_depth, collect_per_pc=True,
                resume_from=snapshot, backend="columnar-strict",
            )
            assert resumed == scalar, (
                f"resume from cursor {snapshot.cursor} diverged"
            )
            assert predictor.state_hash() == scalar_hash
