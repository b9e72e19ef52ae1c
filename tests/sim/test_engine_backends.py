"""Backend dispatch: columnar fallback policy and ``columnar-strict``.

The engine's ``backend`` parameter has three values with distinct
contracts: ``"columnar"`` covers what the kernels support —
checkpointing and resume included, span by span — warns
(``RuntimeWarning``) and falls back to scalar for unsupported
predictors, and falls back silently for profiling counters, the one
engine feature the kernels do not model; ``"columnar-strict"`` never
falls back, raising :class:`ColumnarUnsupportedError` with the
:func:`repro.sim.kernel.columnar_support` reason or the blocking
feature's name.  Either way the numbers are bit-identical to scalar.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.core import BLBP
from repro.predictors.ittage import ITTAGE
from repro.sim import kernel
from repro.sim.counters import SimCounters
from repro.sim.engine import (
    BACKENDS,
    ColumnarUnsupportedError,
    simulate,
    simulate_many,
)
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace


class TracingBLBP(BLBP):
    """A subclass the exact-type kernels must refuse."""


def _trace(seed: int = 0, count: int = 200) -> Trace:
    rng = random.Random(seed)
    pcs = [0x4000, 0x4008, 0x4040, 0x5000]
    targets = [0x10_0000, 0x10_0040, 0x11_0000]
    records = []
    for _ in range(count):
        if rng.random() < 0.4:
            records.append(
                BranchRecord(0x900, BranchType.CONDITIONAL,
                             rng.random() < 0.5, 0x910, inst_gap=1)
            )
        else:
            records.append(
                BranchRecord(rng.choice(pcs), BranchType.INDIRECT_JUMP,
                             True, rng.choice(targets), inst_gap=2)
            )
    return Trace.from_records(f"backend-{seed}", records)


_TRACE = _trace()


class TestStrictBackend:
    def test_unsupported_predictor_raises_with_reason(self):
        with pytest.raises(ColumnarUnsupportedError, match="subclasses BLBP"):
            simulate(TracingBLBP(), _TRACE, backend="columnar-strict")

    def test_checkpoint_and_resume_match_scalar(self):
        """Strict covers checkpointing and resume: every snapshot, the
        result and the final state equal the scalar run's, and so does a
        strict resume from the middle snapshot."""
        runs = {}
        for backend in ("scalar", "columnar-strict"):
            predictor = ITTAGE()
            snapshots = []
            result = simulate(
                predictor, _TRACE, warmup_records=70, collect_per_pc=True,
                checkpoint_every=50, on_checkpoint=snapshots.append,
                backend=backend,
            )
            runs[backend] = (result, snapshots, predictor.state_hash())
        scalar, scalar_snapshots, scalar_hash = runs["scalar"]
        strict, snapshots, strict_hash = runs["columnar-strict"]
        assert strict == scalar
        assert strict_hash == scalar_hash
        assert [s.checkpoint_hash() for s in snapshots] == [
            s.checkpoint_hash() for s in scalar_snapshots
        ]
        assert [s.cursor for s in snapshots] == [50, 100, 150]

        resumed_predictor = ITTAGE()
        resumed = simulate(
            resumed_predictor, _TRACE, warmup_records=70,
            collect_per_pc=True, resume_from=snapshots[1],
            backend="columnar-strict",
        )
        assert resumed == scalar
        assert resumed_predictor.state_hash() == scalar_hash

    def test_counters_blocker_raises(self):
        with pytest.raises(ColumnarUnsupportedError, match="counters"):
            simulate(
                BLBP(), _TRACE, backend="columnar-strict",
                counters=SimCounters(),
            )

    def test_supported_predictor_matches_scalar(self):
        strict_predictor = BLBP()
        scalar_predictor = BLBP()
        strict = simulate(strict_predictor, _TRACE,
                          backend="columnar-strict")
        scalar = simulate(scalar_predictor, _TRACE)
        assert strict == scalar
        assert strict_predictor.state_hash() == scalar_predictor.state_hash()

    def test_simulate_many_unsupported_raises(self):
        with pytest.raises(ColumnarUnsupportedError, match="subclasses"):
            simulate_many(
                [BLBP(), TracingBLBP()], _TRACE, backend="columnar-strict"
            )

    def test_simulate_many_checkpointing_raises(self, tmp_path):
        with pytest.raises(ColumnarUnsupportedError, match="checkpointing"):
            simulate_many(
                [BLBP()], _TRACE, backend="columnar-strict",
                checkpoint_every=50,
                checkpoint_paths=[str(tmp_path / "cell.ckpt")],
            )


class TestColumnarFallback:
    def test_unsupported_predictor_warns_and_matches_scalar(self):
        columnar_predictor = TracingBLBP()
        scalar_predictor = TracingBLBP()
        with pytest.warns(RuntimeWarning, match="falling back to scalar"):
            columnar = simulate(
                columnar_predictor, _TRACE, backend="columnar"
            )
        scalar = simulate(scalar_predictor, _TRACE)
        assert columnar == scalar
        assert (
            columnar_predictor.state_hash() == scalar_predictor.state_hash()
        )

    def test_feature_fallback_is_silent(self, monkeypatch):
        """Checkpointing under ``backend="columnar"`` no longer falls
        back: every span replays on the kernel, without any warning, and
        the snapshots are taken all the same."""
        spans = []
        replay = kernel.simulate_columnar

        def counted(predictor, span, **kwargs):
            spans.append(len(span))
            return replay(predictor, span, **kwargs)

        monkeypatch.setattr(kernel, "simulate_columnar", counted)
        grabbed = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = simulate(
                BLBP(), _TRACE, backend="columnar",
                checkpoint_every=64, on_checkpoint=grabbed.append,
            )
        assert spans == [64, 64, 64, 8], "a span did not reach the kernel"
        assert [snapshot.cursor for snapshot in grabbed] == [64, 128, 192]
        assert result == simulate(BLBP(), _TRACE)

    def test_simulate_many_mixed_lanes_merge(self):
        """Supported lanes run columnar, the subclass runs through the
        fused scalar loop (with one aggregated warning); the merged
        results and final states are indistinguishable from all-scalar."""
        fused = [BLBP(), TracingBLBP(), ITTAGE()]
        solo = [BLBP(), TracingBLBP(), ITTAGE()]
        with pytest.warns(RuntimeWarning, match="fused scalar"):
            results = simulate_many(fused, _TRACE, backend="columnar")
        expected = [simulate(predictor, _TRACE) for predictor in solo]
        assert results == expected
        for slot, (lane, reference) in enumerate(zip(fused, solo)):
            assert lane.state_hash() == reference.state_hash(), (
                f"lane {slot}: final state diverges"
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            simulate(BLBP(), _TRACE, backend="simd")
        with pytest.raises(ValueError, match="unknown backend"):
            simulate_many([BLBP()], _TRACE, backend="simd")

    def test_backend_roster(self):
        assert BACKENDS == ("scalar", "columnar", "columnar-strict")
