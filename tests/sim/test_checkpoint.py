"""Checkpointed simulation: equivalence, atomicity, and tolerance.

The contract under test: a simulation that checkpoints, dies, and
resumes produces results per-branch identical to one that never
stopped — and a checkpoint file is an optimization, never a source of
truth (missing/corrupt files restart the trace instead of failing).
"""

import json
import os

import pytest

from repro.core import BLBP
from repro.predictors import ITTAGE
from repro.sim.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    SimulationCheckpoint,
    discard_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.engine import simulate
from repro.workloads.suite import suite88_specs

_SCALE = 0.02  # 2000-record traces: fast, but several checkpoint spans


@pytest.fixture(scope="module")
def trace():
    return suite88_specs(_SCALE)[0].generate()


def _collect(predictor, trace, every=500):
    """Run with an in-memory checkpoint sink; return (result, snapshots)."""
    grabbed = []
    result = simulate(
        predictor, trace, checkpoint_every=every, on_checkpoint=grabbed.append
    )
    return result, grabbed


class TestCheckpointedRunEquivalence:
    def test_checkpointing_does_not_change_results(self, trace):
        plain = simulate(BLBP(), trace)
        checkpointed, grabbed = _collect(BLBP(), trace)
        assert grabbed, "expected mid-trace checkpoints"
        assert (
            checkpointed.indirect_mispredictions
            == plain.indirect_mispredictions
        )
        assert checkpointed.mpki() == pytest.approx(plain.mpki())

    def test_end_state_identical_with_and_without_checkpointing(self, trace):
        a, b = BLBP(), BLBP()
        simulate(a, trace)
        _collect(b, trace)
        assert a.state_hash() == b.state_hash()

    def test_resume_from_every_checkpoint_matches(self, trace):
        plain = simulate(BLBP(), trace)
        end_hash_predictor = BLBP()
        _, grabbed = _collect(end_hash_predictor, trace)
        for checkpoint in grabbed:
            fresh = BLBP()
            # Round-trip through JSON: resume must survive a process hop.
            revived = SimulationCheckpoint.from_state(
                json.loads(json.dumps(checkpoint.state_dict()))
            )
            resumed = simulate(fresh, trace, resume_from=revived)
            assert (
                resumed.indirect_mispredictions
                == plain.indirect_mispredictions
            ), f"diverged resuming from cursor {checkpoint.cursor}"
            assert fresh.state_hash() == end_hash_predictor.state_hash()

    def test_resume_preserves_warmup_accounting(self, trace):
        plain = simulate(BLBP(), trace, warmup_records=700)
        _, grabbed = _collect(BLBP(), trace)
        # Redo with warmup: grab a checkpoint from inside the warmup zone.
        grabbed = []
        simulate(
            BLBP(), trace, warmup_records=700,
            checkpoint_every=500, on_checkpoint=grabbed.append,
        )
        early = grabbed[0]
        assert early.skip > 0, "checkpoint should land inside warmup"
        resumed = simulate(BLBP(), trace, warmup_records=700, resume_from=early)
        assert resumed.indirect_branches == plain.indirect_branches
        assert (
            resumed.indirect_mispredictions == plain.indirect_mispredictions
        )

    def test_ittage_resume_matches(self, trace):
        plain = simulate(ITTAGE(), trace)
        _, grabbed = _collect(ITTAGE(), trace)
        revived = SimulationCheckpoint.from_state(grabbed[-1].state_dict())
        resumed = simulate(ITTAGE(), trace, resume_from=revived)
        assert (
            resumed.indirect_mispredictions == plain.indirect_mispredictions
        )


class TestResumeValidation:
    def test_wrong_trace_rejected(self, trace):
        _, grabbed = _collect(BLBP(), trace)
        other = suite88_specs(_SCALE)[1].generate()
        with pytest.raises(ValueError, match="trace"):
            simulate(BLBP(), other, resume_from=grabbed[0])

    def test_wrong_predictor_rejected(self, trace):
        _, grabbed = _collect(BLBP(), trace)
        with pytest.raises(ValueError, match="predictor"):
            simulate(ITTAGE(), trace, resume_from=grabbed[0])

    def test_negative_interval_rejected(self, trace):
        with pytest.raises(ValueError, match=">= 0"):
            simulate(BLBP(), trace, checkpoint_every=-1)

    def test_interval_without_sink_rejected(self, trace):
        with pytest.raises(ValueError, match="checkpoint_path"):
            simulate(BLBP(), trace, checkpoint_every=100)


class TestCheckpointFiles:
    def test_save_load_roundtrip(self, trace, tmp_path):
        _, grabbed = _collect(BLBP(), trace)
        path = tmp_path / "cell.ckpt.json"
        save_checkpoint(grabbed[0], path)
        loaded = load_checkpoint(path)
        assert loaded is not None
        assert loaded.checkpoint_hash() == grabbed[0].checkpoint_hash()

    def test_missing_file_loads_as_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.json") is None

    def test_corrupt_file_loads_as_none(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert load_checkpoint(path) is None

    def test_truncated_file_loads_as_none(self, trace, tmp_path):
        _, grabbed = _collect(BLBP(), trace)
        path = tmp_path / "cell.ckpt.json"
        save_checkpoint(grabbed[0], path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        assert load_checkpoint(path) is None

    def test_save_leaves_no_temp_droppings(self, trace, tmp_path):
        _, grabbed = _collect(BLBP(), trace)
        path = tmp_path / "cell.ckpt.json"
        for checkpoint in grabbed:
            save_checkpoint(checkpoint, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cell.ckpt.json"]

    def test_discard_is_idempotent(self, tmp_path):
        path = tmp_path / "cell.ckpt.json"
        path.write_text("{}")
        discard_checkpoint(path)
        discard_checkpoint(path)  # second call: file already gone
        assert not path.exists()

    def test_engine_writes_and_file_resumes(self, trace, tmp_path):
        path = tmp_path / "cell.ckpt.json"
        plain = simulate(BLBP(), trace)
        simulate(BLBP(), trace, checkpoint_every=800, checkpoint_path=str(path))
        # The last mid-trace checkpoint stays on disk (the engine does
        # not delete it; the exec layer owns the lifecycle).
        loaded = load_checkpoint(path)
        assert loaded is not None and 0 < loaded.cursor < len(trace)
        resumed = simulate(BLBP(), trace, resume_from=loaded)
        assert (
            resumed.indirect_mispredictions == plain.indirect_mispredictions
        )

    @pytest.mark.parametrize(
        "edit",
        [
            {"skip": -1},
            {"cursor": -1},
            {"indirect": -3},
            {"mispredictions": -1},
            {"returns": -2},
            {"return_mispredictions": -1},
            {"conditionals": -5},
            {"by_pc": {"4096": -1}},
            {"mispredictions": 10**6},
            {"return_mispredictions": 10**6},
        ],
        ids=lambda edit: "-".join(f"{key}={value}" for key, value in edit.items()),
    )
    def test_inconsistent_counters_load_as_none(self, trace, tmp_path, edit):
        """A checkpoint whose counters cannot come from a run is damaged:
        resuming from it would add to bad counters and report a wrong
        MPKI, so it loads as ``None`` and the run restarts from zero."""
        _, grabbed = _collect(BLBP(), trace)
        path = tmp_path / "cell.ckpt.json"
        save_checkpoint(grabbed[0], path)
        assert load_checkpoint(path) is not None
        state = json.loads(path.read_text())
        state.update(edit)
        path.write_text(json.dumps(state))
        assert load_checkpoint(path) is None


def test_default_interval_is_sane():
    assert DEFAULT_CHECKPOINT_INTERVAL >= 10_000
