"""The compiled-replay loader: entry points, env override, build races.

The race regression pinned here: a builder whose own compile fails (a
transient error while another process held the toolchain, say) must
re-check whether a concurrent builder already published the
content-addressed library before giving up — a failed compile with a
published library present still resolves, and a failed compile with
nothing published returns the numpy fallback without raising.
"""

from __future__ import annotations

import os
import shutil
import subprocess

import numpy as np
import pytest

from repro.predictors.ittage import ITTAGE
from repro.predictors.vpc import VPCConfig, VPCPredictor
from repro.sim import native
from repro.sim.engine import simulate
from repro.workloads.suite import suite88_specs

_ENTRY_POINTS = {
    "blbp_replay",
    "blbp_replay_many",
    "ittage_replay",
    "vpc_replay",
}


def _reset_loader(monkeypatch):
    """A pristine loader state; monkeypatch restores the real one."""
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_attempted", False)
    monkeypatch.setattr(native, "_fns", {})


class TestLoader:
    def test_all_entry_points_available(self):
        if not native.available():
            pytest.skip("no C compiler in this environment")
        assert set(native.loaded_functions()) == _ENTRY_POINTS

    def test_env_override_forces_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_COMPILED", "0")
        for name in _ENTRY_POINTS:
            assert native.load(name) is None
        assert not native.available()

    def test_unknown_entry_point_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_COLUMNAR_COMPILED", raising=False)
        with pytest.raises(ValueError, match="unknown replay core"):
            native.load("nonexistent_replay")


class TestArgumentChecks:
    """Arrays are checked before their raw pointers reach a core."""

    def test_pointer_accepts_matching_array(self):
        array = np.zeros(4, dtype=np.int64)
        assert native.pointer("a", array, np.int64, 4) == array.ctypes.data

    @pytest.mark.parametrize(
        "array, message",
        [
            (np.zeros(4, dtype=np.int32), "expected dtype int64"),
            (np.zeros(8, dtype=np.int64)[::2], "not C-contiguous"),
            (np.zeros(5, dtype=np.int64), "expected 4 elements"),
            ([0, 0, 0, 0], "expected a numpy array"),
        ],
    )
    def test_pointer_rejects_mismatch(self, array, message):
        with pytest.raises(ValueError, match=message):
            native.pointer("a", array, np.int64, 4)

    def test_wrong_dtype_table_raises_before_vpc_replay(self):
        if native.load("vpc_replay") is None:
            pytest.skip("no C compiler in this environment")
        predictor = VPCPredictor(VPCConfig(btb_entries=64))
        tables = predictor.conditional._tables
        tables[0] = tables[0].astype(np.int16)
        trace = suite88_specs(0.05)[0].generate()
        with pytest.raises(ValueError, match="weights: expected dtype int8"):
            simulate(predictor, trace, backend="columnar-strict")

    def test_wrong_dtype_table_raises_before_ittage_replay(self):
        if native.load("ittage_replay") is None:
            pytest.skip("no C compiler in this environment")
        predictor = ITTAGE()
        predictor._base_ctr = predictor._base_ctr.astype(np.int16)
        trace = suite88_specs(0.05)[0].generate()
        with pytest.raises(ValueError, match="base_ctr: expected dtype int8"):
            simulate(predictor, trace, backend="columnar-strict")


class TestBuildRace:
    def test_failed_compile_finds_concurrently_published_library(
        self, monkeypatch, tmp_path
    ):
        """Our compile fails, but a concurrent builder published the
        library meanwhile: the build must resolve to it, not blacklist
        the compiled path for the whole process."""
        real = native._build()
        if real is None:
            pytest.skip("no C compiler in this environment")
        monkeypatch.delenv("REPRO_COLUMNAR_COMPILED", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _reset_loader(monkeypatch)
        expected = os.path.join(
            native.cache_dir(), os.path.basename(real)
        )

        def racing_run(cmd, capture_output=True, timeout=None):
            # The "concurrent builder" publishes while we fail.
            os.makedirs(os.path.dirname(expected), exist_ok=True)
            shutil.copy(real, expected)
            return subprocess.CompletedProcess(cmd, 1, b"", b"flaky cc")

        monkeypatch.setattr(native.subprocess, "run", racing_run)
        assert native._build() == expected
        assert native.load("blbp_replay") is not None
        assert native.load("blbp_replay_many") is not None

    def test_failed_compile_without_publish_falls_back(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_COLUMNAR_COMPILED", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _reset_loader(monkeypatch)

        def failing_run(cmd, capture_output=True, timeout=None):
            return subprocess.CompletedProcess(cmd, 1, b"", b"boom")

        monkeypatch.setattr(native.subprocess, "run", failing_run)
        assert native._build() is None
        assert native.load() is None
        assert not native.available()
