"""Unit tests for repro.workloads.suite (Table 1 inventory)."""

import hashlib

import numpy as np
import pytest

from repro.trace.stats import compute_stats
from repro.workloads.suite import (
    build_cbp4_like_suite,
    cbp4_like_specs,
    env_scale,
    suite88_specs,
)


class TestSuite88Specs:
    def test_exactly_88_traces(self):
        assert len(suite88_specs(scale=1.0)) == 88

    def test_source_counts_match_table1(self):
        specs = suite88_specs(scale=1.0)
        counts = {}
        for entry in specs:
            counts[entry.source] = counts.get(entry.source, 0) + 1
        assert counts == {
            "SPEC CPU2000": 1,
            "SPEC CPU2006": 12,
            "SPEC CPU2017": 7,
            "CBP-5": 68,
        }

    def test_cbp5_split(self):
        specs = suite88_specs(scale=1.0)
        categories = {}
        for entry in specs:
            if entry.source == "CBP-5":
                categories[entry.category] = categories.get(entry.category, 0) + 1
        assert categories == {
            "mobile-short": 24,
            "mobile-long": 10,
            "server-short": 24,
            "server-long": 10,
        }

    def test_names_unique(self):
        names = [entry.name for entry in suite88_specs(scale=1.0)]
        assert len(set(names)) == 88

    def test_specs_deterministic_across_calls(self):
        first = suite88_specs(scale=1.0)
        second = suite88_specs(scale=1.0)
        for a, b in zip(first, second):
            assert a.spec == b.spec

    def test_scale_changes_length(self):
        small = suite88_specs(scale=1.0)[0]
        large = suite88_specs(scale=2.0)[0]
        assert large.spec.num_records == 2 * small.spec.num_records

    def test_generated_trace_is_deterministic(self):
        entry = suite88_specs(scale=1.0)[0]
        a = entry.generate()
        b = entry.generate()
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_long_traces_longer_than_short(self):
        specs = {e.name: e for e in suite88_specs(scale=1.0)}
        assert (
            specs["LONG-MOBILE-1"].spec.num_records
            > specs["SHORT-MOBILE-1"].spec.num_records
        )


def _suite_digest(scale):
    """SHA-256 over every column of the 88 traces, in suite order."""
    digest = hashlib.sha256()
    for entry in suite88_specs(scale=scale):
        trace = entry.spec.generate()
        for column in (
            trace.pcs, trace.types, trace.takens, trace.targets, trace.gaps
        ):
            digest.update(column.tobytes())
    return digest.hexdigest()


class TestSuiteContent:
    """The generated suite is pinned byte for byte.

    Any change to a generator, the trace builder or the mixer that moves
    a single record of the 88 traces changes these digests.
    """

    @pytest.mark.parametrize(
        "scale, expected",
        [
            (
                0.15,
                "f4f37a6bafe512f28815d0373d7c5d64"
                "cf19ed949b433271d5a2e2d340edb420",
            ),
            (
                1.0,
                "bb0eefd243bbf1587397ef5c072a1bc5"
                "50f2c451aa429201a5e72311272612d3",
            ),
        ],
        ids=["scale-0.15", "scale-1.0"],
    )
    def test_suite_digest(self, scale, expected):
        assert _suite_digest(scale) == expected


class TestCBP4Suite:
    def test_twenty_traces(self):
        assert len(cbp4_like_specs(scale=1.0)) == 20

    def test_generates(self):
        traces = build_cbp4_like_suite(scale=0.3)
        assert len(traces) == 20
        assert all(len(trace) > 0 for trace in traces)

    def test_easier_than_main_suite(self):
        """CBP-4-like traces must be lighter on polymorphism."""
        cbp4 = cbp4_like_specs(scale=0.5)[0].generate()
        stats = compute_stats(cbp4)
        assert stats.polymorphic_fraction() <= 1.0  # sanity
        assert max(stats.targets_per_branch.values(), default=1) <= 4


class TestEnvScale:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert env_scale(2.5) == 2.5

    def test_presets(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert env_scale() == 1.0
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert env_scale() == 10.0

    def test_numeric(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "4.5")
        assert env_scale() == 4.5

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(ValueError):
            env_scale()
