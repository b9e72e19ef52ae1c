"""Shared benchmark plumbing: run context, failure ledger, timing loop."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from spans import Tracer

#: Set-up is repeated this many times per run; its median is reported.
#: Set-ups under a second are dominated by process start-up jitter and
#: repeat CHEAP_SETUP_REPEATS times instead.
SETUP_REPEATS = 3
CHEAP_SETUP_REPEATS = 5

# A shared host's speed can change 1.6x from one minute to the next, so
# every timed span is scaled by the machine speed measured while the
# workload is idle, right before and right after it (see SpeedGauge):
# reference seconds = host seconds x REFERENCE_CHUNK_S / mean chunk
# seconds of the two brackets.  Host seconds stay in the run record.
#: Chunk seconds that read as speed 1.0 (about this on a 2-vCPU x86-64 VM).
REFERENCE_CHUNK_S = 0.001
CHUNK_ITERATIONS = 8_000
#: Seconds of chunks timed per bracket.
BRACKET_S = 0.4


@dataclass
class Ledger:
    """Operations attempted and failed, plus every check's verdict."""

    attempted: int = 0
    failed: int = 0
    checks: List[dict] = field(default_factory=list)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """One comparison; a mismatch counts as a failed operation."""
        self.ops(1, 0 if ok else 1)
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", flush=True)
        return ok


@dataclass
class Context:
    """What a workload needs: its seed, budget, tracer and scratch dir."""

    seed: int
    seconds: float
    tracer: Tracer
    jobs: int
    #: This run's scratch directory, removed when the run ends.
    work: Path
    gauge: SpeedGauge
    ledger: Ledger = field(default_factory=Ledger)
    #: Path accounting and other notes for the run record.
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def scratch(self, name: str) -> Path:
        path = self.work / name
        path.mkdir(parents=True, exist_ok=True)
        return path


def log(message: str) -> None:
    print(message, flush=True)


class SpeedGauge:
    """Machine speed, measured only while the workload is idle.

    A bracket times a fixed chunk of interpreter arithmetic over a small
    list for :data:`BRACKET_S` seconds, split evenly over every CPU the
    run may use (the gauge pins itself to each in turn), because
    tenants sharing a host slow its CPUs unequally and the workload's
    processes run on all of them.  Brackets run between timed spans,
    never during one, so the workload's own load cannot slow the gauge
    and thereby shrink its own reference time.

    Measured over five minutes of back-to-back passes per workload on
    a 2-vCPU x86-64 VM, the log of a pass's host seconds followed the
    log of its two brackets' chunk time with correlation 0.71 and slope
    0.68 on ablation-fused (two workers) and 0.37 and 0.67 on
    sampled-ingest (one process); scaling cut the spread (interquartile
    range over median) of three-pass medians from 0.15 to 0.11 and from
    0.19 to 0.17.  A gauge left on whichever CPU the scheduler chose
    did worse on ablation-fused (correlation 0.53, spread 0.14).  The
    scaling cancels machine speed that persists across a pass and
    its brackets; it cannot cancel changes faster than a pass, nor
    slow-downs that an arithmetic chunk does not feel (memory
    bandwidth, disk).
    """

    def __init__(self) -> None:
        self._values = [float(i) for i in range(CHUNK_ITERATIONS)]
        #: Mean chunk seconds of each bracket, in order.
        self.brackets: List[float] = []

    def _chunks(self, seconds: float) -> float:
        """Mean seconds of one chunk over ``seconds`` of chunks."""
        costs = []
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop:
            started = time.perf_counter()
            total = 0.0
            for i, value in enumerate(self._values):
                total += i * i % 7 + value
            costs.append(time.perf_counter() - started)
        return statistics.fmean(costs)

    def bracket(self) -> float:
        """Mean seconds of one chunk, measured now on every CPU in turn."""
        cpus = sorted(os.sched_getaffinity(0))
        per_cpu = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(self._chunks(BRACKET_S / len(cpus)))
        finally:
            os.sched_setaffinity(0, cpus)
        self.brackets.append(statistics.fmean(per_cpu))
        return self.brackets[-1]

    @staticmethod
    def speed(before: float, after: float) -> float:
        """Reference seconds per host second between two brackets."""
        return REFERENCE_CHUNK_S / ((before + after) / 2.0)


def median_setup(
    ctx: "Context", setup: Callable[[], object], repeats: int = SETUP_REPEATS
) -> tuple:
    """Run ``setup`` ``repeats`` times, each between two gauge brackets.

    Returns (median reference seconds, host seconds of each run, value
    of the last run).
    """
    host, ref = [], []
    value = None
    before = ctx.gauge.bracket()
    for _ in range(repeats):
        started = time.perf_counter()
        value = setup()
        host.append(time.perf_counter() - started)
        after = ctx.gauge.bracket()
        ref.append(host[-1] * ctx.gauge.speed(before, after))
        before = after
    return statistics.median(ref), host, value


def run_passes(
    ctx: "Context",
    one_pass: Callable[[int], dict],
    minimum: int = 1,
    traced_tail: Optional[Callable[[dict], None]] = None,
) -> List[dict]:
    """Timed passes of a workload, each between two gauge brackets.

    ``one_pass(i)`` returns a dict whose ``"wall"`` is the pass's host
    seconds; this adds its ``"speed"`` and ``"ref_wall"`` (reference
    seconds).  Untraced, passes repeat until ``ctx.seconds`` have gone
    by (at least ``minimum``).  Traced, pass 0 is an untraced baseline
    and pass 1 is the traced ``pass`` interval; ``traced_tail(pass)``
    then runs as the separate ``walk`` interval (the layer-by-layer
    breakdown), so the two are never added together.
    """
    passes: List[dict] = []
    first = time.perf_counter()
    before = ctx.gauge.bracket()
    while True:
        traced_pass = ctx.traced and len(passes) == 1
        if traced_pass:
            ctx.tracer.start("pass")
        outcome = one_pass(len(passes))
        if traced_pass:
            ctx.tracer.stop()
        after = ctx.gauge.bracket()
        outcome["speed"] = ctx.gauge.speed(before, after)
        outcome["ref_wall"] = outcome["wall"] * outcome["speed"]
        before = after
        passes.append(outcome)
        if ctx.traced:
            if len(passes) == 2:
                break
        elif (
            len(passes) >= minimum
            and time.perf_counter() - first >= ctx.seconds
        ):
            break
    if ctx.traced and traced_tail is not None:
        ctx.tracer.start("walk")
        traced_tail(passes[1])
        ctx.tracer.stop()
    return passes


def timing_layers(ctx: "Context", passes: Sequence[dict]) -> dict:
    """Host wall and machine speed of the passes, for the record."""
    ctx.notes["pass_host_walls_s"] = [p["wall"] for p in passes]
    ctx.notes["pass_speeds"] = [p["speed"] for p in passes]
    return {
        "host_wall_s": statistics.median(p["wall"] for p in passes),
        "machine_speed": statistics.median(p["speed"] for p in passes),
    }


def overhead_layers(passes: List[dict]) -> dict:
    """Traced vs untraced pass of a traced run, side by side."""
    baseline, traced = passes[0], passes[1]
    return {
        "untraced_pass_wall_s": baseline["wall"],
        "traced_pass_wall_s": traced["wall"],
        "tracing_overhead_pct": 100.0
        * (traced["ref_wall"] - baseline["ref_wall"])
        / baseline["ref_wall"],
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0-100) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def relative_pct(better: float, base: float) -> float:
    """How much lower ``better`` is than ``base``, in percent of ``base``."""
    return 100.0 * (base - better) / base
