"""The two campaign workloads: ``suite-roster`` and ``ablation-fused``.

Both run :func:`repro.exec.run_campaign_parallel` with the columnar
backend, fused cells and ``jobs = nproc``.

* ``suite-roster`` is the paper's headline: the 88-trace suite against
  BTB, VPC, ITTAGE and BLBP, timed from suite generation to the MPKI
  table.  VPC replay dominates it, and its short traces expose the
  per-cell fixed costs.
* ``ablation-fused`` replays nine lanes (six BLBP feature ablations and
  three ITTAGE useful-bit reset points) over the full-length suite.
  It has no VPC lane, and all nine lanes share one precompute per
  trace, so it moves with the kernels, precompute, spill and exec, but
  not with VPC.  Suite generation is its set-up.

The traced run repeats one pipeline pass under spans and then, as a
separate interval, walks the same fused units layer by layer (spill,
attach, derive, kernel precompute and replay through the fused
columnar entry point, scalar fallback), so each layer's time is
measured where the benchmark calls it.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from typing import Callable, Dict

from common import (
    CHEAP_SETUP_REPEATS,
    SETUP_REPEATS,
    Context,
    log,
    median_setup,
    overhead_layers,
    peak_rss_mb,
    percentile,
    relative_pct,
    run_passes,
    timing_layers,
)
from inputs import suite_entries

#: Suite length scale for the headline roster (short traces by design).
ROSTER_SCALE = 0.15
#: Suite length scale for the ablation campaign (the full-length suite).
ABLATION_SCALE = 1.0
#: Plan positions of the traces whose cells are re-checked on the
#: scalar backend, outside the timed region, per workload.
ROSTER_SAMPLE = (0, 47)
ABLATION_SAMPLE = (47,)

_RESULT_FIELDS = (
    "total_instructions",
    "indirect_branches",
    "indirect_mispredictions",
    "return_branches",
    "return_mispredictions",
    "conditional_branches",
    "mispredictions_by_pc",
)


def roster_factories() -> Dict[str, Callable]:
    from repro.core.blbp import BLBP
    from repro.predictors import ITTAGE, BranchTargetBuffer
    from repro.predictors.vpc import VPCPredictor

    return {
        "BTB": BranchTargetBuffer,
        "VPC": VPCPredictor,
        "ITTAGE": ITTAGE,
        "BLBP": BLBP,
    }


def ablation_factories() -> Dict[str, Callable]:
    """The lanes of ``bench_columnar.ablation_factories`` as partials.

    Partials of classes pickle by reference, so every lane can cross
    the process-pool boundary.
    """
    from repro.core import BLBP, BLBPConfig
    from repro.predictors.ittage import ITTAGE, ITTAGEConfig

    def blbp(**flags):
        return functools.partial(BLBP, BLBPConfig(**flags))

    def ittage(period):
        return functools.partial(ITTAGE, ITTAGEConfig(u_reset_period=period))

    return {
        "BLBP": BLBP,
        "BLBP-no-selective": blbp(use_selective_update=False),
        "BLBP-no-adaptive": blbp(use_adaptive_threshold=False),
        "BLBP-no-transfer": blbp(use_transfer_function=False),
        "BLBP-no-local": blbp(use_local_history=False),
        "BLBP-no-intervals": blbp(use_intervals=False),
        "ITTAGE-ureset-14": ittage(1 << 14),
        "ITTAGE": ITTAGE,
        "ITTAGE-ureset-18": ittage(1 << 18),
    }


def _kernel_name(predictor) -> str:
    """The per-layer metric suffix for a predictor's kernel family."""
    return {"VPCPredictor": "VPC", "BranchTargetBuffer": "BTB"}.get(
        type(predictor).__name__, type(predictor).__name__
    )


def _generate(ctx: Context, entries) -> list:
    traces = []
    for entry in entries:
        with ctx.tracer.span(entry.name, "workloads"):
            traces.append(entry.generate())
    return traces


def _campaign(ctx: Context, traces, factories) -> tuple:
    """One fused columnar campaign; (result, events, seconds)."""
    from repro.exec import CollectingSink, run_campaign_parallel

    sink = CollectingSink()
    started = time.perf_counter()
    with ctx.tracer.span("run_campaign_parallel", "exec"):
        result = run_campaign_parallel(
            traces,
            factories,
            jobs=ctx.jobs,
            backend="columnar",
            fuse=True,
            events=sink,
        )
    return result, sink.events, time.perf_counter() - started


def _exec_stats(events, campaign_seconds: float, jobs: int) -> dict:
    """Exec-layer metrics and per-unit latencies from ``ExecEvent``s."""
    from repro.exec.events import (
        CELL_FAILED,
        CELL_FINISH,
        CELL_RETRY,
        CELL_START,
        FALLBACK,
    )

    busy = 0.0
    per_unit: Dict[str, float] = defaultdict(float)
    fused = set()
    counts: Dict[str, int] = defaultdict(int)
    for event in events:
        counts[event.kind] += 1
        if event.kind == CELL_FINISH:
            busy += event.duration
            per_unit[event.trace] += event.duration
        elif event.kind == CELL_START and event.group:
            fused.add(event.trace)
    return {
        "busy": busy,
        "unit_latencies": list(per_unit.values()),
        "exec.cell_busy_s": busy,
        "exec.retries": counts[CELL_RETRY],
        "exec.overhead_s": campaign_seconds - busy / jobs,
        "exec.utilization": busy / (jobs * campaign_seconds),
        "exec.failed_cells": counts[CELL_FAILED],
        "exec.fused_groups": len(fused),
        "fallback_events": counts[FALLBACK],
    }


def _table(result, predictors) -> Dict[str, Dict[str, tuple]]:
    return {
        trace: {
            name: tuple(getattr(per[name], f) for f in _RESULT_FIELDS)
            for name in predictors
            if name in per
        }
        for trace, per in result.results.items()
    }


def _check_campaign(ctx: Context, label: str, result, events, traces, names):
    """Cells complete, none failed; counts each cell as one operation."""
    expected = len(traces) * len(names)
    present = sum(
        1 for trace in traces for name in names
        if name in result.results.get(trace.name, {})
    )
    failed_events = sum(1 for e in events if e.kind == "cell_failed")
    ctx.ledger.ops(expected, expected - present + failed_events)
    if present != expected or failed_events:
        log(f"{label}: {present}/{expected} cells, {failed_events} failed")


def _check_scalar_sample(
    ctx: Context, result, traces, factories, sample
) -> None:
    """Sampled cells: columnar, scalar and the campaign agree exactly."""
    from repro.sim.engine import simulate

    for position in sample:
        trace = traces[position % len(traces)]
        for name, factory in factories.items():
            scalar_predictor = factory()
            columnar_predictor = factory()
            scalar = simulate(scalar_predictor, trace, backend="scalar")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                columnar = simulate(
                    columnar_predictor, trace, backend="columnar"
                )
            cell = result.results[trace.name][name]
            expect = tuple(getattr(scalar, f) for f in _RESULT_FIELDS)
            ctx.ledger.check(
                f"scalar-vs-columnar {trace.name}/{name}",
                expect == tuple(getattr(columnar, f) for f in _RESULT_FIELDS)
                and scalar_predictor.state_hash()
                == columnar_predictor.state_hash(),
                f"mispredictions {scalar.indirect_mispredictions} vs "
                f"{columnar.indirect_mispredictions}",
            )
            ctx.ledger.check(
                f"scalar-vs-campaign {trace.name}/{name}",
                expect == tuple(getattr(cell, f) for f in _RESULT_FIELDS),
                f"mispredictions {scalar.indirect_mispredictions} vs "
                f"{cell.indirect_mispredictions}",
            )


def _path_accounting(ctx: Context, factories, traces) -> int:
    """Record which predictors fall back to scalar, and why."""
    from repro.sim.kernel import columnar_support

    fallback = {}
    cells = 0
    for name, factory in factories.items():
        supported, reason = columnar_support(factory())
        if not supported:
            fallback[name] = {"cells": len(traces), "reason": reason}
            cells += len(traces)
    ctx.notes["scalar_fallback"] = fallback
    for name, entry in fallback.items():
        log(f"path: {name} falls back to scalar in {entry['cells']} cells: "
            f"{entry['reason']}")
    return cells


def _kernel_groups(factories) -> tuple:
    """The campaign's lanes split the way a fused columnar unit runs them.

    ``engine.simulate_many(backend="columnar")`` hands the supported
    lanes to ``simulate_columnar_many``, which prepares and replays the
    BLBP lanes first (matching ones lane-parallel through the
    multi-lane core) and then every other lane solo, in lane order,
    over the same shared precompute; unsupported lanes follow through
    the fused scalar loop.  Returns ``([(kind, factories)], [(name,
    factory)] unsupported)`` with kinds in that execution order.
    """
    from repro.sim.kernel import columnar_support

    groups: Dict[str, list] = {}
    unsupported = []
    for name, factory in factories.items():
        probe = factory()
        if not columnar_support(probe)[0]:
            unsupported.append((name, factory))
            continue
        groups.setdefault(_kernel_name(probe), []).append((name, factory))
    order = sorted(groups, key=lambda kind: kind != "BLBP")
    return [(kind, groups[kind]) for kind in order], unsupported


def _breakdown(ctx: Context, traces, factories, result, layers: dict) -> None:
    """Walk the campaign's fused units layer by layer, serially, under spans.

    Each trace is spilled, attached and derived as an exec worker does,
    then its lanes replay through ``simulate_columnar_many`` one kernel
    family at a time, in the order a fused unit runs them, twice: the
    first call builds the trace's shared precompute (the process-level
    cache holds only the two latest traces, so it starts empty for each
    new one) and the repeat finds every artifact cached.  Precompute is
    first minus repeat; replay is the repeat.  Unsupported lanes go
    through ``engine.simulate_many`` with the columnar backend, which is
    where the campaign's scalar fallback happens.  Every lane's result
    must equal its campaign cell.
    """
    from repro.sim.engine import simulate_many
    from repro.sim.kernel import simulate_columnar_many
    from repro.trace.derived import compute_derived
    from repro.trace.plane import attach_trace, write_trace_v2

    tracer = ctx.tracer
    spill_dir = ctx.scratch("spill")
    totals: Dict[str, float] = defaultdict(float)
    observed_fallbacks = 0
    kernel_groups, unsupported = _kernel_groups(factories)
    mismatched = []

    def compare(trace, lanes, results) -> None:
        for (name, _), lane in zip(lanes, results):
            cell = result.results[trace.name][name]
            if tuple(getattr(lane, f) for f in _RESULT_FIELDS) != tuple(
                getattr(cell, f) for f in _RESULT_FIELDS
            ):
                mismatched.append(f"{trace.name}/{name}")

    for index, trace in enumerate(traces):
        path = spill_dir / f"{index:03d}.rpt2"
        with tracer.span(trace.name, "trace", op="spill"):
            started = time.perf_counter()
            write_trace_v2(trace, path)
            totals["trace.spill_s"] += time.perf_counter() - started
        totals["trace.spill_bytes"] += path.stat().st_size
        with tracer.span(trace.name, "trace", op="attach"):
            started = time.perf_counter()
            attached = attach_trace(path)
            totals["trace.attach_s"] += time.perf_counter() - started
        with tracer.span(trace.name, "trace", op="derive"):
            started = time.perf_counter()
            derived = compute_derived(attached, 32)
            totals["trace.derive_s"] += time.perf_counter() - started
        timings: Dict[tuple, float] = {}
        for call in ("first", "repeat"):
            for kind, lanes in kernel_groups:
                with tracer.span(f"{kind} x{len(lanes)} {call}",
                                 "sim.kernel"):
                    started = time.perf_counter()
                    results = simulate_columnar_many(
                        [factory() for _, factory in lanes],
                        attached,
                        derived=derived,
                    )
                    timings[kind, call] = time.perf_counter() - started
                if call == "first":
                    compare(trace, lanes, results)
        for kind, _ in kernel_groups:
            totals[f"sim.kernel.precompute_s.{kind}"] += (
                timings[kind, "first"] - timings[kind, "repeat"]
            )
            totals[f"sim.kernel.replay_s.{kind}"] += timings[kind, "repeat"]
        if unsupported:
            kind = "+".join(
                sorted({_kernel_name(f()) for _, f in unsupported})
            )
            with tracer.span(f"{kind} x{len(unsupported)}", "sim.engine"), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                started = time.perf_counter()
                results = simulate_many(
                    [factory() for _, factory in unsupported],
                    attached,
                    derived=derived,
                    backend="columnar",
                )
                totals[f"sim.engine.scalar_s.{kind}"] += (
                    time.perf_counter() - started
                )
            compare(trace, unsupported, results)
            if any("falling back" in str(w.message) for w in caught):
                observed_fallbacks += len(unsupported)
    layers.update(totals)
    layers["sim.kernel.fallback_observed"] = observed_fallbacks
    ctx.ledger.check(
        "breakdown walk results equal the campaign's cells",
        not mismatched, ", ".join(mismatched[:5]),
    )


def _native_layers(ctx: Context, layers: dict) -> None:
    from repro.sim import native

    compiled = native.available()
    ctx.notes["native"] = {
        "loaded": compiled,
        "replay": "C" if compiled else "numpy",
        "functions": native.loaded_functions(),
    }
    layers["sim.native.c_replay"] = 1 if compiled else 0
    log(f"path: native library loaded={compiled}; replay uses "
        f"{'C' if compiled else 'numpy'}")


def _import_setup() -> None:
    """A fresh interpreter importing the program and loading its C core."""
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.exec, repro.sim.engine, repro.sim.kernel; "
            "from repro.sim import native; native.available()",
        ],
        check=True,
    )


def _run(
    ctx: Context,
    label: str,
    factories: Dict[str, Callable],
    entries,
    generate_in_timed: bool,
    setup: Callable[[], object],
    setup_repeats: int,
    sample,
) -> dict:
    setup_s, setup_host, prepared = median_setup(ctx, setup, setup_repeats)
    log(f"{label}: set-up {setup_s:.3f} reference s (median; host "
        f"{', '.join(f'{t:.3f}' for t in setup_host)} s)")
    layers: dict = {}
    _native_layers(ctx, layers)

    # Only the latest pass's traces stay alive, so peak memory does not
    # grow with the number of passes.
    latest = {"traces": prepared}

    def iteration(_index: int) -> dict:
        started = time.perf_counter()
        if generate_in_timed:
            latest["traces"] = None
            latest["traces"] = _generate(ctx, entries)
        generate_s = time.perf_counter() - started
        result, events, campaign_s = _campaign(
            ctx, latest["traces"], factories
        )
        return {
            "wall": time.perf_counter() - started,
            "generate": generate_s,
            "campaign": campaign_s,
            "result": result,
            "events": events,
        }

    # At least two passes, so no run reports one pass's speed brackets
    # alone (a roster pass can outlast the whole time budget).
    runs = run_passes(
        ctx, iteration, minimum=2,
        traced_tail=lambda traced: _breakdown(
            ctx, latest["traces"], factories, traced["result"], layers
        ),
    )
    if ctx.traced:
        layers.update(overhead_layers(runs))

    traces = latest["traces"]
    names = list(factories)
    records = sum(len(trace) for trace in traces)
    for number, run in enumerate(runs):
        _check_campaign(
            ctx, f"{label} pass {number}", run["result"], run["events"],
            traces, names,
        )
    first = _table(runs[0]["result"], names)
    for number, run in enumerate(runs[1:], start=1):
        ctx.ledger.check(
            f"{label} pass {number} repeats pass 0",
            _table(run["result"], names) == first,
        )
    _check_scalar_sample(ctx, runs[-1]["result"], traces, factories, sample)
    fallback_cells = _path_accounting(ctx, factories, traces)

    result = runs[-1]["result"]
    mpki = {name: result.mean_mpki(name) for name in names}
    exec_stats = [
        _exec_stats(run["events"], run["campaign"], ctx.jobs) for run in runs
    ]
    latencies = [
        seconds * 1000.0
        for stats in exec_stats
        for seconds in stats["unit_latencies"]
    ]
    ref_wall = statistics.median(run["ref_wall"] for run in runs)
    layers.update({
        key: statistics.median(s[key] for s in exec_stats)
        for key in exec_stats[0]
        if key.startswith("exec.")
    })
    layers["workloads.records"] = records
    if generate_in_timed:
        layers["workloads.generate_s"] = statistics.median(
            run["generate"] for run in runs
        )
    layers["sim.kernel.fallback_cells"] = fallback_cells
    layers["exec.serial_fallbacks"] = max(
        s["fallback_events"] for s in exec_stats
    )
    layers.update(timing_layers(ctx, runs))
    layers["exec.unit_latency_p50_ms"] = percentile(latencies, 50)
    e2e = {
        "setup_s": setup_s,
        "ref_wall_s": ref_wall,
        "ref_records_per_s": records * len(names) / ref_wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    layers["blbp_vs_ittage_pct"] = relative_pct(mpki["BLBP"], mpki["ITTAGE"])
    for name in ("BTB", "VPC", "ITTAGE", "BLBP"):
        if name in mpki:
            layers[f"mpki.{name}"] = mpki[name]
    ctx.notes.update({
        "setup_host_s": setup_host,
        "passes": len(runs),
        "latency_samples": len(latencies),
        "mpki": mpki,
    })
    log(f"{label}: {len(runs)} pass(es), {ref_wall:.3f} reference s median; "
        f"host s " + ", ".join(f"{run['wall']:.3f}" for run in runs)
        + f"; {records} records x {len(names)} lanes; unit latency from "
        f"{len(latencies)} fused units")
    log(f"{label}: mean MPKI " + ", ".join(
        f"{name} {value:.4f}" for name, value in mpki.items()
    ))
    return {"e2e": e2e, "layers": layers, "mpki": mpki}


def suite_roster(ctx: Context) -> dict:
    entries = suite_entries(ROSTER_SCALE, ctx.seed)
    outcome = _run(
        ctx, "suite-roster", roster_factories(), entries,
        generate_in_timed=True, setup=_import_setup,
        setup_repeats=CHEAP_SETUP_REPEATS, sample=ROSTER_SAMPLE,
    )
    mpki = outcome["mpki"]
    ctx.ledger.check(
        "paper ordering BLBP < VPC < BTB",
        mpki["BLBP"] < mpki["VPC"] < mpki["BTB"],
        str(mpki),
    )
    ctx.ledger.check(
        "paper ordering ITTAGE < VPC", mpki["ITTAGE"] < mpki["VPC"], str(mpki)
    )
    return outcome


def ablation_fused(ctx: Context) -> dict:
    entries = suite_entries(ABLATION_SCALE, ctx.seed)
    outcome = _run(
        ctx, "ablation-fused", ablation_factories(), entries,
        generate_in_timed=False,
        setup=lambda: [entry.generate() for entry in entries],
        setup_repeats=SETUP_REPEATS, sample=ABLATION_SAMPLE,
    )
    outcome["layers"]["workloads.generate_s"] = outcome["e2e"]["setup_s"]
    return outcome
