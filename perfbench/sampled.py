"""The ``sampled-ingest`` workload: ingest an external trace, then sample it.

The input is a 300k-record, five-phase trace; set-up writes it as
ChampSim text.  The timed pass loads it back (``load_any_trace``),
builds a SimPoint-style plan (``simpoint_plan``) and runs
``simulate_sampled`` with the columnar backend for BTB, ITTAGE and
BLBP twice: cold, writing warm-up checkpoints, then warm, reading
them.  It is the only workload for ``trace.ingest``,
``trace.sampling`` and ``sim.checkpoint``, and it both writes and
reads.  Each pass also counts which regions reach the columnar kernel:
with a checkpoint directory every region that has a warm-up replays on
the scalar loop, so the run record shows how little of the columnar
backend this path uses.
"""

from __future__ import annotations

import shutil
import statistics
import time
import warnings
from contextlib import contextmanager
from typing import Dict, Iterator, List

import numpy as np

from common import (
    Context,
    log,
    median_setup,
    overhead_layers,
    peak_rss_mb,
    relative_pct,
    run_passes,
    timing_layers,
)
from inputs import phase_specs

RECORDS_PER_PHASE = 60_000
INTERVAL_RECORDS = 2_500
MAX_REGIONS = 10
WARMUP_INTERVALS = 1
PREDICTORS = ("BTB", "ITTAGE", "BLBP")


def _factories() -> Dict[str, object]:
    from repro.core.blbp import BLBP
    from repro.predictors import ITTAGE, BranchTargetBuffer

    return {"BTB": BranchTargetBuffer, "ITTAGE": ITTAGE, "BLBP": BLBP}


def _phased_trace(seed: int):
    from repro.trace.stream import Trace

    segments = [
        spec.generate() for spec in phase_specs(RECORDS_PER_PHASE, seed)
    ]
    return Trace(
        "phased-long",
        *(
            np.concatenate([getattr(t, column) for t in segments])
            for column in ("pcs", "types", "takens", "targets", "gaps")
        ),
    )


def _pass(ctx: Context, path, checkpoints, latest: dict) -> dict:
    """One timed pass: ingest, plan, cold and warm sampled runs.

    The ingested trace goes to ``latest`` rather than into the pass, so
    only one copy stays alive however many passes run.
    """
    from repro.sim.engine import simulate_sampled
    from repro.trace.ingest import load_any_trace
    from repro.trace.sampling import simpoint_plan

    tracer = ctx.tracer
    timings: Dict[str, float] = {}
    latest["trace"] = None
    started = time.perf_counter()
    with tracer.span("load_any_trace", "trace.ingest"):
        trace = latest["trace"] = load_any_trace(path)
    timings["ingest"] = time.perf_counter() - started
    mark = time.perf_counter()
    with tracer.span("simpoint_plan", "trace.sampling"):
        plan = simpoint_plan(
            trace, INTERVAL_RECORDS, max_regions=MAX_REGIONS,
            warmup_intervals=WARMUP_INTERVALS,
        )
    timings["plan"] = time.perf_counter() - mark
    shutil.rmtree(checkpoints, ignore_errors=True)
    results, paths = {}, {}
    with _counting_kernel_calls() as calls:
        for phase in ("cold", "warm"):
            mark = time.perf_counter()
            for name, factory in _factories().items():
                before = calls[0]
                with tracer.span(f"{phase} {name}", "sim.engine"), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", RuntimeWarning)
                    results[phase, name] = simulate_sampled(
                        factory, trace, plan=plan, backend="columnar",
                        checkpoint_dir=checkpoints,
                    )
                paths[f"{phase} {name}"] = _region_paths(
                    len(plan.regions), calls[0] - before, caught
                )
            timings[phase] = time.perf_counter() - mark
    wall = time.perf_counter() - started
    return {
        "wall": wall, "plan": plan, "results": results, "timings": timings,
        "paths": paths,
    }


def _checkpoint_breakdown(ctx: Context, checkpoints, layers: dict) -> None:
    """Re-read and re-write every warm-up checkpoint under spans."""
    from repro.sim.checkpoint import load_checkpoint, save_checkpoint

    copies = ctx.scratch("checkpoint-copies")
    read_s = write_s = 0.0
    for path in sorted(checkpoints.glob("*.ckpt.json")):
        with ctx.tracer.span(path.name, "sim.checkpoint", op="load"):
            started = time.perf_counter()
            checkpoint = load_checkpoint(path)
            read_s += time.perf_counter() - started
        with ctx.tracer.span(path.name, "sim.checkpoint", op="save"):
            started = time.perf_counter()
            save_checkpoint(checkpoint, copies / path.name)
            write_s += time.perf_counter() - started
    layers["sim.checkpoint.read_s"] = read_s
    layers["sim.checkpoint.write_s"] = write_s


@contextmanager
def _counting_kernel_calls() -> Iterator[List[int]]:
    """Count calls the engine makes into ``kernel.simulate_columnar``.

    One wrapper call per sampled region, negligible next to its replay.
    """
    from repro.sim import kernel

    original = kernel.simulate_columnar
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    kernel.simulate_columnar = counted
    try:
        yield calls
    finally:
        kernel.simulate_columnar = original


#: Why a region without a fallback warning still replays on the scalar
#: loop: with a checkpoint directory, ``simulate_sampled`` runs every
#: region that has a warm-up through its checkpoint hooks (cold) or a
#: resume (warm) and does not pass ``backend`` to those calls.
SILENT_SCALAR = (
    "warm-up region with checkpoints: simulate_sampled does not pass "
    "backend through"
)


def _region_paths(regions: int, columnar: int, caught) -> dict:
    """How one ``simulate_sampled`` call replayed its regions.

    ``columnar`` is the kernel calls counted during it and ``caught``
    its fallback warnings, so the scalar regions and their reasons are
    what the program did, not what the benchmark expects it to do.
    """
    scalar: Dict[str, int] = {}
    for warning in caught:
        reason = str(warning.message).split(": ", 1)[-1]
        scalar[reason] = scalar.get(reason, 0) + 1
    silent = regions - columnar - sum(scalar.values())
    if silent:
        scalar[SILENT_SCALAR] = silent
    return {"regions": regions, "columnar": columnar, "scalar": scalar}


def _log_paths(ctx: Context, paths: Dict[str, dict]) -> int:
    """Record the last pass's region paths; returns its scalar regions."""
    ctx.notes["sampled_paths"] = paths
    for call, entry in paths.items():
        for why, count in entry["scalar"].items():
            log(f"path: {call} replays {count} of {entry['regions']} "
                f"sampled regions on the scalar loop: {why}")
    return sum(sum(entry["scalar"].values()) for entry in paths.values())


def sampled_ingest(ctx: Context) -> dict:
    from repro.sim import native
    from repro.sim.engine import simulate, simulate_sampled
    from repro.trace.ingest import write_champsim_trace

    work = ctx.scratch("sampled")
    path = work / "phased-long.champsim.txt"
    checkpoints = work / "checkpoints"
    started = time.perf_counter()
    source = _phased_trace(ctx.seed)
    generate_s = time.perf_counter() - started
    setup_s, setup_host, _ = median_setup(
        ctx, lambda: write_champsim_trace(source, path)
    )
    log(f"sampled-ingest: set-up {setup_s:.3f} reference s (median; "
        f"host {', '.join(f'{t:.3f}' for t in setup_host)} s), "
        f"{len(source)} records, {path.stat().st_size} bytes of ChampSim text")

    layers: dict = {"sim.native.c_replay": 1 if native.available() else 0}
    latest: dict = {}
    passes = run_passes(
        ctx, lambda _: _pass(ctx, path, checkpoints, latest), minimum=2,
        traced_tail=lambda _: _checkpoint_breakdown(ctx, checkpoints, layers),
    )
    if ctx.traced:
        layers.update(overhead_layers(passes))

    ledger = ctx.ledger
    last = passes[-1]
    trace, plan = latest["trace"], last["plan"]
    ledger.check(
        "ChampSim round trip keeps every record",
        len(trace) == len(source)
        and all(
            np.array_equal(getattr(trace, c), getattr(source, c))
            for c in ("pcs", "types", "takens", "targets", "gaps")
        ),
        f"{len(trace)} vs {len(source)} records",
    )
    estimates = {
        key: result.estimated_mpki for key, result in last["results"].items()
    }
    for number, run in enumerate(passes):
        ledger.ops(len(run["results"]))
        for name in PREDICTORS:
            cold, warm = run["results"]["cold", name], run["results"]["warm", name]
            ledger.check(
                f"pass {number} {name}: warm estimate equals cold",
                warm.estimated_mpki == cold.estimated_mpki
                and warm.region_results == cold.region_results,
                f"{warm.estimated_mpki} vs {cold.estimated_mpki}",
            )
            ledger.check(
                f"pass {number} {name}: warm run restored every checkpoint",
                cold.warm_checkpoint_hits == 0
                and warm.warm_checkpoint_hits
                == sum(1 for r in plan.regions if r.warmup),
                f"{warm.warm_checkpoint_hits} hits",
            )
        ledger.check(
            f"pass {number} estimates repeat exactly",
            {k: r.estimated_mpki for k, r in run["results"].items()}
            == estimates,
        )

    full: Dict[str, float] = {}
    errors = []
    for name, factory in _factories().items():
        plain = simulate_sampled(factory, trace, plan=plan, backend="scalar")
        ledger.check(
            f"{name}: scalar sampled run equals the checkpointed run",
            plain.estimated_mpki == estimates["cold", name],
            f"{plain.estimated_mpki} vs {estimates['cold', name]}",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            full[name] = simulate(factory(), trace, backend="columnar").mpki()
        errors.append(
            100.0 * abs(estimates["warm", name] - full[name]) / full[name]
        )

    sampled_mpki = {name: estimates["warm", name] for name in PREDICTORS}
    ref_wall = statistics.median(run["ref_wall"] for run in passes)

    def timing(key):
        return statistics.median(run["timings"][key] for run in passes)

    layers.update({
        "workloads.records": len(source),
        "workloads.generate_s": generate_s,
        "trace.ingest_s": timing("ingest"),
        "trace.ingest_records_per_s": len(trace) / timing("ingest"),
        "trace.sampling.plan_s": timing("plan"),
        "trace.sampling.replayed_records": plan.replayed_records,
        "sim.engine.sampled_cold_s": timing("cold"),
        "sim.engine.sampled_warm_s": timing("warm"),
        "sim.checkpoint.warm_hits": sum(
            last["results"]["warm", name].warm_checkpoint_hits
            for name in PREDICTORS
        ),
        "sim.kernel.fallback_cells": _log_paths(ctx, last["paths"]),
        **{f"mpki.{name}": value for name, value in sampled_mpki.items()},
        "blbp_vs_ittage_pct": relative_pct(
            sampled_mpki["BLBP"], sampled_mpki["ITTAGE"]
        ),
        "sampled_mpki_error_pct": statistics.fmean(errors),
        **timing_layers(ctx, passes),
    })
    ctx.notes.update({
        "setup_host_s": setup_host,
        "passes": len(passes),
        "regions": len(plan.regions),
        "sampled_mpki": sampled_mpki,
        "full_mpki": full,
        "error_pct": dict(zip(PREDICTORS, errors)),
    })
    log(f"sampled-ingest: {len(passes)} passes, {ref_wall:.3f} reference s "
        f"median; host s " + ", ".join(f"{run['wall']:.3f}" for run in passes)
        + f"; {len(plan.regions)} regions, "
        f"{plan.replayed_records} of {len(trace)} records replayed")
    for name in PREDICTORS:
        log(f"sampled-ingest: {name} sampled {sampled_mpki[name]:.4f} MPKI, "
            f"full {full[name]:.4f} MPKI")
    return {
        "e2e": {
            "setup_s": setup_s,
            "ref_wall_s": ref_wall,
            "ref_records_per_s": len(trace) * len(PREDICTORS) / ref_wall,
            "peak_rss_mb": peak_rss_mb(),
        },
        "layers": layers,
    }
