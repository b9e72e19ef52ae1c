"""The repository benchmark: one workload per run, metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-roster --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Workloads (see ``BENCHMARK.json`` for why each was chosen):
``suite-roster``, ``ablation-fused``, ``serve-fleet`` and
``sampled-ingest``.  Load comes from this one process, with at most
``nproc`` worker processes or connections.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run: it records a span around
each call the benchmark makes into a layer's public functions, reports
the per-layer metrics from those spans, and writes the spans as Chrome
trace-event JSON under ``.bench_build/traces/``.  Spans are kept per
interval: ``pass`` is one traced pass of the workload itself
(``self_s.*``), and ``walk`` is the layer-by-layer breakdown that
follows it (``walk.self_s.*``); the two are reported apart.  Every run
writes a full record (environment, path accounting, checks, all
metrics) under ``.bench_build/results/``.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

Every time is host seconds.  Because a shared host's speed can change
twofold from one minute to the next, each run also records the machine
speed it saw right before and right after its timed passes (a fixed
pure-Python chunk, timed while the workload is idle) in the per-layer
``machine_speed`` and the run record; it is a covariate that makes a
noisy run visible, and no time is scaled by it.  MPKI values are
simulated and deterministic for a seed; no reference hardware data
exists, so the model is unvalidated.

The program is imported from ``src/`` of the checkout this file sits
in; all scratch files, the compiled replay cores and temporary
directories stay under ``.bench_build/`` of that checkout.  Without
``src/repro`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite-roster", "ablation-fused", "serve-fleet", "sampled-ingest")


def _isolate(build: Path) -> None:
    """Keep every file the program writes inside the checkout."""
    for sub in ("cache", "tmp"):
        (build / sub).mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(build / "cache")
    os.environ["TMPDIR"] = str(build / "tmp")
    tempfile.tempdir = None
    source = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [source, str(ROOT)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[:0] = [source, str(ROOT), str(HERE)]


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _environment(jobs: int) -> dict:
    from repro.common.envinfo import environment_metadata

    try:
        cc = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = "unavailable"
    return {
        **environment_metadata(),
        "nproc": jobs,
        "python_build": platform.python_build(),
        "cc": cc,
        "loadavg_at_start": os.getloadavg(),
        "repro_env": {
            key: value for key, value in os.environ.items()
            if key.startswith("REPRO_")
        },
    }


#: Per-layer metric prefix and interval metric names of each traced
#: interval: the traced pipeline pass, and the layer-by-layer walk that
#: follows it.  Their self times are reported apart, never added.
INTERVALS = {
    "pass": ("self_s", "traced_wall_s", "trace_coverage"),
    "walk": ("walk.self_s", "walk_wall_s", "walk_coverage"),
}


def _report_intervals(tracer, layers: dict) -> None:
    """Self time per layer, wall and span coverage of each interval."""
    from common import log

    for label, (prefix, wall_name, coverage_name) in INTERVALS.items():
        wall = tracer.wall(label)
        if not wall:
            continue
        self_times = tracer.self_times(label)
        covered = sum(self_times.values())
        for layer, seconds in self_times.items():
            layers[f"{prefix}.{layer}"] = seconds
        layers[f"{prefix}.unattributed"] = wall - covered
        layers[wall_name] = wall
        layers[coverage_name] = covered / wall
        for layer, seconds in sorted(
            self_times.items(), key=lambda item: -item[1]
        ):
            log(f"{label}: self time {layer:<16} {seconds:9.3f} s "
                f"({100.0 * seconds / wall:5.1f}% of its wall)")
        log(f"{label}: wall {wall:.3f} s, spans cover "
            f"{100.0 * covered / wall:.1f}%")


def _run_one(args, build: Path) -> int:
    from common import Context, SpeedGauge, log
    from spans import Tracer

    import campaign
    import sampled
    import serve_fleet

    runners = {
        "suite-roster": campaign.suite_roster,
        "ablation-fused": campaign.ablation_fused,
        "serve-fleet": serve_fleet.serve_fleet,
        "sampled-ingest": sampled.sampled_ingest,
    }
    jobs = len(os.sched_getaffinity(0))
    environment = _environment(jobs)
    log(f"env: {json.dumps(environment, sort_keys=True)}")
    log("model: unvalidated (no reference hardware data exists); MPKI "
        "values are simulated")
    work = build / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    gauge = SpeedGauge()
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        tracer=Tracer(bool(args.trace)),
        jobs=jobs,
        work=work,
        gauge=gauge,
    )
    started = time.perf_counter()
    try:
        outcome = runners[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - started

    layers = dict(outcome["layers"])
    if ctx.traced:
        _report_intervals(ctx.tracer, layers)
        chrome = build / "traces" / f"{args.workload}.seed{args.seed}.json"
        ctx.tracer.write_chrome(chrome)
        log(f"trace: {len(ctx.tracer.spans)} spans written to {chrome}; "
            f"tracing overhead {layers['tracing_overhead_pct']:+.2f}% of "
            f"untraced wall")

    declared = _declared()
    group = "per_layer" if ctx.traced else "end_to_end"
    metrics = {}
    for entry in declared[group]:
        name = entry["name"]
        if ctx.traced:
            value = layers.get(name, 0)
        elif name in outcome["e2e"]:
            value = outcome["e2e"][name]
        else:
            raise KeyError(f"workload {args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    for entry in declared["end_to_end"]:
        value = outcome["e2e"].get(entry["name"])
        if value is not None:
            log(f"{entry['name']:<22} {value:14.4f} {entry['unit']}")

    ledger = ctx.ledger
    correct = ledger.failed == 0 and all(c["ok"] for c in ledger.checks)
    log(f"checks: {sum(c['ok'] for c in ledger.checks)}/{len(ledger.checks)} "
        f"passed; operations {ledger.attempted} attempted, "
        f"{ledger.failed} failed; run took {elapsed:.1f} s")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "notes": ctx.notes,
        "checks": ledger.checks,
        "end_to_end": outcome["e2e"],
        "per_layer": layers,
        "model": "unvalidated",
    }
    results = build / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def _run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    summary = {}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{workload}: exited with {completed.returncode}",
                  file=sys.stderr)
            return completed.returncode or 1
        summary[workload] = json.loads(lines[-1])
    for workload, result in summary.items():
        print(f"== {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"   {name:<36} {metric['value']:16.4f} {metric['unit']}")
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so child processes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    _isolate(build)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args, build)


if __name__ == "__main__":
    sys.exit(main())
