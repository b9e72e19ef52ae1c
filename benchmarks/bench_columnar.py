"""Columnar-kernel throughput gates: ITTAGE and VPC replay, fused campaigns.

Three measurements, three CI gates, one results file:

* **ITTAGE columnar** — ``simulate(ITTAGE(), trace, backend="columnar")``
  vs the scalar engine over a suite sample.  The columnar kernel
  vectorises the base/tagged-table walk that dominates scalar ITTAGE,
  so the gate demands a wide margin (default ≥ 3x).

* **VPC columnar** — the same comparison for ``VPCPredictor()``.  The
  compiled core runs the virtual-PC walk and the shared
  multiperspective perceptron without re-entering Python, so the gate
  is ≥ 5x (default).

* **Fused campaign** — a Figure-1-style ablation campaign (BLBP feature
  toggles plus an ITTAGE useful-bit reset-period sweep) executed two
  ways: *per-cell*, each (trace, predictor) cell replayed solo with a
  cold shared-precompute cache — the cost profile of distributed
  workers, where cells land on different processes and share nothing
  in-memory (the same reconstruction discipline as
  ``bench_campaign``'s pr4 arm); and *fused*,
  ``simulate_many(backend="columnar")`` replaying all lanes over one
  shared precompute per trace.  Ablation lanes differ only in replay
  behaviour, so the fused pass derives the trace planes (history
  streams, folded index/tag columns, RAS outcomes) once instead of
  once per lane.  Gate: fused ≥ 1.5x per-cell (default).

Both arms of every measurement must produce identical results — the
assertion runs every pass, because a throughput gate is worthless if
the fast path drifts.  The per-cell arm's warm-cache timing (shared
precompute already resident, as in a single-process unfused run) is
reported in the JSON for transparency but not gated.

Run as the CI gate::

    PYTHONPATH=src python benchmarks/bench_columnar.py --quick --gate

The measurement is written to ``results/throughput_columnar.json``
with host-environment metadata.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.common.envinfo import environment_metadata
from repro.core import BLBP, BLBPConfig
from repro.predictors.ittage import ITTAGE, ITTAGEConfig
from repro.predictors.vpc import VPCPredictor
from repro.sim import kernel
from repro.sim.engine import simulate, simulate_many


def ablation_factories():
    """The fused-campaign roster: lanes that share one trace precompute.

    Six BLBP feature ablations (Figure-6-style single-feature removals)
    and a three-point ITTAGE useful-bit reset-period sweep.  Every knob
    here is replay-only: the derived trace planes — history streams,
    folded index/tag columns, RAS outcomes — are identical across
    lanes, which is exactly the sharing the fused pass exploits.
    """
    return {
        "BLBP": lambda: BLBP(),
        "BLBP-no-selective": lambda: BLBP(
            BLBPConfig(use_selective_update=False)
        ),
        "BLBP-no-adaptive": lambda: BLBP(
            BLBPConfig(use_adaptive_threshold=False)
        ),
        "BLBP-no-transfer": lambda: BLBP(
            BLBPConfig(use_transfer_function=False)
        ),
        "BLBP-no-local": lambda: BLBP(
            BLBPConfig(use_local_history=False)
        ),
        "BLBP-no-intervals": lambda: BLBP(
            BLBPConfig(use_intervals=False)
        ),
        "ITTAGE-ureset-14": lambda: ITTAGE(
            ITTAGEConfig(u_reset_period=1 << 14)
        ),
        "ITTAGE": lambda: ITTAGE(),
        "ITTAGE-ureset-18": lambda: ITTAGE(
            ITTAGEConfig(u_reset_period=1 << 18)
        ),
    }


def _suite_traces(scale: float, stride: int, min_traces: int = 4):
    from repro.workloads.suite import suite88_specs

    entries = suite88_specs(scale)[::stride]
    if len(entries) < min_traces:
        entries = suite88_specs(scale)[:min_traces]
    return [entry.generate() for entry in entries]


def measure_kernel(name: str, factory, traces, repeats: int) -> dict:
    """Best-of-``repeats`` for scalar vs columnar replay of one
    predictor; both arms must give identical results on every pass."""

    def scalar_pass():
        started = time.perf_counter()
        results = [simulate(factory(), trace) for trace in traces]
        return time.perf_counter() - started, results

    def columnar_pass():
        kernel._SHARED_CACHE.clear()
        started = time.perf_counter()
        results = [
            simulate(factory(), trace, backend="columnar")
            for trace in traces
        ]
        return time.perf_counter() - started, results

    _, expected = scalar_pass()  # warmup: numpy/ctypes import, caches
    best = {"scalar": None, "columnar": None}
    for _ in range(repeats):
        for arm, one_pass in (
            ("scalar", scalar_pass), ("columnar", columnar_pass)
        ):
            elapsed, results = one_pass()
            if results != expected:
                raise AssertionError(f"{name} {arm} results drifted")
            best[arm] = (
                elapsed if best[arm] is None else min(best[arm], elapsed)
            )

    records = sum(len(trace) for trace in traces)
    return {
        "records": records,
        "scalar_seconds": round(best["scalar"], 4),
        "columnar_seconds": round(best["columnar"], 4),
        "scalar_records_per_sec": round(records / best["scalar"]),
        "columnar_records_per_sec": round(records / best["columnar"]),
        "speedup": round(best["scalar"] / best["columnar"], 3),
    }


def measure_fused(traces, repeats: int) -> dict:
    """Best-of-``repeats`` for per-cell vs fused columnar campaigns.

    ``percell_cold`` clears the shared-precompute cache before every
    cell — the distributed-worker cost profile the gate targets.
    ``percell_warm`` leaves the cache resident across same-trace cells
    (the single-process unfused profile); it is reported, not gated.
    """
    factories = ablation_factories()

    def percell_pass(cold: bool):
        kernel._SHARED_CACHE.clear()
        started = time.perf_counter()
        results = []
        for trace in traces:
            for factory in factories.values():
                if cold:
                    kernel._SHARED_CACHE.clear()
                results.append(
                    simulate(factory(), trace, backend="columnar")
                )
        return time.perf_counter() - started, results

    def fused_pass():
        kernel._SHARED_CACHE.clear()
        started = time.perf_counter()
        results = []
        for trace in traces:
            lanes = [factory() for factory in factories.values()]
            results.extend(
                simulate_many(lanes, trace, backend="columnar")
            )
        return time.perf_counter() - started, results

    _, expected = fused_pass()
    best = {"percell_cold": None, "percell_warm": None, "fused": None}
    for _ in range(repeats):
        for arm, one_pass in (
            ("percell_cold", lambda: percell_pass(cold=True)),
            ("percell_warm", lambda: percell_pass(cold=False)),
            ("fused", fused_pass),
        ):
            elapsed, results = one_pass()
            if results != expected:
                raise AssertionError(f"fused-gate {arm} results drifted")
            best[arm] = (
                elapsed if best[arm] is None else min(best[arm], elapsed)
            )

    cells = len(traces) * len(factories)
    return {
        "predictors": list(factories),
        "cells": cells,
        "percell_cold_seconds": round(best["percell_cold"], 4),
        "percell_warm_seconds": round(best["percell_warm"], 4),
        "fused_seconds": round(best["fused"], 4),
        "percell_cold_cells_per_sec": round(
            cells / best["percell_cold"], 2
        ),
        "fused_cells_per_sec": round(cells / best["fused"], 2),
        "speedup_vs_percell_cold": round(
            best["percell_cold"] / best["fused"], 3
        ),
        "speedup_vs_percell_warm": round(
            best["percell_warm"] / best["fused"], 3
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="columnar ITTAGE/VPC + fused-campaign throughput gates"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller sample for CI (scale 0.5, 2 repeats)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--stride", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--gate", action="store_true",
        help="exit non-zero unless every speedup gate clears",
    )
    parser.add_argument(
        "--min-ittage-speedup", type=float, default=3.0,
        help="minimum columnar-ITTAGE speedup over scalar (default 3)",
    )
    parser.add_argument(
        "--min-vpc-speedup", type=float, default=5.0,
        help="minimum columnar-VPC speedup over scalar (default 5)",
    )
    parser.add_argument(
        "--min-fused-speedup", type=float, default=1.5,
        help="minimum fused speedup over per-cell columnar (default 1.5)",
    )
    parser.add_argument(
        "--out", default="results/throughput_columnar.json",
        help="where to write the measurement (empty string to skip)",
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.5 if args.quick else 1.0)
    stride = args.stride if args.stride is not None else 15
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 3)

    traces = _suite_traces(scale, stride)
    records = sum(len(trace) for trace in traces)

    kernels = {
        "ittage": measure_kernel("ITTAGE", ITTAGE, traces, repeats),
        "vpc": measure_kernel("VPC", VPCPredictor, traces, repeats),
    }
    gates = {"ittage": args.min_ittage_speedup, "vpc": args.min_vpc_speedup}
    for key, measured in kernels.items():
        label = key.upper()
        print(
            f"{label:<6} scalar    {measured['scalar_records_per_sec']:>9,} "
            f"rec/s  ({measured['scalar_seconds']:.2f}s, {records:,} records)"
        )
        print(
            f"{label:<6} columnar  {measured['columnar_records_per_sec']:>9,} "
            f"rec/s  ({measured['columnar_seconds']:.2f}s)  "
            f"{measured['speedup']:.2f}x"
            + (f"  (gate: ≥{gates[key]}x)" if args.gate else "")
        )

    fused = measure_fused(traces, repeats)
    print(
        f"per-cell cold    {fused['percell_cold_cells_per_sec']:>9.2f} "
        f"cells/s  ({fused['percell_cold_seconds']:.2f}s, "
        f"{fused['cells']} cells)"
    )
    print(
        f"fused            {fused['fused_cells_per_sec']:>9.2f} cells/s  "
        f"({fused['fused_seconds']:.2f}s)  "
        f"{fused['speedup_vs_percell_cold']:.2f}x vs cold, "
        f"{fused['speedup_vs_percell_warm']:.2f}x vs warm"
        + (f"  (gate: ≥{args.min_fused_speedup}x vs cold)"
           if args.gate else "")
    )

    summary = {
        "environment": environment_metadata(),
        "traces": [trace.name for trace in traces],
        "records": records,
        "scale": scale,
        "stride": stride,
        "repeats": repeats,
        **kernels,
        "fused_campaign": fused,
    }
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {out_path}")

    failed = False
    for key, measured in kernels.items():
        if args.gate and measured["speedup"] < gates[key]:
            print(
                f"FAIL: columnar {key.upper()} speedup "
                f"{measured['speedup']:.2f}x below {gates[key]}x gate",
                file=sys.stderr,
            )
            failed = True
    if args.gate and (
        fused["speedup_vs_percell_cold"] < args.min_fused_speedup
    ):
        print(
            f"FAIL: fused campaign speedup "
            f"{fused['speedup_vs_percell_cold']:.2f}x below "
            f"{args.min_fused_speedup}x gate",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
