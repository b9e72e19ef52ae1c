"""The ``serve-fleet`` workload: a session fleet against ``repro serve``.

A ``repro serve`` process hosts about a thousand BLBP, ITTAGE and BTB
sessions per round.  The benchmark drives them as a closed loop over
``nproc`` connections: each connection keeps at most ``WINDOW`` events
messages in flight and sends the next only when a reply comes back.
Sessions sharing a stream are the server's fusion candidates.  This is
the only workload for the protocol, the micro-batcher and session
stepping; it touches neither exec nor the campaign precompute.

Traffic has two kinds of sessions.  Interactive sessions use the
defaults of ``repro.serve.client.drive_load``: 200 events per session
in messages of 64, well below the server's columnar threshold, so they
step on the scalar loop.  Bulk sessions send runs of exactly
``COLUMNAR_STEP_THRESHOLD`` events, so the serve layer's columnar
stepping is measured too; the run record says how many session events
each path served, as counted inside the server process
(``serve_probe.py``).

The per-connection loop is a fork of ``repro.serve.client``'s
``_drive_connection`` that also times every events message from send
to reply and records spans; the fleet plan (``session_plan``) and the
seed-0 event streams (``stream_for``) are the client's own, and a
check holds the benchmark's streams to them.

Set-up generates the event streams and starts a server process until
it answers ``hello``; the servers of earlier set-up repetitions are
stopped after set-up, and the rounds go to the last one.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List

from common import (
    CHEAP_SETUP_REPEATS,
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
from inputs import serve_stream_spec

#: Interactive sessions per round ("about 1000 sessions").
SESSIONS = 1000
#: Events per interactive session, events per message and messages in
#: flight per connection: ``drive_load``'s defaults.
EVENTS_PER_SESSION = 200
CHUNK = 64
WINDOW = 16
DISTINCT_STREAMS = 16
PREDICTORS = ("BLBP", "ITTAGE", "BTB")
#: Bulk sessions per round: two per distinct stream, so every bulk
#: stream has a fusion partner.  Only predictors with a columnar kernel:
#: one unsupported session in a fused group keeps the whole group on
#: the scalar loop.
BULK_SESSIONS = 2 * DISTINCT_STREAMS
BULK_PREDICTORS = ("BLBP", "ITTAGE")
#: Runs per bulk session, so the second one steps from trained state.
BULK_RUNS = 2
#: Streams whose sessions are re-simulated with ``simulate``.
SAMPLE_STREAMS = (("interactive", 0), ("interactive", 7), ("bulk", 0),
                  ("bulk", 1))


def _threshold() -> int:
    from repro.serve.session import COLUMNAR_STEP_THRESHOLD

    return COLUMNAR_STEP_THRESHOLD


def _stream_lengths() -> Dict[str, int]:
    return {
        "interactive": EVENTS_PER_SESSION,
        "bulk": BULK_RUNS * _threshold(),
    }


class Server:
    """A ``repro serve`` child process on an ephemeral port.

    Runs through ``serve_probe.py``, which writes the columnar step
    counts to ``counts_path`` when the server exits.
    """

    def __init__(self, state_dir, counts_path: Path) -> None:
        self.counts_path = counts_path
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("serve_probe.py")),
             str(counts_path), "serve", "--port", "0",
             "--state-dir", str(state_dir),
             "--max-resident", str(max(1024, SESSIONS + BULK_SESSIONS))],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def stop(self) -> None:
        """Ask for a graceful shutdown; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def counts(self) -> dict:
        """The stepping counts the stopped server wrote ({} if none)."""
        try:
            return json.loads(self.counts_path.read_text())
        except (OSError, ValueError):
            return {}


async def _hello(port: int) -> None:
    from repro.serve.client import ServeClient

    client = await ServeClient.connect("127.0.0.1", port)
    try:
        await client.hello()
    finally:
        await client.aclose()


async def _stats(port: int) -> dict:
    from repro.serve.client import ServeClient

    client = await ServeClient.connect("127.0.0.1", port)
    try:
        return await client.stats()
    finally:
        await client.aclose()


def _plan(round_index: int) -> List[tuple]:
    """``(session id, predictor, stream key, chunk)`` for one round.

    The client's ``session_plan``, with a per-round prefix so every
    round opens fresh sessions.
    """
    from repro.serve.client import session_plan

    prefix = f"r{round_index}-"
    return [
        (prefix + session_id, predictor, ("interactive", stream), CHUNK)
        for session_id, predictor, stream in session_plan(
            SESSIONS, PREDICTORS, DISTINCT_STREAMS
        )
    ] + [
        (prefix + "bulk-" + session_id, predictor, ("bulk", stream),
         _threshold())
        for session_id, predictor, stream in session_plan(
            BULK_SESSIONS, BULK_PREDICTORS, DISTINCT_STREAMS
        )
    ]


async def _drive_connection(
    ctx: Context, port: int, assigned, streams, outcome: dict, tid: int
) -> None:
    """One connection's share of the fleet, pipelined ``WINDOW`` deep.

    Forked from ``repro.serve.client._drive_connection`` to time each
    events message from send to reply and to record spans.
    """
    from repro.serve import protocol
    from repro.serve.client import ClientError, ServeClient

    tracer = ctx.tracer
    tracer.set_thread(tid)
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=protocol.MAX_LINE_BYTES
    )
    client = ServeClient(reader, writer)
    try:
        for session_id, predictor, _, _ in assigned:
            with tracer.span("open", "serve"):
                await client.open(session_id, predictor)
        queues = deque(
            (session_id, deque(
                streams[stream][start:start + chunk]
                for start in range(0, len(streams[stream]), chunk)
            ))
            for session_id, _, stream, chunk in assigned
        )
        in_flight: deque = deque()

        async def read_one() -> None:
            line = await reader.readline()
            sent_at, count, span = in_flight.popleft()
            if not line:
                raise ClientError("server closed the connection mid-stream")
            response = protocol.decode(line)
            outcome["latencies"].append(time.perf_counter() - sent_at)
            tracer.end(span)
            if response.get("t") != "out" or len(response["out"]) != count:
                outcome["failed"] += 1

        while queues:
            session_id, chunks = queues.popleft()
            events = chunks.popleft()
            if chunks:
                queues.append((session_id, chunks))
            span = tracer.begin("events", "serve", session=session_id)
            writer.write(protocol.encode({
                "t": "events",
                "session": session_id,
                "events": [list(event) for event in events],
            }))
            in_flight.append((time.perf_counter(), len(events), span))
            outcome["messages"] += 1
            outcome["events"] += len(events)
            if len(in_flight) >= WINDOW:
                await writer.drain()
                await read_one()
        await writer.drain()
        while in_flight:
            await read_one()
        for session_id, _, _, _ in assigned:
            with tracer.span("close", "serve"):
                closed = await client.close_session(session_id)
            outcome["closed"][session_id] = closed
    finally:
        await client.aclose()


async def _round(ctx: Context, port: int, round_index: int, streams) -> dict:
    plan = _plan(round_index)
    outcome = {
        "latencies": [], "messages": 0, "events": 0, "failed": 0,
        "closed": {}, "plan": plan,
    }
    shares = [plan[i::ctx.jobs] for i in range(ctx.jobs)]
    started = time.perf_counter()
    with ctx.tracer.span(f"round {round_index}", "serve"):
        await asyncio.gather(*(
            _drive_connection(ctx, port, share, streams, outcome, tid)
            for tid, share in enumerate(shares, start=1)
        ))
    outcome["wall"] = time.perf_counter() - started
    return outcome


def _fingerprint(closed: dict) -> tuple:
    return (closed["state_hash"], tuple(sorted(closed["result"].items())))


def _check_rounds(ctx: Context, rounds, traces) -> Dict[str, float]:
    """Stream groups close identically; a sample matches ``simulate``.

    Returns the interactive sessions' mean MPKI per predictor.
    """
    from repro.registry import make_indirect
    from repro.sim.engine import simulate

    ledger = ctx.ledger
    reference: Dict[tuple, tuple] = {}
    for number, outcome in enumerate(rounds):
        sessions = len(outcome["plan"])
        ledger.ops(outcome["messages"], outcome["failed"])
        ledger.ops(sessions, sessions - len(outcome["closed"]))
        drifted = 0
        for session_id, predictor, stream, _ in outcome["plan"]:
            closed = outcome["closed"].get(session_id)
            if closed is None:
                continue
            expected = reference.setdefault(
                (predictor, stream), _fingerprint(closed)
            )
            drifted += _fingerprint(closed) != expected
        ledger.check(
            f"round {number}: sessions sharing stream and predictor close "
            f"identically", drifted == 0, f"{drifted} sessions drifted",
        )
    for stream in SAMPLE_STREAMS:
        for predictor in PREDICTORS:
            if (predictor, stream) not in reference:
                continue
            model = make_indirect(predictor)
            result = simulate(model, traces[stream])
            state_hash, fields = reference[(predictor, stream)]
            fields = dict(fields)
            ledger.check(
                f"serve-vs-simulate {stream[0]} stream {stream[1]}/"
                f"{predictor}",
                state_hash == model.state_hash()
                and fields["indirect_mispredictions"]
                == result.indirect_mispredictions
                and fields["total_instructions"] == result.total_instructions
                and fields["mpki"] == result.mpki(),
                f"mispredictions {fields['indirect_mispredictions']} vs "
                f"{result.indirect_mispredictions}",
            )
    session_mpki: Dict[str, List[float]] = {p: [] for p in PREDICTORS}
    for (predictor, (kind, _)), fingerprint in reference.items():
        if kind == "interactive":
            session_mpki[predictor].append(dict(fingerprint[1])["mpki"])
    return {p: statistics.fmean(v) for p, v in session_mpki.items()}


def _check_client_streams(ctx: Context, streams) -> None:
    """Seed-0 streams are exactly the client's ``stream_for`` streams."""
    from repro.serve import protocol
    from repro.serve.client import stream_for

    mismatched = []
    for (kind, index), events in streams.items():
        length = _stream_lengths()[kind]
        if ctx.seed != 0:
            events = protocol.trace_events(
                serve_stream_spec(index, length, 0).generate()
            )
        if events != stream_for(index, length):
            mismatched.append(f"{kind} {index}")
    ctx.ledger.check(
        "seed-0 streams equal repro.serve.client.stream_for",
        not mismatched, ", ".join(mismatched),
    )


def _stepping_paths(stats: dict, counts: dict) -> dict:
    """Session events per stepping path, as the server counted them."""
    total = stats["events"]["total"]
    columnar = counts.get("columnar_session_events", 0)
    return {
        "session_events": total,
        "columnar_steps": counts.get("columnar_steps", 0),
        "columnar_session_events": columnar,
        "scalar_session_events": total - columnar,
        "columnar_share": columnar / total if total else 0.0,
    }


def serve_fleet(ctx: Context) -> dict:
    from repro.serve import protocol

    state_dir = ctx.scratch("serve-state")
    servers: List[Server] = []
    traces: Dict[tuple, object] = {}
    streams: Dict[tuple, list] = {}

    def setup() -> Server:
        for kind, length in _stream_lengths().items():
            for index in range(DISTINCT_STREAMS):
                trace = serve_stream_spec(index, length, ctx.seed).generate()
                traces[kind, index] = trace
                streams[kind, index] = protocol.trace_events(trace)
        server = Server(state_dir, ctx.work / f"serve-counts{len(servers)}")
        servers.append(server)
        asyncio.run(_hello(server.port))
        return server

    try:
        setup_s, setup_host, server = median_setup(
            ctx, setup, CHEAP_SETUP_REPEATS
        )
        for idle in servers[:-1]:
            idle.stop()
        log(f"serve-fleet: set-up {setup_s:.3f} reference s (median; "
            f"host {', '.join(f'{t:.3f}' for t in setup_host)} s), server "
            f"on port {server.port}")

        def one_round(index: int) -> dict:
            return asyncio.run(_round(ctx, server.port, index, streams))

        rounds = run_passes(ctx, one_round, minimum=2)
        layers = overhead_layers(rounds) if ctx.traced else {}
        stats = asyncio.run(_stats(server.port))
    finally:
        for started in servers:
            started.stop()

    mpki = _check_rounds(ctx, rounds, traces)
    _check_client_streams(ctx, streams)
    ctx.ledger.check(
        "server reported no protocol errors",
        stats["protocol_errors"] == 0, str(stats["protocol_errors"]),
    )
    paths = _stepping_paths(stats, server.counts())
    log(f"path: the server stepped {paths['columnar_session_events']} of "
        f"{paths['session_events']} session events through the columnar "
        f"kernels ({paths['columnar_steps']} steps), the rest on the "
        f"scalar loop")
    latencies = [s * 1000.0 for r in rounds for s in r["latencies"]]
    rates = [r["events"] / r["ref_wall"] for r in rounds]
    batching = stats["batching"]
    layers.update({
        "serve.batches": batching["batches"],
        "serve.mean_sessions_per_batch": batching["mean_sessions_per_batch"],
        "serve.fused_share": batching["fused_share"],
        "serve.columnar_share": paths["columnar_share"],
        "serve.evictions": stats["sessions"]["evicted"],
        "serve.rehydrations": stats["sessions"]["rehydrated"],
        "serve.protocol_errors": stats["protocol_errors"],
        "workloads.records": sum(len(events) for events in streams.values()),
        **{f"mpki.{name}": value for name, value in mpki.items()},
        "blbp_vs_ittage_pct": relative_pct(mpki["BLBP"], mpki["ITTAGE"]),
        "serve.msg_latency_p50_ms": percentile(latencies, 50),
        "serve.msg_latency_p99_ms": percentile(latencies, 99),
        **timing_layers(ctx, rounds),
    })
    ctx.notes.update({
        "setup_host_s": setup_host,
        "rounds": len(rounds),
        "latency_samples": len(latencies),
        "connections": ctx.jobs,
        "sessions_per_round": {"interactive": SESSIONS,
                               "bulk": BULK_SESSIONS},
        "events_per_session": _stream_lengths(),
        "events_per_message": {"interactive": CHUNK, "bulk": _threshold()},
        "stepping_paths": paths,
        "mpki": mpki,
        "server_stats": stats,
    })
    log(f"serve-fleet: {len(rounds)} rounds of {SESSIONS} interactive "
        f"sessions x {EVENTS_PER_SESSION} events and {BULK_SESSIONS} bulk "
        f"sessions x {_stream_lengths()['bulk']} events over {ctx.jobs} "
        f"connections, {statistics.median(rates):.0f} events per reference "
        f"s median (host s " + ", ".join(f"{r['wall']:.3f}" for r in rounds)
        + f"); latency from {len(latencies)} events messages")
    return {
        "e2e": {
            "setup_s": setup_s,
            "ref_wall_s": statistics.median(r["ref_wall"] for r in rounds),
            "ref_records_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb(),
        },
        "layers": layers,
    }
