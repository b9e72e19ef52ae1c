"""Columnar replay kernel for :class:`~repro.predictors.vpc.VPCPredictor`.

VPC's scalar cost is dominated by hashing: every prediction walks up to
``max_iterations`` virtual PCs, each needing a ``mix_pc`` to form the
vpca and a ``stable_hash64`` to locate its BTB slot, and the training
paths recompute the same values.  All of that is a pure function of the
static PC — so the kernel precomputes one ``(unique_pcs, max_iter)``
table of (vpca, BTB slot, partial tag) triples and replays the trace
against it.

What remains sequential is genuinely architectural: the direct-mapped
BTB (tags/targets/recency ticks) and the shared conditional predictor,
which VPC consults per virtual branch *and* trains on every real
conditional.  The replay therefore walks a merged event stream —
conditionals and indirect branches in record order.  The compiled
``vpc_replay`` core in :mod:`repro.sim.native` runs that walk with the
multiperspective perceptron ported into it: the perceptron's weights,
histories and threshold are staged into arrays before the call and
written back after, so the replay never re-enters Python and
``state_dict()`` comes back byte-identical to the scalar loop's.
Without a C compiler the same walk runs as a Python loop calling the
perceptron's own methods.  Either way the kernel accepts only a
conditional that is exactly
:class:`~repro.cond.mpp.MultiperspectivePerceptron` (see
:func:`repro.sim.kernel.columnar_support`); VPC over any other
conditional runs on the scalar loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.hashing import mix_pc, stable_hash64
from repro.predictors.vpc import VPCPredictor
from repro.sim import native
from repro.sim.metrics import SimulationResult
from repro.trace.derived import DerivedPlane
from repro.trace.stream import Trace


# ----------------------------------------------------------------------
# Trace-pure precomputation
# ----------------------------------------------------------------------


def _vpca_tables(
    unique_pcs: np.ndarray, max_iter: int, entries: int, tag_bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vpca, BTB slot, partial tag) per (static pc, iteration)."""
    count = len(unique_pcs)
    vpcas = np.empty((count, max_iter), dtype=np.uint64)
    slots = np.empty((count, max_iter), dtype=np.int64)
    vtags = np.empty((count, max_iter), dtype=np.int64)
    tag_mask = (1 << tag_bits) - 1
    for row, pc in enumerate(unique_pcs.tolist()):
        pc = int(pc)
        for iteration in range(max_iter):
            if iteration == 0:
                vpca = pc
            else:
                vpca = mix_pc(pc, salt=iteration) ^ (iteration * 0x1F3)
            hashed = stable_hash64(vpca)
            vpcas[row, iteration] = vpca
            slots[row, iteration] = hashed % entries
            vtags[row, iteration] = (hashed >> 22) & tag_mask
    return vpcas, slots, vtags


def _event_stream(
    trace: Trace, derived: DerivedPlane, pc_inverse: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Record-ordered merge of conditional and indirect events.

    Returns ``(kinds, ev_a, ev_taken)``: kind 0 is a conditional with
    ``ev_a`` its PC and ``ev_taken`` its outcome; kind 1 is an indirect
    branch with ``ev_a`` its row in the unique-PC table (branch
    ordinals simply count kind-1 events).
    """
    cond_idx = np.asarray(derived.cond_idx)
    indirect_idx = np.asarray(derived.indirect_idx)
    merged = np.concatenate([cond_idx, indirect_idx])
    order = np.argsort(merged)
    kinds = np.concatenate(
        [
            np.zeros(len(cond_idx), dtype=np.uint8),
            np.ones(len(indirect_idx), dtype=np.uint8),
        ]
    )[order]
    ev_a = np.concatenate(
        [
            trace.pcs[cond_idx].astype(np.uint64),
            pc_inverse.astype(np.uint64),
        ]
    )[order]
    ev_taken = np.concatenate(
        [
            derived.conditional_outcomes().astype(np.uint8),
            np.zeros(len(indirect_idx), dtype=np.uint8),
        ]
    )[order]
    return kinds, ev_a, ev_taken


def _prepare(
    predictor: VPCPredictor,
    trace: Trace,
    derived: DerivedPlane,
    shared,
) -> dict:
    cfg = predictor.config
    branch_targets = np.asarray(derived.indirect_targets)
    unique_pcs, pc_inverse = shared.get(
        ("pc-unique",),
        lambda: np.unique(derived.indirect_pcs, return_inverse=True),
    )
    vpcas, slots, vtags = shared.get(
        ("vpc-tables", cfg.max_iterations, cfg.btb_entries, cfg.btb_tag_bits),
        lambda: _vpca_tables(
            unique_pcs, cfg.max_iterations, cfg.btb_entries, cfg.btb_tag_bits
        ),
    )
    kinds, ev_a, ev_taken = shared.get(
        ("vpc-events",),
        lambda: _event_stream(trace, derived, pc_inverse),
    )
    branch_count = len(branch_targets)
    return {
        "vpcas": vpcas,
        "slots": slots,
        "vtags": vtags,
        "kinds": kinds,
        "ev_a": ev_a,
        "ev_taken": ev_taken,
        "targets": branch_targets,
        "branch_pcs": derived.indirect_pcs,
        "indirect_idx": np.asarray(derived.indirect_idx),
        "predictions": np.zeros(branch_count, dtype=np.uint64),
        "valid": np.zeros(branch_count, dtype=np.uint8),
    }


# ----------------------------------------------------------------------
# Prediction-dependent replay
# ----------------------------------------------------------------------


def _replay_python(
    kinds: List[int],
    ev_a: List[int],
    ev_taken: List[int],
    targets: List[int],
    max_iter: int,
    fallback: bool,
    vpcas: List[List[int]],
    slots: List[List[int]],
    vtags: List[List[int]],
    btb_tags: List[int],
    btb_targets: List[int],
    btb_ticks: List[int],
    clock: int,
    cond_count: int,
    cond_misp: int,
    conditional,
    predictions: List[int],
    valid_out: List[int],
) -> Tuple[int, int, int]:
    """Event-order replay, statement-for-statement the scalar
    ``on_conditional``/``predict_target``/``train`` sequence with the
    hashing replaced by precomputed table reads."""
    cond_predict = conditional.predict
    cond_train = conditional.train_weights
    cond_update = conditional.update
    branch = 0
    for e in range(len(kinds)):
        if kinds[e] == 0:
            pc = ev_a[e]
            taken = bool(ev_taken[e])
            predicted = cond_predict(pc)
            cond_count += 1
            if predicted != taken:
                cond_misp += 1
            cond_update(pc, taken)
            continue

        row = ev_a[e]
        row_vpcas = vpcas[row]
        row_slots = slots[row]
        row_vtags = vtags[row]
        target = targets[branch]

        visited = 0
        has_pred = False
        pred = 0
        hit_it = -1
        for it in range(max_iter):
            s = row_slots[it]
            if btb_tags[s] != row_vtags[it]:
                break
            visited += 1
            if cond_predict(row_vpcas[it]):
                pred = btb_targets[s]
                has_pred = True
                hit_it = it
                break
        if not has_pred and visited and fallback:
            pred = btb_targets[row_slots[0]]
            has_pred = True
            hit_it = 0
        if has_pred:
            predictions[branch] = pred
            valid_out[branch] = 1
        branch += 1

        if has_pred and pred == target:
            for it in range(visited):
                cond_train(row_vpcas[it], taken=(it == hit_it))
            s = row_slots[hit_it]
            if btb_tags[s] == row_vtags[hit_it]:
                clock += 1
                btb_ticks[s] = clock
            continue

        found = -1
        for it in range(max_iter):
            s = row_slots[it]
            if (
                found < 0
                and btb_tags[s] == row_vtags[it]
                and btb_targets[s] == target
            ):
                found = it
        if found >= 0:
            for it in range(found + 1):
                s = row_slots[it]
                if btb_tags[s] == row_vtags[it] or it == found:
                    cond_train(row_vpcas[it], taken=(it == found))
            s = row_slots[found]
            if btb_tags[s] == row_vtags[found]:
                clock += 1
                btb_ticks[s] = clock
            continue

        victim = -1
        for it in range(max_iter):
            if btb_tags[row_slots[it]] != row_vtags[it]:
                victim = it
                break
        if victim < 0:
            best_tick = btb_ticks[row_slots[0]]
            victim = 0
            for it in range(1, max_iter):
                tick = btb_ticks[row_slots[it]]
                if tick < best_tick:
                    best_tick = tick
                    victim = it
        for it in range(visited):
            if it != victim:
                cond_train(row_vpcas[it], taken=False)
        s = row_slots[victim]
        clock += 1
        btb_tags[s] = row_vtags[victim]
        btb_targets[s] = target
        btb_ticks[s] = clock
        cond_train(row_vpcas[victim], taken=True)
    return clock, cond_count, cond_misp


#: Feature kind codes of the compiled multiperspective perceptron.
_FEATURE_CODES = {"bias": 0, "ghist": 1, "path": 2, "local": 3}


def _replay_compiled(
    fn,
    predictor: VPCPredictor,
    prep: dict,
    btb_tags: np.ndarray,
    btb_targets: np.ndarray,
    btb_ticks: np.ndarray,
    counters: np.ndarray,
) -> None:
    """Run ``vpc_replay`` with the shared multiperspective perceptron
    staged into arrays, then write its state back.

    The BTB arrays and ``counters`` ([clock, conditional count,
    conditional mispredictions]) are updated in place.
    """
    cfg = predictor.config
    mpp = predictor.conditional
    ghist = mpp._ghist
    path = mpp._path
    local = mpp._local
    threshold = mpp._threshold
    features = len(mpp.features)
    rows = 1 << mpp.index_bits

    specs = np.asarray(
        [(_FEATURE_CODES[kind], param) for kind, param in mpp.features],
        dtype=np.int64,
    )
    weights = np.stack(mpp._tables)
    words = (ghist.capacity + 63) // 64
    ghist_words = np.frombuffer(
        ghist.value().to_bytes(8 * words, "little"), dtype="<u8"
    ).astype(np.uint64)
    path_entries = np.zeros(path.depth, dtype=np.int64)
    path_entries[: len(path._entries)] = path._entries
    local_table = np.asarray(local._table, dtype=np.uint64)
    mpp_state = np.asarray(
        [len(path._entries), threshold.theta, threshold._counter],
        dtype=np.int64,
    )

    events = len(prep["kinds"])
    branches = len(prep["targets"])
    table = prep["vpcas"].size
    entries = cfg.btb_entries
    ptr = native.pointer
    fn(
        events,
        ptr("kinds", prep["kinds"], np.uint8, events),
        ptr("ev_a", prep["ev_a"], np.uint64, events),
        ptr("ev_taken", prep["ev_taken"], np.uint8, events),
        ptr("targets", prep["targets"], np.uint64, branches),
        cfg.max_iterations,
        1 if cfg.fallback_to_first else 0,
        ptr("vpcas", prep["vpcas"], np.uint64, table),
        ptr("slots", prep["slots"], np.int64, table),
        ptr("vtags", prep["vtags"], np.int64, table),
        ptr("btb_tags", btb_tags, np.int64, entries),
        ptr("btb_targets", btb_targets, np.uint64, entries),
        ptr("btb_ticks", btb_ticks, np.int64, entries),
        ptr("counters", counters, np.int64, 3),
        features,
        ptr("specs", specs, np.int64, 2 * features),
        mpp.index_bits,
        mpp._weight_max,
        mpp._weight_min,
        ptr("weights", weights, np.int8, features * rows),
        ptr("ghist", ghist_words, np.uint64, words),
        words,
        ghist.capacity,
        ptr("path", path_entries, np.int64, path.depth),
        path.depth,
        path.bits_per_pc,
        ptr("local", local_table, np.uint64, local.num_entries),
        local.num_entries,
        local.history_bits,
        ptr("mpp_state", mpp_state, np.int64, 3),
        threshold._max,
        threshold._min,
        ptr("predictions", prep["predictions"], np.uint64, branches),
        ptr("valid", prep["valid"], np.uint8, branches),
    )

    mpp._tables = list(weights)
    ghist._bits = int.from_bytes(ghist_words.astype("<u8").tobytes(), "little")
    path._entries = path_entries[: int(mpp_state[0])].tolist()
    local._table = local_table.tolist()
    threshold.theta = int(mpp_state[1])
    threshold._counter = int(mpp_state[2])


def _replay(predictor: VPCPredictor, prep: dict) -> None:
    cfg = predictor.config
    btb = predictor._btb
    btb_tags = btb._tags.copy()
    btb_targets = btb._targets.copy()
    btb_ticks = btb._ticks.copy()
    clock = btb._clock
    cond_count = predictor.conditional_count
    cond_misp = predictor.conditional_mispredictions

    if len(prep["kinds"]):
        fn = native.load("vpc_replay")
        if fn is not None:
            counters = np.asarray(
                [clock, cond_count, cond_misp], dtype=np.int64
            )
            _replay_compiled(
                fn, predictor, prep, btb_tags, btb_targets, btb_ticks,
                counters,
            )
            clock, cond_count, cond_misp = (int(v) for v in counters)
        else:
            branch_count = len(prep["targets"])
            pred_list = [0] * branch_count
            valid_list = [0] * branch_count
            tags_l = btb_tags.tolist()
            tgts_l = btb_targets.tolist()
            ticks_l = btb_ticks.tolist()
            clock, cond_count, cond_misp = _replay_python(
                prep["kinds"].tolist(),
                prep["ev_a"].tolist(),
                prep["ev_taken"].tolist(),
                prep["targets"].tolist(),
                cfg.max_iterations,
                cfg.fallback_to_first,
                prep["vpcas"].tolist(),
                prep["slots"].tolist(),
                prep["vtags"].tolist(),
                tags_l,
                tgts_l,
                ticks_l,
                clock,
                cond_count,
                cond_misp,
                predictor.conditional,
                pred_list,
                valid_list,
            )
            btb_tags = np.asarray(tags_l, dtype=np.int64)
            btb_targets = np.asarray(tgts_l, dtype=np.uint64)
            btb_ticks = np.asarray(ticks_l, dtype=np.int64)
            prep["predictions"][:] = pred_list
            prep["valid"][:] = valid_list

    btb._tags = btb_tags
    btb._targets = btb_targets
    btb._ticks = btb_ticks
    btb._clock = clock
    predictor.conditional_count = cond_count
    predictor.conditional_mispredictions = cond_misp
    predictor._ctx = None


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


def simulate_columnar_vpc(
    predictor: VPCPredictor,
    trace: Trace,
    derived: DerivedPlane,
    shared,
    warmup_records: int = 0,
    collect_per_pc: bool = False,
    prediction_sink: Optional[Dict[str, np.ndarray]] = None,
) -> SimulationResult:
    """Columnar VPC replay, bit-identical to the scalar engine.

    Called through :func:`repro.sim.kernel.simulate_columnar`, which
    validates support and the derived plane and owns the shared
    precompute; see that function for the caller contract.
    """
    prep = _prepare(predictor, trace, derived, shared)
    _replay(predictor, prep)

    predictions = prep["predictions"]
    prediction_valid = prep["valid"].astype(bool)
    indirect_idx = prep["indirect_idx"]
    branch_targets = prep["targets"]
    branch_pcs = prep["branch_pcs"]

    if prediction_sink is not None:
        prediction_sink["indirect_idx"] = indirect_idx.copy()
        prediction_sink["valid"] = prediction_valid.copy()
        prediction_sink["predictions"] = predictions.copy()

    counted = indirect_idx >= warmup_records
    mispredicted = counted & (
        ~prediction_valid | (predictions != branch_targets)
    )
    by_pc: Dict[int, int] = {}
    if collect_per_pc and mispredicted.any():
        miss_pcs, miss_counts = np.unique(
            branch_pcs[mispredicted], return_counts=True
        )
        by_pc = {
            int(pc): int(count)
            for pc, count in zip(miss_pcs.tolist(), miss_counts.tolist())
        }

    return_indices = np.asarray(derived.return_idx)
    returns = 0
    return_mispredictions = 0
    if len(return_indices):
        counted_returns = return_indices >= warmup_records
        returns = int(np.count_nonzero(counted_returns))
        return_mispredictions = int(
            np.count_nonzero(
                counted_returns & (np.asarray(derived.return_ok) == 0)
            )
        )

    return SimulationResult(
        trace_name=trace.name,
        predictor_name=predictor.name,
        total_instructions=trace.total_instructions(),
        indirect_branches=int(np.count_nonzero(counted)),
        indirect_mispredictions=int(np.count_nonzero(mispredicted)),
        return_branches=returns,
        return_mispredictions=return_mispredictions,
        conditional_branches=derived.conditionals,
        mispredictions_by_pc=by_pc,
    )
