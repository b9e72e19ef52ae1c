"""Columnar replay kernel for :class:`~repro.predictors.ittage.ITTAGE`.

ITTAGE's per-branch work splits the same way BLBP's does (see
:mod:`repro.sim.kernel`): almost everything the scalar loop computes is
a pure function of the *trace*, and only the tagged-table contents are
prediction-dependent.

* **History stream.**  Every record pushes a fixed number of history
  bits — one per conditional (the outcome), ``target_bits_per_indirect``
  per indirect (hashed-target bits), one constant ``1`` for every other
  retired branch — so each branch's fold positions are known up front.
  The folded index/tag registers are interval-``[0, length)`` folds of
  that stream, served from the same prefix-XOR tables the BLBP kernel
  uses, with the live history ring prepended as a virtual prefix so warm
  predictors replay exactly.
* **Path history.**  Two PC bits per record; the 16-bit register any
  branch observes is a fixed-size window over (initial register ++
  per-record codes), computed with a handful of shifted gathers.
* **Indices and tags.**  With folds and path values in hand, every
  (branch, table) index and tag is one vectorized hash-mix — the scalar
  loop's entire ``_tagged_index``/``_tagged_tag`` work disappears from
  the replay.

The replay itself — provider/altpred selection, confidence and
usefulness counters, the use-alt meta-counter, allocation with Seznec's
geometric RNG skew, periodic usefulness reset — is inherently
sequential and runs either as a Python loop over the precomputed index
planes or through the compiled ``ittage_replay`` core in
:mod:`repro.sim.native` (the allocation tie-breaker calls back into the
predictor's own ``numpy`` Generator, so the RNG stream is shared
bit-for-bit between all three paths; an exception raised by a draw
stops the compiled core and is re-raised, never swallowed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.hashing import mix_pc, stable_hash64
from repro.predictors.ittage import ITTAGE
from repro.sim import native
from repro.sim.metrics import SimulationResult
from repro.trace.derived import DerivedPlane
from repro.trace.stream import Trace


# ----------------------------------------------------------------------
# Trace-pure precomputation
# ----------------------------------------------------------------------


def _push_stream(
    trace: Trace,
    derived: DerivedPlane,
    target_bits: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """The history-bit stream pushed by the whole trace, oldest first.

    Returns ``(body, bits_before, total)`` where ``body[j]`` is the
    ``j``-th pushed bit, ``bits_before[b]`` counts stream bits pushed
    before indirect branch ``b`` predicts, and ``total`` is the stream
    length.  Conditionals push their outcome, indirects push
    ``target_bits`` hashed-target bits (LSB first), every other retired
    record pushes a constant ``1``.
    """
    records = derived.records
    indirect_idx = np.asarray(derived.indirect_idx)
    cond_idx = np.asarray(derived.cond_idx)
    branch_count = len(indirect_idx)
    extra = target_bits - 1
    total = records + extra * branch_count

    body = np.ones(total, dtype=np.uint8)
    if len(cond_idx):
        cond_pos = cond_idx + extra * np.searchsorted(
            indirect_idx, cond_idx
        )
        body[cond_pos] = derived.conditional_outcomes()

    starts = indirect_idx + extra * np.arange(branch_count, dtype=np.int64)
    if branch_count and target_bits:
        unique, inverse = np.unique(
            derived.indirect_targets, return_inverse=True
        )
        hashes = np.fromiter(
            (stable_hash64(int(value)) for value in unique.tolist()),
            dtype=np.uint64,
            count=len(unique),
        )[inverse]
        for bit in range(target_bits):
            body[starts + bit] = (
                (hashes >> np.uint64(bit)) & np.uint64(1)
            ).astype(np.uint8)
    bits_before = starts if target_bits else indirect_idx - np.arange(
        branch_count, dtype=np.int64
    )
    return body, bits_before, total


def _ring_prefix(predictor: ITTAGE, length: int) -> Tuple[int, ...]:
    """The most recent ``length`` ring bits, oldest first."""
    ring = predictor._ring
    return tuple(ring.bit_at(length - 1 - i) for i in range(length))


def _path_values(
    codes: np.ndarray,
    positions: np.ndarray,
    path0: int,
    path_bits: int,
) -> np.ndarray:
    """Path-history register seen by each branch, before its own push.

    ``codes`` holds every record's 2-bit path code; the register before
    record ``r`` is a window of the last ``ceil(path_bits / 2)`` codes
    (the initial register supplying codes older than the trace), masked
    to ``path_bits``.
    """
    if path_bits <= 0:
        return np.zeros(len(positions), dtype=np.int64)
    window = (path_bits + 1) // 2
    ext = np.empty(window + len(codes), dtype=np.int64)
    for m in range(window):
        ext[m] = (path0 >> (2 * (window - 1 - m))) & 3
    ext[window:] = codes
    values = np.zeros(len(positions), dtype=np.int64)
    base = positions + (window - 1)
    for u in range(window):
        values |= ext[base - u] << (2 * u)
    return values & ((1 << path_bits) - 1)


def _prepare(
    predictor: ITTAGE,
    trace: Trace,
    derived: DerivedPlane,
    shared,
) -> dict:
    """All trace-pure planes: per-(branch, table) indices/tags, base
    indices, and the write-back ingredients (stream, path, folds)."""
    cfg = predictor.config
    num_tagged = cfg.num_tagged
    lengths = cfg.history_lengths
    longest = max(lengths)
    tbits = cfg.target_bits_per_indirect
    index_bits = predictor._index_bits

    indirect_idx = np.asarray(derived.indirect_idx)
    branch_count = len(indirect_idx)
    branch_pcs = derived.indirect_pcs
    branch_targets = np.asarray(derived.indirect_targets)

    # History stream with the live ring as a virtual prefix; keyed on
    # the prefix so warm lanes with different rings never collide.
    prefix_bits = _ring_prefix(predictor, longest)
    body, bits_before, total = shared.get(
        ("ittage-stream", tbits),
        lambda: _push_stream(trace, derived, tbits),
    )
    stream_key = ("ittage-ext", tbits, prefix_bits)
    ext = shared.get(
        stream_key,
        lambda: np.concatenate(
            [np.asarray(prefix_bits, dtype=np.uint8), body]
        ),
    )
    consumed = longest + bits_before
    final_consumed = np.asarray([longest + total], dtype=np.int64)

    from repro.sim.kernel import _branch_folds, _fold_prefix_tables

    def folds_for(width: int, intervals: Tuple[Tuple[int, int], ...]):
        prefix = shared.get(
            ("ittage-prefix", stream_key, width),
            lambda: _fold_prefix_tables(ext, width),
        )
        return (
            _branch_folds(prefix, consumed, intervals, width),
            _branch_folds(prefix, final_consumed, intervals, width),
        )

    def grouped_folds(widths: Tuple[int, ...]):
        """Per-table fold planes, computing each distinct width once."""
        per_table = [None] * num_tagged
        finals = [0] * num_tagged
        for width in sorted(set(widths)):
            members = tuple(
                t for t in range(num_tagged) if widths[t] == width
            )
            intervals = tuple((0, lengths[t]) for t in members)
            branch_vals, final_vals = shared.get(
                ("ittage-folds", stream_key, width, intervals),
                lambda w=width, iv=intervals: folds_for(w, iv),
            )
            for column, t in enumerate(members):
                per_table[t] = branch_vals[:, column]
                finals[t] = int(final_vals[0, column])
        return per_table, finals

    index_widths = tuple(index_bits for _ in range(num_tagged))
    tag_widths = tuple(cfg.tag_bits)
    tag2_widths = tuple(max(1, bits - 1) for bits in cfg.tag_bits)
    index_folds, index_finals = grouped_folds(index_widths)
    tag_folds, tag_finals = grouped_folds(tag_widths)
    tag2_folds, tag2_finals = grouped_folds(tag2_widths)

    # Path history: one 2-bit code per record, every branch a window.
    codes = shared.get(
        ("path-codes",),
        lambda: ((trace.pcs >> np.uint64(2)) & np.uint64(3)).astype(
            np.int64
        ),
    )
    path0 = predictor._path
    paths = _path_values(codes, indirect_idx, path0, cfg.path_bits)
    path_final = int(
        _path_values(
            codes,
            np.asarray([derived.records], dtype=np.int64),
            path0,
            cfg.path_bits,
        )[0]
    )

    # Hash-mix planes over the distinct static PCs.
    unique_pcs, pc_inverse = shared.get(
        ("pc-unique",),
        lambda: np.unique(branch_pcs, return_inverse=True),
    )

    def mixes(salt: int) -> np.ndarray:
        return shared.get(
            ("pc-mix", salt),
            lambda: np.fromiter(
                (
                    mix_pc(int(pc), salt=salt)
                    for pc in unique_pcs.tolist()
                ),
                dtype=np.uint64,
                count=len(unique_pcs),
            ),
        )

    base_idx = (
        mixes(0)[pc_inverse] % np.uint64(cfg.base_entries)
    ).astype(np.int64)

    index_mask = np.uint64((1 << index_bits) - 1)
    path_mask = np.uint64((1 << min(cfg.path_bits, 16)) - 1)
    masked_paths = paths.astype(np.uint64) & path_mask
    idx = np.empty((branch_count, num_tagged), dtype=np.int64)
    tag = np.empty((branch_count, num_tagged), dtype=np.int64)
    for t in range(num_tagged):
        mixed = (
            mixes(t + 1)[pc_inverse]
            ^ index_folds[t]
            ^ (masked_paths >> np.uint64(t & 3))
        )
        idx[:, t] = ((mixed & index_mask) % np.uint64(
            cfg.tagged_entries
        )).astype(np.int64)
        tag_mask = np.uint64((1 << cfg.tag_bits[t]) - 1)
        tag[:, t] = (
            (
                mixes(0x7AC + t)[pc_inverse]
                ^ tag_folds[t]
                ^ (tag2_folds[t] << np.uint64(1))
            )
            & tag_mask
        ).astype(np.int64)

    return {
        "idx": idx,
        "tag": tag,
        "base_idx": base_idx,
        "targets": branch_targets,
        "branch_pcs": branch_pcs,
        "indirect_idx": indirect_idx,
        "stream": ext,
        "pushed": total,
        "path_final": path_final,
        "index_finals": index_finals,
        "tag_finals": tag_finals,
        "tag2_finals": tag2_finals,
        "predictions": np.zeros(branch_count, dtype=np.uint64),
        "valid": np.zeros(branch_count, dtype=np.uint8),
    }


# ----------------------------------------------------------------------
# Prediction-dependent replay (two interchangeable implementations)
# ----------------------------------------------------------------------


def _replay_python(
    idx_rows: List[List[int]],
    tag_rows: List[List[int]],
    base_rows: List[int],
    target_list: List[int],
    tab_tags: List[List[int]],
    tab_targets: List[List[int]],
    tab_ctr: List[List[int]],
    tab_useful: List[List[int]],
    tab_valid: List[List[int]],
    base_targets: List[int],
    base_ctr: List[int],
    base_valid: List[int],
    num_tagged: int,
    entries: int,
    conf_max: int,
    useful_max: int,
    use_alt_min: int,
    use_alt_max: int,
    u_reset_period: int,
    use_alt: int,
    updates: int,
    rng_random,
    predictions: List[int],
    valid_out: List[int],
) -> Tuple[int, int]:
    """Pure-Python replay over the precomputed index/tag planes.

    Statement-for-statement the scalar ``predict_target``/``train``
    pair, with the hash pipeline stripped out; returns the final
    ``(use_alt, updates)`` meta-state.
    """
    for b in range(len(base_rows)):
        indices = idx_rows[b]
        tags = tag_rows[b]
        target = target_list[b]

        provider_t = -1
        provider_i = -1
        alt_t = -1
        alt_i = -1
        for t in range(num_tagged - 1, -1, -1):
            i = indices[t]
            if tab_valid[t][i] and tab_tags[t][i] == tags[t]:
                if provider_t < 0:
                    provider_t = t
                    provider_i = i
                else:
                    alt_t = t
                    alt_i = i
                    break

        bi = base_rows[b]
        base_present = base_valid[bi]
        base_target = base_targets[bi] if base_present else None

        if provider_t >= 0:
            provider_target = tab_targets[provider_t][provider_i]
            provider_ctr = tab_ctr[provider_t][provider_i]
        else:
            provider_target = None
            provider_ctr = 0
        if alt_t >= 0:
            alt_target: Optional[int] = tab_targets[alt_t][alt_i]
        else:
            alt_target = base_target

        if provider_t < 0:
            final = base_target
        elif provider_ctr == 0 and use_alt >= 0 and alt_target is not None:
            final = alt_target
        else:
            final = provider_target

        if final is not None:
            predictions[b] = final
            valid_out[b] = 1
        mispredicted = final != target

        if provider_t >= 0:
            provider_correct = provider_target == target
            alt_correct = alt_target == target
            if provider_ctr == 0 and provider_target != alt_target:
                if alt_correct and not provider_correct:
                    if use_alt < use_alt_max:
                        use_alt += 1
                elif provider_correct and not alt_correct:
                    if use_alt > use_alt_min:
                        use_alt -= 1
            if provider_target != alt_target:
                u = tab_useful[provider_t][provider_i]
                if provider_correct and u < useful_max:
                    tab_useful[provider_t][provider_i] = u + 1
                elif not provider_correct and u > 0:
                    tab_useful[provider_t][provider_i] = u - 1
            if provider_correct:
                if tab_ctr[provider_t][provider_i] < conf_max:
                    tab_ctr[provider_t][provider_i] += 1
            elif tab_ctr[provider_t][provider_i] > 0:
                tab_ctr[provider_t][provider_i] -= 1
            else:
                tab_targets[provider_t][provider_i] = target
                tab_ctr[provider_t][provider_i] = 1

        if not base_present:
            base_valid[bi] = 1
            base_targets[bi] = target
            base_ctr[bi] = 1
        elif base_targets[bi] == target:
            if base_ctr[bi] < conf_max:
                base_ctr[bi] += 1
        elif base_ctr[bi] > 0:
            base_ctr[bi] -= 1
        else:
            base_targets[bi] = target
            base_ctr[bi] = 1

        if mispredicted:
            first = -1
            second = -1
            for t in range(provider_t + 1, num_tagged):
                if tab_useful[t][indices[t]] == 0:
                    if first < 0:
                        first = t
                    else:
                        second = t
                        break
            if first < 0:
                for t in range(provider_t + 1, num_tagged):
                    i = indices[t]
                    if tab_useful[t][i] > 0:
                        tab_useful[t][i] -= 1
            else:
                chosen = first
                if second >= 0:
                    # Seznec's geometric skew over the free candidates,
                    # in the scalar loop's exact RNG draw order.
                    candidate = second
                    while True:
                        if rng_random() < 0.5:
                            break
                        chosen = candidate
                        candidate = -1
                        for t in range(chosen + 1, num_tagged):
                            if tab_useful[t][indices[t]] == 0:
                                candidate = t
                                break
                        if candidate < 0:
                            break
                i = indices[chosen]
                tab_valid[chosen][i] = 1
                tab_tags[chosen][i] = tags[chosen]
                tab_targets[chosen][i] = target
                tab_ctr[chosen][i] = 0
                tab_useful[chosen][i] = 0

        updates += 1
        if updates % u_reset_period == 0:
            zeros = [0] * entries
            for t in range(num_tagged):
                tab_useful[t] = list(zeros)
    return use_alt, updates


def _replay(predictor: ITTAGE, prep: dict) -> None:
    """Run the prediction-dependent replay and write the state back."""
    cfg = predictor.config
    tables = predictor._tables
    num_tagged = cfg.num_tagged
    entries = cfg.tagged_entries
    branch_count = len(prep["base_idx"])

    tab_tags = np.stack([t.tags for t in tables]) if num_tagged else (
        np.zeros((0, entries), dtype=np.int64)
    )
    tab_targets = np.stack([t.targets for t in tables]) if num_tagged else (
        np.zeros((0, entries), dtype=np.uint64)
    )
    tab_ctr = np.stack([t.ctr for t in tables]) if num_tagged else (
        np.zeros((0, entries), dtype=np.int8)
    )
    tab_useful = np.stack([t.useful for t in tables]) if num_tagged else (
        np.zeros((0, entries), dtype=np.int8)
    )
    tab_valid = (
        np.stack([t.valid for t in tables]).astype(np.uint8)
        if num_tagged
        else np.zeros((0, entries), dtype=np.uint8)
    )
    base_targets = predictor._base_targets.copy()
    base_ctr = predictor._base_ctr.copy()
    base_valid = predictor._base_valid.astype(np.uint8)

    use_alt = predictor._use_alt
    updates = predictor._updates
    predictions = prep["predictions"]
    valid_out = prep["valid"]

    if branch_count:
        fn = native.load("ittage_replay")
        if fn is not None:
            state = np.asarray([use_alt, updates, 0], dtype=np.int64)
            failures: List[BaseException] = []

            def draw() -> float:
                # ctypes would print and swallow an exception raised
                # here; keep the first, flag the core to stop, and
                # re-raise it once the call returns.
                try:
                    return predictor._rng.random()
                except BaseException as exc:
                    failures.append(exc)
                    state[2] = 1
                    return 0.0

            rng_callback = native.RNG_CALLBACK(draw)
            ptr = native.pointer
            plane = branch_count * num_tagged
            table = num_tagged * entries
            base = len(base_targets)
            fn(
                branch_count,
                num_tagged,
                entries,
                base,
                ptr("idx", prep["idx"], np.int64, plane),
                ptr("tag", prep["tag"], np.int64, plane),
                ptr("base_idx", prep["base_idx"], np.int64, branch_count),
                ptr("targets", prep["targets"], np.uint64, branch_count),
                ptr("tab_tags", tab_tags, np.int64, table),
                ptr("tab_targets", tab_targets, np.uint64, table),
                ptr("tab_ctr", tab_ctr, np.int8, table),
                ptr("tab_useful", tab_useful, np.int8, table),
                ptr("tab_valid", tab_valid, np.uint8, table),
                ptr("base_targets", base_targets, np.uint64, base),
                ptr("base_ctr", base_ctr, np.int8, base),
                ptr("base_valid", base_valid, np.uint8, base),
                predictor._conf_max,
                predictor._useful_max,
                predictor._use_alt_min,
                predictor._use_alt_max,
                cfg.u_reset_period,
                ptr("state", state, np.int64, 3),
                rng_callback,
                ptr("predictions", predictions, np.uint64, branch_count),
                ptr("valid", valid_out, np.uint8, branch_count),
            )
            if failures:
                raise failures[0]
            use_alt = int(state[0])
            updates = int(state[1])
        else:
            pred_list = [0] * branch_count
            valid_list = [0] * branch_count
            tags_l = [row.tolist() for row in tab_tags]
            tgts_l = [row.tolist() for row in tab_targets]
            ctr_l = [row.tolist() for row in tab_ctr]
            useful_l = [row.tolist() for row in tab_useful]
            valid_l = [row.tolist() for row in tab_valid]
            b_tgt = base_targets.tolist()
            b_ctr = base_ctr.tolist()
            b_val = base_valid.tolist()
            use_alt, updates = _replay_python(
                prep["idx"].tolist(),
                prep["tag"].tolist(),
                prep["base_idx"].tolist(),
                prep["targets"].tolist(),
                tags_l,
                tgts_l,
                ctr_l,
                useful_l,
                valid_l,
                b_tgt,
                b_ctr,
                b_val,
                num_tagged,
                entries,
                predictor._conf_max,
                predictor._useful_max,
                predictor._use_alt_min,
                predictor._use_alt_max,
                cfg.u_reset_period,
                use_alt,
                updates,
                predictor._rng.random,
                pred_list,
                valid_list,
            )
            for t in range(num_tagged):
                tab_tags[t] = tags_l[t]
                tab_targets[t] = tgts_l[t]
                tab_ctr[t] = ctr_l[t]
                tab_useful[t] = useful_l[t]
                tab_valid[t] = valid_l[t]
            base_targets = np.asarray(b_tgt, dtype=np.uint64)
            base_ctr = np.asarray(b_ctr, dtype=np.int8)
            base_valid = np.asarray(b_val, dtype=np.uint8)
            predictions[:] = pred_list
            valid_out[:] = valid_list

    # --- state write-back ---------------------------------------------
    for t, table in enumerate(tables):
        table.tags = tab_tags[t].copy()
        table.targets = tab_targets[t].copy()
        table.ctr = tab_ctr[t].copy()
        table.useful = tab_useful[t].copy()
        table.valid = tab_valid[t].astype(bool)
    predictor._base_targets = base_targets
    predictor._base_ctr = base_ctr
    predictor._base_valid = base_valid.astype(bool)
    predictor._use_alt = use_alt
    predictor._updates = updates

    ring = predictor._ring
    capacity = ring._capacity
    head0 = ring._head
    pushed = prep["pushed"]
    stream = prep["stream"]
    total = len(stream)
    buffer0 = ring._buffer
    fresh = [0] * capacity
    for age in range(capacity):
        if age < pushed:
            bit = int(stream[total - 1 - age])
        else:
            bit = buffer0[(head0 - 1 - (age - pushed)) % capacity]
        fresh[(head0 + pushed - 1 - age) % capacity] = bit
    ring._buffer = fresh
    ring._head = (head0 + pushed) % capacity

    for t in range(num_tagged):
        predictor._index_folds[t].fold = prep["index_finals"][t]
        predictor._tag_folds[t].fold = prep["tag_finals"][t]
        predictor._tag_folds2[t].fold = prep["tag2_finals"][t]
    predictor._path = prep["path_final"]
    predictor._ctx = None


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


def simulate_columnar_ittage(
    predictor: ITTAGE,
    trace: Trace,
    derived: DerivedPlane,
    shared,
    warmup_records: int = 0,
    collect_per_pc: bool = False,
    prediction_sink: Optional[Dict[str, np.ndarray]] = None,
) -> SimulationResult:
    """Columnar ITTAGE replay, bit-identical to the scalar engine.

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
