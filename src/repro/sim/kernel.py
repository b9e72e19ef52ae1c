"""The columnar batch simulation kernel (``backend="columnar"``).

The scalar engine retires branches one at a time through Python; this
module replays the same simulation as a handful of whole-trace numpy
tensor passes over the RPDERIV1 derived plane.  The result — predictor
state, per-branch predictions, every counter — is bit-identical to the
scalar loop (pinned by the equivalence suite over the full workload
suite); only the schedule of the arithmetic changes.

The kernel exploits a structural property of BLBP: almost everything the
scalar loop computes per branch is a pure function of the *trace*, not
of earlier predictions.

* **Global-history folds.**  The fold register for interval ``[s, e)``
  after ``c`` stream bits equals an XOR over a contiguous window of the
  outcome stream, with each bit pre-rotated by its stream position.
  Precomputing ``W`` prefix-XOR tables (one per fold phase) turns every
  (branch, interval) fold into two table lookups — no sequential state.
  An initial, possibly warm, history register is handled by prepending
  its bits to the stream as a virtual prefix.
* **Local histories.**  Per local-table slot, the register seen by each
  branch is a sliding window over (initial register bits ++ pushed
  target bits) — one vectorized window product per slot.
* **IBTB.**  Candidate sets evolve from actual targets only, never from
  predictions, so a single cheap structural replay in retirement order
  yields every branch's candidate-set snapshot up front.
* **Weights and θ.**  These *are* prediction-dependent, so the branch
  stream is cut into chunks at **update barriers**: a chunk ends where a
  branch would read a (bank, row) an earlier in-chunk branch writes.
  Within a chunk, every gather/dot/score/argmax/train step batches into
  one tensor op; the per-bit adaptive-θ recurrence replays with an
  optimistic-saturation scan (vectorized until the first counter
  saturation, exact scalar semantics at the saturation row, resume).

This module is the front door for every columnar predictor, not just
BLBP: :func:`simulate_columnar` dispatches to the ITTAGE and VPC
kernels (:mod:`repro.sim.kernel_ittage`, :mod:`repro.sim.kernel_vpc`),
:func:`columnar_support` reports whether — and *why not* — a predictor
can be replayed columnar, and :func:`simulate_columnar_many` replays a
fused multi-predictor group against one :class:`SharedPrecompute` pass
(fold prefix tables, IBTB candidate tensors, hash-mix planes and
derived-plane loads computed once per trace and shared across lanes,
keyed by trace content hash), advancing groups of compatible BLBP
lanes lane-parallel through the compiled ``blbp_replay_many`` core.

The dispatch in :func:`repro.sim.engine.simulate` only needs this
module's ``columnar_support`` / ``simulate_columnar`` /
``simulate_columnar_many`` trio; new per-predictor kernels slot in by
extending the registry in :func:`columnar_support`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.hashing import mix_pc, stable_hash64
from repro.cond.mpp import MultiperspectivePerceptron
from repro.core.blbp import BLBP
from repro.core.ibtb import IndirectBTB
from repro.predictors.ittage import ITTAGE
from repro.predictors.vpc import VPCPredictor
from repro.sim import native
from repro.sim.metrics import SimulationResult
from repro.trace.derived import DerivedPlane, compute_derived
from repro.trace.stream import Trace

#: Hard ceiling on chunk length.  Barriers already bound chunks by
#: dependency; the cap bounds the transient tensors (``MAX_CHUNK × N × K``).
MAX_CHUNK = 512

#: Score used to mask candidate-set padding out of the argmax.  Real
#: scores are bounded by K · max_transfer · N ≪ 2^31.
_NEG_SCORE = np.int32(-(2**31) + 1)


#: Exact predictor types with a columnar kernel.  The kernels replicate
#: each type's architectural state transitions; subclasses may override
#: hooks a kernel cannot see, so the checks are intentionally exact-type.
_COLUMNAR_TYPES: Tuple[type, ...] = (BLBP, ITTAGE, VPCPredictor)


def columnar_support(predictor: object) -> Tuple[bool, str]:
    """Whether the columnar kernels can replay ``predictor``, and why.

    Returns ``(True, "<kernel name>")`` for supported predictors and
    ``(False, "<actionable reason>")`` otherwise — the reason string is
    what ``--backend columnar-strict`` errors and fallback warnings
    surface, so it names both the offending type and the remedy.
    """
    kind = type(predictor)
    if kind is BLBP:
        return True, "BLBP columnar kernel (repro.sim.kernel)"
    if kind is ITTAGE:
        return True, "ITTAGE columnar kernel (repro.sim.kernel_ittage)"
    if kind is VPCPredictor:
        return _vpc_support(predictor)
    supported_names = ", ".join(t.__name__ for t in _COLUMNAR_TYPES)
    for base in _COLUMNAR_TYPES:
        if isinstance(predictor, base):
            return False, (
                f"{kind.__name__} subclasses {base.__name__}, but the "
                f"columnar kernels are exact-type: a subclass may "
                f"override hooks the kernel cannot see.  Use the scalar "
                f"backend, or register a dedicated kernel for "
                f"{kind.__name__}."
            )
    return False, (
        f"{kind.__name__} has no columnar kernel (supported exact "
        f"types: {supported_names}).  Use the scalar backend for this "
        f"predictor."
    )


def _vpc_support(predictor: VPCPredictor) -> Tuple[bool, str]:
    """VPC replays its conditional component inside the compiled core
    (and the numpy replay keeps the same rule, so the host's compiler
    never changes which path runs): only the default
    :class:`MultiperspectivePerceptron`, with local histories that fit
    the core's 64-bit registers, qualifies."""
    conditional = predictor.conditional
    if type(conditional) is not MultiperspectivePerceptron:
        return False, (
            f"VPCPredictor's conditional component is "
            f"{type(conditional).__name__}, but the VPC columnar kernel "
            f"replays exactly MultiperspectivePerceptron (the default "
            f"conditional) in its compiled core.  Use the scalar backend "
            f"for this conditional."
        )
    local_bits = conditional._local.history_bits
    if local_bits > 64:
        return False, (
            f"VPCPredictor's MultiperspectivePerceptron keeps "
            f"{local_bits}-bit local histories, but the VPC columnar "
            f"kernel holds at most 64.  Use the scalar backend for this "
            f"geometry."
        )
    return True, "VPC columnar kernel (repro.sim.kernel_vpc)"


def columnar_supported(predictor: object) -> bool:
    """Whether the columnar kernels can replay ``predictor`` exactly."""
    return columnar_support(predictor)[0]


# ----------------------------------------------------------------------
# Shared precompute
# ----------------------------------------------------------------------


class SharedPrecompute:
    """Keyed cache of trace-pure precompute artifacts for one trace.

    One instance wraps one derived plane (one ``(trace content,
    ras_depth)`` identity) and memoizes every artifact the kernels
    derive from it: prefix-XOR fold tables, per-salt hash-mix planes
    over the distinct indirect PCs, local-register windows, IBTB
    candidate tensors, ITTAGE index/tag streams, VPC virtual-PC
    tables.  Keys embed everything an artifact depends on beyond the
    trace (initial register values, geometry, bit widths), so lanes of
    a fused group — or repeated solo runs over the same trace — share
    work exactly when sharing is bit-safe, and two lanes whose keys
    match receive the *same object*, which is what the multi-lane
    replay uses to decide groupability.

    Artifacts are read-only by convention; nothing in the cache is ever
    mutated after construction.
    """

    __slots__ = ("derived", "_artifacts")

    def __init__(self, derived: DerivedPlane) -> None:
        self.derived = derived
        self._artifacts: Dict[tuple, object] = {}

    def get(self, key: tuple, builder: Callable[[], object]) -> object:
        """The artifact under ``key``, building it on first use."""
        try:
            return self._artifacts[key]
        except KeyError:
            value = builder()
            self._artifacts[key] = value
            return value


#: Process-level LRU of shared precomputes, keyed by trace content.
#: Capacity is deliberately tiny: campaigns iterate predictors over one
#: trace at a time, so two entries cover the hot pattern (current trace
#: plus one straggler) while bounding the fold tables held alive.
_SHARED_CAPACITY = 2
_SHARED_CACHE: "OrderedDict[Tuple[str, int], SharedPrecompute]" = OrderedDict()


def shared_precompute(
    trace: Trace,
    ras_depth: int = 32,
    derived: Optional[DerivedPlane] = None,
) -> SharedPrecompute:
    """The shared precompute for ``trace``, reused across calls.

    Keyed by ``(derived content hash, ras_depth)``, so repeated
    simulations of the same trace — successive cells of a campaign,
    successive generations of a search — skip the trace-pure passes
    entirely no matter which Trace instance carries the content.
    """
    if derived is None:
        derived = compute_derived(trace, ras_depth)
    key = (derived.content_hash, ras_depth)
    entry = _SHARED_CACHE.get(key)
    if entry is not None and entry.derived.matches(trace, ras_depth):
        _SHARED_CACHE.move_to_end(key)
        return entry
    entry = SharedPrecompute(derived)
    _SHARED_CACHE[key] = entry
    _SHARED_CACHE.move_to_end(key)
    while len(_SHARED_CACHE) > _SHARED_CAPACITY:
        _SHARED_CACHE.popitem(last=False)
    return entry


def _validated_derived(
    trace: Trace, ras_depth: int, derived: Optional[DerivedPlane]
) -> DerivedPlane:
    if derived is None:
        return compute_derived(trace, ras_depth)
    if not derived.matches(trace, ras_depth):
        raise ValueError(
            f"derived plane is for {derived.trace_name!r} "
            f"({derived.records} records, ras_depth={derived.ras_depth}), "
            f"not {trace.name!r} ({len(trace)} records, "
            f"ras_depth={ras_depth})"
        )
    return derived


# ----------------------------------------------------------------------
# Trace-pure precomputation
# ----------------------------------------------------------------------


def _history_stream(
    ghist0: int, pending0: int, history_bits: int, outcomes: np.ndarray
) -> np.ndarray:
    """The full outcome stream, oldest first: virtual prefix ++ trace.

    The virtual prefix is the initial (possibly unmasked, ``pending0``
    bits wide beyond capacity) global-history register, so a kernel run
    over a warm predictor sees exactly the history the scalar loop would.
    """
    prefix_bits = history_bits + pending0
    if prefix_bits:
        nbytes = (prefix_bits + 7) // 8
        raw = np.frombuffer(
            ghist0.to_bytes(nbytes, "big"), dtype=np.uint8
        )
        pre = np.unpackbits(raw)[8 * nbytes - prefix_bits :]
    else:  # pragma: no cover - history_bits >= 1 by config validation
        pre = np.empty(0, dtype=np.uint8)
    return np.concatenate([pre, outcomes.astype(np.uint8)])


def _fold_prefix_tables(ext: np.ndarray, width: int) -> np.ndarray:
    """``P[m, j]`` = XOR of ``ext[u] << ((m - u) % width)`` for u < j.

    The fold of interval ``[s, e)`` after ``c`` consumed stream bits is
    ``P[(c - 1 - s) % W, c - s] ^ P[(c - 1 - s) % W, c - e]`` — each
    window bit lands at fold position ``(c - 1 - s - u) % W``, exactly
    :func:`repro.common.hashing.fold_int` over the live register.
    """
    total = len(ext)
    dtype = np.uint16 if width <= 15 else np.uint32
    table = np.zeros((width, total + 1), dtype=dtype)
    if total == 0:
        return table
    phase = (np.arange(total, dtype=np.int64) % width).astype(np.int64)
    ext_wide = ext.astype(dtype)
    for m in range(width):
        shifts = ((m - phase) % width).astype(dtype)
        table[m, 1:] = np.left_shift(ext_wide, shifts)
        np.bitwise_xor.accumulate(table[m], out=table[m])
    return table


def _branch_folds(
    prefix: np.ndarray,
    consumed: np.ndarray,
    intervals: Tuple[Tuple[int, int], ...],
    width: int,
) -> np.ndarray:
    """Fold values per (branch, interval) from the prefix-XOR tables."""
    count = len(consumed)
    folds = np.zeros((count, len(intervals)), dtype=np.uint64)
    for position, (start, end) in enumerate(intervals):
        phase = (consumed - 1 - start) % width
        high = prefix[phase, consumed - start]
        low = prefix[phase, consumed - end]
        folds[:, position] = (high ^ low).astype(np.uint64)
    return folds


def _local_registers(
    slots: np.ndarray,
    push_bits: np.ndarray,
    initial: List[int],
    length: int,
) -> Tuple[np.ndarray, Dict[int, int]]:
    """Per-branch local register at predict time, plus final table values.

    Branches are grouped by local-table *slot* (aliasing PCs share a
    register); within a slot the register before occurrence ``j`` is a
    ``length``-bit sliding window over the initial register's bits
    followed by the slot's pushed target bits.
    """
    count = len(slots)
    registers = np.zeros(count, dtype=np.int64)
    finals: Dict[int, int] = {}
    if count == 0:
        return registers, finals
    weights = (1 << (length - 1 - np.arange(length, dtype=np.int64)))
    order = np.argsort(slots, kind="stable")
    sorted_slots = slots[order]
    boundaries = np.flatnonzero(np.diff(sorted_slots)) + 1
    group_starts = np.concatenate([[0], boundaries, [count]])
    seed_positions = length - 1 - np.arange(length, dtype=np.int64)
    for g in range(len(group_starts) - 1):
        lo, hi = int(group_starts[g]), int(group_starts[g + 1])
        positions = order[lo:hi]
        slot = int(sorted_slots[lo])
        seed = int(initial[slot])
        padded = np.empty(length + (hi - lo), dtype=np.int64)
        padded[:length] = (seed >> seed_positions) & 1
        padded[length:] = push_bits[positions]
        windows = np.lib.stride_tricks.sliding_window_view(padded, length)
        values = windows @ weights
        registers[positions] = values[: hi - lo]
        finals[slot] = int(values[hi - lo])
    return registers, finals


def _hash_registers(registers: np.ndarray) -> np.ndarray:
    """Vectorized ``stable_hash64`` over the small set of register values."""
    unique, inverse = np.unique(registers, return_inverse=True)
    hashes = np.fromiter(
        (stable_hash64(int(value)) for value in unique),
        dtype=np.uint64,
        count=len(unique),
    )
    return hashes[inverse]


def _replay_ibtb(
    predictor: BLBP, pcs: List[int], targets: List[int]
) -> Tuple[np.ndarray, List[Tuple[int, ...]]]:
    """Structural IBTB replay: per-branch candidate-set snapshot ids.

    The IBTB's evolution depends only on actual targets (``ensure``)
    and on lookup-time lazy invalidation — never on predictions — so
    one pass in retirement order reproduces both every branch's
    candidate set *and* the exact final IBTB state.  Returns, per
    branch, an id into the list of distinct candidate-target tuples.
    """
    ibtb = predictor.ibtb
    count = len(pcs)
    set_ids = np.zeros(count, dtype=np.int64)
    registry: Dict[Tuple[int, ...], int] = {}
    sets: List[Tuple[int, ...]] = []

    if type(ibtb) is IndirectBTB:
        regions = ibtb.regions
        locate = ibtb._locate
        candidates_of = ibtb._candidates
        # pc -> (bucket, tag, rrpv list, target->way, sid,
        #        bucket version, region version).  Valid while neither
        #        version moved; a hit (RRPV promote) moves neither, so
        #        the hot path is two dict probes and two int compares.
        memo: Dict[int, tuple] = {}
        out = set_ids.tolist()
        for position in range(count):
            pc = pcs[position]
            target = targets[position]
            entry = memo.get(pc)
            if (
                entry is None
                or entry[5] != entry[0].version
                or entry[6] != regions.version
            ):
                if entry is None:
                    bucket, tag = locate(pc)
                else:
                    bucket, tag = entry[0], entry[1]
                candidates = candidates_of(bucket, tag)
                key = tuple(stored for _, stored in candidates)
                sid = registry.get(key)
                if sid is None:
                    sid = len(sets)
                    registry[key] = sid
                    sets.append(key)
                entry = (
                    bucket,
                    tag,
                    bucket.rrip._rrpv,
                    # reversed: on (impossible-by-construction) duplicate
                    # targets, keep the first way, like the scalar scan.
                    {stored: way for way, stored in reversed(candidates)},
                    sid,
                    bucket.version,
                    regions.version,
                )
                memo[pc] = entry
            out[position] = entry[4]
            # Inlined IndirectBTB.ensure (hit-promote or fill+insert).
            way = entry[3].get(target)
            if way is not None:
                entry[2][way] = 0  # rrip.touch
            else:
                bucket, tag = entry[0], entry[1]
                region, generation, offset = regions.encode(target)
                victim = bucket.rrip.victim()
                bucket.fill(victim, tag, region, generation, offset)
                bucket.rrip.insert(victim)
        set_ids = np.asarray(out, dtype=np.int64)
    else:
        for position in range(count):
            pc = pcs[position]
            key = tuple(
                target for _, target in ibtb.lookup(pc)
            )
            sid = registry.get(key)
            if sid is None:
                sid = len(sets)
                registry[key] = sid
                sets.append(key)
            set_ids[position] = sid
            ibtb.ensure(pc, targets[position])
    return set_ids, sets


def _candidate_tensors(
    sets: List[Tuple[int, ...]], bit_shifts: np.ndarray, num_bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Padded target/bit-matrix/min/max tensors over the distinct sets.

    Empty sets get columnwise min 1 / max 0 so the selective-training
    ``differs`` computation (min/max against the actual bits) yields
    all-False for them — matching the scalar ``bit_lows is None`` path.
    """
    set_count = len(sets)
    max_targets = max((len(s) for s in sets), default=0)
    width = max(1, max_targets)
    padded = np.zeros((set_count, width), dtype=np.uint64)
    sizes = np.zeros(set_count, dtype=np.int64)
    matrices = np.zeros((set_count, width, num_bits), dtype=np.int32)
    lows = np.ones((set_count, num_bits), dtype=np.int32)
    highs = np.zeros((set_count, num_bits), dtype=np.int32)
    for sid, members in enumerate(sets):
        if not members:
            continue
        targets = np.asarray(members, dtype=np.uint64)
        bits = (
            (targets[:, None] >> bit_shifts[None, :]) & np.uint64(1)
        ).astype(np.int32)
        size = len(members)
        padded[sid, :size] = targets
        sizes[sid] = size
        matrices[sid, :size] = bits
        lows[sid] = bits.min(axis=0)
        highs[sid] = bits.max(axis=0)
    return padded, sizes, matrices, lows, highs


# ----------------------------------------------------------------------
# Update barriers
# ----------------------------------------------------------------------


def _previous_conflict(rows: np.ndarray, table_rows: int) -> np.ndarray:
    """Per branch, the latest earlier branch sharing any (bank, row).

    ``-1`` when none.  Computed with one stable argsort over
    bank-qualified row keys: equal keys sort adjacent in retirement
    order, so each element's predecessor under the sort is its latest
    earlier conflict.
    """
    count, banks = rows.shape
    keys = rows + (np.arange(banks, dtype=np.int64) * table_rows)[None, :]
    flat = keys.ravel()
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    same = ordered[1:] == ordered[:-1]
    previous_flat = np.full(count * banks, -1, dtype=np.int64)
    previous_flat[order[1:][same]] = order[:-1][same]
    return (previous_flat // banks).reshape(count, banks).max(axis=1)


def _chunk_bounds(previous: np.ndarray, limit: int) -> List[int]:
    """Chunk boundaries: cut where a branch reads an in-chunk write."""
    count = len(previous)
    bounds = [0]
    start = 0
    conflicts = previous.tolist()
    for branch in range(1, count):
        if conflicts[branch] >= start or branch - start >= limit:
            bounds.append(branch)
            start = branch
    bounds.append(count)
    return bounds


# ----------------------------------------------------------------------
# Adaptive-θ replay
# ----------------------------------------------------------------------


def _observe_row(
    active: np.ndarray,
    correct: np.ndarray,
    magnitudes: np.ndarray,
    theta: np.ndarray,
    counter: np.ndarray,
    cmax: int,
    cmin: int,
    out_mask: np.ndarray,
) -> None:
    """Exact scalar ``observe_and_mask`` semantics for one branch."""
    for bit in range(len(theta)):
        if not active[bit]:
            continue
        current = int(theta[bit])
        if correct[bit]:
            magnitude = int(magnitudes[bit])
            if magnitude >= current:
                continue
            counter[bit] -= 1
            if counter[bit] <= cmin:
                counter[bit] = 0
                if current > 1:
                    current -= 1
                    theta[bit] = current
            out_mask[bit] = magnitude < current
        else:
            counter[bit] += 1
            if counter[bit] >= cmax:
                counter[bit] = 0
                theta[bit] = current + 1
            out_mask[bit] = True


def _theta_replay(
    differs: np.ndarray,
    correct: np.ndarray,
    magnitudes: np.ndarray,
    theta: np.ndarray,
    counter: np.ndarray,
    cmax: int,
    cmin: int,
    adaptive: bool,
) -> np.ndarray:
    """Chunk-batched replay of the per-bit threshold controllers.

    θ only moves when a controller counter saturates, which takes tens
    of net observations, so the common case is *no* movement within a
    chunk.  The replay assumes that optimistically: with θ frozen, the
    counter trajectory is a running sum of ±1 deltas, computed for the
    whole chunk in one cumsum.  The first row where that trajectory
    saturates falls back to the exact scalar update (which may move θ),
    and the scan resumes after it.  Before the first saturation the
    trajectory is exact, so the fallback row — and therefore the whole
    replay — is exact.
    """
    count, _num_bits = differs.shape
    mask = np.zeros_like(differs)
    if not adaptive:
        np.logical_and(
            differs, ~correct | (magnitudes < theta[None, :]), out=mask
        )
        return mask
    cursor = 0
    while cursor < count:
        low = magnitudes[cursor:] < theta[None, :]
        active = differs[cursor:]
        right = correct[cursor:]
        delta = np.where(
            active, np.where(right, np.where(low, -1, 0), 1), 0
        ).astype(np.int32)
        trajectory = np.cumsum(delta, axis=0)
        trajectory += counter[None, :]
        saturated = ((trajectory >= cmax) & (delta == 1)) | (
            (trajectory <= cmin) & (delta == -1)
        )
        hit_rows = np.flatnonzero(saturated.any(axis=1))
        if hit_rows.size == 0:
            mask[cursor:] = active & (~right | low)
            counter[:] = trajectory[-1]
            return mask
        first = int(hit_rows[0])
        if first > 0:
            mask[cursor : cursor + first] = active[:first] & (
                ~right[:first] | low[:first]
            )
            counter[:] = trajectory[first - 1]
        row = cursor + first
        _observe_row(
            differs[row],
            correct[row],
            magnitudes[row],
            theta,
            counter,
            cmax,
            cmin,
            mask[row],
        )
        cursor = row + 1
    return mask


# ----------------------------------------------------------------------
# Prediction-dependent replay (two interchangeable implementations)
# ----------------------------------------------------------------------


def _replay_chunked(
    rows: np.ndarray,
    table_rows: int,
    set_ids: np.ndarray,
    padded_targets: np.ndarray,
    set_sizes: np.ndarray,
    bit_matrices: np.ndarray,
    differs_all: np.ndarray,
    desired_bits: np.ndarray,
    lut: np.ndarray,
    lut_offset: int,
    tensor: np.ndarray,
    magnitude: int,
    theta: np.ndarray,
    counter: np.ndarray,
    cmax: int,
    cmin: int,
    adaptive: bool,
    predictions: np.ndarray,
) -> int:
    """Pure-numpy replay: batched tensor ops between update barriers.

    Mutates ``tensor`` / ``theta`` / ``counter`` / ``predictions`` in
    place and returns the number of trained weight bits — the same
    contract as :func:`_replay_compiled`.
    """
    branch_count, bank_count = rows.shape
    previous = _previous_conflict(rows, table_rows)
    bounds = _chunk_bounds(previous, MAX_CHUNK)
    bank_index = np.arange(bank_count)[None, :]
    width_index = np.arange(padded_targets.shape[1])[None, :]
    trained_bits = 0

    for chunk in range(len(bounds) - 1):
        lo, hi = bounds[chunk], bounds[chunk + 1]
        chunk_rows = rows[lo:hi]
        raw = tensor[bank_index, chunk_rows]
        yout = lut[raw.astype(np.intp) + lut_offset].sum(
            axis=1, dtype=np.int32
        )

        chunk_sets = set_ids[lo:hi]
        scores = np.matmul(
            bit_matrices[chunk_sets], yout[:, :, None]
        )[:, :, 0]
        valid = width_index < set_sizes[chunk_sets][:, None]
        best = np.argmax(
            np.where(valid, scores, _NEG_SCORE), axis=1
        )
        predictions[lo:hi] = padded_targets[chunk_sets, best]

        desired = desired_bits[lo:hi]
        correct = (yout >= 0) == desired
        magnitudes = np.abs(yout)
        mask = _theta_replay(
            differs_all[lo:hi],
            correct,
            magnitudes,
            theta,
            counter,
            cmax,
            cmin,
            adaptive,
        )
        trained = int(mask.sum())
        if trained:
            trained_bits += trained
            touched = mask.any(axis=1)
            rows_sel = chunk_rows[touched]
            update = np.where(
                mask[touched], np.where(desired[touched], 1, -1), 0
            ).astype(np.int16)[:, None, :]
            current = tensor[bank_index, rows_sel].astype(np.int16)
            current += update
            np.clip(current, -magnitude, magnitude, out=current)
            tensor[bank_index, rows_sel] = current.astype(np.int8)
    return trained_bits


def _replay_compiled(
    fn,
    rows: np.ndarray,
    table_rows: int,
    set_ids: np.ndarray,
    padded_targets: np.ndarray,
    set_sizes: np.ndarray,
    bit_matrices: np.ndarray,
    differs_all: np.ndarray,
    desired_bits: np.ndarray,
    lut: np.ndarray,
    lut_offset: int,
    tensor: np.ndarray,
    magnitude: int,
    theta: np.ndarray,
    counter: np.ndarray,
    cmax: int,
    cmin: int,
    adaptive: bool,
    predictions: np.ndarray,
) -> int:
    """Replay through the compiled core (:mod:`repro.sim.native`).

    One C call walks the branch stream in retirement order over the
    same precomputed tensors the chunked path consumes; no barriers are
    needed because the walk is already sequential.
    """
    branch_count, bank_count = rows.shape
    num_bits = tensor.shape[2]
    tmax = padded_targets.shape[1]
    differs_u8 = np.ascontiguousarray(differs_all, dtype=np.uint8)
    desired_u8 = np.ascontiguousarray(desired_bits, dtype=np.uint8)
    lut32 = np.ascontiguousarray(lut, dtype=np.int32)
    return int(
        fn(
            branch_count,
            bank_count,
            num_bits,
            table_rows,
            tmax,
            rows.ctypes.data,
            set_ids.ctypes.data,
            padded_targets.ctypes.data,
            set_sizes.ctypes.data,
            bit_matrices.ctypes.data,
            differs_u8.ctypes.data,
            desired_u8.ctypes.data,
            lut32.ctypes.data,
            lut_offset,
            tensor.ctypes.data,
            magnitude,
            theta.ctypes.data,
            counter.ctypes.data,
            cmax,
            cmin,
            1 if adaptive else 0,
            predictions.ctypes.data,
        )
    )


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


def _mix_plane(
    shared: SharedPrecompute, unique_pcs: np.ndarray, salt: int
) -> np.ndarray:
    """Per-unique-PC ``mix_pc`` values for ``salt``, shared across lanes
    (and across predictor types — BLBP bank salts and ITTAGE table salts
    draw from the same keyed planes)."""
    return shared.get(
        ("pc-mix", salt),
        lambda: np.fromiter(
            (mix_pc(int(pc), salt=salt) for pc in unique_pcs.tolist()),
            dtype=np.uint64,
            count=len(unique_pcs),
        ),
    )


def _prepare_blbp(
    predictor: BLBP,
    trace: Trace,
    derived: DerivedPlane,
    shared: SharedPrecompute,
) -> dict:
    """All trace-pure planes for one BLBP lane, served from ``shared``.

    Artifacts that depend only on the trace (streams, prefix tables,
    mix planes, candidate tensors, differs/desired bit planes) are
    cached under keys embedding their remaining inputs — initial
    register values, geometry, bit shifts — so fused lanes with equal
    keys receive identical objects; the returned prep dict carries both
    the replay argument tuple and everything the write-back needs.
    """
    config = predictor.config
    histories = predictor.histories
    threshold = predictor.threshold
    weights = predictor.weights
    transfer = predictor.transfer

    outcomes = shared.get(("cond-outcomes",), derived.conditional_outcomes)
    conditional_count = derived.conditionals
    indirect_idx = shared.get(
        ("indirect-idx",), lambda: np.asarray(derived.indirect_idx)
    )
    branch_count = len(indirect_idx)
    branch_pcs = derived.indirect_pcs
    branch_targets = shared.get(
        ("indirect-targets",), lambda: np.asarray(derived.indirect_targets)
    )

    # --- trace-pure precomputation ------------------------------------
    ghist0 = histories._ghist
    pending0 = histories._pending
    width = histories._fold_bits
    intervals = config.effective_intervals
    intervals_key = tuple(intervals)
    prefix_bits = config.global_history_bits + pending0

    stream_key = (
        "blbp-stream", config.global_history_bits, ghist0, pending0
    )
    prefix = shared.get(
        ("blbp-prefix", stream_key, width),
        lambda: _fold_prefix_tables(
            shared.get(
                stream_key,
                lambda: _history_stream(
                    ghist0, pending0, config.global_history_bits, outcomes
                ),
            ),
            width,
        ),
    )

    pcs_list = shared.get(
        ("pc-list",), lambda: [int(pc) for pc in branch_pcs.tolist()]
    )
    targets_list = shared.get(
        ("target-list",),
        lambda: [int(t) for t in branch_targets.tolist()],
    )

    unique_pcs, pc_inverse = shared.get(
        ("pc-unique",),
        lambda: np.unique(branch_pcs, return_inverse=True),
    )
    bank_count = config.num_subpredictors
    mixes = shared.get(
        ("blbp-mixes", bank_count),
        lambda: np.stack(
            [
                _mix_plane(shared, unique_pcs, salt)
                for salt in range(bank_count)
            ],
            axis=1,
        ),
    )

    num_local = histories._local.num_entries
    slot_of_pc = shared.get(
        ("blbp-slots", num_local, bank_count),
        lambda: (mixes[:, 0] % np.uint64(num_local)).astype(np.int64),
    )
    branch_slots = shared.get(
        ("blbp-branch-slots", num_local, bank_count),
        lambda: slot_of_pc[pc_inverse],
    )

    push_bits = shared.get(
        ("blbp-push-bits", config.local_target_bit),
        lambda: (
            (branch_targets >> np.uint64(config.local_target_bit))
            & np.uint64(1)
        ).astype(np.int64),
    )
    local_key = (
        "blbp-local",
        config.local_history_bits,
        num_local,
        config.local_target_bit,
        tuple(histories._local._table),
    )
    registers, final_registers = shared.get(
        local_key,
        lambda: _local_registers(
            branch_slots,
            push_bits,
            histories._local._table,
            config.local_history_bits,
        ),
    )

    cond_before = shared.get(
        ("cond-before",),
        lambda: np.searchsorted(
            np.asarray(derived.cond_idx), indirect_idx
        ),
    )
    consumed = cond_before + prefix_bits
    folds = shared.get(
        ("blbp-folds", stream_key, width, intervals_key),
        lambda: _branch_folds(prefix, consumed, intervals, width),
    )

    table_rows = config.table_rows
    use_local = config.use_local_history
    rows_key = (
        "blbp-rows",
        stream_key,
        width,
        intervals_key,
        table_rows,
        bank_count,
        local_key if use_local else None,
    )

    def _build_rows() -> np.ndarray:
        built = np.empty((branch_count, bank_count), dtype=np.int64)
        mix0 = mixes[pc_inverse, 0]
        if use_local:
            mix0 = mix0 ^ _hash_registers(registers)
        built[:, 0] = (mix0 % np.uint64(table_rows)).astype(np.int64)
        for position in range(len(intervals)):
            mixed = mixes[pc_inverse, position + 1] ^ folds[:, position]
            built[:, position + 1] = (
                mixed % np.uint64(table_rows)
            ).astype(np.int64)
        return built

    rows = shared.get(rows_key, _build_rows)

    ibtb = predictor.ibtb
    ibtb_key = ("ibtb", type(ibtb).__qualname__, ibtb.state_hash())

    def _build_ibtb() -> tuple:
        ids, candidate_sets = _replay_ibtb(
            predictor, pcs_list, targets_list
        )
        return ids, candidate_sets, ibtb.state_dict()

    set_ids, sets, ibtb_final = shared.get(ibtb_key, _build_ibtb)
    # A cache hit skips the structural replay entirely — the IBTB jumps
    # straight to its recorded final state.  (On a miss this reloads the
    # state the replay just produced, a no-op round-trip.)
    ibtb.load_state(ibtb_final)

    shifts_key = tuple(int(s) for s in predictor._bit_shifts.tolist())
    num_bits = config.num_target_bits
    padded_targets, set_sizes, bit_matrices, set_lows, set_highs = (
        shared.get(
            ("blbp-candidates", ibtb_key, shifts_key, num_bits),
            lambda: _candidate_tensors(
                sets, predictor._bit_shifts, num_bits
            ),
        )
    )

    bits_key = ("blbp-target-bits", shifts_key)

    def _build_target_bits() -> tuple:
        target_unique, target_inverse = np.unique(
            branch_targets, return_inverse=True
        )
        unique_bits = (
            (target_unique[:, None] >> predictor._bit_shifts[None, :])
            & np.uint64(1)
        ).astype(np.int32)
        actual = unique_bits[target_inverse]
        return actual, actual == 1

    actual_bits, desired_bits = shared.get(bits_key, _build_target_bits)
    if config.use_selective_update:
        differs_key = ("blbp-differs", ibtb_key, shifts_key, num_bits)
        differs_all = shared.get(
            differs_key,
            lambda: (
                np.minimum(set_lows[set_ids], actual_bits)
                != np.maximum(set_highs[set_ids], actual_bits)
            ),
        )
    else:
        differs_key = ("blbp-differs-dense", shifts_key)
        differs_all = shared.get(
            differs_key, lambda: np.ones_like(desired_bits)
        )
    differs_u8 = shared.get(
        ("u8", differs_key),
        lambda: np.ascontiguousarray(differs_all, dtype=np.uint8),
    )
    desired_u8 = shared.get(
        ("u8", bits_key),
        lambda: np.ascontiguousarray(desired_bits, dtype=np.uint8),
    )

    # --- mutable per-lane state ---------------------------------------
    tensor = weights.weights
    lut = transfer._lut
    theta = np.asarray(threshold._theta, dtype=np.int64)
    counter = np.asarray(threshold._counter, dtype=np.int64)
    predictions = np.zeros(branch_count, dtype=np.uint64)
    prediction_valid = set_sizes[set_ids] > 0

    return {
        "predictor": predictor,
        "branch_count": branch_count,
        "num_bits": num_bits,
        "tmax": padded_targets.shape[1],
        "bank_count": bank_count,
        "table_rows": table_rows,
        "rows": rows,
        "set_ids": set_ids,
        "padded_targets": padded_targets,
        "set_sizes": set_sizes,
        "bit_matrices": bit_matrices,
        "differs_all": differs_all,
        "desired_bits": desired_bits,
        "differs_u8": differs_u8,
        "desired_u8": desired_u8,
        "lut": lut,
        "lut32": np.ascontiguousarray(lut, dtype=np.int32),
        "lut_offset": transfer.magnitude_max,
        "tensor": tensor,
        "magnitude": weights.magnitude,
        "theta": theta,
        "counter": counter,
        "cmax": threshold._max,
        "cmin": threshold._min,
        "adaptive": threshold.adaptive,
        "predictions": predictions,
        "prediction_valid": prediction_valid,
        "trained": 0,
        # Write-back inputs.
        "final_registers": final_registers,
        "outcomes": outcomes,
        "conditional_count": conditional_count,
        "consumed": consumed,
        "prefix": prefix,
        "intervals": intervals,
        "width": width,
        "prefix_bits": prefix_bits,
        "ghist0": ghist0,
        "pending0": pending0,
        "indirect_idx": indirect_idx,
        "branch_pcs": branch_pcs,
        "branch_targets": branch_targets,
        # Lanes whose shared planes are the *same objects* (and whose
        # bit/pad geometry matches) may replay lane-parallel together.
        "group_key": (
            branch_count,
            num_bits,
            padded_targets.shape[1],
            id(set_ids),
            id(padded_targets),
            id(set_sizes),
            id(bit_matrices),
            id(differs_u8),
            id(desired_u8),
        ),
    }


def _replay_blbp(prep: dict) -> None:
    """Solo prediction-dependent replay for one prepared BLBP lane."""
    if not prep["branch_count"]:
        return
    arguments = (
        prep["rows"],
        prep["table_rows"],
        prep["set_ids"],
        prep["padded_targets"],
        prep["set_sizes"],
        prep["bit_matrices"],
        prep["differs_all"],
        prep["desired_bits"],
        prep["lut"],
        prep["lut_offset"],
        prep["tensor"],
        prep["magnitude"],
        prep["theta"],
        prep["counter"],
        prep["cmax"],
        prep["cmin"],
        prep["adaptive"],
        prep["predictions"],
    )
    replay = native.load() if prep["tensor"].flags.c_contiguous else None
    if replay is not None:
        prep["trained"] = _replay_compiled(replay, *arguments)
    else:
        prep["trained"] = _replay_chunked(*arguments)


def _pointer_array(arrays: List[np.ndarray]) -> np.ndarray:
    """Per-lane base addresses, marshalled as a ``uint64`` vector."""
    return np.asarray(
        [array.ctypes.data for array in arrays], dtype=np.uint64
    )


def _replay_blbp_group(preps: List[dict]) -> bool:
    """Lane-parallel compiled replay for a fused BLBP group.

    Every prep in ``preps`` must carry the same ``group_key`` — i.e.
    identical shared planes by object identity.  Returns False (caller
    replays each lane solo, same results) when the compiled library is
    unavailable or a lane's mutable tensors are not contiguous.
    """
    if len(preps) < 2 or not preps[0]["branch_count"]:
        return False
    fn = native.load("blbp_replay_many")
    if fn is None:
        return False
    for prep in preps:
        if not (
            prep["tensor"].flags.c_contiguous
            and prep["rows"].flags.c_contiguous
        ):
            return False

    first = preps[0]
    lanes = len(preps)
    banks = np.asarray([p["bank_count"] for p in preps], dtype=np.int64)
    table_rows = np.asarray(
        [p["table_rows"] for p in preps], dtype=np.int64
    )
    lut_offsets = np.asarray(
        [p["lut_offset"] for p in preps], dtype=np.int64
    )
    magnitudes = np.asarray(
        [p["magnitude"] for p in preps], dtype=np.int64
    )
    cmaxs = np.asarray([p["cmax"] for p in preps], dtype=np.int64)
    cmins = np.asarray([p["cmin"] for p in preps], dtype=np.int64)
    adaptives = np.asarray(
        [1 if p["adaptive"] else 0 for p in preps], dtype=np.int64
    )
    trained = np.zeros(lanes, dtype=np.int64)
    rows_ptr = _pointer_array([p["rows"] for p in preps])
    luts_ptr = _pointer_array([p["lut32"] for p in preps])
    weights_ptr = _pointer_array([p["tensor"] for p in preps])
    thetas_ptr = _pointer_array([p["theta"] for p in preps])
    counters_ptr = _pointer_array([p["counter"] for p in preps])
    predictions_ptr = _pointer_array([p["predictions"] for p in preps])

    fn(
        lanes,
        first["branch_count"],
        first["num_bits"],
        first["tmax"],
        first["set_ids"].ctypes.data,
        first["padded_targets"].ctypes.data,
        first["set_sizes"].ctypes.data,
        first["bit_matrices"].ctypes.data,
        first["differs_u8"].ctypes.data,
        first["desired_u8"].ctypes.data,
        banks.ctypes.data,
        table_rows.ctypes.data,
        rows_ptr.ctypes.data,
        luts_ptr.ctypes.data,
        lut_offsets.ctypes.data,
        weights_ptr.ctypes.data,
        magnitudes.ctypes.data,
        thetas_ptr.ctypes.data,
        counters_ptr.ctypes.data,
        cmaxs.ctypes.data,
        cmins.ctypes.data,
        adaptives.ctypes.data,
        predictions_ptr.ctypes.data,
        trained.ctypes.data,
    )
    for lane, prep in enumerate(preps):
        prep["trained"] = int(trained[lane])
    return True


def _finish_blbp(
    prep: dict,
    trace: Trace,
    derived: DerivedPlane,
    warmup_records: int,
    collect_per_pc: bool,
    prediction_sink: Optional[Dict[str, np.ndarray]],
) -> SimulationResult:
    """State write-back and result assembly for a replayed BLBP lane.

    Identical accounting to the scalar loop: the predictor leaves with
    the exact state (``state_hash`` equal) the scalar path would have
    produced, and the result carries the same counters.
    """
    predictor = prep["predictor"]
    histories = predictor.histories
    threshold = predictor.threshold

    branch_count = prep["branch_count"]
    conditional_count = prep["conditional_count"]
    consumed = prep["consumed"]
    prefix_bits = prep["prefix_bits"]
    pending0 = prep["pending0"]
    outcomes = prep["outcomes"]
    indirect_idx = prep["indirect_idx"]
    predictions = prep["predictions"]
    prediction_valid = prep["prediction_valid"]
    branch_pcs = prep["branch_pcs"]
    branch_targets = prep["branch_targets"]

    if prediction_sink is not None:
        prediction_sink["indirect_idx"] = indirect_idx.copy()
        prediction_sink["valid"] = prediction_valid.copy()
        prediction_sink["predictions"] = predictions.copy()

    # --- state write-back ---------------------------------------------
    threshold._theta = [int(value) for value in prep["theta"]]
    threshold._counter = [int(value) for value in prep["counter"]]
    for slot, value in prep["final_registers"].items():
        histories._local._table[slot] = value

    if branch_count:
        trailing = conditional_count - int(consumed[-1] - prefix_bits)
        pending_final = trailing % 1024
    else:
        pending_final = (pending0 + conditional_count) % 1024
    packed = np.packbits(outcomes) if conditional_count else None
    if conditional_count:
        outcome_int = int.from_bytes(packed.tobytes(), "big") >> (
            8 * len(packed) - conditional_count
        )
    else:
        outcome_int = 0
    unmasked = (prep["ghist0"] << conditional_count) | outcome_int
    ghist_mask = histories._ghist_mask
    histories._ghist = (
        ((unmasked >> pending_final) & ghist_mask) << pending_final
    ) | (unmasked & ((1 << pending_final) - 1))
    histories._pending = pending_final
    histories.stat_fold_updates += (
        pending0 + conditional_count - pending_final
    ) * histories._num_folds

    flushed = prefix_bits + conditional_count - pending_final
    final_consumed = np.asarray([flushed], dtype=np.int64)
    final_folds = _branch_folds(
        prep["prefix"], final_consumed, prep["intervals"], prep["width"]
    )
    for position, fold in enumerate(histories._folds):
        fold.fold = int(final_folds[0, position])

    predictor.stat_predictions += branch_count
    predictor.stat_ibtb_probes += branch_count
    predictor.stat_trained_bits += prep["trained"]

    # --- result assembly (identical accounting to the scalar loop) ----
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
        conditional_branches=conditional_count,
        mispredictions_by_pc=by_pc,
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def simulate_columnar(
    predictor,
    trace: Trace,
    ras_depth: int = 32,
    warmup_records: int = 0,
    collect_per_pc: bool = False,
    derived: Optional[DerivedPlane] = None,
    prediction_sink: Optional[Dict[str, np.ndarray]] = None,
    shared: Optional[SharedPrecompute] = None,
) -> SimulationResult:
    """Replay ``trace`` through ``predictor`` as columnar tensor passes.

    Bit-identical to ``simulate(predictor, trace, ...)``: the same
    predictions, the same counters, and the same final predictor state
    (``state_dict`` / ``state_hash`` equal).  The predictor may be warm
    — mid-campaign state, restored snapshots — the kernels seed their
    precomputation from the live registers.

    Dispatches on exact predictor type: BLBP replays in this module,
    ITTAGE and VPC through :mod:`repro.sim.kernel_ittage` and
    :mod:`repro.sim.kernel_vpc`.  Unsupported predictors raise
    ``TypeError`` carrying the :func:`columnar_support` reason.

    Trace-pure precomputation is served from a :class:`SharedPrecompute`
    — pass ``shared`` to reuse one across calls explicitly, or let the
    kernel fetch the process-level cache entry for the trace's content
    hash (so repeated simulations of one trace skip the pure passes).

    Callers normally go through :func:`repro.sim.engine.simulate` with
    ``backend="columnar"``, which validates support, calls this once
    per checkpoint span (a window of the trace, with the warm predictor
    carried across), and falls back to the scalar loop for profiling.

    ``prediction_sink``, when given a dict, receives the kernel's
    per-branch arrays after replay — ``indirect_idx`` (record index of
    every indirect branch), ``valid`` (whether a prediction was made),
    and ``predictions`` (the predicted target per branch) — letting
    equivalence tests assert per-branch lockstep against the scalar
    loop rather than just aggregate counts.
    """
    supported, reason = columnar_support(predictor)
    if not supported:
        raise TypeError(reason)
    derived = _validated_derived(trace, ras_depth, derived)
    if shared is None:
        shared = shared_precompute(trace, ras_depth, derived)

    if type(predictor) is ITTAGE:
        from repro.sim.kernel_ittage import simulate_columnar_ittage

        return simulate_columnar_ittage(
            predictor,
            trace,
            derived,
            shared,
            warmup_records=warmup_records,
            collect_per_pc=collect_per_pc,
            prediction_sink=prediction_sink,
        )
    if type(predictor) is VPCPredictor:
        from repro.sim.kernel_vpc import simulate_columnar_vpc

        return simulate_columnar_vpc(
            predictor,
            trace,
            derived,
            shared,
            warmup_records=warmup_records,
            collect_per_pc=collect_per_pc,
            prediction_sink=prediction_sink,
        )

    prep = _prepare_blbp(predictor, trace, derived, shared)
    _replay_blbp(prep)
    return _finish_blbp(
        prep, trace, derived, warmup_records, collect_per_pc,
        prediction_sink,
    )


def simulate_columnar_many(
    predictors: List[object],
    trace: Trace,
    ras_depth: int = 32,
    warmup_records: int = 0,
    collect_per_pc: bool = False,
    derived: Optional[DerivedPlane] = None,
    prediction_sinks: Optional[
        List[Optional[Dict[str, np.ndarray]]]
    ] = None,
) -> List[SimulationResult]:
    """Fused columnar replay of many predictors over one trace.

    One shared precompute pass serves every lane: fold prefix tables,
    hash-mix planes, IBTB candidate tensors and derived loads are built
    once (keyed by everything they depend on) and reused by every
    predictor they fit.  BLBP lanes whose shared planes coincide
    advance lane-parallel through the compiled ``blbp_replay_many``
    core — each branch touches every lane before the next branch, with
    the shared planes hot in cache — and every other supported
    predictor replays solo against the same shared artifacts.

    Results are positionally aligned with ``predictors`` and each is
    bit-identical to a solo :func:`simulate_columnar` (equivalently,
    scalar) run of that lane; lanes are fully independent.  Raises
    ``TypeError`` with the :func:`columnar_support` reason if any
    predictor lacks a kernel — callers mixing supported and unsupported
    predictors must split the group (``repro.sim.engine.simulate_many``
    does exactly that).
    """
    derived = _validated_derived(trace, ras_depth, derived)
    shared = shared_precompute(trace, ras_depth, derived)
    count = len(predictors)
    if prediction_sinks is None:
        sinks: List[Optional[Dict[str, np.ndarray]]] = [None] * count
    else:
        sinks = list(prediction_sinks)
        if len(sinks) != count:
            raise ValueError(
                f"prediction_sinks has {len(sinks)} entries for "
                f"{count} predictors"
            )

    for predictor in predictors:
        supported, reason = columnar_support(predictor)
        if not supported:
            raise TypeError(reason)

    results: List[Optional[SimulationResult]] = [None] * count
    preps: List[Optional[dict]] = [None] * count
    for position, predictor in enumerate(predictors):
        if type(predictor) is BLBP:
            preps[position] = _prepare_blbp(
                predictor, trace, derived, shared
            )

    groups: Dict[tuple, List[int]] = {}
    for position, prep in enumerate(preps):
        if prep is not None:
            groups.setdefault(prep["group_key"], []).append(position)
    for members in groups.values():
        lane_preps = [preps[position] for position in members]
        if not _replay_blbp_group(lane_preps):
            for prep in lane_preps:
                _replay_blbp(prep)
    for position, prep in enumerate(preps):
        if prep is not None:
            results[position] = _finish_blbp(
                prep,
                trace,
                derived,
                warmup_records,
                collect_per_pc,
                sinks[position],
            )

    # ITTAGE / VPC lanes replay solo against the same shared artifacts.
    for position, predictor in enumerate(predictors):
        if results[position] is None:
            results[position] = simulate_columnar(
                predictor,
                trace,
                ras_depth=ras_depth,
                warmup_records=warmup_records,
                collect_per_pc=collect_per_pc,
                derived=derived,
                prediction_sink=sinks[position],
                shared=shared,
            )
    return results
