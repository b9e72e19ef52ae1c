"""Optional compiled replay cores for the columnar kernels.

The columnar kernels (:mod:`repro.sim.kernel` and friends) split a
trace into trace-pure precomputation (folds, local registers, IBTB
candidate sets, ITTAGE index/tag planes, VPC virtual-PC tables — all
batched numpy) and a prediction-dependent replay over the mutable
predictor state.  The replay is the only part that is inherently
sequential, and this module provides compiled implementations of it:
C functions that walk the branch stream in retirement order, consuming
exactly the same precomputed tensors as the numpy loops and mutating
the same state with identical integer arithmetic.

Four entry points live in one shared library:

``blbp_replay``
    The BLBP weight/θ recurrence for a single predictor.
``blbp_replay_many``
    The same recurrence advanced lane-parallel for a fused group of
    BLBP lanes sharing one precompute (same IBTB candidate tensors and
    ``differs``/``desired`` planes); each branch touches every lane
    before the next branch, with per-lane weight banks and θ
    controllers, so lane ``i`` evolves exactly as a solo replay would.
``ittage_replay``
    ITTAGE provider/altpred selection, confidence/usefulness counters
    and allocation over precomputed per-(branch, table) index/tag
    planes.  The allocation tie-breaker calls back into the
    predictor's own numpy Generator so the RNG stream stays
    bit-identical with the scalar path.
``vpc_replay``
    VPC's virtual-PC iteration over a precomputed vpca/slot/tag table,
    together with the multiperspective perceptron it shares with the
    real conditional branches (weights, global/path/local histories and
    adaptive threshold), so a VPC replay never re-enters Python.

The source is compiled on first use with the system C compiler at
``-O3`` (the dot-product and update inner loops are written so the
compiler auto-vectorizes them) into a content-addressed shared library
under the user cache directory and loaded with :mod:`ctypes` — no
build-time dependency, no new packages.  When no compiler is available
(or ``REPRO_COLUMNAR_COMPILED=0``), the kernels transparently fall
back to their pure-numpy replays; both paths are pinned bit-identical
by the equivalence suite.  Concurrent builders (dist worker pools on
one node) race benignly: each compiles into a private temp file and
atomically publishes with ``os.replace``, and a builder whose own
compile fails re-checks for a concurrently published library before
giving up.

Arrays reach the cores as raw pointers; :func:`pointer` checks each
one's dtype, layout and length first, so a mismatch raises
``ValueError`` instead of letting C read or write out of bounds.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "available",
    "load",
    "cache_dir",
    "RNG_CALLBACK",
    "pointer",
]

#: The one callback crossing the C boundary: ITTAGE's allocation
#: tie-breaker draws from the predictor's numpy Generator.
RNG_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_double)

_SOURCE = r"""
#include <stdint.h>

typedef double (*rng_fn)(void);

/* Retirement-order replay of the BLBP weight/θ recurrence.
 *
 * Everything prediction-independent (row indices, candidate sets,
 * desired/active bit planes) arrives precomputed; this loop performs
 * only the prediction-dependent arithmetic: the fused int8 weight-bank
 * gather + transfer-LUT dot product, candidate scoring (first-max
 * argmax, matching numpy), the per-bit adaptive-θ controllers, and the
 * masked saturating ±1 weight update.  Integer-for-integer identical
 * to BLBP.predict_target/train.
 */
int64_t blbp_replay(
    int64_t branches,
    int64_t banks,
    int64_t bits,
    int64_t table_rows,
    int64_t tmax,
    const int64_t *rows,            /* (branches, banks) */
    const int64_t *set_ids,         /* (branches,) */
    const uint64_t *padded_targets, /* (sets, tmax) */
    const int64_t *set_sizes,       /* (sets,) */
    const int32_t *bit_matrices,    /* (sets, tmax, bits) */
    const uint8_t *differs,         /* (branches, bits) */
    const uint8_t *desired,         /* (branches, bits) */
    const int32_t *lut,             /* (2 * lut_offset + 1,) */
    int64_t lut_offset,
    int8_t *weights,                /* (banks, table_rows, bits) */
    int64_t magnitude,
    int64_t *theta,                 /* (bits,) */
    int64_t *counter,               /* (bits,) */
    int64_t counter_max,
    int64_t counter_min,
    int64_t adaptive,
    uint64_t *predictions)          /* (branches,) zero-initialised */
{
    int64_t trained = 0;
    int32_t yout[bits];
    uint8_t mask[bits];
    for (int64_t b = 0; b < branches; ++b) {
        const int64_t *brow = rows + b * banks;
        for (int64_t k = 0; k < bits; ++k)
            yout[k] = 0;
        for (int64_t n = 0; n < banks; ++n) {
            const int8_t *w = weights + (n * table_rows + brow[n]) * bits;
            for (int64_t k = 0; k < bits; ++k)
                yout[k] += lut[(int64_t)w[k] + lut_offset];
        }

        const int64_t sid = set_ids[b];
        const int64_t size = set_sizes[sid];
        if (size > 0) {
            const int32_t *mat = bit_matrices + sid * tmax * bits;
            int64_t best = 0;
            int32_t best_score = INT32_MIN;
            for (int64_t t = 0; t < size; ++t) {
                const int32_t *mrow = mat + t * bits;
                int32_t score = 0;
                for (int64_t k = 0; k < bits; ++k)
                    score += mrow[k] * yout[k];
                if (score > best_score) {
                    best_score = score;
                    best = t;
                }
            }
            predictions[b] = padded_targets[sid * tmax + best];
        }

        const uint8_t *diff = differs + b * bits;
        const uint8_t *des = desired + b * bits;
        int any_active = 0;
        for (int64_t k = 0; k < bits; ++k)
            any_active |= diff[k];
        if (!any_active)
            continue;

        int any_mask = 0;
        for (int64_t k = 0; k < bits; ++k) {
            mask[k] = 0;
            if (!diff[k])
                continue;
            const int32_t value = yout[k];
            const int correct = (value >= 0) == (des[k] != 0);
            const int32_t mag = value >= 0 ? value : -value;
            if (adaptive) {
                int64_t current = theta[k];
                if (correct) {
                    if (mag >= current)
                        continue;
                    counter[k] -= 1;
                    if (counter[k] <= counter_min) {
                        counter[k] = 0;
                        if (current > 1) {
                            current -= 1;
                            theta[k] = current;
                        }
                    }
                    mask[k] = mag < current;
                } else {
                    counter[k] += 1;
                    if (counter[k] >= counter_max) {
                        counter[k] = 0;
                        theta[k] = current + 1;
                    }
                    mask[k] = 1;
                }
            } else {
                mask[k] = !correct || mag < theta[k];
            }
            any_mask |= mask[k];
        }
        if (!any_mask)
            continue;

        for (int64_t k = 0; k < bits; ++k)
            trained += mask[k];
        for (int64_t n = 0; n < banks; ++n) {
            int8_t *w = weights + (n * table_rows + brow[n]) * bits;
            for (int64_t k = 0; k < bits; ++k) {
                if (!mask[k])
                    continue;
                int32_t value = (int32_t)w[k] + (des[k] ? 1 : -1);
                if (value > magnitude)
                    value = (int32_t)magnitude;
                if (value < -magnitude)
                    value = (int32_t)-magnitude;
                w[k] = (int8_t)value;
            }
        }
    }
    return trained;
}

/* Multi-lane BLBP replay for a fused group sharing one precompute.
 *
 * The shared planes (candidate sets, differs/desired) are identical
 * across lanes by construction — the kernel only groups lanes whose
 * shared-precompute artifacts are the same objects.  Per-lane state
 * (weight banks, θ/counter controllers, LUT, geometry) arrives as
 * pointer/scalar arrays indexed by lane.  Each branch advances every
 * lane before the next branch; lanes are independent, so each lane's
 * state trajectory is exactly its solo blbp_replay trajectory, while
 * the shared planes stay hot in cache across the lane loop.
 */
void blbp_replay_many(
    int64_t lanes,
    int64_t branches,
    int64_t bits,
    int64_t tmax,
    const int64_t *set_ids,         /* shared (branches,) */
    const uint64_t *padded_targets, /* shared (sets, tmax) */
    const int64_t *set_sizes,       /* shared (sets,) */
    const int32_t *bit_matrices,    /* shared (sets, tmax, bits) */
    const uint8_t *differs,         /* shared (branches, bits) */
    const uint8_t *desired,         /* shared (branches, bits) */
    const int64_t *banks,           /* (lanes,) */
    const int64_t *table_rows,      /* (lanes,) */
    const int64_t *const *rows,     /* lane -> (branches, banks[l]) */
    const int32_t *const *luts,     /* lane -> (2 * lut_offsets[l] + 1,) */
    const int64_t *lut_offsets,     /* (lanes,) */
    int8_t *const *weights,         /* lane -> (banks, table_rows, bits) */
    const int64_t *magnitudes,      /* (lanes,) */
    int64_t *const *thetas,         /* lane -> (bits,) */
    int64_t *const *counters,       /* lane -> (bits,) */
    const int64_t *cmaxs,           /* (lanes,) */
    const int64_t *cmins,           /* (lanes,) */
    const int64_t *adaptives,       /* (lanes,) */
    uint64_t *const *predictions,   /* lane -> (branches,) zeroed */
    int64_t *trained)               /* (lanes,) zero-initialised */
{
    int32_t yout[bits];
    uint8_t mask[bits];
    for (int64_t b = 0; b < branches; ++b) {
        const int64_t sid = set_ids[b];
        const int64_t size = set_sizes[sid];
        const int32_t *mat = bit_matrices + sid * tmax * bits;
        const uint8_t *diff = differs + b * bits;
        const uint8_t *des = desired + b * bits;
        int any_active = 0;
        for (int64_t k = 0; k < bits; ++k)
            any_active |= diff[k];

        for (int64_t l = 0; l < lanes; ++l) {
            const int64_t nb = banks[l];
            const int64_t trows = table_rows[l];
            const int64_t *brow = rows[l] + b * nb;
            const int32_t *lut = luts[l];
            const int64_t lut_offset = lut_offsets[l];
            int8_t *wbase = weights[l];

            for (int64_t k = 0; k < bits; ++k)
                yout[k] = 0;
            for (int64_t n = 0; n < nb; ++n) {
                const int8_t *w = wbase + (n * trows + brow[n]) * bits;
                for (int64_t k = 0; k < bits; ++k)
                    yout[k] += lut[(int64_t)w[k] + lut_offset];
            }

            if (size > 0) {
                int64_t best = 0;
                int32_t best_score = INT32_MIN;
                for (int64_t t = 0; t < size; ++t) {
                    const int32_t *mrow = mat + t * bits;
                    int32_t score = 0;
                    for (int64_t k = 0; k < bits; ++k)
                        score += mrow[k] * yout[k];
                    if (score > best_score) {
                        best_score = score;
                        best = t;
                    }
                }
                predictions[l][b] = padded_targets[sid * tmax + best];
            }

            if (!any_active)
                continue;

            int64_t *theta = thetas[l];
            int64_t *counter = counters[l];
            const int64_t counter_max = cmaxs[l];
            const int64_t counter_min = cmins[l];
            const int64_t adaptive = adaptives[l];
            int any_mask = 0;
            for (int64_t k = 0; k < bits; ++k) {
                mask[k] = 0;
                if (!diff[k])
                    continue;
                const int32_t value = yout[k];
                const int correct = (value >= 0) == (des[k] != 0);
                const int32_t mag = value >= 0 ? value : -value;
                if (adaptive) {
                    int64_t current = theta[k];
                    if (correct) {
                        if (mag >= current)
                            continue;
                        counter[k] -= 1;
                        if (counter[k] <= counter_min) {
                            counter[k] = 0;
                            if (current > 1) {
                                current -= 1;
                                theta[k] = current;
                            }
                        }
                        mask[k] = mag < current;
                    } else {
                        counter[k] += 1;
                        if (counter[k] >= counter_max) {
                            counter[k] = 0;
                            theta[k] = current + 1;
                        }
                        mask[k] = 1;
                    }
                } else {
                    mask[k] = !correct || mag < theta[k];
                }
                any_mask |= mask[k];
            }
            if (!any_mask)
                continue;

            const int64_t magnitude = magnitudes[l];
            for (int64_t k = 0; k < bits; ++k)
                trained[l] += mask[k];
            for (int64_t n = 0; n < nb; ++n) {
                int8_t *w = wbase + (n * trows + brow[n]) * bits;
                for (int64_t k = 0; k < bits; ++k) {
                    if (!mask[k])
                        continue;
                    int32_t value = (int32_t)w[k] + (des[k] ? 1 : -1);
                    if (value > magnitude)
                        value = (int32_t)magnitude;
                    if (value < -magnitude)
                        value = (int32_t)-magnitude;
                    w[k] = (int8_t)value;
                }
            }
        }
    }
}

/* Retirement-order ITTAGE replay over precomputed index/tag planes.
 *
 * Statement-for-statement the scalar predict_target/train pair with
 * the hash pipeline stripped out: provider/altpred selection (highest
 * two hitting tables), the weak-provider use-alt rule, the use-alt
 * meta-counter, usefulness and confidence updates, base-table
 * hysteresis, allocation with Seznec's geometric skew (drawing from
 * the predictor's own RNG through `rng` so the stream is shared with
 * the scalar path), and the periodic usefulness reset.  The caller's
 * `rng` sets state[2] when it fails; the loop polls it after every
 * draw and returns at once.
 */
void ittage_replay(
    int64_t branches,
    int64_t num_tagged,
    int64_t entries,
    int64_t base_entries,
    const int64_t *idx,        /* (branches, num_tagged) */
    const int64_t *tagv,       /* (branches, num_tagged) */
    const int64_t *base_idx,   /* (branches,) */
    const uint64_t *targets,   /* (branches,) */
    int64_t *tab_tags,         /* (num_tagged, entries) */
    uint64_t *tab_targets,
    int8_t *tab_ctr,
    int8_t *tab_useful,
    uint8_t *tab_valid,
    uint64_t *base_targets,    /* (base_entries,) */
    int8_t *base_ctr,
    uint8_t *base_valid,
    int64_t conf_max,
    int64_t useful_max,
    int64_t use_alt_min,
    int64_t use_alt_max,
    int64_t u_reset_period,
    int64_t *state,            /* [use_alt, updates, abort] in/out */
    rng_fn rng,
    uint64_t *predictions,     /* (branches,) zero-initialised */
    uint8_t *valid_out)        /* (branches,) zero-initialised */
{
    int64_t use_alt = state[0];
    int64_t updates = state[1];
    for (int64_t b = 0; b < branches; ++b) {
        const int64_t *indices = idx + b * num_tagged;
        const int64_t *tags = tagv + b * num_tagged;
        const uint64_t target = targets[b];

        int64_t provider_t = -1, provider_i = -1;
        int64_t alt_t = -1, alt_i = -1;
        for (int64_t t = num_tagged - 1; t >= 0; --t) {
            const int64_t slot = t * entries + indices[t];
            if (tab_valid[slot] && tab_tags[slot] == tags[t]) {
                if (provider_t < 0) {
                    provider_t = t;
                    provider_i = indices[t];
                } else {
                    alt_t = t;
                    alt_i = indices[t];
                    break;
                }
            }
        }

        const int64_t bi = base_idx[b];
        const int base_present = base_valid[bi];

        uint64_t provider_target = 0;
        int64_t provider_ctr = 0;
        if (provider_t >= 0) {
            provider_target = tab_targets[provider_t * entries + provider_i];
            provider_ctr = tab_ctr[provider_t * entries + provider_i];
        }
        int has_alt = 0;
        uint64_t alt_target = 0;
        if (alt_t >= 0) {
            has_alt = 1;
            alt_target = tab_targets[alt_t * entries + alt_i];
        } else if (base_present) {
            has_alt = 1;
            alt_target = base_targets[bi];
        }

        int has_final = 0;
        uint64_t final = 0;
        if (provider_t < 0) {
            if (base_present) {
                has_final = 1;
                final = base_targets[bi];
            }
        } else if (provider_ctr == 0 && use_alt >= 0 && has_alt) {
            has_final = 1;
            final = alt_target;
        } else {
            has_final = 1;
            final = provider_target;
        }
        if (has_final) {
            predictions[b] = final;
            valid_out[b] = 1;
        }
        const int mispredicted = !has_final || final != target;

        if (provider_t >= 0) {
            const int64_t pslot = provider_t * entries + provider_i;
            const int provider_correct = provider_target == target;
            const int alt_correct = has_alt && alt_target == target;
            const int differ = !has_alt || provider_target != alt_target;
            if (provider_ctr == 0 && differ) {
                if (alt_correct && !provider_correct) {
                    if (use_alt < use_alt_max)
                        use_alt += 1;
                } else if (provider_correct && !alt_correct) {
                    if (use_alt > use_alt_min)
                        use_alt -= 1;
                }
            }
            if (differ) {
                if (provider_correct && tab_useful[pslot] < useful_max)
                    tab_useful[pslot] += 1;
                else if (!provider_correct && tab_useful[pslot] > 0)
                    tab_useful[pslot] -= 1;
            }
            if (provider_correct) {
                if (tab_ctr[pslot] < conf_max)
                    tab_ctr[pslot] += 1;
            } else if (tab_ctr[pslot] > 0) {
                tab_ctr[pslot] -= 1;
            } else {
                tab_targets[pslot] = target;
                tab_ctr[pslot] = 1;
            }
        }

        if (!base_present) {
            base_valid[bi] = 1;
            base_targets[bi] = target;
            base_ctr[bi] = 1;
        } else if (base_targets[bi] == target) {
            if (base_ctr[bi] < conf_max)
                base_ctr[bi] += 1;
        } else if (base_ctr[bi] > 0) {
            base_ctr[bi] -= 1;
        } else {
            base_targets[bi] = target;
            base_ctr[bi] = 1;
        }

        if (mispredicted) {
            int64_t first = -1, second = -1;
            for (int64_t t = provider_t + 1; t < num_tagged; ++t) {
                if (tab_useful[t * entries + indices[t]] == 0) {
                    if (first < 0) {
                        first = t;
                    } else {
                        second = t;
                        break;
                    }
                }
            }
            if (first < 0) {
                for (int64_t t = provider_t + 1; t < num_tagged; ++t) {
                    const int64_t slot = t * entries + indices[t];
                    if (tab_useful[slot] > 0)
                        tab_useful[slot] -= 1;
                }
            } else {
                /* Seznec's geometric skew over the free candidates, in
                 * the scalar loop's exact RNG draw order. */
                int64_t chosen = first;
                if (second >= 0) {
                    int64_t candidate = second;
                    for (;;) {
                        const double draw = rng();
                        if (state[2]) {
                            /* The callback failed: stop here, and the
                             * caller re-raises its exception. */
                            state[0] = use_alt;
                            state[1] = updates;
                            return;
                        }
                        if (draw < 0.5)
                            break;
                        chosen = candidate;
                        candidate = -1;
                        for (int64_t t = chosen + 1; t < num_tagged; ++t) {
                            if (tab_useful[t * entries + indices[t]] == 0) {
                                candidate = t;
                                break;
                            }
                        }
                        if (candidate < 0)
                            break;
                    }
                }
                const int64_t slot = chosen * entries + indices[chosen];
                tab_valid[slot] = 1;
                tab_tags[slot] = tags[chosen];
                tab_targets[slot] = target;
                tab_ctr[slot] = 0;
                tab_useful[slot] = 0;
            }
        }

        updates += 1;
        if (updates % u_reset_period == 0) {
            const int64_t total = num_tagged * entries;
            for (int64_t s = 0; s < total; ++s)
                tab_useful[s] = 0;
        }
    }
    state[0] = use_alt;
    state[1] = updates;
}

/* The multiperspective perceptron (repro.cond.mpp) that VPC shares
 * with the real conditional branches, integer-for-integer: splitmix64
 * PC mixing, fold_int of the global history (little-endian uint64
 * words, bit 0 most recent) per ghist length, PathHistory.folded
 * (entries most recent first; while fewer than `depth` exist the
 * packed entries sit at lower bit positions), the local history at
 * mix_pc(pc) % local_entries, saturating weights and the adaptive
 * threshold.  Feature kind codes: 0 bias, 1 ghist, 2 path, 3 local.
 */
typedef struct {
    int64_t features;
    const int64_t *specs;      /* (features, 2): kind code, parameter */
    int64_t index_bits;
    int64_t rows;
    int64_t weight_max;
    int64_t weight_min;
    int8_t *weights;           /* (features, rows) */
    uint64_t *ghist;           /* (ghist_words,) */
    int64_t ghist_words;
    int64_t ghist_bits;
    int64_t *path;             /* (path_depth,) most recent first */
    int64_t path_depth;
    int64_t path_count;
    int64_t path_bits;
    uint64_t *local;           /* (local_entries,) */
    int64_t local_entries;
    int64_t local_bits;
    int64_t theta;
    int64_t counter;
    int64_t counter_max;
    int64_t counter_min;
} mpp_t;

static inline uint64_t mix_pc(uint64_t pc)
{
    uint64_t v = (pc >> 2) + 0x9E3779B97F4A7C15ULL;
    v ^= v >> 30;
    v *= 0xBF58476D1CE4E5B9ULL;
    v ^= v >> 27;
    v *= 0x94D049BB133111EBULL;
    v ^= v >> 31;
    return v;
}

static inline uint64_t low_mask(int64_t bits)
{
    return bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
}

/* fold_int(value, total, width) for a multi-word little-endian value. */
static uint64_t fold_words(const uint64_t *words, int64_t nwords,
                           int64_t total, int64_t width)
{
    uint64_t folded = 0;
    for (int64_t offset = 0; offset < total; offset += width) {
        const int64_t w = offset >> 6;
        const int64_t shift = offset & 63;
        uint64_t chunk = w < nwords ? words[w] >> shift : 0;
        if (shift && w + 1 < nwords)
            chunk |= words[w + 1] << (64 - shift);
        const int64_t left = total - offset;
        folded ^= chunk & low_mask(left < width ? left : width);
    }
    return folded;
}

/* PathHistory.folded(depth, width): XOR is linear, so each entry folds
 * in on its own from its bit position in the packed value. */
static uint64_t fold_path(const mpp_t *m, int64_t depth)
{
    const int64_t width = m->index_bits;
    const uint64_t mask = low_mask(width);
    const int64_t n = m->path_count < depth ? m->path_count : depth;
    uint64_t folded = 0;
    for (int64_t i = 0; i < n; ++i) {
        const int64_t position = (n - 1 - i) * m->path_bits;
        uint64_t part = (uint64_t)m->path[i] << (position % width);
        while (part) {
            folded ^= part & mask;
            part >>= width;
        }
    }
    return folded;
}

/* MultiperspectivePerceptron._indices and _sum. */
static int64_t mpp_sum(const mpp_t *m, uint64_t pc, int64_t *idx)
{
    const uint64_t h = mix_pc(pc);
    const uint64_t mask = low_mask(m->index_bits);
    int64_t total = 0;
    for (int64_t f = 0; f < m->features; ++f) {
        const int64_t kind = m->specs[2 * f];
        const int64_t parameter = m->specs[2 * f + 1];
        uint64_t folded = 0;
        if (kind == 1) {
            folded = fold_words(m->ghist, m->ghist_words, parameter,
                                m->index_bits);
        } else if (kind == 2) {
            folded = fold_path(m, parameter);
        } else if (kind == 3) {
            const uint64_t local = m->local[h % (uint64_t)m->local_entries];
            folded = fold_words(&local, 1, m->local_bits, m->index_bits);
        }
        const int64_t shift = f + 3;
        const uint64_t mixed = shift >= 64 ? 0 : h >> shift;
        idx[f] = (int64_t)((h ^ mixed ^ folded) & mask);
        total += m->weights[f * m->rows + idx[f]];
    }
    return total;
}

/* MultiperspectivePerceptron._train given the rows and sum it reads. */
static void mpp_train(mpp_t *m, const int64_t *idx, int64_t total, int taken)
{
    const int mispredicted = (total >= 0) != (taken != 0);
    const int below = (total >= 0 ? total : -total) < m->theta;
    if (mispredicted || below) {
        for (int64_t f = 0; f < m->features; ++f) {
            int8_t *w = m->weights + f * m->rows + idx[f];
            if (taken && *w < m->weight_max)
                *w += 1;
            else if (!taken && *w > m->weight_min)
                *w -= 1;
        }
    }
    if (mispredicted) {
        m->counter += 1;
        if (m->counter >= m->counter_max) {
            m->counter = 0;
            m->theta += 1;
        }
    } else if (below) {
        m->counter -= 1;
        if (m->counter <= m->counter_min) {
            m->counter = 0;
            if (m->theta > 1)
                m->theta -= 1;
        }
    }
}

/* train_weights(pc, taken): train without advancing any history. */
static void mpp_train_weights(mpp_t *m, uint64_t pc, int taken, int64_t *idx)
{
    mpp_train(m, idx, mpp_sum(m, pc, idx), taken);
}

/* The history half of update(pc, taken): global, path and local. */
static void mpp_push(mpp_t *m, uint64_t pc, int taken)
{
    for (int64_t w = m->ghist_words - 1; w > 0; --w)
        m->ghist[w] = (m->ghist[w] << 1) | (m->ghist[w - 1] >> 63);
    m->ghist[0] = (m->ghist[0] << 1) | (uint64_t)(taken != 0);
    m->ghist[m->ghist_words - 1] &=
        low_mask(m->ghist_bits - 64 * (m->ghist_words - 1));

    if (m->path_count < m->path_depth)
        m->path_count += 1;
    for (int64_t i = m->path_count - 1; i > 0; --i)
        m->path[i] = m->path[i - 1];
    m->path[0] = (int64_t)((pc >> 2) & low_mask(m->path_bits));

    uint64_t *local = m->local + mix_pc(pc) % (uint64_t)m->local_entries;
    *local = ((*local << 1) | (uint64_t)(taken != 0))
             & low_mask(m->local_bits);
}

/* Event-order VPC replay over a precomputed vpca/slot/tag table.
 *
 * Events interleave real conditionals (kind 0: predict + update the
 * shared conditional predictor, book-keeping its accuracy) with
 * indirect branches (kind 1: the virtual-PC iteration).  All hashing
 * is precomputed per (static pc, iteration); the BTB's direct-mapped
 * arrays and the multiperspective perceptron's tables, histories and
 * threshold are mutated in place, in exactly the scalar call sequence.
 */
void vpc_replay(
    int64_t events,
    const uint8_t *kinds,      /* (events,) 0 = conditional, 1 = indirect */
    const uint64_t *ev_a,      /* cond: pc; indirect: unique-pc row */
    const uint8_t *ev_taken,   /* (events,) conditionals only */
    const uint64_t *targets,   /* (branches,) by running branch ordinal */
    int64_t max_iter,
    int64_t fallback,
    const uint64_t *vpcas,     /* (unique_pcs * max_iter) */
    const int64_t *slots,
    const int64_t *vtags,
    int64_t *btb_tags,         /* (btb_entries,) */
    uint64_t *btb_targets,
    int64_t *btb_ticks,
    int64_t *counters,         /* [clock, cond_count, cond_misp] in/out */
    int64_t features,
    const int64_t *specs,      /* (features, 2) kind code, parameter */
    int64_t index_bits,
    int64_t weight_max,
    int64_t weight_min,
    int8_t *weights,           /* (features, 1 << index_bits) */
    uint64_t *ghist,           /* (ghist_words,) */
    int64_t ghist_words,
    int64_t ghist_bits,
    int64_t *path,             /* (path_depth,) */
    int64_t path_depth,
    int64_t path_bits,
    uint64_t *local,           /* (local_entries,) */
    int64_t local_entries,
    int64_t local_bits,
    int64_t *mpp_state,        /* [path_count, theta, counter] in/out */
    int64_t counter_max,
    int64_t counter_min,
    uint64_t *predictions,     /* (branches,) zero-initialised */
    uint8_t *valid_out)        /* (branches,) zero-initialised */
{
    mpp_t m = {
        features, specs, index_bits, (int64_t)1 << index_bits,
        weight_max, weight_min, weights,
        ghist, ghist_words, ghist_bits,
        path, path_depth, mpp_state[0], path_bits,
        local, local_entries, local_bits,
        mpp_state[1], mpp_state[2], counter_max, counter_min,
    };
    int64_t idx[features];
    int64_t clock = counters[0];
    int64_t cond_count = counters[1];
    int64_t cond_misp = counters[2];
    int64_t branch = 0;
    for (int64_t e = 0; e < events; ++e) {
        if (kinds[e] == 0) {
            /* predict then update: nothing changes in between, so the
             * rows and sum the prediction read are the ones update
             * trains on. */
            const uint64_t pc = ev_a[e];
            const int taken = ev_taken[e] != 0;
            const int64_t total = mpp_sum(&m, pc, idx);
            cond_count += 1;
            if ((total >= 0) != taken)
                cond_misp += 1;
            mpp_train(&m, idx, total, taken);
            mpp_push(&m, pc, taken);
            continue;
        }

        const int64_t base = (int64_t)ev_a[e] * max_iter;
        const uint64_t target = targets[branch];

        int64_t visited = 0;
        int has_pred = 0;
        uint64_t pred = 0;
        int64_t hit_it = -1;
        for (int64_t it = 0; it < max_iter; ++it) {
            const int64_t s = slots[base + it];
            if (btb_tags[s] != vtags[base + it])
                break;
            visited += 1;
            if (mpp_sum(&m, vpcas[base + it], idx) >= 0) {
                pred = btb_targets[s];
                has_pred = 1;
                hit_it = it;
                break;
            }
        }
        if (!has_pred && visited > 0 && fallback) {
            pred = btb_targets[slots[base]];
            has_pred = 1;
            hit_it = 0;
        }
        if (has_pred) {
            predictions[branch] = pred;
            valid_out[branch] = 1;
        }
        branch += 1;

        if (has_pred && pred == target) {
            for (int64_t it = 0; it < visited; ++it)
                mpp_train_weights(&m, vpcas[base + it], it == hit_it, idx);
            const int64_t s = slots[base + hit_it];
            if (btb_tags[s] == vtags[base + hit_it]) {
                clock += 1;
                btb_ticks[s] = clock;
            }
            continue;
        }

        int64_t found = -1;
        for (int64_t it = 0; it < max_iter; ++it) {
            const int64_t s = slots[base + it];
            if (found < 0 && btb_tags[s] == vtags[base + it]
                    && btb_targets[s] == target)
                found = it;
        }
        if (found >= 0) {
            for (int64_t it = 0; it <= found; ++it) {
                const int64_t s = slots[base + it];
                if (btb_tags[s] == vtags[base + it] || it == found)
                    mpp_train_weights(&m, vpcas[base + it], it == found, idx);
            }
            const int64_t s = slots[base + found];
            if (btb_tags[s] == vtags[base + found]) {
                clock += 1;
                btb_ticks[s] = clock;
            }
            continue;
        }

        int64_t victim = -1;
        for (int64_t it = 0; it < max_iter; ++it) {
            if (btb_tags[slots[base + it]] != vtags[base + it]) {
                victim = it;
                break;
            }
        }
        if (victim < 0) {
            int64_t best_tick = btb_ticks[slots[base]];
            victim = 0;
            for (int64_t it = 1; it < max_iter; ++it) {
                const int64_t tick = btb_ticks[slots[base + it]];
                if (tick < best_tick) {
                    best_tick = tick;
                    victim = it;
                }
            }
        }
        for (int64_t it = 0; it < visited; ++it) {
            if (it != victim)
                mpp_train_weights(&m, vpcas[base + it], 0, idx);
        }
        {
            const int64_t s = slots[base + victim];
            clock += 1;
            btb_tags[s] = vtags[base + victim];
            btb_targets[s] = target;
            btb_ticks[s] = clock;
        }
        mpp_train_weights(&m, vpcas[base + victim], 1, idx);
    }
    counters[0] = clock;
    counters[1] = cond_count;
    counters[2] = cond_misp;
    mpp_state[0] = m.path_count;
    mpp_state[1] = m.theta;
    mpp_state[2] = m.counter;
}
"""

_CFLAGS = ["-O3", "-shared", "-fPIC", "-std=c99"]

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p

#: (restype, argtypes) per exported function; `load(name)` applies them.
_SIGNATURES: Dict[str, tuple] = {
    "blbp_replay": (
        _I64,
        [
            _I64, _I64, _I64, _I64, _I64,   # branches, banks, bits, rows, tmax
            _PTR, _PTR, _PTR, _PTR, _PTR,   # rows, set_ids, targets, sizes, mats
            _PTR, _PTR,                     # differs, desired
            _PTR, _I64,                     # lut, lut_offset
            _PTR, _I64,                     # weights, magnitude
            _PTR, _PTR, _I64, _I64, _I64,   # theta, counter, cmax, cmin, adaptive
            _PTR,                           # predictions
        ],
    ),
    "blbp_replay_many": (
        None,
        [
            _I64, _I64, _I64, _I64,         # lanes, branches, bits, tmax
            _PTR, _PTR, _PTR, _PTR,         # set_ids, targets, sizes, mats
            _PTR, _PTR,                     # differs, desired
            _PTR, _PTR,                     # banks, table_rows
            _PTR, _PTR, _PTR,               # rows, luts, lut_offsets
            _PTR, _PTR,                     # weights, magnitudes
            _PTR, _PTR,                     # thetas, counters
            _PTR, _PTR, _PTR,               # cmaxs, cmins, adaptives
            _PTR, _PTR,                     # predictions, trained
        ],
    ),
    "ittage_replay": (
        None,
        [
            _I64, _I64, _I64, _I64,         # branches, tables, entries, base
            _PTR, _PTR, _PTR, _PTR,         # idx, tag, base_idx, targets
            _PTR, _PTR, _PTR, _PTR, _PTR,   # tags, targets, ctr, useful, valid
            _PTR, _PTR, _PTR,               # base targets/ctr/valid
            _I64, _I64, _I64, _I64, _I64,   # conf/useful/alt bounds, u-reset
            _PTR,                           # state [use_alt, updates, abort]
            RNG_CALLBACK,                   # allocation tie-breaker
            _PTR, _PTR,                     # predictions, valid_out
        ],
    ),
    "vpc_replay": (
        None,
        [
            _I64,                           # events
            _PTR, _PTR, _PTR, _PTR,         # kinds, ev_a, ev_taken, targets
            _I64, _I64,                     # max_iter, fallback
            _PTR, _PTR, _PTR,               # vpcas, slots, vtags
            _PTR, _PTR, _PTR,               # btb tags/targets/ticks
            _PTR,                           # counters [clock, count, misp]
            _I64, _PTR, _I64,               # features, specs, index bits
            _I64, _I64,                     # weight max, weight min
            _PTR,                           # weights
            _PTR, _I64, _I64,               # ghist words, word count, bits
            _PTR, _I64, _I64,               # path entries, depth, bits per pc
            _PTR, _I64, _I64,               # local table, entries, bits
            _PTR, _I64, _I64,               # [path n, θ, counter], cmax, cmin
            _PTR, _PTR,                     # predictions, valid_out
        ],
    ),
}

_lib: Optional[ctypes.CDLL] = None
_fns: Dict[str, object] = {}
_attempted = False


def pointer(name: str, array: object, dtype: type, length: int) -> int:
    """The data pointer of ``array`` for a compiled core.

    Raises ``ValueError`` naming the argument unless ``array`` is a
    C-contiguous numpy array of exactly ``dtype`` holding ``length``
    elements in all.
    """
    if not isinstance(array, np.ndarray):
        raise ValueError(
            f"{name}: expected a numpy array, got {type(array).__name__}"
        )
    if array.dtype != np.dtype(dtype):
        raise ValueError(
            f"{name}: expected dtype {np.dtype(dtype)}, got {array.dtype}"
        )
    if not array.flags.c_contiguous:
        raise ValueError(f"{name}: array is not C-contiguous")
    if array.size != length:
        raise ValueError(
            f"{name}: expected {length} elements, got {array.size}"
        )
    return array.ctypes.data


def cache_dir() -> str:
    """Directory holding the content-addressed compiled libraries."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-columnar")


def _compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not name:
            continue
        for root in os.environ.get("PATH", "").split(os.pathsep):
            candidate = os.path.join(root, name)
            if os.path.isfile(candidate) and os.access(candidate, os.X_OK):
                return name
    return None


def _build() -> Optional[str]:
    """Compile the replay cores, once, into the shared cache.

    Returns the library path, or None on failure.  Safe under
    concurrent builders (dist worker pools sharing one cache): each
    compiles into a private mkstemp file and publishes with an atomic
    ``os.replace``; a builder whose own compile fails re-checks whether
    a concurrent builder already published the library before giving
    up, so transient contention never blacklists the compiled path for
    the whole process.
    """
    source_id = _SOURCE + "\n".join(_CFLAGS)
    digest = hashlib.sha256(source_id.encode()).hexdigest()[:16]
    directory = cache_dir()
    path = os.path.join(directory, f"replay_{digest}.so")
    if os.path.exists(path):
        return path
    compiler = _compiler()
    if compiler is None:
        return None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, temp_c = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as handle:
            handle.write(_SOURCE)
        temp_so = temp_c[:-2] + ".so"
        try:
            result = subprocess.run(
                [compiler, *_CFLAGS, "-o", temp_so, temp_c],
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0:
                return path if os.path.exists(path) else None
            # Atomic publish: concurrent builders race benignly.
            os.replace(temp_so, path)
        finally:
            for leftover in (temp_c, temp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
        return path
    except (OSError, subprocess.SubprocessError):
        # A concurrent builder may have published while we failed.
        return path if os.path.exists(path) else None


def _load_library() -> Optional[ctypes.CDLL]:
    global _lib, _attempted
    if _lib is not None:
        return _lib
    if _attempted:
        return None
    _attempted = True
    path = _build()
    if path is None:
        return None
    try:
        _lib = ctypes.CDLL(path)
    except OSError:
        _lib = None
    return _lib


def load(name: str = "blbp_replay"):
    """The compiled replay entry point ``name``, or None if unavailable.

    Compilation happens at most once per process; failures (no
    compiler, sandboxed filesystem) are remembered and the caller falls
    back to the numpy replay.  Set ``REPRO_COLUMNAR_COMPILED=0`` to
    force the fallback (the equivalence tests exercise both paths).
    """
    if os.environ.get("REPRO_COLUMNAR_COMPILED", "").strip() == "0":
        return None
    fn = _fns.get(name)
    if fn is not None:
        return fn
    signature = _SIGNATURES.get(name)
    if signature is None:
        raise ValueError(f"unknown replay core {name!r}")
    lib = _load_library()
    if lib is None:
        return None
    try:
        fn = getattr(lib, name)
    except AttributeError:
        return None
    fn.restype, fn.argtypes = signature
    _fns[name] = fn
    return fn


def available() -> bool:
    """Whether the compiled replay cores can be used in this process."""
    return load() is not None


def loaded_functions() -> List[str]:
    """Names of the compiled entry points available in this process."""
    return [name for name in _SIGNATURES if load(name) is not None]
