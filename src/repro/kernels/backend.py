"""Compiled fast-path selection for the scan kernels.

The batch kernels in this package have two interchangeable
implementations: a pure-Python one (always present, the semantic
reference) and a small C library compiled on first use and loaded
through cffi's ABI mode.  Selection happens once at import time:

1. ``REPRO_NO_COMPILED_KERNELS=1`` in the environment forces the
   pure-Python path (the CI job that keeps the fallback load-bearing
   sets it).
2. Otherwise the C source below is compiled with the system C compiler
   into a per-source-hash cache directory under the platform temp dir
   (one ~50 ms compile per machine, reused afterwards) and loaded via
   ``ffi.dlopen``.  ABI mode needs no Python headers — only ``cc``.
3. Without cffi installed there is nothing to build and the
   pure-Python path is selected quietly.  A build or dlopen that was
   attempted and failed — no compiler, sandboxed temp dir, dlopen
   error, a library missing a declared entry point — logs one WARNING
   carrying the exception and degrades to pure Python.  The compiled
   path is a speedup, never a dependency; :func:`backend_name` (on
   ``/healthz`` and ``/stats``) says which one is serving.

The scan kernels work exclusively on flat ``int64`` component arrays
plus offset tables (see :mod:`.columns`), the columnar layout shared by
all kernels, and on type-id columns in their own 2- or 4-byte typecode;
the posting codec turns payload bytes into that layout and back.
A column's ``ffi.from_buffer`` casts are memoized on the column
(:func:`column_handles`, :func:`type_id_handle`, :func:`pid_handles`),
so what a call marshals is its pointer and bound lists — passed as
plain Python lists, which cffi converts in the call — and its output
buffers.  The crossings:

* ``repro_slca_hits`` — one SLCA, whatever its matcher count, with
  Definition 3.3 applied to what it emits when the caller passes the
  query's ``need`` column;
* ``repro_partition_presence`` — a short-list anchor round's presence
  masks and posting spans;
* ``repro_sle_round`` — one short-list anchor round of step 1: the
  pre-screen, the partition-local SLCAs, the skip bounds and Top-2K
  admission, with a DP row its rows lack computed in the call and
  appended to them (one call per round; it returns early only when the
  rows are full or not its own to add to — Python grows them
  geometrically and it resumes where it stopped — or for an SLCA it
  cannot run);
* ``repro_dp_top`` — Section V's ``getOptimalRQ`` (Formula 11) over
  lane masks, from one query's rule table
  (:class:`~repro.kernels.scoring.RuleTable`): the Top-``limit``
  refined queries of one presence mask, exactly what
  :func:`~repro.core.dp.get_top_optimal_rqs`, its Python twin, returns;
* ``repro_sle_direct`` — the short-list finish once Q has an answer:
  every remaining partition's SLCA and Definition 3.3 test in one call;
* ``repro_render_labels`` — a result list's dotted labels, written
  into one buffer (:meth:`~repro.kernels.hits.HitRecord.labels`);
* ``repro_order_hits`` — a direct hit's results put in document order,
  each node once (:meth:`~repro.kernels.hits.HitRecord.ordered`);
* ``repro_decode_payload`` / ``repro_encode_run`` — a posting list's
  whole payload decoded into those arrays and its partition table, on
  the list's first read, and written at build time
  (:mod:`repro.index.blocks` holds their Python twins);
* ``repro_common_ancestors`` — the co-occurrence count ``f_{ki,kj}^T``
  of two lists, one forward merge over their key columns
  (:mod:`.ancestors` holds its Python twin).
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import subprocess
import tempfile

logger = logging.getLogger(__name__)

#: Environment flag forcing the pure-Python fallback.
NO_COMPILED_ENV = "REPRO_NO_COMPILED_KERNELS"

_CDEF = """
int64_t repro_slca_hits(const int64_t *a_flat, const int64_t *a_offs,
                        const void *a_tids, int64_t tid_width,
                        const int64_t *need, int64_t a_lo, int64_t a_hi,
                        const int64_t **m_cols, const int64_t *m_bounds,
                        int64_t nmatchers, int64_t *out);
int64_t repro_render_labels(const int64_t **flats, const int64_t **offs,
                            const int64_t *lanes, const int64_t *positions,
                            const int64_t *depths, int64_t n, char *out);
int64_t repro_order_hits(const int64_t **flats, const int64_t **offs,
                         int64_t *lanes, int64_t *positions,
                         int64_t *depths, int64_t n, int64_t *work);
void repro_partition_presence(const int64_t *a_pids, int64_t a_count,
                              const int64_t **pid_arrs,
                              const int64_t **lo_arrs,
                              const int64_t **hi_arrs,
                              const int64_t *counts, int64_t nlanes,
                              int64_t *masks, int64_t *spans);
struct repro_dp_rules {
    int64_t nquery;
    const int64_t *query;
    const int64_t *pos_off;
    const int64_t *pos_rule;
    const int64_t *width;
    const int64_t *rhs_off;
    const int64_t *rhs;
    const int64_t *rhs_mask;
    const double *ds;
    const int64_t *ds_float;
    double deletion;
    int64_t deletion_float;
    int64_t seq_max;
    int64_t max_rules;
    int64_t entry_lanes;
};
struct repro_rows {
    int64_t *masks;
    double *probe;
    int64_t *beam;
    double *beam_dis;
    int64_t *beam_masks;
    int64_t *beam_how;
    uint8_t *seq;
    int64_t *n;
};
int64_t repro_dp_top(const struct repro_dp_rules *dp, int64_t present,
                     int64_t limit, double *dis, int64_t *masks,
                     int64_t *how, uint8_t *seq);
int64_t repro_sle_round(const int64_t *masks, const int64_t *spans,
                        int64_t npart, int64_t nlanes, int64_t retired,
                        int64_t per_partition, int64_t query_mask,
                        const int64_t *query_lanes, int64_t nquery,
                        const double *lane_cost,
                        const int64_t **flats, const int64_t **offs,
                        const void **tids, const int64_t *tid_widths,
                        const int64_t *need, struct repro_rows *rows,
                        const struct repro_dp_rules *dp, double *top_dis,
                        int64_t *top_masks, int64_t *top_refs,
                        int64_t capacity, int64_t *state);
int64_t repro_sle_direct(const int64_t **masks, const int64_t **spans,
                         const int64_t *rounds, int64_t nrounds,
                         int64_t nlanes, int64_t query_mask,
                         const int64_t *query_lanes, int64_t nquery,
                         const int64_t **flats, const int64_t **offs,
                         const void **tids, const int64_t *tid_widths,
                         const int64_t *need, int64_t *state,
                         int64_t *hits, int64_t capacity);
int64_t repro_decode_payload(const uint8_t *body, int64_t nbytes,
                             int64_t count, int64_t ntypes, int64_t tid_width,
                             int64_t *flat, int64_t flat_cap, int64_t *offs,
                             void *tids, int64_t *counts, int64_t *pid_flat,
                             int64_t *starts, int64_t *ends, int64_t *info);
int64_t repro_encode_run(const int64_t *flat, const int64_t *offs,
                         const int64_t *tids, const int64_t *counts,
                         int64_t count, uint8_t *out, int64_t cap);
int64_t repro_common_ancestors(const int64_t *a_flat, const int64_t *a_offs,
                               const void *a_tids, int64_t a_width,
                               int64_t a_count,
                               const int64_t *b_flat, const int64_t *b_offs,
                               const void *b_tids, int64_t b_width,
                               int64_t b_count,
                               const char *under, int64_t depth);
"""

#: Every function declared above.
_ENTRY_POINTS = tuple(re.findall(r"\b(repro_\w+)\(", _CDEF))

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Lexicographic compare of two variable-length int64 Dewey keys. */
static int key_cmp(const int64_t *a, int64_t alen,
                   const int64_t *b, int64_t blen)
{
    int64_t n = alen < blen ? alen : blen;
    int64_t i;
    for (i = 0; i < n; i++) {
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    }
    if (alen == blen)
        return 0;
    return alen < blen ? -1 : 1;
}

/* Longest common prefix of two keys (the LCA depth of two labels). */
static int64_t key_lcp(const int64_t *a, int64_t alen,
                       const int64_t *b, int64_t blen)
{
    int64_t n = alen < blen ? alen : blen;
    int64_t i = 0;
    while (i < n && a[i] == b[i])
        i++;
    return i;
}

/* First index in [lo, hi) whose key compares > target: a galloping
 * scan — exponential probing from lo, then a binary search inside the
 * final bracket.  Forward-only; lo must satisfy "every index < lo
 * holds a key <= target", which successive non-decreasing targets
 * preserve. */
static int64_t gallop_upper(const int64_t *flat, const int64_t *offs,
                            int64_t lo, int64_t hi,
                            const int64_t *key, int64_t klen)
{
    int64_t step, l, h;
    if (lo >= hi ||
        key_cmp(flat + offs[lo], offs[lo + 1] - offs[lo], key, klen) > 0)
        return lo;
    step = 1;
    while (lo + step < hi &&
           key_cmp(flat + offs[lo + step],
                   offs[lo + step + 1] - offs[lo + step], key, klen) <= 0) {
        lo += step;
        step <<= 1;
    }
    l = lo + 1;
    h = lo + step < hi ? lo + step : hi;
    while (l < h) {
        int64_t mid = (l + h) >> 1;
        if (key_cmp(flat + offs[mid], offs[mid + 1] - offs[mid],
                    key, klen) <= 0)
            l = mid + 1;
        else
            h = mid;
    }
    return l;
}

/* Batch closest-match fold: for every anchor key in [a_lo, a_hi),
 * find the deepest LCP against the matcher range [m_lo, m_hi) — the
 * max over the anchor's floor and ceiling elements, exactly XKSearch
 * Scan Eager's closest-match choice — and fold it into depths[] with
 * a min.  depths is indexed relative to a_lo. */
static void fold_depths(const int64_t *a_flat, const int64_t *a_offs,
                        int64_t a_lo, int64_t a_hi,
                        const int64_t *m_flat, const int64_t *m_offs,
                        int64_t m_lo, int64_t m_hi,
                        int64_t *depths)
{
    int64_t pos = m_lo;
    int64_t i;
    for (i = a_lo; i < a_hi; i++) {
        const int64_t *key = a_flat + a_offs[i];
        int64_t klen = a_offs[i + 1] - a_offs[i];
        int64_t depth = 0;
        pos = gallop_upper(m_flat, m_offs, pos, m_hi, key, klen);
        if (pos > m_lo) {
            int64_t d = key_lcp(m_flat + m_offs[pos - 1],
                                m_offs[pos] - m_offs[pos - 1], key, klen);
            if (d > depth)
                depth = d;
        }
        if (pos < m_hi) {
            int64_t d = key_lcp(m_flat + m_offs[pos],
                                m_offs[pos + 1] - m_offs[pos], key, klen);
            if (d > depth)
                depth = d;
        }
        if (depth < depths[i - a_lo])
            depths[i - a_lo] = depth;
    }
}

/* XKSearch's streaming ancestor filter over a depth column: anchor
 * a_lo + i's candidate is its first depths[i] components.  Hold one
 * candidate; a next candidate that extends the held one replaces it,
 * one that is a prefix of (or equal to) the held one is dropped, an
 * unrelated one emits the held candidate and takes its place.  Anchors
 * are document-ordered and each candidate is a prefix of its own
 * anchor, so a common prefix of two anchors is a prefix of every anchor
 * between them: a later candidate related to an emitted one would have
 * been related to the candidate that displaced it.  The emitted
 * candidates are therefore exactly the SLCAs, in document order.
 *
 * Survivors are compacted in place — (slots[j], depths[j]) for
 * j < the return value; the write position never passes the read
 * position.  Returns -1 when some depth is 0 (labels of different
 * documents: the caller re-runs the per-node path, which raises the
 * exact error).  Every depth must be <= its anchor's length. */
static int64_t emit_survivors(const int64_t *a_flat, const int64_t *a_offs,
                              int64_t a_lo, int64_t count,
                              int64_t *depths, int64_t *slots)
{
    int64_t held = -1, held_depth = 0, out = 0;
    int64_t i;
    for (i = 0; i < count; i++) {
        int64_t depth = depths[i];
        if (depth == 0)
            return -1;
        if (held >= 0) {
            int64_t limit = held_depth < depth ? held_depth : depth;
            int64_t shared = key_lcp(a_flat + a_offs[a_lo + held], limit,
                                     a_flat + a_offs[a_lo + i], limit);
            if (shared == held_depth) {
                if (depth == held_depth)
                    continue;           /* the same node again */
            } else if (shared == depth) {
                continue;               /* an ancestor of the held node */
            } else {
                slots[out] = held;
                depths[out] = held_depth;
                out++;
            }
        }
        held = i;
        held_depth = depth;
    }
    if (held >= 0) {
        slots[out] = held;
        depths[out] = held_depth;
        out++;
    }
    return out;
}

static int64_t type_id_at(const void *tids, int64_t width, int64_t pos)
{
    return width == 2 ? (int64_t)((const uint16_t *)tids)[pos]
                      : (int64_t)((const uint32_t *)tids)[pos];
}

/* Definition 3.3 over n compacted hits: hit j, the node depths[j]
 * components deep on the path to anchor posting a_lo + slots[j], is
 * meaningful when depths[j] >= need[its posting's type id].  The
 * meaningful hits are compacted in place, in order; returns how many. */
static int64_t keep_meaningful(const void *tids, int64_t width,
                               const int64_t *need, int64_t a_lo,
                               int64_t *slots, int64_t *depths, int64_t n)
{
    int64_t j, kept = 0;
    for (j = 0; j < n; j++) {
        if (depths[j] >= need[type_id_at(tids, width, a_lo + slots[j])]) {
            slots[kept] = slots[j];
            depths[kept] = depths[j];
            kept++;
        }
    }
    return kept;
}

/* One SLCA, one call: every anchor's candidate depth starts at its own
 * length, each matcher range folds into it (matcher m is the column
 * m_cols[2m] / m_cols[2m + 1] over [m_bounds[2m], m_bounds[2m + 1])),
 * the streaming filter compacts the survivors and, when need is not
 * NULL, Definition 3.3 keeps the meaningful ones (the anchor's type ids
 * are a_tids, tid_width bytes each).  out holds 2 * (a_hi - a_lo)
 * entries: kept hit j's depth lands in out[j] and its anchor posting
 * a_lo + slot in out[(a_hi - a_lo) + j].  Returns the kept count, or
 * -1 when some depth is 0. */
int64_t repro_slca_hits(const int64_t *a_flat, const int64_t *a_offs,
                        const void *a_tids, int64_t tid_width,
                        const int64_t *need, int64_t a_lo, int64_t a_hi,
                        const int64_t **m_cols, const int64_t *m_bounds,
                        int64_t nmatchers, int64_t *out)
{
    int64_t count = a_hi - a_lo;
    int64_t *slots = out + count;
    int64_t i, m, emitted;
    for (i = a_lo; i < a_hi; i++)
        out[i - a_lo] = a_offs[i + 1] - a_offs[i];
    for (m = 0; m < nmatchers; m++)
        fold_depths(a_flat, a_offs, a_lo, a_hi,
                    m_cols[2 * m], m_cols[2 * m + 1],
                    m_bounds[2 * m], m_bounds[2 * m + 1], out);
    emitted = emit_survivors(a_flat, a_offs, a_lo, count, out, slots);
    if (emitted < 0)
        return -1;
    if (need)
        emitted = keep_meaningful(a_tids, tid_width, need, a_lo, slots, out,
                                  emitted);
    for (i = 0; i < emitted; i++)
        slots[i] += a_lo;
    return emitted;
}

/* Hit j of a result list is the node depths[j] components deep on the
 * path to posting positions[j] of column lanes[j] (column 0 when lanes
 * is NULL), whose keys are flats[c] / offs[c]. */
#define HIT_KEY(j) (flats[lanes ? lanes[j] : 0] \
                    + offs[lanes ? lanes[j] : 0][positions[j]])

/* The dotted labels of n hits, "0.1.2", written one after another into
 * out with a '\n' between two labels.  Each component takes at most 19
 * digits and one separator, so out needs 21 bytes per component (the
 * sum of the depths) at most.  Returns the bytes written. */
int64_t repro_render_labels(const int64_t **flats, const int64_t **offs,
                            const int64_t *lanes, const int64_t *positions,
                            const int64_t *depths, int64_t n, char *out)
{
    char digits[20];
    int64_t pos = 0, j, c;
    for (j = 0; j < n; j++) {
        const int64_t *key = HIT_KEY(j);
        if (j)
            out[pos++] = '\n';
        for (c = 0; c < depths[j]; c++) {
            uint64_t value = (uint64_t)key[c];
            int width = 0;
            if (c)
                out[pos++] = '.';
            do {
                digits[width++] = (char)('0' + value % 10);
                value /= 10;
            } while (value);
            while (width)
                out[pos++] = digits[--width];
        }
    }
    return pos;
}

static int hit_cmp(const int64_t **flats, const int64_t **offs,
                   const int64_t *lanes, const int64_t *positions,
                   const int64_t *depths, int64_t i, int64_t j)
{
    return key_cmp(HIT_KEY(i), depths[i], HIT_KEY(j), depths[j]);
}

/* Sort n hits (as repro_render_labels reads them) into document order
 * of the nodes they name and drop every repeat of a node, in place.
 * work holds 5 * n entries.  A bottom-up merge sort of hit indexes,
 * then one gather pass.  Returns the count of distinct nodes. */
int64_t repro_order_hits(const int64_t **flats, const int64_t **offs,
                         int64_t *lanes, int64_t *positions,
                         int64_t *depths, int64_t n, int64_t *work)
{
    int64_t *order = work, *merged = work + n, *copy = work + 2 * n;
    int64_t width, lo, j, kept = 0;
    for (j = 0; j < n; j++)
        order[j] = j;
    for (width = 1; width < n; width *= 2) {
        int64_t *swap;
        for (lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t a = lo, b = mid, k = lo;
            while (a < mid && b < hi)
                merged[k++] = hit_cmp(flats, offs, lanes, positions, depths,
                                      order[b], order[a]) < 0
                    ? order[b++] : order[a++];
            while (a < mid)
                merged[k++] = order[a++];
            while (b < hi)
                merged[k++] = order[b++];
        }
        swap = order;
        order = merged;
        merged = swap;
    }
    for (j = 0; j < n; j++) {
        int64_t at = order[j];
        if (kept && hit_cmp(flats, offs, lanes, positions, depths, at,
                            order[kept - 1]) == 0)
            continue;
        order[kept++] = at;
    }
    for (j = 0; j < kept; j++) {
        copy[j] = positions[order[j]];
        copy[n + j] = depths[order[j]];
        copy[2 * n + j] = lanes ? lanes[order[j]] : 0;
    }
    for (j = 0; j < kept; j++) {
        positions[j] = copy[j];
        depths[j] = copy[n + j];
        if (lanes)
            lanes[j] = copy[2 * n + j];
    }
    return kept;
}
#undef HIT_KEY

/* Batch partition presence: merge-join every lane's sorted partition
 * table ((p0, p1) pid pairs with [lo, hi) posting spans) against the
 * anchor lane's pid pairs.  For anchor partition index i, masks[i]
 * collects one presence bit per matching lane and
 * spans[(i * nlanes + lane) * 2 .. +1] its posting range (-1, -1 when
 * the lane has no postings there) — the whole random-access probe
 * phase of the short-list route in one pass over flat arrays. */
void repro_partition_presence(const int64_t *a_pids, int64_t a_count,
                              const int64_t **pid_arrs,
                              const int64_t **lo_arrs,
                              const int64_t **hi_arrs,
                              const int64_t *counts, int64_t nlanes,
                              int64_t *masks, int64_t *spans)
{
    int64_t i, lane;
    for (i = 0; i < a_count; i++) {
        masks[i] = 0;
        for (lane = 0; lane < nlanes; lane++) {
            spans[(i * nlanes + lane) * 2] = -1;
            spans[(i * nlanes + lane) * 2 + 1] = -1;
        }
    }
    for (lane = 0; lane < nlanes; lane++) {
        const int64_t *pids = pid_arrs[lane];
        const int64_t *los = lo_arrs[lane];
        const int64_t *his = hi_arrs[lane];
        int64_t count = counts[lane];
        int64_t ai = 0, li = 0;
        while (ai < a_count && li < count) {
            int64_t a0 = a_pids[ai * 2], a1 = a_pids[ai * 2 + 1];
            int64_t l0 = pids[li * 2], l1 = pids[li * 2 + 1];
            if (a0 < l0 || (a0 == l0 && a1 < l1)) {
                ai++;
            } else if (l0 < a0 || (l0 == a0 && l1 < a1)) {
                li++;
            } else {
                masks[ai] |= (int64_t)((uint64_t)1 << lane);
                spans[(ai * nlanes + lane) * 2] = los[li];
                spans[(ai * nlanes + lane) * 2 + 1] = his[li];
                ai++;
                li++;
            }
        }
    }
}

/* The partition-local SLCA over the lanes lanes[0 .. nsel) of one
 * presence row: row[2 * lane] .. row[2 * lane + 1] is the lane's posting
 * range, flats[lane] / offs[lane] its key columns and tids[lane] its type
 * ids (tid_widths[lane] bytes each).  The first shortest range anchors,
 * as slca_hits ranks them; the others fold into its depth column, the
 * streaming filter keeps the SLCAs and Definition 3.3 the meaningful
 * ones.  Kept hit j is the node (*work)[j] components deep on the path to
 * anchor posting row[2 * *anchor] + (*work)[count + j], where count is
 * the anchor range's size.  The work column grows as needed.  Returns
 * how many are kept, -1 when some depth is 0 (labels of different
 * documents) or -2 when the work column cannot grow. */
static int64_t row_slca(const int64_t *row, const int64_t *lanes,
                        int64_t nsel, const int64_t **flats,
                        const int64_t **offs, const void **tids,
                        const int64_t *tid_widths, const int64_t *need,
                        int64_t **work, int64_t *room, int64_t *anchor)
{
    int64_t best = lanes[0], a_lo, count, emitted, q, j;
    int64_t *depths, *slots;
    for (q = 1; q < nsel; q++) {
        int64_t lane = lanes[q];
        if (row[2 * lane + 1] - row[2 * lane]
                < row[2 * best + 1] - row[2 * best])
            best = lane;
    }
    a_lo = row[2 * best];
    count = row[2 * best + 1] - a_lo;
    if (2 * count > *room) {
        int64_t *grown = realloc(*work, 2 * count * sizeof *grown);
        if (!grown)
            return -2;
        *work = grown;
        *room = 2 * count;
    }
    depths = *work;
    slots = *work + count;
    for (j = 0; j < count; j++)
        depths[j] = offs[best][a_lo + j + 1] - offs[best][a_lo + j];
    for (q = 0; q < nsel; q++) {
        int64_t lane = lanes[q];
        if (lane != best)
            fold_depths(flats[best], offs[best], a_lo, a_lo + count,
                        flats[lane], offs[lane], row[2 * lane],
                        row[2 * lane + 1], depths);
    }
    emitted = emit_survivors(flats[best], offs[best], a_lo, count, depths,
                             slots);
    if (emitted < 0)
        return -1;
    *anchor = best;
    return keep_meaningful(tids[best], tid_widths[best], need, a_lo, slots,
                           depths, emitted);
}

/* Short-list step 1's Top-2K order on (dissimilarity, lane mask) pairs,
 * lanes numbered in keyword-string order: by dissimilarity, then by the
 * sorted keyword tuple.  Two sets first differ at their lowest differing
 * lane m; the set without m sorts first exactly when it has no lane
 * above m (it is then a prefix of the other). */
static int order_less(double ad, int64_t am, double bd, int64_t bm)
{
    uint64_t diff, bit, above;
    if (ad != bd)
        return ad < bd;
    diff = (uint64_t)am ^ (uint64_t)bm;
    if (!diff)
        return 0;
    bit = diff & (~diff + 1);
    above = ~((bit << 1) - 1);
    if ((uint64_t)am & bit)
        return ((uint64_t)bm & above) != 0;
    return ((uint64_t)am & above) == 0;
}

/* The presence bound of a mask: the largest lane_cost of a lane it does
 * not hold (a lane that costs nothing to miss has cost -1). */
static double presence_bound(const double *lane_cost, int64_t nlanes,
                             int64_t mask)
{
    double bound = 0;
    int64_t lane;
    for (lane = 0; lane < nlanes; lane++)
        if (lane_cost[lane] > bound && !((uint64_t)mask >> lane & 1))
            bound = lane_cost[lane];
    return bound;
}

/* ---- getOptimalRQ (Section V, Formula 11) over lane masks ---- */

/* One query's rules as the DP reads them (kernels/scoring.py's
 * RuleTable builds it; lanes number the keyword space in keyword-string
 * order).  query[0 .. nquery) are the query's lanes.  The rules whose
 * LHS ends at position i (1-based) and equals the query's suffix there
 * are pos_rule[pos_off[i - 1] .. pos_off[i]), in RuleSet order; rule r
 * spans width[r] positions and writes the lanes rhs[rhs_off[r] ..
 * rhs_off[r + 1]) (rhs_mask[r] as a set) at cost ds[r].  A cost carries
 * whether it is a Python float (ds_float, deletion_float), so the
 * dissimilarity keeps its type.  seq_max bounds a derivation's length
 * (duplicates included), max_rules the rules at one position, and
 * entry_lanes a refined query's distinct lanes. */
struct repro_dp_rules {
    int64_t nquery;
    const int64_t *query;
    const int64_t *pos_off;
    const int64_t *pos_rule;
    const int64_t *width;
    const int64_t *rhs_off;
    const int64_t *rhs;
    const int64_t *rhs_mask;
    const double *ds;
    const int64_t *ds_float;
    double deletion;
    int64_t deletion_float;
    int64_t seq_max;
    int64_t max_rules;
    int64_t entry_lanes;
};

/* A partial refinement: its cost, keyword set and derivation length;
 * its lanes (derivation order, duplicates kept) are in the work's lane
 * pool at slot * seq_max. */
typedef struct {
    double cost;
    uint64_t mask;
    int32_t len;
    int32_t is_float;
} dp_partial;

/* A DP's scratch, one block grown on demand and reused across the DP
 * runs of one kernel call.  Slots [0, (nquery + 1) * cell) hold the
 * cells C[i] (cell slots each), the next ones the cell being built.
 * The mask table finds a built candidate by keyword set: entry =
 * stamp << 32 | (slot + 1), live only under the current stamp. */
typedef struct {
    void *block;
    int64_t *table;
    dp_partial *parts;
    int64_t *counts;
    int32_t *ranked;
    uint8_t *lanes;
    int64_t table_size, slots, nqueries, builds, lane_room;
    int table_bits;
    uint64_t stamp;
} dp_work;

static void dp_free(dp_work *w)
{
    free(w->block);
}

/* Room for a DP of the given cell size; 0, or -1 when out of memory. */
static int dp_reserve(dp_work *w, const struct repro_dp_rules *dp,
                      int64_t cell)
{
    int64_t build = cell * (2 + dp->max_rules);
    int64_t slots = (dp->nquery + 1) * cell + build;
    int64_t size = 16;
    char *block;
    while (size < 2 * build)
        size <<= 1;
    if (size <= w->table_size && slots <= w->slots
            && dp->nquery + 1 <= w->nqueries && build <= w->builds
            && slots * dp->seq_max <= w->lane_room)
        return 0;
    if (size < w->table_size)
        size = w->table_size;
    if (slots < w->slots)
        slots = w->slots;
    if (build < w->builds)
        build = w->builds;
    w->nqueries = dp->nquery + 1 > w->nqueries ? dp->nquery + 1
                                                : w->nqueries;
    w->lane_room = slots * dp->seq_max > w->lane_room
        ? slots * dp->seq_max : w->lane_room;
    free(w->block);
    w->block = block = malloc(size * sizeof *w->table
                              + slots * sizeof *w->parts
                              + w->nqueries * sizeof *w->counts
                              + build * sizeof *w->ranked + w->lane_room);
    if (!block) {
        memset(w, 0, sizeof *w);
        return -1;
    }
    w->table = (int64_t *)block;
    memset(w->table, 0, size * sizeof *w->table);
    w->parts = (dp_partial *)(w->table + size);
    w->counts = (int64_t *)(w->parts + slots);
    w->ranked = (int32_t *)(w->counts + w->nqueries);
    w->lanes = (uint8_t *)(w->ranked + build);
    w->table_size = size;
    w->slots = slots;
    w->builds = build;
    for (w->table_bits = 0; (int64_t)1 << w->table_bits < size;
         w->table_bits++)
        ;
    w->stamp = 0;
    return 0;
}

/* Whether slot a ranks before slot b: by cost, then the longer
 * derivation, then its lanes (keyword-string order) — get_top_optimal_rqs'
 * _rank_key. */
static int dp_before(const dp_work *w, int64_t seq_max, int64_t a, int64_t b)
{
    const dp_partial *pa = w->parts + a, *pb = w->parts + b;
    if (pa->cost != pb->cost)
        return pa->cost < pb->cost;
    if (pa->len != pb->len)
        return pa->len > pb->len;
    return memcmp(w->lanes + a * seq_max, w->lanes + b * seq_max,
                  (size_t)pa->len) < 0;
}

/* The best keep slots of [first, first + count), best first, in
 * w->ranked; the empty derivation only when with_empty.  Returns how
 * many. */
static int64_t dp_rank(dp_work *w, int64_t seq_max, int64_t first,
                       int64_t count, int64_t keep, int with_empty)
{
    int32_t *ranked = w->ranked;
    int64_t n = 0, s, p;
    for (s = first; s < first + count; s++) {
        if (!with_empty && !w->parts[s].len)
            continue;
        if (n == keep && !dp_before(w, seq_max, s, ranked[n - 1]))
            continue;
        p = n < keep ? n++ : keep - 1;
        for (; p > 0 && dp_before(w, seq_max, s, ranked[p - 1]); p--)
            ranked[p] = ranked[p - 1];
        ranked[p] = (int32_t)s;
    }
    return n;
}

/* Offer the derivation of slot src extended by add[0 .. nadd) (lanes;
 * add8 instead when not NULL) at cost to the cell being built at slots
 * [base, base + *count): a keyword set met again keeps its place and
 * takes the lower cost (at an equal cost, the earlier derivation). */
static void dp_admit(dp_work *w, int64_t seq_max, int64_t base,
                     int64_t *count, int64_t src, double cost, int is_float,
                     uint64_t mask, const int64_t *add, const uint8_t *add8,
                     int64_t nadd)
{
    uint64_t live = w->stamp << 32;
    int64_t size = w->table_size, h, slot, j;
    uint8_t *lanes;
    h = (int64_t)((mask * 0x9E3779B97F4A7C15ULL) >> (64 - w->table_bits));
    for (;; h = (h + 1) & (size - 1)) {
        uint64_t entry = (uint64_t)w->table[h];
        if ((entry & ~0xFFFFFFFFULL) != live) {
            slot = base + (*count)++;
            w->table[h] = (int64_t)(live | (uint64_t)(slot - base + 1));
            break;
        }
        slot = base + (int64_t)(entry & 0xFFFFFFFFULL) - 1;
        if (w->parts[slot].mask == mask) {
            if (!(cost < w->parts[slot].cost))
                return;
            break;
        }
    }
    w->parts[slot].cost = cost;
    w->parts[slot].mask = mask;
    w->parts[slot].len = w->parts[src].len + (int32_t)nadd;
    w->parts[slot].is_float = is_float;
    lanes = w->lanes + slot * seq_max;
    memcpy(lanes, w->lanes + src * seq_max, (size_t)w->parts[src].len);
    lanes += w->parts[src].len;
    for (j = 0; j < nadd; j++)
        lanes[j] = add8 ? add8[j] : (uint8_t)add[j];
}

/* get_top_optimal_rqs(query, present, rules, limit) on lane masks: the
 * refined queries are the slots w->ranked[0 .. return), best first; -1
 * when out of memory.  Every cell keeps its candidates in the order
 * they were first offered (keep, delete, then the rules in order) and
 * is cut to its 2 * limit best, in rank order, only when longer. */
static int64_t dp_run(dp_work *w, const struct repro_dp_rules *dp,
                      uint64_t present, int64_t limit)
{
    int64_t cell = 2 * limit, n = dp->nquery, seq_max = dp->seq_max;
    int64_t base = (n + 1) * cell, i, j, k;
    if (dp_reserve(w, dp, cell) < 0)
        return -1;
    w->parts[0].cost = 0;
    w->parts[0].mask = 0;
    w->parts[0].len = 0;
    w->parts[0].is_float = 0;
    w->counts[0] = 1;
    for (i = 1; i <= n; i++) {
        int64_t prev = (i - 1) * cell, count = 0, kept;
        uint8_t lane = (uint8_t)dp->query[i - 1];
        if (++w->stamp >> 31) {     /* stamps run out: clear the table */
            memset(w->table, 0, w->table_size * sizeof *w->table);
            w->stamp = 1;
        }
        /* Option 1: keep k_i when present. */
        if (present >> lane & 1)
            for (j = prev; j < prev + w->counts[i - 1]; j++)
                dp_admit(w, seq_max, base, &count, j, w->parts[j].cost,
                         w->parts[j].is_float,
                         w->parts[j].mask | (uint64_t)1 << lane, NULL,
                         &lane, 1);
        /* Option 2: delete k_i. */
        for (j = prev; j < prev + w->counts[i - 1]; j++)
            dp_admit(w, seq_max, base, &count, j,
                     w->parts[j].cost + dp->deletion,
                     w->parts[j].is_float | (int)dp->deletion_float,
                     w->parts[j].mask, NULL, NULL, 0);
        /* Option 3: a rule whose LHS ends at i, every RHS lane present. */
        for (k = dp->pos_off[i - 1]; k < dp->pos_off[i]; k++) {
            int64_t r = dp->pos_rule[k], from;
            uint64_t rhs_mask = (uint64_t)dp->rhs_mask[r];
            if (rhs_mask & ~present)
                continue;
            from = (i - dp->width[r]) * cell;
            for (j = from; j < from + w->counts[i - dp->width[r]]; j++)
                dp_admit(w, seq_max, base, &count, j,
                         w->parts[j].cost + dp->ds[r],
                         w->parts[j].is_float | (int)dp->ds_float[r],
                         w->parts[j].mask | rhs_mask,
                         dp->rhs + dp->rhs_off[r], NULL,
                         dp->rhs_off[r + 1] - dp->rhs_off[r]);
        }
        kept = count;
        if (count > cell)
            kept = dp_rank(w, seq_max, base, count, cell, 1);
        for (j = 0; j < kept; j++) {
            int64_t from = count > cell ? w->ranked[j] : base + j;
            int64_t to = i * cell + j;
            w->parts[to] = w->parts[from];
            memcpy(w->lanes + to * seq_max, w->lanes + from * seq_max,
                   (size_t)w->parts[from].len);
        }
        w->counts[i] = kept;
    }
    return dp_rank(w, seq_max, n * cell, w->counts[n], limit, 0);
}

/* Write slot s's refined query as entry e: its dissimilarity, keyword
 * set, whether the dissimilarity is a float, and its lanes — derivation
 * order, each once — at seq[*used ..), how[3e .. 3e + 2] = (lo, hi,
 * float). */
static void dp_emit(const dp_work *w, int64_t seq_max, int64_t s, int64_t e,
                    double *dis, int64_t *masks, int64_t *how, uint8_t *seq,
                    int64_t *used)
{
    const uint8_t *lanes = w->lanes + s * seq_max;
    uint64_t seen = 0;
    int32_t t;
    dis[e] = w->parts[s].cost;
    masks[e] = (int64_t)w->parts[s].mask;
    how[3 * e] = *used;
    for (t = 0; t < w->parts[s].len; t++)
        if (!(seen >> lanes[t] & 1)) {
            seen |= (uint64_t)1 << lanes[t];
            seq[(*used)++] = lanes[t];
        }
    how[3 * e + 1] = *used;
    how[3 * e + 2] = w->parts[s].is_float;
}

/* The Top-limit refined queries of the keywords present holds, best
 * first: entry e is dis[e], masks[e] and the lanes seq[how[3e] ..
 * how[3e + 1]) (how[3e + 2]: the dissimilarity is a float); seq holds
 * limit * dp->entry_lanes.  Returns how many, or -1 when out of
 * memory. */
int64_t repro_dp_top(const struct repro_dp_rules *dp, int64_t present,
                     int64_t limit, double *dis, int64_t *masks,
                     int64_t *how, uint8_t *seq)
{
    dp_work w = {0};
    int64_t count = dp_run(&w, dp, (uint64_t)present, limit), e, used = 0;
    for (e = 0; e < count; e++)
        dp_emit(&w, dp->seq_max, w.ranked[e], e, dis, masks, how, seq,
                &used);
    dp_free(&w);
    return count;
}

/* Short-list step 1's DP rows (kernels/scoring.py's MaskRows): row r is
 * presence mask masks[r] with its 1-beam probe minimum probe[r] and its
 * Top-2K beam entries [beam[2r], beam[2r + 1]) (-1: not known yet).
 * Entry e is beam_dis[e], beam_masks[e] and, for a row the kernel
 * computed, the lanes seq[beam_how[3e] .. beam_how[3e + 1]) and whether
 * the dissimilarity is a float, beam_how[3e + 2].  n[0 .. 2] count the
 * rows, entries and lanes in use, n[3 .. 5] the room for each. */
struct repro_rows {
    int64_t *masks;
    double *probe;
    int64_t *beam;
    double *beam_dis;
    int64_t *beam_masks;
    int64_t *beam_how;
    uint8_t *seq;
    int64_t *n;
};

/* mask's row, or n[0] when it has none; r is a guess. */
static int64_t find_row(const struct repro_rows *rows, int64_t mask,
                        int64_t r)
{
    int64_t nrows = rows->n[0];
    if (r < nrows && rows->masks[r] == mask)
        return r;
    for (r = 0; r < nrows && rows->masks[r] != mask; r++)
        ;
    return r;
}

/* repro_sle_round's state slots (kernels/scoring.py names them too). */
enum {
    S_POS, S_STEP, S_CAND, S_ANSWER, S_COUNT, S_PROBES, S_DP, S_SLCA,
    S_SKIPPED, S_VISITED, S_MASK, S_OWNED
};

/* Fill mask's row (r; r == n[0] when it has none) with its probe
 * minimum, or its beam of capacity entries when beam, from the DP over
 * dp.  Returns 0, 2 when the rows are not the caller's own
 * (state[S_OWNED]) or lack room, 5 when out of memory. */
static int64_t fill_row(struct repro_rows *rows, int64_t r, int64_t mask,
                        int beam, const struct repro_dp_rules *dp,
                        int64_t capacity, const int64_t *state, dp_work *w)
{
    int64_t *n = rows->n, count, e;
    if (!state[S_OWNED] || (r == n[0] && n[0] == n[3]))
        return 2;
    if (beam && (n[1] + capacity > n[4]
                 || n[2] + capacity * dp->entry_lanes > n[5]))
        return 2;
    count = dp_run(w, dp, (uint64_t)mask, beam ? capacity : 1);
    if (count < 0)
        return 5;
    if (r == n[0]) {
        rows->masks[r] = mask;
        rows->probe[r] = -1;
        rows->beam[2 * r] = rows->beam[2 * r + 1] = -1;
        n[0]++;
    }
    if (!beam) {
        rows->probe[r] = count ? w->parts[w->ranked[0]].cost : INFINITY;
        return 0;
    }
    rows->beam[2 * r] = n[1];
    for (e = 0; e < count; e++)
        dp_emit(w, dp->seq_max, w->ranked[e], n[1] + e, rows->beam_dis,
                rows->beam_masks, rows->beam_how, rows->seq, &n[2]);
    n[1] += count;
    rows->beam[2 * r + 1] = n[1];
    return 0;
}

/* Short-list step 1 over one anchor round, from partition state[S_POS]:
 * per unvisited partition (no lane of retired in its mask), the
 * presence-bound pre-screen, the Q-covering meaningful SLCA, the 1-beam
 * probe skip and the beam's Top-2K admission, with the ScanStats
 * counters in state[S_PROBES .. S_VISITED].
 *
 * The list is top_*[0 .. state[S_COUNT]), best first: a dissimilarity, a
 * lane mask (the key) and a beam ref, an entry of rows.  A candidate is
 * admitted when it is not the query (query_mask), is kept or would beat
 * the list's worst, and, when new, has a meaningful SLCA in the
 * partition.  A DP result rows lack is computed over the rule table dp
 * and added to them (fill_row) — when the rows are the caller's own
 * (state[S_OWNED]) and have room.
 *
 * Returns 0 when the round is done.  Else state[S_POS] is a partition and
 * state[S_STEP] / state[S_CAND] the point in it where the call stopped:
 * 1 Q's SLCA there has meaningful hits (none of the partition's counters
 * is applied); 2 a DP row is missing and the rows are not the caller's
 * own or are full: the caller makes them its own with room for one more
 * row of capacity entries; 3 (only when dp is NULL: the caller supplies
 * the DP) the probe minimum (state[S_STEP] 2) or beam (3) of mask
 * state[S_MASK] is missing; 4 an SLCA over the lanes of state[S_MASK]
 * computed a depth of 0, and the caller puts whether it has meaningful
 * hits in state[S_ANSWER]; 5 a work column could not be allocated.  For
 * 2-4 the next call resumes at that point. */
int64_t repro_sle_round(const int64_t *masks, const int64_t *spans,
                        int64_t npart, int64_t nlanes, int64_t retired,
                        int64_t per_partition, int64_t query_mask,
                        const int64_t *query_lanes, int64_t nquery,
                        const double *lane_cost,
                        const int64_t **flats, const int64_t **offs,
                        const void **tids, const int64_t *tid_widths,
                        const int64_t *need, struct repro_rows *rows,
                        const struct repro_dp_rules *dp, double *top_dis,
                        int64_t *top_masks, int64_t *top_refs,
                        int64_t capacity, int64_t *state)
{
    int64_t i = state[S_POS], step = state[S_STEP], n = state[S_COUNT];
    int64_t *work = 0, room = 0, status = 0, r = 0;
    int64_t lanes[64];
    dp_work w = {0};
    for (; i < npart; i++, step = 0) {
        int64_t mask = masks[i], anchor, kept, j, hi, p, at;
        const int64_t *row = spans + i * nlanes * 2;
        int covers, answered = 0;
        double worst;
        if (mask & retired)
            continue;
        covers = (mask & query_mask) == query_mask;
        worst = n == capacity ? top_dis[n - 1] : INFINITY;
        switch (step) {
        case 0:
            if (n == capacity && !covers
                    && presence_bound(lane_cost, nlanes, mask) > worst) {
                state[S_VISITED]++;
                state[S_SKIPPED]++;
                continue;
            }
            kept = 0;
            if (covers) {
                kept = row_slca(row, query_lanes, nquery, flats, offs, tids,
                                tid_widths, need, &work, &room, &anchor);
                if (kept < 0) {
                    status = kept == -1 ? 4 : 5;
                    state[S_MASK] = query_mask;
                    step = 1;
                    goto out;
                }
            }
            goto query_answered;
        case 1:
            kept = state[S_ANSWER];
        query_answered:
            if (kept) {
                status = 1;
                step = 0;
                goto out;
            }
            if (covers)
                state[S_SLCA]++;
            state[S_VISITED]++;
            state[S_PROBES] += per_partition;
            /* fall through */
        case 2:
            /* Full: the 1-beam probe skip.  (The presence bound cannot
             * skip here: a partition that holds all of Q has bound 0,
             * and any other passed the pre-screen's same test.) */
            if (n == capacity) {
                r = find_row(rows, mask, r);
                if (r == rows->n[0] || rows->probe[r] < 0) {
                    status = dp ? fill_row(rows, r, mask, 0, dp, capacity,
                                           state, &w)
                                : 3;
                    if (status) {
                        state[S_MASK] = mask;
                        step = 2;
                        goto out;
                    }
                }
                state[S_DP]++;
                if (rows->probe[r] > worst) {
                    state[S_SKIPPED]++;
                    continue;
                }
            }
            /* fall through */
        case 3:
            r = find_row(rows, mask, r);
            if (r == rows->n[0] || rows->beam[2 * r] < 0) {
                status = dp ? fill_row(rows, r, mask, 1, dp, capacity,
                                       state, &w)
                            : 3;
                if (status) {
                    state[S_MASK] = mask;
                    step = 3;
                    goto out;
                }
            }
            state[S_DP]++;
            j = rows->beam[2 * r];
            break;
        default:
            r = find_row(rows, mask, r);
            j = rows->beam[2 * r] + state[S_CAND];
            answered = 1;
        }
        for (hi = rows->beam[2 * r + 1]; j < hi; j++) {
            double dis = rows->beam_dis[j];
            int64_t key = rows->beam_masks[j];
            if (key == query_mask)
                continue;
            for (at = 0; at < n && top_masks[at] != key; at++)
                ;
            if (at == n) {
                if (n == capacity
                        && !order_less(dis, key, top_dis[n - 1],
                                       top_masks[n - 1]))
                    continue;
                if (answered) {
                    kept = state[S_ANSWER];
                    answered = 0;
                } else {
                    uint64_t bits = (uint64_t)key;
                    int64_t nsel = 0;
                    for (; bits; bits &= bits - 1)
                        lanes[nsel++] = __builtin_ctzll(bits);
                    kept = row_slca(row, lanes, nsel, flats, offs, tids,
                                    tid_widths, need, &work, &room, &anchor);
                    if (kept < 0) {
                        status = kept == -1 ? 4 : 5;
                        state[S_MASK] = key;
                        state[S_CAND] = j - rows->beam[2 * r];
                        step = 4;
                        goto out;
                    }
                }
                state[S_SLCA]++;
                if (!kept)
                    continue;
                if (n == capacity)
                    n--;                    /* evict the worst */
            } else {
                if (!(dis < top_dis[at]))
                    continue;
                for (p = at; p + 1 < n; p++) {  /* re-insert: remove */
                    top_dis[p] = top_dis[p + 1];
                    top_masks[p] = top_masks[p + 1];
                    top_refs[p] = top_refs[p + 1];
                }
                n--;
            }
            for (p = n; p > 0
                    && order_less(dis, key, top_dis[p - 1], top_masks[p - 1]);
                 p--) {
                top_dis[p] = top_dis[p - 1];
                top_masks[p] = top_masks[p - 1];
                top_refs[p] = top_refs[p - 1];
            }
            top_dis[p] = dis;
            top_masks[p] = key;
            top_refs[p] = j;
            n++;
        }
    }
out:
    free(work);
    dp_free(&w);
    state[S_POS] = i;
    state[S_STEP] = step;
    state[S_COUNT] = n;
    return status;
}

/* Short-list step 1 once Q has an answer: every unvisited partition of
 * round r = state[0] from partition state[1] on, then of every later
 * round.  Round r's masks and spans are masks[r] / spans[r] (as
 * repro_partition_presence lays them out over nlanes lanes) and
 * rounds[3r .. 3r + 2] its (partition count, anchor lane, probes per
 * partition); the anchor's lane joins the retired lanes (state[2]) when
 * its round ends.  A partition that does not hold all of Q is skipped.
 * One that does gets its partition-local SLCA over Q's lanes
 * query_lanes[0 .. nquery) (row_slca; the key columns and type ids are
 * per lane), whose meaningful hits are written as (lane, position,
 * depth) at hits[3 * state[3]].
 *
 * state[4..7] accumulate slca_invocations, probes, partitions_skipped
 * and partitions_visited.  Returns 0 when every round is done.  Else
 * state[0..1] name a partition none of whose counters is applied yet:
 * 1 when its kept hits do not fit in capacity (state[8] is the capacity
 * that would hold them), 2 when it computed a depth of 0 (labels of
 * different documents: the caller re-runs it on the per-node path),
 * 3 when the depth column could not be allocated. */
int64_t repro_sle_direct(const int64_t **masks, const int64_t **spans,
                         const int64_t *rounds, int64_t nrounds,
                         int64_t nlanes, int64_t query_mask,
                         const int64_t *query_lanes, int64_t nquery,
                         const int64_t **flats, const int64_t **offs,
                         const void **tids, const int64_t *tid_widths,
                         const int64_t *need, int64_t *state,
                         int64_t *hits, int64_t capacity)
{
    int64_t r = state[0], i = state[1], retired = state[2], n = state[3];
    int64_t *work = 0, room = 0, status = 0;
    for (; r < nrounds; r++, i = 0) {
        const int64_t *round_masks = masks[r];
        int64_t npart = rounds[3 * r];
        for (; i < npart; i++) {
            const int64_t *row = spans[r] + i * nlanes * 2;
            int64_t mask = round_masks[i], anchor = 0, kept, count, j;
            if (mask & retired)
                continue;
            if ((mask & query_mask) != query_mask) {
                state[6]++;
                state[7]++;
                continue;
            }
            kept = row_slca(row, query_lanes, nquery, flats, offs, tids,
                            tid_widths, need, &work, &room, &anchor);
            if (kept < 0) {
                status = kept == -1 ? 2 : 3;
                goto out;
            }
            if (n + kept > capacity) {
                state[8] = n + kept;
                status = 1;
                goto out;
            }
            count = row[2 * anchor + 1] - row[2 * anchor];
            for (j = 0; j < kept; j++, n++) {
                hits[3 * n] = anchor;
                hits[3 * n + 1] = row[2 * anchor] + work[count + j];
                hits[3 * n + 2] = work[j];
            }
            state[4]++;
            state[5] += rounds[3 * r + 2];
            state[7]++;
        }
        retired |= (int64_t)((uint64_t)1 << rounds[3 * r + 1]);
    }
out:
    free(work);
    state[0] = r;
    state[1] = i;
    state[2] = retired;
    state[3] = n;
    return status;
}
/* ---- The posting payload codec (layout: repro/index/blocks.py) ---- */

/* One LEB128 uvarint from p[*pos], reading nothing at or past end.
 * Returns 1 when the bytes run out or the varint is longer than ten
 * bytes (the limits of the Python reader), else 0 with the value in
 * *value, or 2 with *value = INT64_MAX when the value does not fit an
 * int64_t. */
static int get_uvarint(const uint8_t *p, int64_t end, int64_t *pos,
                       int64_t *value)
{
    uint64_t result = 0;
    int shift = 0, big = 0;
    int64_t i = *pos;
    for (;;) {
        uint64_t part;
        uint8_t byte;
        if (i >= end)
            return 1;
        byte = p[i++];
        part = byte & 0x7F;
        if (shift >= 57 && (part >> (63 - shift)))
            big = 1;
        else
            result |= part << shift;
        if (!(byte & 0x80))
            break;
        shift += 7;
        if (shift > 63)
            return 1;
    }
    *pos = i;
    *value = big ? INT64_MAX : (int64_t)result;
    return big ? 2 : 0;
}

/* Decode the nbytes-long body of a posting payload holding count
 * postings, whose CRC the caller has checked, into the arrays the
 * kernels read: key i is flat[offs[i] .. offs[i + 1]), its type id
 * tids[i] (tid_width bytes each) and its occurrence count counts[i];
 * partition j (the run of keys sharing the first two components
 * (pid_flat[2j], pid_flat[2j + 1])) is the posting range
 * [starts[j], ends[j]).  The caller sizes offs for count + 1 entries
 * and the other per-posting arrays for count; flat holds flat_cap
 * components.
 *
 * Returns 0 with info[0..2] = (components, partitions, root postings),
 * or the first fault met: 1 the body runs out mid-posting, 2 a posting
 * shares more components than its predecessor has, 3 a key that does
 * not sort after its predecessor, 4 a type id past ntypes, 5 bytes past
 * the postings, 7 a component or count past INT64_MAX.  Returns 8 when
 * flat is too small: info[0] then estimates the size needed. */
int64_t repro_decode_payload(const uint8_t *p, int64_t nbytes,
                             int64_t count, int64_t ntypes, int64_t tid_width,
                             int64_t *flat, int64_t flat_cap, int64_t *offs,
                             void *tids, int64_t *counts, int64_t *pid_flat,
                             int64_t *starts, int64_t *ends, int64_t *info)
{
    int64_t i, j, pos = 0, fpos = 0, npart = 0, roots = 0;
    offs[0] = 0;
    for (i = 0; i < count; i++) {
        int64_t shared, suffix, prev_len, tid, occurrences, klen;
        const int64_t *key;
        int rc;
        if (get_uvarint(p, nbytes, &pos, &shared) == 1)
            return 1;
        prev_len = i ? offs[i] - offs[i - 1] : 0;
        if (shared > prev_len)
            return 2;
        if (get_uvarint(p, nbytes, &pos, &suffix) == 1)
            return 1;
        if (fpos + shared > flat_cap)
            goto short_flat;
        for (j = 0; j < shared; j++)
            flat[fpos + j] = flat[offs[i - 1] + j];
        fpos += shared;
        for (j = 0; j < suffix; j++) {
            int64_t part;
            rc = get_uvarint(p, nbytes, &pos, &part);
            if (rc)
                return rc == 1 ? 1 : 7;
            if (fpos >= flat_cap)
                goto short_flat;
            flat[fpos++] = part;
        }
        key = flat + offs[i];
        klen = fpos - offs[i];
        if (i ? key_cmp(key, klen, flat + offs[i - 1], prev_len) <= 0
              : klen == 0)
            return 3;
        if (get_uvarint(p, nbytes, &pos, &tid) == 1)
            return 1;
        if (tid >= ntypes)
            return 4;
        rc = get_uvarint(p, nbytes, &pos, &occurrences);
        if (rc)
            return rc == 1 ? 1 : 7;
        if (tid_width == 2)
            ((uint16_t *)tids)[i] = (uint16_t)tid;
        else
            ((uint32_t *)tids)[i] = (uint32_t)tid;
        counts[i] = occurrences;
        offs[i + 1] = fpos;
        if (klen < 2) {
            roots++;
        } else if (npart && pid_flat[2 * npart - 2] == key[0]
                   && pid_flat[2 * npart - 1] == key[1]) {
            ends[npart - 1] = i + 1;
        } else {
            pid_flat[2 * npart] = key[0];
            pid_flat[2 * npart + 1] = key[1];
            starts[npart] = i;
            ends[npart] = i + 1;
            npart++;
        }
    }
    if (pos != nbytes)
        return 5;
    info[0] = fpos;
    info[1] = npart;
    info[2] = roots;
    return 0;
short_flat:
    /* Extrapolate from the keys decoded so far, with room to spare. */
    info[0] = (fpos + 16) * (count + 1) / (i + 1) * 2;
    return 8;
}

static int64_t uvarint_size(uint64_t value)
{
    int64_t size = 1;
    while (value >= 0x80) {
        value >>= 7;
        size++;
    }
    return size;
}

static int64_t put_uvarint(uint8_t *out, int64_t pos, uint64_t value)
{
    while (value >= 0x80) {
        out[pos++] = (uint8_t)(value | 0x80);
        value >>= 7;
    }
    out[pos++] = (uint8_t)value;
    return pos;
}

/* The payload of count postings (key i is flat[offs[i] .. offs[i + 1]),
 * with type id tids[i] and count counts[i]), byte for byte what the
 * Python encoder writes, except that the CRC-32 after the count is left
 * as four zero bytes for the caller to fill in.  Returns the payload's
 * length, written only when it fits in cap; or -1 - i when posting i
 * breaks document order or holds a negative value. */
int64_t repro_encode_run(const int64_t *flat, const int64_t *offs,
                         const int64_t *tids, const int64_t *counts,
                         int64_t count, uint8_t *out, int64_t cap)
{
    int64_t size, pos, i, j;
    /* Pass 1: check every posting and size the payload. */
    size = uvarint_size((uint64_t)count) + 4;
    for (i = 0; i < count; i++) {
        const int64_t *key = flat + offs[i];
        int64_t klen = offs[i + 1] - offs[i], shared = 0;
        if (i) {
            const int64_t *prev = flat + offs[i - 1];
            int64_t plen = offs[i] - offs[i - 1];
            if (key_cmp(key, klen, prev, plen) <= 0)
                return -1 - i;
            shared = key_lcp(key, klen, prev, plen);
        } else if (klen == 0) {
            return -1 - i;
        }
        if (tids[i] < 0 || counts[i] < 0)
            return -1 - i;
        for (j = 0; j < klen; j++)
            if (key[j] < 0)
                return -1 - i;
        size += uvarint_size((uint64_t)shared)
            + uvarint_size((uint64_t)(klen - shared))
            + uvarint_size((uint64_t)tids[i])
            + uvarint_size((uint64_t)counts[i]);
        for (j = shared; j < klen; j++)
            size += uvarint_size((uint64_t)key[j]);
    }
    if (size > cap)
        return size;
    /* Pass 2: the count, the CRC's place, then the postings. */
    pos = put_uvarint(out, 0, (uint64_t)count);
    for (j = 0; j < 4; j++)
        out[pos++] = 0;
    for (i = 0; i < count; i++) {
        const int64_t *key = flat + offs[i];
        int64_t klen = offs[i + 1] - offs[i], shared = 0;
        if (i)
            shared = key_lcp(key, klen, flat + offs[i - 1],
                             offs[i] - offs[i - 1]);
        pos = put_uvarint(out, pos, (uint64_t)shared);
        pos = put_uvarint(out, pos, (uint64_t)(klen - shared));
        for (j = shared; j < klen; j++)
            pos = put_uvarint(out, pos, (uint64_t)key[j]);
        pos = put_uvarint(out, pos, (uint64_t)tids[i]);
        pos = put_uvarint(out, pos, (uint64_t)counts[i]);
    }
    return pos;
}

/* f_{ki,kj}^T: the distinct depth-component key prefixes that a posting
 * of list a and a posting of list b share, counting only postings whose
 * type id t has under[t] set (the node lies under a T-typed ancestor,
 * T being depth components deep, so the prefix is that ancestor's key).
 * Both lists are in document order, so their prefixes never decrease:
 * one forward pass over the two, each common prefix counted once. */
int64_t repro_common_ancestors(const int64_t *a_flat, const int64_t *a_offs,
                               const void *a_tids, int64_t a_width,
                               int64_t a_count,
                               const int64_t *b_flat, const int64_t *b_offs,
                               const void *b_tids, int64_t b_width,
                               int64_t b_count,
                               const char *under, int64_t depth)
{
    int64_t i = 0, j = 0, count = 0;
    const int64_t *last = NULL;
    for (;;) {
        const int64_t *a_key, *b_key;
        int cmp;
        while (i < a_count && !under[type_id_at(a_tids, a_width, i)])
            i++;
        while (j < b_count && !under[type_id_at(b_tids, b_width, j)])
            j++;
        if (i >= a_count || j >= b_count)
            return count;
        a_key = a_flat + a_offs[i];
        b_key = b_flat + b_offs[j];
        cmp = key_cmp(a_key, depth, b_key, depth);
        if (cmp < 0) {
            i++;
        } else if (cmp > 0) {
            j++;
        } else {
            if (!last || key_cmp(last, depth, a_key, depth) != 0) {
                count++;
                last = a_key;
            }
            i++;
            j++;
        }
    }
}
"""


def _build_library():
    """Compile and dlopen the C kernels; None (and a WARNING) on failure."""
    if os.environ.get(NO_COMPILED_ENV, "").strip() not in ("", "0"):
        return None
    try:
        from cffi import FFI
    except Exception:
        return None
    digest = hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{digest}"
    )
    library = os.path.join(cache_dir, "libreprokernels.so")
    try:
        if not os.path.exists(library):
            os.makedirs(cache_dir, exist_ok=True)
            source = os.path.join(cache_dir, "kernels.c")
            with open(source, "w", encoding="utf-8") as handle:
                handle.write(_C_SOURCE)
            compiler = os.environ.get("CC", "cc")
            column = library + f".tmp{os.getpid()}"
            subprocess.run(
                [compiler, "-O3", "-shared", "-fPIC", source,
                 "-o", column],
                check=True,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=120,
            )
            os.replace(column, library)  # atomic vs concurrent builders
        ffi = FFI()
        ffi.cdef(_CDEF)
        handle = ffi.dlopen(library)
        # ABI mode resolves symbols on first use; resolve them all now,
        # so a library that lacks an entry point (a stale or truncated
        # build) fails here, not on a query thread.
        for name in _ENTRY_POINTS:
            getattr(handle, name)
        return _CompiledKernels(ffi, handle)
    except Exception as exc:
        logger.warning(
            "compiled scan kernels unavailable, serving with the "
            "pure-Python backend: %r", exc,
        )
        return None


class _CompiledKernels:
    """Thin handle pairing the dlopened library with its FFI."""

    __slots__ = ("ffi", "lib")

    def __init__(self, ffi, lib):
        self.ffi = ffi
        self.lib = lib

    def i64(self, buffer):
        """Borrow a Python buffer as ``const int64_t *`` (zero copy)."""
        return self.ffi.from_buffer("int64_t[]", buffer)


def column_handles(lib, column):
    """Cached ``(flat, offs)`` C pointers for a column's key arrays.

    ``ffi.from_buffer`` casts are cheap but not free, and the hot path
    re-casts the same immutable arrays thousands of times per run; the
    cast pair is memoized on the column itself (``_c``), keyed by the
    backend handle so a monkeypatched backend never sees stale
    pointers.  The cdata objects pin the underlying buffers, which the
    column owns anyway.
    """
    cached = column._c
    if cached is not None and cached[0] is lib:
        return cached[1], cached[2]
    flat, offs = column.flat_offs()
    handles = (lib, lib.i64(flat), lib.i64(offs))
    column._c = handles
    return handles[1], handles[2]


#: cffi element type of a type-id column, by its ``array`` item size.
_TYPE_ID_CTYPES = {2: "uint16_t[]", 4: "uint32_t[]"}


def type_id_handle(lib, column):
    """Cached ``(pointer, width)`` of a column's type-id column.

    The column is read in its own typecode (``H``, or ``I`` past 65,536
    types) — ``width`` is its item size — so no widened copy is made.
    Memoized beside the key pointers of :func:`column_handles`.
    """
    column_handles(lib, column)
    cached = column._c
    if len(cached) == 3:
        tids = column.tids
        cached += (
            lib.ffi.from_buffer(_TYPE_ID_CTYPES[tids.itemsize], tids),
            tids.itemsize,
        )
        column._c = cached
    return cached[3], cached[4]


def pid_handles(lib, column):
    """Cached ``(pid_flat, starts, ends)`` C pointers for a column's
    partition table, memoized on the column (``_pc``) like
    :func:`column_handles`."""
    cached = column._pc
    if cached is None or cached[0] is not lib:
        cached = column._pc = (lib, lib.i64(column.pid_flat),
                               lib.i64(column.starts), lib.i64(column.ends))
    return cached[1:]


#: The active compiled backend, or None for pure Python.  Selected once
#: at import; tests may monkeypatch to force the fallback in-process.
compiled = _build_library()


def backend_name():
    """``"compiled-cc"`` or ``"pure-python"`` — for benches and CLI."""
    return "compiled-cc" if compiled is not None else "pure-python"
