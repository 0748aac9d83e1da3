"""Distributed SQL-window-function equivalents over partitioned logs.

The reference has none of these (its xarray model is whole-array in one
process); a data engine replacing it at 100 TB needs them.  No operator
here takes the naive ``groupby(key)`` whole-history-in-one-task shape.

The ordered family — lag/lead, running and rolling sums, rolling
quantiles and extrema, EWMA and decay scores, sessions, CUSUM, counters,
time-weighted averages, interval unions — runs on one shape,
:func:`~tsdat_ray.stages.carry.window_scan`: ``time_windows`` tags every
row with its (key, time-window) salt, one shuffle runs the operator's
local kernel per (key, window) with rows ordered by ``ts_order``, a tiny
per-key fold of the window summaries gives each window its carry, and a
final map combines the two.  Each operator holds only that math.  The
one-phase window aggregates (``grouped_string_agg``, ``grouped_max_gap``,
``transition_counts``, ...) use the same ``window_groups`` shuffle.

The rank family (``grouped_rank``, ``grouped_dense_rank``,
``grouped_cume_dist``) salts by value bucket instead: rank within (key,
value-bucket) plus an offset from the tiny per-bucket count table —
skew-safe for low-cardinality keys.  ``grouped_topk`` keeps a per-batch
top-k before one small groupby; ``semi_anti_join`` broadcasts a
tree-reduced key set; ``exact_median_quantized`` and the quantile
operators reduce bounded histograms (no sort, no shuffle).

Choosing ``window_s``: the (key, time-window) salt exists to spread a hot or
LOW-cardinality key over many tasks.  For HIGH-cardinality keys (user ids)
the key alone already spreads the shuffle, and narrow windows instead
multiply Ray's per-group overhead (~100 µs per map_groups group: 1M one-row
groups ≈ 100 s).  Pick window width ∝ key cardinality — measured 280 s →
14 s on ``session_ids`` at 1M rows going from 6 h to 16 d windows, with
bit-identical output (every oracled operator here is exact at any window
width; EWMA agrees to round-off).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .carry import (
    US,
    attach_carry,
    carry_heads,
    column,
    exclusive_prefix_within_segments,
    float_column,
    fold_carry,
    inclusive_prefix_within_segments,
    running_max_before_within_segments,
    segment_totals,
    shift_back_within_segments,
    shift_within_segments,
    tail_buffer_within_segments,
    time_windows,
    ts_order,
    window_groups,
    window_scan,
    with_columns,
)
from .reduce import keyed_fold
from .text_quant import half_away


def partitioned_lag(ds, key: str, ts_col: str, value_col: str, id_col: str,
                    window_s: int = 6 * 3600):
    """LAG(value) over (key ORDER BY ts, id): :func:`partitioned_lag_k` at
    k = 1, output column ``{value_col}_lag``."""
    return partitioned_lag_k(ds, key, ts_col, value_col, id_col, offset_k=1,
                             window_s=window_s)


def partitioned_cumsum(ds, key: str, ts_col: str, value_col: str,
                       id_col: str | None = None, window_s: int = 6 * 3600,
                       value_scale: int | None = None):
    """Running SUM over (key ORDER BY ts, id) — the distributed prefix sum:
    in-window prefix sums, and each window's offset is the exclusive prefix
    of the earlier windows' totals.  Additions follow the global (ts, id)
    order, so with ``value_scale`` (exact int accumulation) the result is
    bit-equal to the sequential scan."""

    def local_scan(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        x = float_column(g, value_col)
        if value_scale:
            x = np.round(x * value_scale).astype(np.int64)
        cs = np.cumsum(x[order])
        out_cs = np.empty(len(x), dtype=cs.dtype)
        out_cs[order] = cs
        out = {c: g[c] for c in g.column_names}
        out["_lcs"] = pa.array(out_cs)
        total = cs[-1] if len(cs) else (np.int64(0) if value_scale else 0.0)
        out["_wtotal"] = pa.array(np.repeat(total, len(x)))
        return pa.table(out)

    def fold(starts, windows, cols):
        return {"_off": exclusive_prefix_within_segments(cols["_wtotal"],
                                                         starts)}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, local_scan,
                        ["_wtotal"], fold)

    def add_offset(b: pa.Table) -> pa.Table:
        total = column(b, "_lcs") + column(b, "_off")
        if value_scale:
            total = total / float(value_scale)
        return with_columns(b, ("_window", "_lcs", "_wtotal", "_off"),
                            {f"{value_col}_cumsum": pa.array(total.astype(np.float64))})

    return withc.map_batches(add_offset, batch_format="pyarrow")


def partitioned_lead(ds, key: str, ts_col: str, value_col: str,
                     id_col: str | None = None, window_s: int = 6 * 3600):
    """LEAD(value, 1) over (key ORDER BY ts, id): in-window leads; a
    window's last row takes the first value of the key's next non-empty
    window (reverse segment shift)."""

    def per_window(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        x = float_column(g, value_col)
        lead = np.full(len(x), np.nan)
        if len(order) > 1:
            lead[order[:-1]] = x[order[1:]]
        last = np.zeros(len(x), dtype=bool)
        if len(order):
            last[order[-1]] = True
        out = {c: g[c] for c in g.column_names}
        out[f"{value_col}_lead"] = pa.array(lead)
        out["_last"] = pa.array(last)
        out["_first_val"] = pa.array(np.repeat(x[order[0]] if len(order) else np.nan, len(x)))
        return pa.table(out)

    def fold(starts, windows, cols):
        return {"_carry": shift_back_within_segments(cols["_first_val"],
                                                     starts, np.nan)}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, per_window,
                        ["_first_val"], fold)

    def fill(b: pa.Table) -> pa.Table:
        last = column(b, "_last")
        lead = column(b, f"{value_col}_lead").copy()
        lead[last] = column(b, "_carry")[last]
        return with_columns(b, ("_window", "_last", "_first_val", "_carry",
                                f"{value_col}_lead"),
                            {f"{value_col}_lead": pa.array(lead)})

    return withc.map_batches(fill, batch_format="pyarrow")


def _key_counts_ds(ds, key: str):
    """Per-key row counts as a DISTRIBUTED Dataset (key, _n): per-block
    bincount partials, one keyed fold, vectorized segment sums — never
    folded on the driver (bounded by distinct keys per task, not total)."""

    def local_counts(b: pa.Table) -> pa.Table:
        d = b[key].combine_chunks().dictionary_encode()
        c = np.bincount(d.indices.to_numpy(zero_copy_only=False),
                        minlength=len(d.dictionary))
        return pa.table({key: d.dictionary, "_n": pa.array(c.astype(np.int64))})

    def fold_part(g: pa.Table) -> pa.Table:
        k = g[key].to_numpy(zero_copy_only=False)
        n = g["_n"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        ks, ns = k[order], n[order]
        st = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) \
            if len(ks) else np.zeros(0, np.int64)
        return pa.table({key: pa.array(ks[st] if len(st) else ks[:0]),
                         "_n": pa.array(np.add.reduceat(ns, st) if len(st)
                                        else ns[:0])})

    return keyed_fold(ds.select_columns([key])
                      .map_batches(local_counts, batch_format="pyarrow"), key,
                      fold_part)


def grouped_ntile(ds, key: str, value_col: str, id_col: str, n_tiles: int,
                  descending: bool = True, n_buckets: int = 64):
    """NTILE(n_tiles) OVER (PARTITION BY key ORDER BY value [DESC], id) —
    SQL semantics: the first ``n mod t`` tiles get ``n // t + 1`` rows, the
    rest ``n // t``.  Pure integer arithmetic on the skew-safe rank plus the
    distributed per-key counts (:func:`_key_counts_ds`, attached
    budget-gated) — bit-deterministic."""
    t = int(n_tiles)
    ranked = grouped_rank(ds, key=key, value_col=value_col, id_col=id_col,
                          descending=descending, n_buckets=n_buckets)
    withn = attach_carry(ranked, _key_counts_ds(ds, key), key, None)

    def tile(b: pa.Table) -> pa.Table:
        r = b["rnk"].combine_chunks().to_numpy(zero_copy_only=False) - 1
        n = b["_n"].combine_chunks().to_numpy(zero_copy_only=False)
        q, rem = n // t, n % t
        big = (q + 1) * rem  # rows covered by the larger tiles
        nt = np.where(r < big, r // np.maximum(q + 1, 1) + 1,
                      rem + (r - big) // np.maximum(q, 1) + 1)
        out = {c: b[c] for c in b.column_names if c != "_n"}
        out["ntile"] = pa.array(nt.astype(np.int64))
        return pa.table(out)

    return withn.map_batches(tile, batch_format="pyarrow")


def grouped_percent_rank(ds, key: str, value_col: str, id_col: str,
                         descending: bool = True, n_buckets: int = 64):
    """PERCENT_RANK() OVER (PARTITION BY key ORDER BY value [DESC], id) =
    (rank - 1) / (n_key - 1): ranks from the skew-safe :func:`grouped_rank`,
    per-key counts from the distributed :func:`_key_counts_ds` (attached
    budget-gated).  With a unique id tiebreak the ORDER BY is total, so
    rank == row_number and the division is the identical IEEE op on both
    engine and SQL sides."""
    ranked = grouped_rank(ds, key=key, value_col=value_col, id_col=id_col,
                          descending=descending, n_buckets=n_buckets)
    withn = attach_carry(ranked, _key_counts_ds(ds, key), key, None)

    def pct(b: pa.Table) -> pa.Table:
        r = b["rnk"].combine_chunks().to_numpy(zero_copy_only=False)
        n = b["_n"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64)
        p = np.where(n > 1, (r - 1) / (n - 1), 0.0)
        out = {c: b[c] for c in b.column_names if c != "_n"}
        out["pct_rank"] = pa.array(p)
        return pa.table(out)

    return withn.map_batches(pct, batch_format="pyarrow")


def time_range_rolling_sum(ds, key: str, ts_col: str, value_col: str,
                           id_col: str, range_s: int = 3600,
                           window_s: int = 6 * 3600,
                           value_scale: int = 100):
    """SUM / COUNT over the trailing TIME range — SQL ``RANGE BETWEEN
    range_s PRECEDING AND CURRENT ROW`` over ``ORDER BY ts`` per key
    (peers with equal ts are always included, per RANGE semantics).

    Scale shape — boundary REPLICATION instead of a driver carry: each row
    belongs to its home (key, time-window) group, and rows in the last
    ``range_s`` of a window are ALSO emitted into the next window as
    helper rows (flagged, never producing output).  Every group then has
    all rows its outputs can reach, so one (key, window) shuffle + a local
    prefix-sum/searchsorted computes every frame — no driver-side state at
    all, and the duplication factor is bounded by range_s/window_s.
    Accumulation is int64 ``round(v·scale)`` — exact and hash-equal to the
    SQL twin.  Requires ``range_s <= window_s``."""
    if range_s > window_s:
        raise ValueError("range_s must be <= window_s (one-window lookback)")

    win_us = window_s * US
    rng_us = range_s * US

    def replicate(b: pa.Table) -> pa.Table:
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        w = (ts // win_us) * win_us
        home = b.append_column("_window", pa.array(w)).append_column(
            "_helper", pa.array(np.zeros(len(ts), dtype=np.int8)))
        near_end = ts >= (w + win_us - rng_us)
        if near_end.any():
            mask = pa.array(near_end)
            extra = b.filter(mask).append_column(
                "_window", pa.array(w[near_end] + win_us)).append_column(
                "_helper", pa.array(np.ones(int(near_end.sum()), dtype=np.int8)))
            return pa.concat_tables([home, extra])
        return home

    def per_window(g: pa.Table) -> pa.Table:
        ts, order = ts_order(g, ts_col, id_col)
        helper = column(g, "_helper")
        vq = np.round(float_column(g, value_col) * value_scale).astype(np.int64)
        ts_s, vq_s = ts[order], vq[order]
        cs = np.r_[np.int64(0), np.cumsum(vq_s)]
        keep = np.flatnonzero(helper == 0)
        tk = ts[keep]
        lo = np.searchsorted(ts_s, tk - rng_us, side="left")
        hi = np.searchsorted(ts_s, tk, side="right")
        s = cs[hi] - cs[lo]
        cnt = hi - lo
        out = {c: g[c].take(pa.array(keep, type=pa.int64()))
               for c in g.column_names if c not in ("_window", "_helper")}
        out[f"{value_col}_trsum"] = pa.array(s.astype(np.float64)
                                             / float(value_scale))
        out[f"{value_col}_trcnt"] = pa.array(cnt.astype(np.int64))
        return pa.table(out)

    return window_groups(ds.map_batches(replicate, batch_format="pyarrow"),
                         key, per_window)


def grouped_string_agg(ds, key: str, ts_col: str, id_col: str,
                       val_col: str | None = None, sep: str = ",",
                       window_s: int = 86400):
    """SQL ``string_agg(val, sep ORDER BY ts, id)`` per (key, time window)
    — ordered concatenation, e.g. the per-day event-id trail per key.

    One (key, window) shuffle; each group sorts by (ts, id) and joins with
    Arrow's ``binary_join`` (no Python string loop).  Output is one row per
    (key, window) — windowing keeps each aggregate bounded by a day's
    volume, the only scale-sane contract for an unbounded-output aggregate
    (a per-key global concat would funnel whole keys into single strings).

    Returns (key, bucket_ts, agg, n)."""
    vcol = val_col or id_col

    def agg(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        vals = g[vcol].take(pa.array(order, type=pa.int64())).combine_chunks()
        if not pa.types.is_string(vals.type):
            vals = vals.cast(pa.string())
        lst = pa.ListArray.from_arrays(
            pa.array([0, len(vals)], type=pa.int32()), vals)
        joined = pc.binary_join(lst, sep)
        return pa.table({
            key: g[key].slice(0, 1),
            "bucket_ts": pa.array(
                np.array([g["_window"][0].as_py()]).astype("datetime64[us]")),
            "agg": joined,
            "n": pa.array([g.num_rows], type=pa.int64()),
        })

    return window_groups(time_windows(ds, ts_col, window_s), key, agg)


def lookahead_count(left, right, key: str, ts_col: str, id_col: str,
                    range_s: int = 3600, window_s: int = 6 * 3600):
    """Funnel / conversion counting: for every LEFT row, the number of RIGHT
    rows with the same key whose ts lies in the strict-future window
    ``(ts, ts + range_s]`` — e.g. purchases following each click.

    Same boundary-replication shape as :func:`time_range_rolling_sum`, but
    across two event streams and looking FORWARD: both sides shuffle by
    (key, time-window); right rows in the first ``range_s`` of a window are
    also emitted into the PREVIOUS window, so every left row sees all right
    rows it can reach.  One sorted searchsorted pair per group — no driver
    state, exact integer counts.  Requires ``range_s <= window_s``.

    Returns the left rows + ``n_ahead``."""
    if range_s > window_s:
        raise ValueError("range_s must be <= window_s (one-window lookahead)")

    win_us = window_s * US
    rng_us = range_s * US

    def tag(side: int):
        def f(b: pa.Table) -> pa.Table:
            ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
            w = (ts // win_us) * win_us
            t = pa.table({
                key: b[key], "_ts": pa.array(ts),
                id_col: (b[id_col] if side == 0
                         else pa.array(np.zeros(len(ts), dtype=np.int64))),
                "_side": pa.array(np.full(len(ts), side, dtype=np.int8)),
                "_window": pa.array(w),
            })
            if side == 1:
                near_start = (ts - w) < rng_us
                if near_start.any():
                    extra = t.filter(pa.array(near_start))
                    idx = extra.schema.get_field_index("_window")
                    extra = extra.set_column(idx, "_window",
                                             pa.array(w[near_start] - win_us))
                    return pa.concat_tables([t, extra])
            return t
        return f

    both = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow"))

    def per_window(g: pa.Table) -> pa.Table:
        side = g["_side"].combine_chunks().to_numpy(zero_copy_only=False)
        ts = g["_ts"].combine_chunks().to_numpy(zero_copy_only=False)
        lmask = side == 0
        lts = ts[lmask]
        rts = np.sort(ts[~lmask])
        lo = np.searchsorted(rts, lts, side="right")
        hi = np.searchsorted(rts, lts + rng_us, side="right")
        keep = np.flatnonzero(lmask)
        return pa.table({
            key: g[key].take(pa.array(keep, type=pa.int64())),
            id_col: g[id_col].take(pa.array(keep, type=pa.int64())),
            "n_ahead": pa.array((hi - lo).astype(np.int64)),
        })

    return window_groups(both, key, per_window)


def grouped_cume_dist(ds, key: str, value_col: str, n_buckets: int = 64):
    """CUME_DIST() OVER (PARTITION BY key ORDER BY value) — the empirical
    CDF with SQL peer semantics: rows tied on ``value`` share the count of
    the LAST peer.  Skew-safe like :func:`grouped_rank`: rows shuffle by
    (key, value-quantile bucket) so ties always co-locate; the global
    position of a row = rows in strictly lower buckets (distributed segment
    fold, :mod:`.carry`) + last-peer position within its bucket; cume_dist =
    position / n — one int division per row, the identical IEEE op SQL
    performs."""
    sample = ds.limit(100_000).select_columns([value_col]).take_all()
    vs = np.array([r[value_col] for r in sample], dtype=np.float64)
    qs = np.quantile(vs, np.linspace(0, 1, n_buckets + 1)[1:-1]) if len(vs) else []
    edges = np.unique(qs)

    def add_bucket(b: pa.Table) -> pa.Table:
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        bkt = np.searchsorted(edges, v, side="left").astype(np.int64)
        return b.append_column("_vb", pa.array(bkt))

    # phase 1 here is a MAP (no shuffle): both consumers just re-execute
    # the lazy read+bucket pipeline — two streaming scans of the pruned
    # input beat a disk checkpoint AND hold no object-store pin (r4)
    withb = ds.map_batches(add_bucket, batch_format="pyarrow")
    cnt_ds = _bucket_counts_ds(withb, key)
    offs_ds = fold_carry(cnt_ds, key, "_vb", ["_c"],
                         _bucket_offsets_fold(descending=False,
                                              with_totals=True))
    witho = attach_carry(withb, offs_ds, key, "_vb")

    def cd_group(g: pa.Table) -> pa.Table:
        v = g[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        base = int(g["_boff"][0].as_py())   # rows in strictly LOWER buckets
        tot = int(g["_btot"][0].as_py())    # n per key
        vs_sorted = np.sort(v)
        lastpeer = np.searchsorted(vs_sorted, v, side="right")
        pos = base + lastpeer
        cd = pos / np.float64(max(tot, 1))
        out = {c: g[c] for c in g.column_names
               if c not in ("_vb", "_boff", "_btot")}
        out["cume_dist"] = pa.array(cd)
        return pa.table(out)

    return witho.groupby([key, "_vb"]).map_groups(cd_group, batch_format="pyarrow")


def partitioned_rolling_sum(ds, key: str, ts_col: str, value_col: str,
                            id_col: str, frame_n: int = 8,
                            window_s: int = 6 * 3600,
                            value_scale: int | None = 100):
    """SUM(value) / COUNT(*) OVER (PARTITION BY key ORDER BY ts, id ROWS
    BETWEEN frame_n-1 PRECEDING AND CURRENT ROW) — the sliding ROWS frame.

    The local kernel computes in-window frame sums and each row's position;
    every row repeats the window's tail (its last <= frame_n-1 values).  The
    fold keeps a running tail per key, so each window's carry is the last
    frame_n-1 values before it, and rows at position < frame_n-1 add the
    missing head of their frame from it.  With ``value_scale`` the
    accumulation is int64, so results are bit-deterministic and, for
    1/scale-quantized inputs, exactly the decimal a SQL window frame sums
    to."""
    n = int(frame_n)
    np_dtype = np.int64 if value_scale else np.float64

    def local_frame(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        x = float_column(g, value_col)
        if value_scale:
            x = np.round(x * value_scale).astype(np.int64)
        xs = x[order]
        cs = np.cumsum(xs)
        rs_sorted = cs - np.r_[np.zeros(min(n, len(cs)), dtype=cs.dtype), cs[:-n]]
        rs = np.empty(len(x), dtype=cs.dtype)
        rs[order] = rs_sorted
        pos = np.empty(len(x), dtype=np.int64)
        pos[order] = np.arange(len(x))
        tail = xs[-(n - 1):] if n > 1 else xs[:0]
        out = {c: g[c] for c in g.column_names}
        out["_rs"] = pa.array(rs)
        out["_pos"] = pa.array(pos)
        out["_tail"] = pa.array([tail.tolist()] * len(x),
                                type=pa.list_(pa.int64() if value_scale else pa.float64()))
        return pa.table(out)

    def fold(starts, windows, cols):
        return {"_carry": tail_buffer_within_segments(
            cols["_tail"], starts, n - 1, np_dtype)}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, local_frame,
                        ["_tail"], fold)

    def fill(b: pa.Table) -> pa.Table:
        pos = column(b, "_pos")
        rs = column(b, "_rs").copy()
        cnt = np.minimum(pos + 1, n)
        for i, take in carry_heads(b, pos, n - 1, np_dtype):
            rs[i] = rs[i] + take.sum()
            cnt[i] += len(take)
        total = rs / float(value_scale) if value_scale else rs.astype(np.float64)
        return with_columns(b, ("_window", "_rs", "_pos", "_tail", "_carry"),
                            {f"{value_col}_rsum": pa.array(total),
                             f"{value_col}_rcnt": pa.array(cnt.astype(np.int64))})

    return withc.map_batches(fill, batch_format="pyarrow")


def partitioned_rolling_zscore(ds, key: str, ts_col: str, value_col: str,
                               id_col: str, frame_n: int = 8,
                               window_s: int = 6 * 3600,
                               value_scale: int = 100):
    """Trailing-frame anomaly score: z = (v - mean(prev)) / stddev_samp(prev)
    over the ``frame_n`` rows strictly BEFORE the current row in (ts, id)
    order per key — SQL ``ROWS BETWEEN frame_n PRECEDING AND 1 PRECEDING``.
    NULL when fewer than 2 preceding rows or when the trailing variance is
    not positive.

    The tail carry of :func:`partitioned_rolling_sum`, with both
    sufficient statistics: Σvq and Σvq² accumulate as int64 of
    ``round(v·scale)`` (exact, associative), and z is computed with the
    same double expression tree a SQL twin uses —
    ``(vq - s1/m) / sqrt((s2 - s1*s1/m) / (m-1))`` — so results are
    bit-deterministic and hash-equal to the oracle (the scale cancels)."""
    n = int(frame_n)

    def local_frame(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        vq = np.round(float_column(g, value_col) * value_scale).astype(np.int64)
        xs = vq[order]
        # prefix sums; frame of sorted pos p = positions max(0, p-n) .. p-1
        cs1 = np.r_[np.int64(0), np.cumsum(xs)]
        cs2 = np.r_[np.int64(0), np.cumsum(xs * xs)]
        p = np.arange(len(xs))
        lo = np.maximum(p - n, 0)
        s1_sorted = cs1[p] - cs1[lo]
        s2_sorted = cs2[p] - cs2[lo]
        s1 = np.empty(len(xs), dtype=np.int64)
        s2 = np.empty(len(xs), dtype=np.int64)
        s1[order], s2[order] = s1_sorted, s2_sorted
        pos = np.empty(len(xs), dtype=np.int64)
        pos[order] = p
        tail = xs[-n:]  # last ≤n in-window values, repeated on every row
        out = {c: g[c] for c in g.column_names}
        out["_vq"] = pa.array(vq)
        out["_s1"], out["_s2"] = pa.array(s1), pa.array(s2)
        out["_pos"] = pa.array(pos)
        out["_tail"] = pa.array([tail.tolist()] * len(xs),
                                type=pa.list_(pa.int64()))
        return pa.table(out)

    def fold(starts, windows, cols):
        return {"_carry": tail_buffer_within_segments(
            cols["_tail"], starts, n, np.int64)}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, local_frame,
                        ["_tail"], fold)

    def fill(b: pa.Table) -> pa.Table:
        pos = column(b, "_pos")
        vq = column(b, "_vq")
        s1 = column(b, "_s1").copy()
        s2 = column(b, "_s2").copy()
        m = np.minimum(pos, n).astype(np.int64)
        for i, take in carry_heads(b, pos, n, np.int64):
            s1[i] += take.sum()
            s2[i] += (take * take).sum()
            m[i] += len(take)
        # identical double expression tree as the SQL twin (scale cancels)
        with np.errstate(divide="ignore", invalid="ignore"):
            var = (s2 - (s1 * s1) / m) / (m - 1)
            z = (vq - s1 / m) / np.sqrt(var)
        z = np.where((m >= 2) & (var > 0), z, np.nan)
        return with_columns(b, ("_window", "_vq", "_s1", "_s2", "_pos", "_tail",
                                "_carry"), {f"{value_col}_zscore": pa.array(z)})

    return withc.map_batches(fill, batch_format="pyarrow")


def partitioned_first_value(ds, key: str, ts_col: str, value_col: str,
                            id_col: str, last: bool = False):
    """FIRST_VALUE(value) OVER (PARTITION BY key ORDER BY ts, id) — the
    per-key global first value, repeated on every row (``last=True`` gives
    LAST_VALUE over the full-partition frame: the max-(ts, id) row).
    Per-batch combiners keep each block's extreme row per key; a keyed fold
    reduces them to one row per key DISTRIBUTED (no driver map, no
    single-task reduce), and the attach is budget-gated (:mod:`.carry`)."""

    def local_first(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        ids = b[id_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        if last:
            ts, ids = -ts, -ids
        order = np.lexsort((ids, ts, k))
        ks = k[order]
        st = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) if len(ks) else np.zeros(0, np.int64)
        take = pa.array(order[st] if len(st) else [], type=pa.int64())
        return b.select([key, ts_col, id_col, value_col]).take(take)

    out_col = f"{value_col}_last" if last else f"{value_col}_first"

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({key: b[key],
                         out_col: b[value_col].combine_chunks().cast(pa.float64())})

    firsts = keyed_fold(ds.select_columns([key, ts_col, id_col, value_col])
                        .map_batches(local_first, batch_format="pyarrow"), key,
                        local_first).map_batches(finish, batch_format="pyarrow")

    return attach_carry(ds, firsts, key, None)


def _bucket_counts_ds(withb, key: str, count_col: str = "_c"):
    """(key, value-bucket) → row count Dataset for the bucket-salted rank
    family.  Counts are PRE-AGGREGATED per batch and folded through one
    tiny groupby — the result never lands on the driver (round 3: the
    offset fold is distributed too, see :mod:`.carry`)."""

    def local_counts(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        vb = b["_vb"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((vb, k))
        ks, vbs = k[order], vb[order]
        st = np.flatnonzero(np.r_[True, (ks[1:] != ks[:-1]) | (vbs[1:] != vbs[:-1])]) \
            if len(ks) else np.zeros(0, np.int64)
        return pa.table({key: pa.array(ks[st] if len(st) else ks[:0]),
                         "_vb": pa.array(vbs[st] if len(st) else vbs[:0]),
                         count_col: pa.array(np.diff(np.r_[st, len(ks)]).astype(np.int64))})

    def fold_counts(g: pa.Table) -> pa.Table:
        return pa.table({key: g[key].slice(0, 1), "_vb": g["_vb"].slice(0, 1),
                         count_col: pa.array([int(np.sum(g[count_col].combine_chunks()
                                                         .to_numpy(zero_copy_only=False)))],
                                             pa.int64())})

    return (withb.select_columns([key, "_vb"])
            .map_batches(local_counts, batch_format="pyarrow")
            .groupby([key, "_vb"]).map_groups(fold_counts, batch_format="pyarrow"))


def _bucket_offsets_fold(descending: bool, count_col: str = "_c",
                         with_totals: bool = False):
    """Segment fold: rows-in-better-buckets offset per (key, bucket) —
    exclusive prefix sum over buckets walked best-first (int-exact)."""
    def fold(starts, buckets, cols):
        vals = cols[count_col].astype(np.int64)
        incl = inclusive_prefix_within_segments(vals, starts)
        if descending:
            off = segment_totals(vals, starts) - incl
        else:
            off = incl - vals
        out = {"_boff": off}
        if with_totals:
            out["_btot"] = segment_totals(vals, starts)
        return out

    return fold


def grouped_rank(ds, key: str, value_col: str, id_col: str,
                 descending: bool = True, n_buckets: int = 64):
    """ROW_NUMBER() OVER (PARTITION BY key ORDER BY value [DESC], id) —
    skew-safe: rows shuffle by (key, value-quantile bucket); global rank =
    local rank + count of rows in better buckets, folded distributed
    (:mod:`.carry`) and attached budget-gated."""
    # bucket edges from a sample (any edges are CORRECT, only balance varies)
    sample = ds.limit(100_000).select_columns([value_col]).take_all()
    vs = np.array([r[value_col] for r in sample], dtype=np.float64)
    qs = np.quantile(vs, np.linspace(0, 1, n_buckets + 1)[1:-1]) if len(vs) else []
    edges = np.unique(qs)

    def add_bucket(b: pa.Table) -> pa.Table:
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        bkt = np.searchsorted(edges, v, side="left").astype(np.int64)
        return b.append_column("_vb", pa.array(bkt))

    # phase 1 here is a MAP (no shuffle): both consumers just re-execute
    # the lazy read+bucket pipeline — two streaming scans of the pruned
    # input beat a disk checkpoint AND hold no object-store pin (r4)
    withb = ds.map_batches(add_bucket, batch_format="pyarrow")
    cnt_ds = _bucket_counts_ds(withb, key)
    offs_ds = fold_carry(cnt_ds, key, "_vb", ["_c"],
                         _bucket_offsets_fold(descending))
    witho = attach_carry(withb, offs_ds, key, "_vb")

    def rank_group(g: pa.Table) -> pa.Table:
        v = g[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        base = int(g["_boff"][0].as_py())  # per-(key, bucket) constant
        order = np.lexsort((ids, -v if descending else v))
        rank = np.empty(len(v), dtype=np.int64)
        rank[order] = base + np.arange(len(v)) + 1
        out = {c: g[c] for c in g.column_names if c not in ("_vb", "_boff")}
        out["rnk"] = pa.array(rank)
        return pa.table(out)

    return witho.groupby([key, "_vb"]).map_groups(rank_group, batch_format="pyarrow")


def grouped_topk(ds, key: str, value_col: str, id_col: str, k: int = 3,
                 descending: bool = True):
    """Top-k rows per key by (value, id) — combiner push-down: each batch
    keeps ≤k rows per key, one tiny groupby finalizes."""

    def local(b: pa.Table) -> pa.Table:
        kc = b[key].combine_chunks().dictionary_encode()
        codes = kc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -v if descending else v, codes))
        cs = codes[order]
        st = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]]) if len(cs) else np.zeros(0, np.int64)
        within = np.arange(len(cs)) - np.repeat(st, np.diff(np.r_[st, len(cs)]))
        keep = order[within < k]
        return b.take(pa.array(np.sort(keep), type=pa.int64()))

    return ds.map_batches(local, batch_format="pyarrow").groupby(key).map_groups(
        local, batch_format="pyarrow"
    )


def semi_anti_join(ds, key_col: str, right, right_key: str, anti: bool = False,
                   fanin: int = 8):
    """EXISTS / NOT EXISTS: distinct right keys via tree reduction (bounded
    ≪ rows), broadcast once, vectorized membership filter per batch."""
    import ray

    from .reduce import tree_reduce

    def uniq(b: pa.Table) -> pa.Table:
        kk = b[right_key].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({right_key: pa.array(np.unique(kk))})

    keys_ds = tree_reduce(right.select_columns([right_key]), uniq, fanin=fanin)
    keys = np.concatenate(
        [b[right_key].combine_chunks().to_numpy(zero_copy_only=False)
         for b in keys_ds.iter_batches(batch_format="pyarrow", batch_size=None)]
        or [np.zeros(0)]
    )
    keys = np.sort(keys)
    kref = ray.put(keys)

    def member(b: pa.Table) -> pa.Table:
        ks = ray.get(kref)
        v = b[key_col].combine_chunks().to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, v)
        hit = (pos < len(ks)) & (ks[np.clip(pos, 0, max(len(ks) - 1, 0))] == v) if len(ks) else np.zeros(len(v), bool)
        return b.filter(pa.array(~hit if anti else hit))

    return ds.map_batches(member, batch_format="pyarrow")


def exact_quantiles_quantized(ds, key: str, value_col: str,
                              qs: tuple = (0.25, 0.5, 0.75), scale: int = 100,
                              fanin: int = 8):
    """Exact per-key quantiles of a 1/scale-quantized column with SQL
    ``quantile_cont`` semantics (linear interpolation between order stats at
    position (n-1)·q), computed from bounded tree-reduced histograms — no
    sort, no keyed shuffle.  Same reduction shape as
    ``exact_median_quantized``; output columns ``q<percent>``."""
    from .reduce import tree_reduce

    def hist(b: pa.Table) -> pa.Table:
        if "_cnt" in b.column_names:
            k = b[key].to_numpy(zero_copy_only=False)
            q = b["_q"].combine_chunks().to_numpy(zero_copy_only=False)
            c = b["_cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        else:
            k = b[key].to_numpy(zero_copy_only=False)
            v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
            q = np.round(v * scale).astype(np.int64)
            c = np.ones(len(k), dtype=np.int64)
        order = np.lexsort((q, k))
        ks, qv, cs = k[order], q[order], c[order]
        chg = np.r_[True, (ks[1:] != ks[:-1]) | (qv[1:] != qv[:-1])] if len(ks) else np.zeros(0, bool)
        st = np.flatnonzero(chg)
        csum = np.add.reduceat(cs, st) if len(st) else cs[:0]
        take = pa.array(order[st] if len(st) else [], type=pa.int64())
        return pa.table({key: b[key].take(take), "_q": pa.array(qv[st] if len(st) else qv[:0]),
                         "_cnt": pa.array(csum)})

    agg = tree_reduce(ds.select_columns([key, value_col]), hist, fanin=fanin)

    def finalize(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        qv = b["_q"].combine_chunks().to_numpy(zero_copy_only=False)
        c = b["_cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((qv, k))
        ks, qs_v, cs = k[order], qv[order], c[order]
        chg = np.r_[True, ks[1:] != ks[:-1]] if len(ks) else np.zeros(0, bool)
        st = np.flatnonzero(chg)
        en = np.r_[st[1:], len(ks)]
        out: dict = {key: []}
        names = [f"q{int(round(qq * 100))}" for qq in qs]
        for nm in names:
            out[nm] = []
        for s, e in zip(st, en):
            vals, cnt = qs_v[s:e], cs[s:e]
            n = int(cnt.sum())
            cum = np.cumsum(cnt)
            out[key].append(ks[s])
            for nm, qq in zip(names, qs):
                p = (n - 1) * qq
                lo = int(np.searchsorted(cum, np.floor(p) + 1))
                hi = int(np.searchsorted(cum, np.ceil(p) + 1))
                frac = p - np.floor(p)
                val = ((1.0 - frac) * vals[lo] + frac * vals[hi]) / scale
                out[nm].append(val)
        return pa.table({k2: pa.array(v) for k2, v in out.items()})

    return agg.map_batches(finalize, batch_format="pyarrow", batch_size=None)


def exact_median_quantized(ds, key: str, value_col: str, scale: int = 100,
                           fanin: int = 8):
    """Exact per-key median of a 1/scale-quantized column via bounded
    histograms (tree-reduced — NO sort, NO keyed shuffle).  Even counts
    average the two middle values (SQL median/quantile_cont semantics)."""
    from .reduce import tree_reduce

    def hist(b: pa.Table) -> pa.Table:
        if "_cnt" in b.column_names:  # merging partials
            k = b[key].to_numpy(zero_copy_only=False)
            q = b["_q"].combine_chunks().to_numpy(zero_copy_only=False)
            c = b["_cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        else:
            k = b[key].to_numpy(zero_copy_only=False)
            v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
            q = np.round(v * scale).astype(np.int64)
            c = np.ones(len(k), dtype=np.int64)
        order = np.lexsort((q, k))
        ks, qs, cs = k[order], q[order], c[order]
        chg = np.r_[True, (ks[1:] != ks[:-1]) | (qs[1:] != qs[:-1])] if len(ks) else np.zeros(0, bool)
        st = np.flatnonzero(chg)
        csum = np.add.reduceat(cs, st) if len(st) else cs[:0]
        take = pa.array(order[st] if len(st) else [], type=pa.int64())
        return pa.table({key: b[key].take(take), "_q": pa.array(qs[st] if len(st) else qs[:0]),
                         "_cnt": pa.array(csum)})

    agg = tree_reduce(ds.select_columns([key, value_col]), hist, fanin=fanin)

    def finalize(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        q = b["_q"].combine_chunks().to_numpy(zero_copy_only=False)
        c = b["_cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((q, k))
        ks, qs, cs = k[order], q[order], c[order]
        chg = np.r_[True, ks[1:] != ks[:-1]] if len(ks) else np.zeros(0, bool)
        st = np.flatnonzero(chg)
        en = np.r_[st[1:], len(ks)]
        out_k, out_m = [], []
        for s, e in zip(st, en):
            qq, cc = qs[s:e], cs[s:e]
            tot = cc.sum()
            cum = np.cumsum(cc)
            lo_i = int(np.searchsorted(cum, (tot + 1) // 2))
            hi_i = int(np.searchsorted(cum, tot // 2 + 1))
            med = (qq[lo_i] + qq[hi_i]) / 2.0 / scale
            out_k.append(ks[s])
            out_m.append(med)
        return pa.table({key: pa.array(out_k), "median_value": pa.array(out_m)})

    return agg.map_batches(finalize, batch_format="pyarrow", batch_size=None)


def time_weighted_avg(ds, key: str, ts_col: str, value_col: str,
                      id_col: str, bucket: str = "day",
                      value_scale: int = 100, window_s: int = 6 * 3600):
    """Time-weighted average for irregularly sampled series (step / sample-
    and-hold interpolation): per (key, calendar bucket of the step's START),
    twa = Σ value·Δt / Σ Δt where Δt runs to the key's NEXT event — the
    quantity bin-average engines approximate with dense sampling, computed
    exactly on the raw irregular points.

    In-window Δt come from the local kernel; a window's last step closes on
    the first timestamp of the key's next non-empty window (an int carry,
    never through float64).  Weighted sums accumulate as int64
    ``round(value·scale)·Δt_us`` — associative, so bit-deterministic — and
    the final division is the identical IEEE expression the SQL twin
    spells.  A key's last event has no next step and contributes nothing
    (SQL: ``WHERE next_ts IS NOT NULL``).

    Returns one row per (key, bucket): (key, bucket_ts, twa, dur_us)."""
    day_us = 86400 * US
    assert bucket == "day"

    def per_window(g: pa.Table) -> pa.Table:
        ts, order = ts_order(g, ts_col, id_col)
        v = float_column(g, value_col)
        tss = ts[order]
        nxt = np.full(len(ts), -1, dtype=np.int64)
        if len(order) > 1:
            nxt[order[:-1]] = tss[1:]
        last = np.zeros(len(ts), dtype=bool)
        if len(order):
            last[order[-1]] = True
        out = {key: g[key], "_ts": pa.array(ts),
               "_vq": pa.array(np.round(v * value_scale).astype(np.int64)),
               "_nxt": pa.array(nxt), "_last": pa.array(last),
               "_window": g["_window"],
               "_first_ts": pa.array(np.repeat(tss[0] if len(tss) else -1, len(ts)))}
        return pa.table(out)

    # a window's LAST row steps to the first ts of the key's next window
    def fold(starts, windows, cols):
        return {"_carry": shift_back_within_segments(
            cols["_first_ts"].astype(np.int64), starts, np.int64(-1))}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, per_window,
                        ["_first_ts"], fold)

    def partial_sums(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        ts = column(b, "_ts")
        vq = column(b, "_vq")
        nxt = column(b, "_nxt").copy()
        last = column(b, "_last")
        nxt[last] = column(b, "_carry")[last]
        keep = nxt >= 0
        k, ts, vq, nxt = k[keep], ts[keep], vq[keep], nxt[keep]
        dt = nxt - ts
        day = (ts // day_us) * day_us
        order = np.lexsort((day, k))
        ks, ds_, wv, dts = k[order], day[order], (vq * dt)[order], dt[order]
        st = np.flatnonzero(np.r_[True, (ks[1:] != ks[:-1]) | (ds_[1:] != ds_[:-1])]) \
            if len(ks) else np.zeros(0, np.int64)
        return pa.table({
            key: pa.array(ks[st] if len(st) else ks[:0]),
            "_day": pa.array(ds_[st] if len(st) else ds_[:0]),
            "_swdt": pa.array(np.add.reduceat(wv, st) if len(st) else wv[:0]),
            "_sdt": pa.array(np.add.reduceat(dts, st) if len(st) else dts[:0]),
        })

    def day_fold(g: pa.Table) -> pa.Table:
        k = g[key].to_numpy(zero_copy_only=False)
        d = column(g, "_day")
        sw = column(g, "_swdt")
        sd = column(g, "_sdt")
        order = np.lexsort((d, k))
        ks, dd, sws, sds = k[order], d[order], sw[order], sd[order]
        st = np.flatnonzero(np.r_[True, (ks[1:] != ks[:-1]) | (dd[1:] != dd[:-1])]) \
            if len(ks) else np.zeros(0, np.int64)
        swdt = np.add.reduceat(sws, st) if len(st) else sws[:0]
        sdt = np.add.reduceat(sds, st) if len(st) else sds[:0]
        twa = swdt.astype(np.float64) / (float(value_scale) * sdt.astype(np.float64))
        return pa.table({
            key: pa.array(ks[st] if len(st) else ks[:0]),
            "bucket_ts": pa.array((dd[st] if len(st) else dd[:0]).astype("datetime64[us]")),
            "twa": pa.array(twa),
            "dur_us": pa.array(sdt),
        })

    return keyed_fold(withc.map_batches(partial_sums, batch_format="pyarrow"),
                      [key, "_day"], day_fold)


def partitioned_ewma(ds, key: str, ts_col: str, value_col: str,
                     id_col: str, alpha: float = 0.1,
                     window_s: int = 6 * 3600, chunk: int = 512):
    """Exponentially weighted moving average per key over (ts, id) order —
    pandas ``ewm(alpha, adjust=False)`` semantics (e_0 = v_0,
    e_j = (1-α)·e_{j-1} + α·v_j):

    * local: zero-carry in-window EWMA ``l_j = Σ_{i<=j} α(1-α)^{j-i} v_i``
      (scaled cumsum in bounded chunks so ``(1-α)^-i`` never overflows),
      plus the window's row count, last local value and first value;
    * fold, per key: carry(w₁) = first value (which makes e_0 = v_0
      exactly), carry(w_{k+1}) = (1-α)^{m_k}·carry(w_k) + local_end(w_k);
    * finish: e_j = (1-α)^{j+1}·carry + l_j.

    Windows are fixed by window_s, so results do not depend on the block
    layout; they match the sequential recurrence to float round-off
    (~1e-12 relative), not bit-for-bit (the closed form reassociates the
    products).  No SQL twin: EWMA needs recursion SQL lacks."""
    a = float(alpha)
    q = 1.0 - a

    def local_ewma_sorted(v: np.ndarray) -> np.ndarray:
        """l_j with zero incoming carry, chunked scaled cumsum."""
        out = np.empty(len(v), dtype=np.float64)
        carry = 0.0
        for s in range(0, len(v), chunk):
            vv = v[s: s + chunk]
            j = np.arange(len(vv), dtype=np.float64)
            scaled = np.cumsum(vv * (a / np.power(q, j)))
            out[s: s + len(vv)] = np.power(q, j) * scaled + np.power(q, j + 1) * carry
            carry = out[s + len(vv) - 1] if len(vv) else carry
        return out

    def per_window(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        x = float_column(g, value_col)
        xs = x[order]
        loc_sorted = local_ewma_sorted(xs)
        loc = np.empty(len(x)); loc[order] = loc_sorted
        pos = np.empty(len(x), dtype=np.int64); pos[order] = np.arange(len(x))
        out = {c: g[c] for c in g.column_names}
        out["_l"] = pa.array(loc)
        out["_pos"] = pa.array(pos)
        out["_m"] = pa.array(np.repeat(np.int64(len(x)), len(x)))
        out["_lend"] = pa.array(np.repeat(loc_sorted[-1] if len(x) else 0.0, len(x)))
        out["_vfirst"] = pa.array(np.repeat(xs[0] if len(x) else 0.0, len(x)))
        return pa.table(out)

    def fold(starts, windows, cols):
        m = cols["_m"].astype(np.int64)
        lend = cols["_lend"].astype(np.float64)
        vf = cols["_vfirst"].astype(np.float64)
        n_rows = len(windows)
        carry = np.empty(n_rows, dtype=np.float64)
        ends = np.r_[starts[1:], n_rows]
        for s, e in zip(starts, ends):
            prev = vf[s]  # makes e_0 = v_0 exactly
            for i in range(s, e):
                carry[i] = prev
                prev = (q ** int(m[i])) * prev + lend[i]
        return {"_carry": carry}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, per_window,
                        ["_m", "_lend", "_vfirst"], fold)

    def fill(b: pa.Table) -> pa.Table:
        e = np.power(q, column(b, "_pos") + 1.0) * column(b, "_carry") + column(b, "_l")
        return with_columns(b, ("_window", "_l", "_pos", "_m", "_lend", "_vfirst",
                                "_carry"), {f"{value_col}_ewma": pa.array(e)})

    return withc.map_batches(fill, batch_format="pyarrow")


def decay_weights(alpha: float = 0.1, k_terms: int = 64,
                  scale: float = 1e9) -> np.ndarray:
    """Scaled geometric weights ``sw_d = scale·α·(1-α)^d`` for d = 0..K-1 —
    the shared float contract between :func:`partitioned_decay_score` and
    its SQL oracle (the oracle embeds ``repr(sw_d)`` literals, which parse
    back to the identical doubles, so ``sw_d · v`` is ONE IEEE multiply on
    both sides)."""
    d = np.arange(k_terms, dtype=np.float64)
    return scale * (alpha * np.power(1.0 - alpha, d))


def partitioned_decay_score(ds, key: str, ts_col: str, value_col: str,
                            id_col: str, alpha: float = 0.1,
                            k_terms: int = 64, window_s: int = 6 * 3600):
    """Truncated-EWMA geometric-decay score per key over (ts, id) order —
    the hash-exact member of the EWMA family:

        s_j = Σ_{d=0..K-1} round(scale·α(1-α)^d · v_{j-d})   (int64)

    Each term is quantized to int64 BEFORE summation (per-term
    ``round(x·1e9)`` half-away), so the sum is associative —
    bit-deterministic under ANY distribution/order — and a SQL twin
    (self-join on ``rn BETWEEN j.rn-K+1 AND j.rn`` against a VALUES table
    of the weight literals) reproduces it exactly.  At K = 64 with
    α = 0.1 the truncation error vs the infinite recurrence is
    (1-α)^64 ≈ 1.2e-3 relative — the standard bounded-lookback decay
    score; :func:`partitioned_ewma` remains the exact-recurrence operator.

    Each window needs its own rows plus the previous <= K-1 values, which
    the fold carries as a per-window tail list.  Output column
    ``{value_col}_decay_q`` (the int64 quantized sum; divide by 1e9 for
    the float score)."""
    sw = decay_weights(alpha, k_terms)
    K = int(k_terms)

    def per_window(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        xs = float_column(g, value_col)[order]
        n = len(xs)
        acc = np.zeros(n, np.int64)
        for d in range(min(K, n)):
            acc[d:] += half_away(sw[d] * xs[:n - d])
        out_acc = np.empty(n, np.int64)
        out_acc[order] = acc
        pos = np.empty(n, np.int64)
        pos[order] = np.arange(n)
        tail = xs[max(0, n - (K - 1)):].tolist()  # oldest→newest
        out = {c: g[c] for c in g.column_names}
        out["_ldec"] = pa.array(out_acc)
        out["_pos"] = pa.array(pos)
        out["_tail"] = pa.array([tail] * n, pa.list_(pa.float64()))
        return pa.table(out)

    def fold(starts, windows, cols):
        return {"_ctail": tail_buffer_within_segments(
            cols["_tail"], starts, K - 1, np.float64)}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, per_window,
                        ["_tail"], fold)

    def fill(b: pa.Table) -> pa.Table:
        pos = column(b, "_pos")
        ldec = column(b, "_ldec").copy()
        ct = b["_ctail"].combine_chunks()
        off = ct.offsets.to_numpy(zero_copy_only=False)
        vals = np.asarray(ct.values.to_numpy(zero_copy_only=False))
        lens = off[1:] - off[:-1]
        need = np.minimum(lens, np.maximum(K - 1 - pos, 0)).astype(np.int64)
        rows = np.flatnonzero(need > 0)
        if len(rows):
            nr = need[rows]
            cum = np.cumsum(nr)
            total = int(cum[-1])
            rep = np.repeat(rows, nr)
            within = np.arange(total, dtype=np.int64) - np.repeat(cum - nr, nr) + 1
            d_idx = pos[rep] + within
            v_idx = off[rep] + lens[rep] - within
            contrib = half_away(sw[d_idx] * vals[v_idx])
            np.add.at(ldec, rep, contrib)  # exact int64 accumulation
        return with_columns(b, ("_window", "_ldec", "_pos", "_tail", "_ctail"),
                            {f"{value_col}_decay_q": pa.array(ldec)})

    return withc.map_batches(fill, batch_format="pyarrow")


def partitioned_rolling_quantile(ds, key: str, ts_col: str, value_col: str,
                                 id_col: str, q: float = 0.5,
                                 frame_n: int = 15, value_scale: int = 100,
                                 window_s: int = 6 * 3600,
                                 out_col: str | None = None):
    """Exact rolling quantile over the last ``frame_n`` rows per key in
    (ts, id) order — ``quantile_cont(v, q) OVER (PARTITION BY key ORDER
    BY ts, id ROWS BETWEEN frame_n-1 PRECEDING AND CURRENT ROW)`` with
    SQL truncated-frame semantics at each key's start.

    Values quantize to ``round(v·scale)`` int64 and the interpolation is
    the IEEE op sequence DuckDB's ``quantile_cont`` evaluates (see
    ``_quantile_of``), so the operator is hash-oracle-able; at q = 0.5
    this is bit-equal to windowed ``median``.  Each window needs its own
    rows plus the previous <= frame_n−1 values, which the fold carries as a
    per-window tail list (the decay_score tail).  Interior rows compute
    via one vectorized sliding-window sort per group (O(n·frame_n) — the
    standard exact cost); only the <= frame_n−1 boundary rows per (key,
    window) take a small per-row path.  Output ``out_col`` (default
    ``{value_col}_rq``; float64, de-quantized)."""
    K = int(frame_n)
    qq = float(q)
    oc = out_col or f"{value_col}_rq"

    def _quantile_of(sorted_frame: np.ndarray) -> float:
        m = len(sorted_frame)
        pos = (m - 1) * qq
        i0 = int(np.floor(pos))
        frac = pos - i0
        lo = float(sorted_frame[i0])
        if i0 + 1 >= m or frac == 0.0:
            return lo
        # DuckDB evaluates lo·(1−frac) + hi·frac (measured: differs from
        # lo + frac·(hi−lo) in the last ulp) — mirror it exactly
        return lo * (1.0 - frac) + float(sorted_frame[i0 + 1]) * frac

    def per_window(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        vq = half_away(float_column(g, value_col)[order] * value_scale)
        n = len(vq)
        med = np.full(n, np.nan)
        if n >= K:
            # interior rows (full in-window frame): one vectorized pass
            sw = np.lib.stride_tricks.sliding_window_view(vq, K)
            part = np.sort(sw, axis=1)
            pos = (K - 1) * qq
            i0 = int(np.floor(pos))
            frac = pos - i0
            lo = part[:, i0].astype(np.float64)
            if i0 + 1 >= K or frac == 0.0:
                med[K - 1:] = lo
            else:  # DuckDB's lerp form — see _quantile_of
                med[K - 1:] = (lo * (1.0 - frac)
                               + part[:, i0 + 1].astype(np.float64) * frac)
        out_med = np.empty(n)
        out_med[order] = med
        pos_ = np.empty(n, np.int64)
        pos_[order] = np.arange(n)
        head = vq[:min(n, K - 1)].astype(np.float64).tolist()
        tail = vq[max(0, n - (K - 1)):].astype(np.float64).tolist()
        out = {c: g[c] for c in g.column_names}
        out["_rmed"] = pa.array(out_med)
        out["_pos"] = pa.array(pos_)
        out["_head"] = pa.array([head] * n, pa.list_(pa.float64()))
        out["_tail"] = pa.array([tail] * n, pa.list_(pa.float64()))
        return pa.table(out)

    def fold(starts, windows, cols):
        return {"_ctail": tail_buffer_within_segments(
            cols["_tail"], starts, K - 1, np.float64)}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, per_window,
                        ["_tail"], fold)

    def fill(b: pa.Table) -> pa.Table:
        pos = column(b, "_pos")
        med = column(b, "_rmed").copy()
        ct = b["_ctail"].combine_chunks()
        coff = ct.offsets.to_numpy(zero_copy_only=False)
        cvals = np.asarray(ct.values.to_numpy(zero_copy_only=False))
        hd = b["_head"].combine_chunks()
        hoff = hd.offsets.to_numpy(zero_copy_only=False)
        hvals = np.asarray(hd.values.to_numpy(zero_copy_only=False))
        for r in np.flatnonzero(pos < K - 1):
            p = int(pos[r])
            need = K - 1 - p
            tail = cvals[coff[r]:coff[r + 1]]
            take = tail[max(0, len(tail) - need):]
            frame = np.r_[take, hvals[hoff[r]:hoff[r] + p + 1]]
            med[r] = _quantile_of(np.sort(frame))
        return with_columns(b, ("_window", "_rmed", "_pos", "_head", "_tail",
                                "_ctail"), {oc: pa.array(med / value_scale)})

    return withc.map_batches(fill, batch_format="pyarrow")


def partitioned_rolling_median(ds, key: str, ts_col: str, value_col: str,
                               id_col: str, frame_n: int = 15,
                               value_scale: int = 100,
                               window_s: int = 6 * 3600):
    """Exact rolling MEDIAN — :func:`partitioned_rolling_quantile` at
    q = 0.5 (bit-equal to DuckDB's windowed ``median``); output column
    ``{value_col}_rmed``."""
    return partitioned_rolling_quantile(
        ds, key=key, ts_col=ts_col, value_col=value_col, id_col=id_col,
        q=0.5, frame_n=frame_n, value_scale=value_scale, window_s=window_s,
        out_col=f"{value_col}_rmed")


def interval_union(ds, key: str, ts_col: str, dur_col: str, id_col: str,
                   dur_scale: int = 100, dur_unit_us: int = US,
                   window_s: int = 6 * 3600):
    """Total UNION length per key of the intervals
    ``[ts, ts + round(dur·scale)·unit/scale)`` — the islands-and-gaps
    measure (e.g. total active seconds when sessions overlap).

    Sweep formula: with intervals sorted by (start, id) per key and
    ``M_{i-1}`` = max end among all earlier intervals, interval *i* newly
    covers ``max(0, end_i - max(start_i, M_{i-1}))``; the sum of increments
    is exactly the union measure (order of start-ties is irrelevant to the
    total).  Prefix max is associative: the local kernel computes each
    row's in-window exclusive prefix max, the fold the running max of the
    earlier windows, and increments and per-key sums are all int64
    microseconds — bit-deterministic and hash-equal to a SQL ``MAX() OVER
    (... ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)`` twin.

    Returns one row per key: (key, covered_us)."""
    NOMAX = np.iinfo(np.int64).min

    def per_window(g: pa.Table) -> pa.Table:
        ts, order = ts_order(g, ts_col, id_col)
        dq = np.round(float_column(g, dur_col) * dur_scale).astype(np.int64)
        end = ts + (dq * dur_unit_us) // dur_scale
        ends = end[order]
        run = np.maximum.accumulate(ends)
        lprev = np.empty(len(ts), dtype=np.int64)
        lprev_sorted = np.r_[NOMAX, run[:-1]] if len(run) else run
        lprev[order] = lprev_sorted
        return pa.table({
            key: g[key], "_start": pa.array(ts), "_end": pa.array(end),
            "_lprev": pa.array(lprev), "_window": g["_window"],
            "_wmax": pa.array(np.repeat(run[-1] if len(run) else NOMAX,
                                        len(ts))),
        })

    def fold(starts, windows, cols):
        return {"_carry": running_max_before_within_segments(
            cols["_wmax"].astype(np.int64), starts, NOMAX)}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, per_window,
                        ["_wmax"], fold)

    def partial_sums(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        s = column(b, "_start")
        e = column(b, "_end")
        lp = column(b, "_lprev").copy()
        if len(k):
            lp = np.maximum(lp, column(b, "_carry"))
        inc = np.maximum(e - np.maximum(s, lp), 0)
        order = np.argsort(k, kind="stable")
        ks, incs = k[order], inc[order]
        st = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) \
            if len(ks) else np.zeros(0, np.int64)
        return pa.table({
            key: pa.array(ks[st] if len(st) else ks[:0]),
            "_cov": pa.array(np.add.reduceat(incs, st) if len(st) else incs[:0]),
        })

    def key_fold(g: pa.Table) -> pa.Table:
        return pa.table({key: g[key].slice(0, 1),
                         "covered_us": pa.array([int(column(g, "_cov").sum())],
                                                type=pa.int64())})

    return (withc.map_batches(partial_sums, batch_format="pyarrow")
            .groupby(key).map_groups(key_fold, batch_format="pyarrow"))


def counter_increase(ds, key: str, ts_col: str, value_col: str,
                     id_col: str, value_scale: int = 100,
                     window_s: int = 6 * 3600):
    """Reset-aware counter increase per (key, calendar day) — the PromQL
    ``increase()`` semantics on raw samples: each sample contributes
    ``v - prev`` when the counter advanced, or ``v`` when it reset
    (``v < prev`` means the counter restarted from 0); a key's first sample
    ever contributes nothing (no earlier point).

    The carry of :func:`partitioned_lag`: in-window deltas over (ts, id)
    order, and each window's first delta closes on the previous non-empty
    window's last value (kept as int ``round(v·scale)`` — exact).
    Contributions accumulate as int64 scaled units (associative ⇒
    bit-deterministic); ``increase = cents / scale`` is the identical
    nearest double a SQL ``ROUND(SUM(...), 2)`` twin lands on.

    Returns one row per (key, day): (key, bucket_ts, increase)."""
    day_us = 86400 * US
    NOPREV = np.iinfo(np.int64).min

    def per_window(g: pa.Table) -> pa.Table:
        ts, order = ts_order(g, ts_col, id_col)
        vq = np.round(float_column(g, value_col) * value_scale).astype(np.int64)
        vqs = vq[order]
        prev = np.full(len(ts), NOPREV, dtype=np.int64)
        if len(order) > 1:
            prev[order[1:]] = vqs[:-1]
        first = np.zeros(len(ts), dtype=bool)
        if len(order):
            first[order[0]] = True
        return pa.table({
            key: g[key], "_ts": pa.array(ts), "_vq": pa.array(vq),
            "_prev": pa.array(prev), "_first": pa.array(first),
            "_window": g["_window"],
            "_last_vq": pa.array(np.repeat(
                vqs[-1] if len(vqs) else np.int64(0), len(ts))),
        })

    def fold(starts, windows, cols):
        return {"_carry": shift_within_segments(
            cols["_last_vq"].astype(np.int64), starts, NOPREV)}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, per_window,
                        ["_last_vq"], fold)

    def partial_sums(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        ts = column(b, "_ts")
        vq = column(b, "_vq")
        prev = column(b, "_prev").copy()
        first = column(b, "_first")
        prev[first] = column(b, "_carry")[first]
        has_prev = prev != NOPREV
        inc = np.where(has_prev,
                       np.where(vq >= prev, vq - prev, vq),
                       np.int64(0))
        day = (ts // day_us) * day_us
        order = np.lexsort((day, k))
        ks, dd, incs = k[order], day[order], inc[order]
        st = np.flatnonzero(np.r_[True, (ks[1:] != ks[:-1]) | (dd[1:] != dd[:-1])]) \
            if len(ks) else np.zeros(0, np.int64)
        return pa.table({
            key: pa.array(ks[st] if len(st) else ks[:0]),
            "_day": pa.array(dd[st] if len(st) else dd[:0]),
            "_inc": pa.array(np.add.reduceat(incs, st) if len(st) else incs[:0]),
        })

    def day_fold(g: pa.Table) -> pa.Table:
        k = g[key].to_numpy(zero_copy_only=False)
        d = column(g, "_day")
        s = column(g, "_inc")
        order = np.lexsort((d, k))
        ks, dd, ss = k[order], d[order], s[order]
        st = np.flatnonzero(np.r_[True, (ks[1:] != ks[:-1]) | (dd[1:] != dd[:-1])]) \
            if len(ks) else np.zeros(0, np.int64)
        tot = np.add.reduceat(ss, st) if len(st) else ss[:0]
        return pa.table({
            key: pa.array(ks[st] if len(st) else ks[:0]),
            "bucket_ts": pa.array((dd[st] if len(st) else dd[:0]).astype("datetime64[us]")),
            "increase": pa.array(tot.astype(np.float64) / float(value_scale)),
        })

    return keyed_fold(withc.map_batches(partial_sums, batch_format="pyarrow"),
                      [key, "_day"], day_fold)


def grouped_dense_rank(ds, key: str, value_col: str,
                       descending: bool = True, n_buckets: int = 64):
    """DENSE_RANK() OVER (PARTITION BY key ORDER BY value [DESC]) — rank of
    the row's DISTINCT value, gap-free.

    Skew-safe shape (same value-quantile salting as :func:`grouped_rank`):
    rows shuffle by (key, value-bucket), where the bucket map sends EQUAL
    values to the SAME bucket (``searchsorted`` on unique sample quantiles),
    so each (key, bucket) task sees every occurrence of its values.  The
    global offset — the number of distinct values in strictly-better buckets
    — comes from a second, tiny shuffle of per-batch-deduplicated
    (key, bucket, value) triples (bounded by distinct values, never rows)
    reduced to distinct counts, folded distributed (:mod:`.carry`) and
    attached budget-gated.  Ties need no id tiebreak: equal values share
    one rank by definition."""
    sample = ds.limit(100_000).select_columns([value_col]).take_all()
    vs = np.array([r[value_col] for r in sample], dtype=np.float64)
    qs = np.quantile(vs, np.linspace(0, 1, n_buckets + 1)[1:-1]) if len(vs) else []
    edges = np.unique(qs)

    def add_bucket(b: pa.Table) -> pa.Table:
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        bkt = np.searchsorted(edges, v, side="left").astype(np.int64)
        return b.append_column("_vb", pa.array(bkt))

    # phase 1 here is a MAP (no shuffle): both consumers just re-execute
    # the lazy read+bucket pipeline — two streaming scans of the pruned
    # input beat a disk checkpoint AND hold no object-store pin (r4)
    withb = ds.map_batches(add_bucket, batch_format="pyarrow")

    # distinct |values| per (key, bucket): batch-local dedupe -> one tiny
    # groupby -> driver-side offset table (rows bounded by distinct values)
    def local_distinct(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        vb = b["_vb"].combine_chunks().to_numpy(zero_copy_only=False)
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((v, vb, k))
        ks, vbs, vss = k[order], vb[order], v[order]
        keep = np.r_[True, (ks[1:] != ks[:-1]) | (vbs[1:] != vbs[:-1]) | (vss[1:] != vss[:-1])] \
            if len(ks) else np.zeros(0, bool)
        return pa.table({key: pa.array(ks[keep]), "_vb": pa.array(vbs[keep]),
                         value_col: pa.array(vss[keep])})

    def count_distinct(g: pa.Table) -> pa.Table:
        v = g[value_col].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({key: g[key].slice(0, 1), "_vb": g["_vb"].slice(0, 1),
                         "_nd": pa.array([len(np.unique(v))], pa.int64())})

    nd_tab = (withb.select_columns([key, "_vb", value_col])
              .map_batches(local_distinct, batch_format="pyarrow")
              .groupby([key, "_vb"]).map_groups(count_distinct, batch_format="pyarrow"))
    offs_ds = fold_carry(nd_tab, key, "_vb", ["_nd"],
                         _bucket_offsets_fold(descending, count_col="_nd"))
    witho = attach_carry(withb, offs_ds, key, "_vb")

    def rank_group(g: pa.Table) -> pa.Table:
        v = g[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        base = int(g["_boff"][0].as_py())
        uniq = np.unique(v)  # ascending distinct values of this bucket
        pos = np.searchsorted(uniq, v)  # dense index within bucket, ascending
        local = (len(uniq) - 1 - pos) if descending else pos
        rank = base + local + 1
        out = {c: g[c] for c in g.column_names if c not in ("_vb", "_boff")}
        out["drnk"] = pa.array(rank.astype(np.int64))
        return pa.table(out)

    return witho.groupby([key, "_vb"]).map_groups(rank_group, batch_format="pyarrow")


def grouped_max_gap(ds, key: str, ts_col: str, window_s: int = 24 * 3600):
    """MAX inter-event gap per key: max(ts - lag(ts) OVER (PARTITION BY key
    ORDER BY ts)), in microseconds.

    Two-phase skew-safe: per (key, time-window) tasks emit (min_ts, max_ts,
    max in-window gap) — windows partition time, so every adjacent pair is
    either inside one window or spans a boundary; a tiny per-key merge of
    the ordered window summaries adds the boundary gaps (next.min - prev.max).
    The per-key reduce sees one row per WINDOW, never per event.  Keys with
    a single event yield NULL (SQL: max over an empty lag set)."""

    def per_window(g: pa.Table) -> pa.Table:
        ts = np.sort(g[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False))
        gap = int(np.diff(ts).max()) if len(ts) > 1 else -1
        return pa.table({
            key: g[key].slice(0, 1),
            "_min_ts": pa.array([int(ts[0])], pa.int64()),
            "_max_ts": pa.array([int(ts[-1])], pa.int64()),
            "_gap": pa.array([gap], pa.int64()),
            "_n": pa.array([len(ts)], pa.int64()),
        })

    part = window_groups(time_windows(ds, ts_col, window_s), key, per_window)

    def merge(g: pa.Table) -> pa.Table:
        mn, mx, gp, n = (column(g, c) for c in ("_min_ts", "_max_ts", "_gap", "_n"))
        order = np.argsort(mn, kind="stable")
        mn, mx, gp = mn[order], mx[order], gp[order]
        best = int(gp.max())
        if len(mn) > 1:
            best = max(best, int((mn[1:] - mx[:-1]).max()))
        total = int(n.sum())
        return pa.table({
            key: g[key].slice(0, 1),
            "max_gap_us": pa.array([best if (total > 1 and best >= 0) else None], pa.int64()),
        })

    return part.groupby(key).map_groups(merge, batch_format="pyarrow")


def transition_counts(ds, key: str, ts_col: str, cat_col: str,
                      id_col: str | None = None, window_s: int = 24 * 3600):
    """Markov transition matrix over a categorical column: counts of
    (prev, cur) pairs where prev = LAG(cat) OVER (PARTITION BY key ORDER BY
    ts, id) — the categorical-lag aggregate (numeric lag is
    :func:`partitioned_lag`).

    Two-phase skew-safe shape: per (key, time-window) tasks count in-window
    transitions and emit them PRE-AGGREGATED (≤ |cats|² rows per task) plus
    one (window, first_cat, last_cat) summary row; a tiny per-key merge of
    the ordered window summaries adds the cross-window transitions (last of
    window i → first of window i+1 — LAG crosses any time gap).  The final
    groupby moves only (prev, cur) partials, never events."""

    def per_window(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        c = g[cat_col].to_numpy(zero_copy_only=False)[order]
        prev, cur = c[:-1], c[1:]
        if len(c) > 1:
            o2 = np.lexsort((cur, prev))
            ps, cs = prev[o2], cur[o2]
            st = np.flatnonzero(np.r_[True, (ps[1:] != ps[:-1]) | (cs[1:] != cs[:-1])])
            n = np.diff(np.r_[st, len(ps)])
            prev_o, cur_o, n_o = ps[st], cs[st], n
        else:
            prev_o = cur_o = c[:0]
            n_o = np.zeros(0, np.int64)
        k0 = g[key][0].as_py()
        w0 = int(g["_window"][0].as_py())
        m = len(prev_o)
        return pa.table({
            key: pa.array([k0] * (m + 1)),
            "_window": pa.array(np.r_[np.full(m, w0, np.int64), w0]),
            "_prev": pa.array(np.r_[prev_o, [c[0]]] if len(c) else prev_o),
            "_cur": pa.array(np.r_[cur_o, [c[-1]]] if len(c) else cur_o),
            "_n": pa.array(np.r_[n_o, [0]].astype(np.int64) if len(c) else n_o),
            # _kind 0 = in-window counts; 1 = (first, last) window summary
            "_kind": pa.array(np.r_[np.zeros(m, np.int8), np.int8(1)] if len(c)
                              else np.zeros(0, np.int8)),
        })

    part = window_groups(time_windows(ds, ts_col, window_s), key, per_window)

    def merge_key(g: pa.Table) -> pa.Table:
        kind = g["_kind"].combine_chunks().to_numpy(zero_copy_only=False)
        w = g["_window"].combine_chunks().to_numpy(zero_copy_only=False)
        pv = g["_prev"].to_numpy(zero_copy_only=False)
        cu = g["_cur"].to_numpy(zero_copy_only=False)
        n = g["_n"].combine_chunks().to_numpy(zero_copy_only=False)
        summ = kind == 1
        order = np.argsort(w[summ], kind="stable")
        # summary rows store _prev=first_cat, _cur=last_cat of their window
        firsts, lasts = pv[summ][order], cu[summ][order]
        bp, bc = lasts[:-1], firsts[1:]  # boundary transitions
        all_prev = np.r_[pv[~summ], bp]
        all_cur = np.r_[cu[~summ], bc]
        all_n = np.r_[n[~summ], np.ones(len(bp), np.int64)]
        o2 = np.lexsort((all_cur, all_prev))
        ps, cs, ns = all_prev[o2], all_cur[o2], all_n[o2]
        st = np.flatnonzero(np.r_[True, (ps[1:] != ps[:-1]) | (cs[1:] != cs[:-1])]) \
            if len(ps) else np.zeros(0, np.int64)
        tot = np.add.reduceat(ns, st) if len(st) else ns[:0]
        m = len(st)
        return pa.table({
            key: pa.array([g[key][0].as_py()] * m),
            "prev_cat": pa.array(ps[st] if m else ps[:0]),
            "cur_cat": pa.array(cs[st] if m else cs[:0]),
            "n_transitions": pa.array(tot.astype(np.int64)),
        })

    return part.groupby(key).map_groups(merge_key, batch_format="pyarrow")


def partitioned_rolling_minmax(ds, key: str, ts_col: str, value_col: str,
                               id_col: str, frame_n: int = 8,
                               window_s: int = 6 * 3600):
    """MIN(value) and MAX(value) OVER (PARTITION BY key ORDER BY ts, id
    ROWS BETWEEN frame_n-1 PRECEDING AND CURRENT ROW) — sliding-frame
    extrema.  The tail carry of :func:`partitioned_rolling_sum`, but
    min/max are idempotent-combinable: the full frame's extremum =
    extremum(in-window truncated frame, last ``missing`` carry values), so
    no inverse operation (and no quantization) is needed — float min/max
    are exact under any combine order."""
    n = int(frame_n)

    def local_frame(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        xs = float_column(g, value_col)[order]
        ext_min = np.r_[np.full(n - 1, np.inf), xs]
        ext_max = np.r_[np.full(n - 1, -np.inf), xs]
        sw_min = np.lib.stride_tricks.sliding_window_view(ext_min, n).min(axis=1)
        sw_max = np.lib.stride_tricks.sliding_window_view(ext_max, n).max(axis=1)
        rmin = np.empty(len(xs))
        rmax = np.empty(len(xs))
        rmin[order], rmax[order] = sw_min, sw_max
        pos = np.empty(len(xs), dtype=np.int64)
        pos[order] = np.arange(len(xs))
        tail = xs[-(n - 1):] if n > 1 else xs[:0]
        out = {c: g[c] for c in g.column_names}
        out["_rmin"], out["_rmax"] = pa.array(rmin), pa.array(rmax)
        out["_pos"] = pa.array(pos)
        out["_tail"] = pa.array([tail.tolist()] * len(xs), type=pa.list_(pa.float64()))
        return pa.table(out)

    def fold(starts, windows, cols):
        return {"_carry": tail_buffer_within_segments(
            cols["_tail"], starts, n - 1, np.float64)}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, local_frame,
                        ["_tail"], fold)

    def fill(b: pa.Table) -> pa.Table:
        pos = column(b, "_pos")
        rmin = column(b, "_rmin").copy()
        rmax = column(b, "_rmax").copy()
        for i, take in carry_heads(b, pos, n - 1, np.float64):
            rmin[i] = min(rmin[i], float(take.min()))
            rmax[i] = max(rmax[i], float(take.max()))
        return with_columns(b, ("_window", "_rmin", "_rmax", "_pos", "_tail", "_carry"),
                            {f"{value_col}_rmin": pa.array(rmin),
                             f"{value_col}_rmax": pa.array(rmax)})

    return withc.map_batches(fill, batch_format="pyarrow")


def exact_quantiles_disc(ds, key: str, value_col: str,
                         qs: tuple = (0.25, 0.5, 0.75), scale: int = 100,
                         fanin: int = 8):
    """PERCENTILE_DISC / quantile_disc semantics: the smallest element whose
    cumulative fraction ≥ q — sorted index ceil(n·q)−1 (DuckDB/Postgres
    convention, probed across n=2..11) — no interpolation, so the output is
    always a real data value.  Same bounded tree-reduced histogram shape as
    :func:`exact_quantiles_quantized`; output columns ``qd<percent>``."""
    from .reduce import tree_reduce

    def hist(b: pa.Table) -> pa.Table:
        if "_cnt" in b.column_names:
            k = b[key].to_numpy(zero_copy_only=False)
            q = b["_q"].combine_chunks().to_numpy(zero_copy_only=False)
            c = b["_cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        else:
            k = b[key].to_numpy(zero_copy_only=False)
            v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
            q = np.round(v * scale).astype(np.int64)
            c = np.ones(len(k), dtype=np.int64)
        order = np.lexsort((q, k))
        ks, qv, cs = k[order], q[order], c[order]
        chg = np.r_[True, (ks[1:] != ks[:-1]) | (qv[1:] != qv[:-1])] if len(ks) else np.zeros(0, bool)
        st = np.flatnonzero(chg)
        csum = np.add.reduceat(cs, st) if len(st) else cs[:0]
        take = pa.array(order[st] if len(st) else [], type=pa.int64())
        return pa.table({key: b[key].take(take),
                         "_q": pa.array(qv[st] if len(st) else qv[:0]),
                         "_cnt": pa.array(csum)})

    agg = tree_reduce(ds.select_columns([key, value_col]), hist, fanin=fanin)

    def finalize(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        qv = b["_q"].combine_chunks().to_numpy(zero_copy_only=False)
        c = b["_cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((qv, k))
        ks, qs_v, cs = k[order], qv[order], c[order]
        chg = np.r_[True, ks[1:] != ks[:-1]] if len(ks) else np.zeros(0, bool)
        st = np.flatnonzero(chg)
        en = np.r_[st[1:], len(ks)]
        names = [f"qd{int(round(qq * 100))}" for qq in qs]
        out: dict = {key: [], **{nm: [] for nm in names}}
        for s, e in zip(st, en):
            vals, cnt = qs_v[s:e], cs[s:e]
            n = int(cnt.sum())
            cum = np.cumsum(cnt)
            out[key].append(ks[s])
            for nm, qq in zip(names, qs):
                idx = max(0, int(np.ceil(n * qq)) - 1)
                lo = int(np.searchsorted(cum, idx + 1))
                out[nm].append(vals[lo] / scale)
        return pa.table({k2: pa.array(v) for k2, v in out.items()})

    return agg.map_batches(finalize, batch_format="pyarrow", batch_size=None)


def session_ids(ds, key: str, ts_col: str, id_col: str, gap_s: int,
                window_s: int = 6 * 3600):
    """Per-ROW gaps-and-islands session ids (1-based per key): a new session
    starts where ts − lag(ts) > gap (or at the key's first row) — the
    row-level complement of :func:`~tsdat_ray.stages.window.session_window_agg`'s
    per-session aggregates.

    One scan: the local kernel counts in-window session starts with the
    window's FIRST row's indicator deferred; the fold derives each
    window's boundary indicator from (first_ts, previous window's
    last_ts) and the exclusive offset from (local totals + boundary
    indicators) — all int64, bit-equal to the sequential scan."""
    gap_us = gap_s * US

    def local_scan(g: pa.Table) -> pa.Table:
        ts, order = ts_order(g, ts_col, id_col)
        tss = ts[order]
        # first row's indicator deferred to the carry (depends on the
        # previous window's last ts); within-window gaps are local
        new = np.r_[np.int64(0),
                    (np.diff(tss) > gap_us).astype(np.int64)]
        cs = np.cumsum(new)
        out_cs = np.empty(len(ts), np.int64)
        out_cs[order] = cs
        out = {c: g[c] for c in g.column_names}
        out["_lcs"] = pa.array(out_cs)
        n = len(ts)
        out["_first_ts"] = pa.array(np.repeat(tss[0], n))
        out["_last_ts"] = pa.array(np.repeat(tss[-1], n))
        out["_ntot"] = pa.array(np.repeat(cs[-1], n))
        return pa.table(out)

    def fold(starts, windows, cols):
        first = np.asarray(cols["_first_ts"], np.int64)
        last = np.asarray(cols["_last_ts"], np.int64)
        ntot = np.asarray(cols["_ntot"], np.int64)
        prev_last = shift_within_segments(last, starts, np.int64(0))
        b = (first - prev_last > gap_us).astype(np.int64)
        b[starts] = 1  # the key's first window always opens session 1
        off = exclusive_prefix_within_segments(ntot + b, starts)
        return {"_off": off, "_b": b}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, local_scan,
                        ["_first_ts", "_last_ts", "_ntot"], fold)

    def finish(b: pa.Table) -> pa.Table:
        sid = column(b, "_lcs") + column(b, "_off") + column(b, "_b")
        return with_columns(b, ("_window", "_lcs", "_first_ts", "_last_ts", "_ntot",
                                "_off", "_b"), {"session_id": pa.array(sid)})

    return withc.map_batches(finish, batch_format="pyarrow")


def partitioned_cusum(ds, key: str, ts_col: str, value_col: str,
                      id_col: str, drift: float, threshold: float,
                      window_s: int = 6 * 3600, value_scale: int = 100):
    """One-sided CUSUM change detection per key: S_t = max(0, S_{t-1} +
    (x_t − drift)), alarm where S_t > threshold — the classic Page (1954)
    statistic, a NON-linear recurrence that still parallelizes because its
    window composition lives in the max-plus semiring:

        with c_j = Σ_{i≤j} y_i inside a window,
        S_j     = max(S_in + c_j, c_j − min_{1≤k≤j} c_k)
        S_out   = max(S_in + C, C − min_k c_k)   (C = window total)

    so the local kernel emits the in-window prefix arrays and per-window
    (C, min-prefix), the fold turns those into per-window S_in carries
    (exact int arithmetic via ``value_scale``), and a final map evaluates
    every row vectorized.  Deterministic and bit-equal to the sequential
    scan."""
    drift_q = int(round(drift * value_scale))

    def local_scan(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        y = np.round(float_column(g, value_col) * value_scale).astype(np.int64) - drift_q
        c = np.cumsum(y[order])
        runmin = np.minimum.accumulate(c)
        cs = np.empty(len(c), dtype=np.int64)
        rm = np.empty(len(c), dtype=np.int64)
        cs[order], rm[order] = c, runmin
        out = {col: g[col] for col in g.column_names}
        out["_c"] = pa.array(cs)
        out["_rm"] = pa.array(rm)
        out["_wtot"] = pa.array(np.full(len(c), c[-1] if len(c) else 0, np.int64))
        out["_wmin"] = pa.array(np.full(len(c), runmin[-1] if len(c) else 0, np.int64))
        return pa.table(out)

    # max-plus fold: S_in(w_{i+1}) = max(S_in(w_i) + C_i, C_i − minc_i),
    # 0 at segment heads
    def fold(starts, windows, cols):
        tot = cols["_wtot"].astype(np.int64)
        mn = cols["_wmin"].astype(np.int64)
        n_rows = len(windows)
        s_in = np.empty(n_rows, dtype=np.int64)
        ends = np.r_[starts[1:], n_rows]
        for st, en in zip(starts, ends):
            s = 0
            for i in range(st, en):
                s_in[i] = s
                s = max(s + tot[i], tot[i] - mn[i])
        return {"_sin": s_in}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, local_scan,
                        ["_wtot", "_wmin"], fold)
    thr_q = threshold * value_scale

    def fill(b: pa.Table) -> pa.Table:
        c = column(b, "_c")
        S = np.maximum(column(b, "_sin") + c, c - column(b, "_rm"))
        return with_columns(b, ("_window", "_c", "_rm", "_wtot", "_wmin", "_sin"),
                            {"cusum": pa.array(S.astype(np.float64) / value_scale),
                             "alarm": pa.array(S > thr_q)})

    return withc.map_batches(fill, batch_format="pyarrow")


def suggest_window_s(ds, key: str, ts_col: str,
                     target_rows_per_group: int = 2000,
                     sample_rows: int = 100_000,
                     lo_s: int = 3600, hi_s: int = 64 * 86400) -> int:
    """Data-driven ``window_s`` for the (key, time-window) salt, encoding the
    group-count law from the module docstring: aim for
    ``target_rows_per_group`` rows per (key, window) group — enough work to
    amortize Ray's per-group overhead, small enough that a hot key still
    spreads.

    Estimates per-key event density from a bounded head sample (one
    ``limit()`` read, deterministic), then window = target / density,
    clamped to [lo_s, hi_s] and rounded up to a whole hour.  The estimate
    only steers task sizing — every operator in this module is exact at ANY
    window width, so a biased sample costs balance, never correctness."""
    tabs = list(
        ds.select_columns([key, ts_col]).limit(sample_rows).iter_batches(
            batch_format="pyarrow", batch_size=None)
    )
    sample = pa.concat_tables(tabs) if tabs else None
    if sample is None or sample.num_rows == 0:
        return lo_s
    ts = sample[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    n_keys = len(np.unique(sample[key].to_numpy(zero_copy_only=False)))
    span_s = max((int(ts.max()) - int(ts.min())) / US, 1.0)
    rows_per_key_per_s = sample.num_rows / (max(n_keys, 1) * span_s)
    if rows_per_key_per_s <= 0:
        return hi_s
    win = target_rows_per_group / rows_per_key_per_s
    win = int(min(max(win, lo_s), hi_s))
    return ((win + 3599) // 3600) * 3600


def partitioned_lag_k(ds, key: str, ts_col: str, value_col: str,
                      id_col: str, offset_k: int = 3,
                      window_s: int = 6 * 3600):
    """LAG(value, k) OVER (PARTITION BY key ORDER BY ts, id) for any k ≥ 1,
    with the rolling-frame tail carry: each (key, window) repeats its last
    <= k values, the fold keeps a k-deep running tail per key, and rows
    whose in-window position < k read their lag from the carried tail.
    NULL for the first k rows of each key (SQL semantics).  Output column
    ``{value_col}_lag{k}`` (``{value_col}_lag`` at k = 1)."""
    k_ = int(offset_k)
    out_col = f"{value_col}_lag{k_}" if k_ > 1 else f"{value_col}_lag"

    def local_frame(g: pa.Table) -> pa.Table:
        _, order = ts_order(g, ts_col, id_col)
        xs = float_column(g, value_col)[order]
        lag_sorted = np.full(len(xs), np.nan)
        if len(xs) > k_:
            lag_sorted[k_:] = xs[:-k_]
        lag = np.empty(len(xs))
        lag[order] = lag_sorted
        pos = np.empty(len(xs), dtype=np.int64)
        pos[order] = np.arange(len(xs))
        tail = xs[-k_:]
        out = {c: g[c] for c in g.column_names}
        out["_lagv"] = pa.array(lag)
        out["_pos"] = pa.array(pos)
        out["_tail"] = pa.array([tail.tolist()] * len(xs), type=pa.list_(pa.float64()))
        return pa.table(out)

    def fold(starts, windows, cols):
        return {"_carry": tail_buffer_within_segments(
            cols["_tail"], starts, k_, np.float64)}

    withc = window_scan(time_windows(ds, ts_col, window_s), key, local_frame,
                        ["_tail"], fold)

    def fill(b: pa.Table) -> pa.Table:
        pos = column(b, "_pos")
        lag = column(b, "_lagv").copy()
        for i, take in carry_heads(b, pos, k_, np.float64):
            if len(take) == k_ - pos[i]:
                lag[i] = take[0]
        return with_columns(b, ("_window", "_lagv", "_pos", "_tail", "_carry"),
                            {out_col: pa.array(lag)})

    return withc.map_batches(fill, batch_format="pyarrow")


def partitioned_nth_value(ds, key: str, ts_col: str, value_col: str,
                          id_col: str, nth: int = 2):
    """NTH_VALUE(value, n) OVER (PARTITION BY key ORDER BY ts, id ROWS
    BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) — the n-th row's
    value per key, repeated on every row (NULL for keys with < n rows).
    Per-batch combiners keep each block's n smallest (ts, id) rows per key;
    a keyed fold picks the n-th per key DISTRIBUTED (vectorized segment
    select — no driver map), attached budget-gated."""

    def local_nsmallest(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        ids = b[id_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, ts, k))
        ks = k[order]
        st = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) if len(ks) else np.zeros(0, np.int64)
        within = np.arange(len(ks)) - np.repeat(st, np.diff(np.r_[st, len(ks)]))
        keep = order[within < nth]
        return b.select([key, ts_col, id_col, value_col]).take(
            pa.array(np.sort(keep), type=pa.int64()))

    out_col = f"{value_col}_nth{nth}"

    def pick_nth(g: pa.Table) -> pa.Table:
        k = g[key].to_numpy(zero_copy_only=False)
        ts = g[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        ids = g[id_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = g[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, ts, k))
        ks = k[order]
        st = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) if len(ks) else np.zeros(0, np.int64)
        within = np.arange(len(ks)) - np.repeat(st, np.diff(np.r_[st, len(ks)]))
        sel = within == nth - 1
        seg_id = np.repeat(np.arange(len(st)), np.diff(np.r_[st, len(ks)])) \
            if len(st) else np.zeros(0, np.int64)
        res = np.full(len(st), np.nan)
        res[seg_id[sel]] = v[order][sel]
        return pa.table({key: pa.array(ks[st] if len(st) else ks[:0]),
                         out_col: pa.array(res)})

    nths = keyed_fold(ds.select_columns([key, ts_col, id_col, value_col])
                      .map_batches(local_nsmallest, batch_format="pyarrow"), key,
                      pick_nth)

    return attach_carry(ds, nths, key, None)


def windowed_pair_join(left, right, key: str, ts_col: str,
                       left_id: str, right_id: str, range_s: int,
                       window_s: int = 6 * 3600):
    """Stream-stream windowed equi-join: emit every (left, right) pair with
    the same key and |t_left − t_right| ≤ range_s — the two-sided row-
    emitting sibling of :func:`lookahead_count` (which only counts, one-
    sided).  Both sides shuffle by (key, time-window); right rows within
    ``range_s`` of a window EDGE replicate into the neighboring window
    (duplication ≤ 2·range/window), so each pair materializes exactly once
    — in the window holding its LEFT row.  Per group: sort right once, two
    searchsorteds per left row, vectorized np.repeat pair expansion.
    Requires range_s ≤ window_s."""
    if range_s > window_s:
        raise ValueError("range_s must be <= window_s (one-window halo)")
    win_us = window_s * US
    rng_us = range_s * US

    def tag(side: int):
        def f(b: pa.Table) -> pa.Table:
            ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
            ids = b[left_id if side == 0 else right_id].combine_chunks().to_numpy(
                zero_copy_only=False)
            k = b[key].to_numpy(zero_copy_only=False)
            w = (ts // win_us) * win_us
            if side == 0:
                return pa.table({key: pa.array(k), "_w": pa.array(w),
                                 "_ts": pa.array(ts), "_id": pa.array(ids),
                                 "_side": pa.array(np.zeros(len(k), np.int8))})
            # halo: right rows near the leading/trailing edge also emit into
            # the previous/next window
            off = ts - w
            prev = off < rng_us
            nxt = off >= win_us - rng_us
            ks = np.r_[k, k[prev], k[nxt]]
            ws = np.r_[w, w[prev] - win_us, w[nxt] + win_us]
            tss = np.r_[ts, ts[prev], ts[nxt]]
            idd = np.r_[ids, ids[prev], ids[nxt]]
            return pa.table({key: pa.array(ks), "_w": pa.array(ws),
                             "_ts": pa.array(tss), "_id": pa.array(idd),
                             "_side": pa.array(np.ones(len(ks), np.int8))})

        return f

    u = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow"))

    def per_window(g: pa.Table) -> pa.Table:
        side = g["_side"].combine_chunks().to_numpy(zero_copy_only=False)
        ts = g["_ts"].combine_chunks().to_numpy(zero_copy_only=False)
        ids = g["_id"].combine_chunks().to_numpy(zero_copy_only=False)
        lm = side == 0
        lt, lid = ts[lm], ids[lm]
        rt, rid = ts[~lm], ids[~lm]
        order = np.argsort(rt, kind="stable")
        rt, rid = rt[order], rid[order]
        lo = np.searchsorted(rt, lt - rng_us, side="left")
        hi = np.searchsorted(rt, lt + rng_us, side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        rep_l = np.repeat(np.arange(len(lt)), cnt)
        offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        ridx = np.repeat(lo, cnt) + offs
        return pa.table({
            "id_left": pa.array(lid[rep_l]),
            "id_right": pa.array(rid[ridx]),
        })

    return u.groupby([key, "_w"]).map_groups(per_window, batch_format="pyarrow")


def windowed_active_users(ds, user_col: str = "user_id", ts_col: str = "ts",
                          window_days: int = 7):
    """Sliding-window DISTINCT count (weekly-active-users per day): for each
    day w, the number of distinct users active in [w−6, w].

    Windowed COUNT(DISTINCT) does not merge, so instead of re-deduping per
    window the engine exploits the interval structure: one keyed fold
    co-locates each user's distinct (user, day) pairs; a vectorized pass
    merges each user's activity into covered-window INTERVALS (a new run
    starts when the gap exceeds the window), and each interval contributes
    ±1 to a per-partition day-indexed diff array.  The global fold is one
    bounded diff-vector sum + cumsum — per-window counts without ever
    materializing (window, user) pairs.  Returns (day_num, wau), days with
    zero active users omitted."""
    import ray.data as rd

    w = np.int64(window_days - 1)

    def partial(b: pa.Table) -> pa.Table:
        u = b[user_col].combine_chunks().to_numpy(zero_copy_only=False)
        day = (b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False) // np.int64(86_400_000_000))
        order = np.lexsort((day, u))
        us, ds_ = u[order], day[order]
        keep = np.r_[True, (us[1:] != us[:-1]) | (ds_[1:] != ds_[:-1])] \
            if len(us) else np.zeros(0, bool)
        us, ds_ = us[keep], ds_[keep]
        return pa.table({"_u": pa.array(us), "_d": pa.array(ds_)})

    def intervals(g: pa.Table) -> pa.Table:
        u = g["_u"].combine_chunks().to_numpy(zero_copy_only=False)
        d = g["_d"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((d, u))
        us, ds_ = u[order], d[order]
        keep = np.r_[True, (us[1:] != us[:-1]) | (ds_[1:] != ds_[:-1])] \
            if len(us) else np.zeros(0, bool)
        us, ds_ = us[keep], ds_[keep]
        # a user's covered windows = union of [d, d+w]; runs merge while
        # the next active day starts before the previous coverage ends
        if not len(us):
            return pa.table({"_day": pa.array([], pa.int64()),
                             "_delta": pa.array([], pa.int64())})
        brk = np.r_[True, (us[1:] != us[:-1]) | (ds_[1:] > ds_[:-1] + w)]
        st = np.flatnonzero(brk)
        en = np.r_[st[1:], len(us)] - 1
        # fold the per-user interval endpoints into per-DAY ±1 deltas right
        # here: the partition's output is bounded by the day range, never by
        # its user count
        pts = np.r_[ds_[st], ds_[en] + w + 1]
        sgn = np.r_[np.ones(len(st), np.int64), -np.ones(len(en), np.int64)]
        order = np.argsort(pts, kind="stable")
        pts, sgn = pts[order], sgn[order]
        bd = np.flatnonzero(np.r_[True, pts[1:] != pts[:-1]]) \
            if len(pts) else np.zeros(0, np.int64)
        return pa.table({
            "_day": pa.array(pts[bd] if len(bd) else pts[:0]),
            "_delta": pa.array(np.add.reduceat(sgn, bd)
                               if len(bd) else sgn[:0]),
        })

    parts = keyed_fold(ds.select_columns([user_col, ts_col])
                       .map_batches(partial, batch_format="pyarrow"), "_u",
                       intervals)
    deltas: dict[int, int] = {}
    for t in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        for dny, dl in zip(t["_day"].to_pylist(), t["_delta"].to_pylist()):
            deltas[dny] = deltas.get(dny, 0) + dl
    if not deltas:
        return rd.from_arrow(pa.table({"day_num": pa.array([], pa.int64()),
                                       "wau": pa.array([], pa.int64())}))
    lo = min(deltas)
    hi = max(deltas)
    diff = np.zeros(hi - lo + 1, dtype=np.int64)
    for k, v in deltas.items():
        diff[k - lo] += v
    counts = np.cumsum(diff)
    days = np.arange(lo, hi + 1, dtype=np.int64)
    nz = counts > 0
    return rd.from_arrow(pa.table({"day_num": pa.array(days[nz]),
                                   "wau": pa.array(counts[nz])}))


def windowed_quantiles_disc(ds, key: str, ts_col: str, value_col: str,
                            interval_s: int = 3600,
                            qs: tuple = (0.5, 0.95), scale: int = 100):
    """Exact PERCENTILE_DISC per (key, time window) — the p50/p95-per-hour
    observability tier the mean/min/max rollups can't answer.  Same
    convention as :func:`exact_quantiles_disc` (smallest element with
    cumulative fraction ≥ q, sorted index ceil(n·q)−1); values are
    1/scale-quantized so histograms are exact integers.

    Combiner push-down: per-batch (key, window, cent) partial counts (one
    row per distinct triple per block — repeated values collapse before the
    shuffle), one (key, window) groupby folds and reads the quantiles off
    the sorted cumulative histogram.  Output: key, bucket, ``qd<percent>``."""
    iv_us = interval_s * US

    def hist(b: pa.Table) -> pa.Table:
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        k = b[key].to_numpy(zero_copy_only=False)
        w = (ts // iv_us) * iv_us
        cent = np.round(v * scale).astype(np.int64)
        order = np.lexsort((cent, w, k))
        ks, ws, cv = k[order], w[order], cent[order]
        chg = np.r_[True, (ks[1:] != ks[:-1]) | (ws[1:] != ws[:-1])
                    | (cv[1:] != cv[:-1])] if len(ks) else np.zeros(0, bool)
        st = np.flatnonzero(chg)
        cnt = np.diff(np.r_[st, len(ks)]).astype(np.int64) if len(st) else \
            np.zeros(0, np.int64)
        take = pa.array(order[st] if len(st) else [], type=pa.int64())
        return pa.table({key: b[key].take(take),
                         "_window": pa.array(ws[st] if len(st) else ws[:0]),
                         "_c": pa.array(cv[st] if len(st) else cv[:0]),
                         "_cnt": pa.array(cnt)})

    names = [f"qd{int(round(qq * 100))}" for qq in qs]

    def finalize(g: pa.Table) -> pa.Table:
        cv = g["_c"].combine_chunks().to_numpy(zero_copy_only=False)
        cnt = g["_cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(cv, kind="stable")
        cv, cnt = cv[order], cnt[order]
        # merge duplicate cents from different blocks
        chg = np.r_[True, cv[1:] != cv[:-1]]
        st = np.flatnonzero(chg)
        cv = cv[st]
        cnt = np.add.reduceat(cnt, st)
        csum = np.cumsum(cnt)
        n = int(csum[-1])
        out = {key: g[key].slice(0, 1),
               "bucket": pa.array(np.array([g["_window"][0].as_py()],
                                           dtype=np.int64).astype("datetime64[us]"))}
        for qq, nm in zip(qs, names):
            thr = int(np.ceil(n * qq))
            idx = int(np.searchsorted(csum, max(thr, 1)))
            out[nm] = pa.array([cv[idx] / scale])
        return pa.table(out)

    return window_groups(ds.map_batches(hist, batch_format="pyarrow"), key,
                         finalize)
