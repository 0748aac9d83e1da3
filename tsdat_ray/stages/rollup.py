"""Tiered continuous-aggregate rollup (raw → 1m → 1h → 1d).

Semantics derive from the reference's bin-average transform
(/root/reference/tsdat/transform_v2/bin_average/calculate_bin_average.py:15-111
and _weighted_average.py / _weighted_std.py / _perform_bin_average_qc_checks.py):
for tier buckets the output is the weighted mean / std / goodfraction of the
bucket's inputs with Bad-flagged and missing inputs excluded, plus the fixed
transform-QC bit table.  For aligned tiers with point samples every weight is
1, so the rollup is exactly decomposable into the partial sums
(Σw, Σwx, Σwx², n, n_bad, n_ind) which each tier row carries so the next tier
aggregates **exactly** the same numbers as aggregating raw (window-ordered
summation keeps floats deterministic; SURVEY.md §7.4-2).

The token-array invariant comes from the reference's nearest-neighbor
subsample (transform_v2/nearest_neighbor/calculate_nearest_neighbor.py:8-41):
each bucket selects the one input row whose ``ts`` is closest to the bucket
center (ties → the later row, matching xarray reindex "nearest" tie-breaking
observed in the reference's 19-point golden) and carries its ``tokens`` array
verbatim through every tier.

Two physical plans, one shared vectorized kernel (``rollup_batch``):

* ``rollup``      — groupby([key, _window]).map_groups(kernel): ONE all-to-all
  exchange of the full input; supports cross-batch dedup.  The semantic
  reference plan.
* ``rollup_fast`` — combiner push-down (the 100 TB plan): the kernel runs per
  **batch** first (map_batches, no shuffle), emitting tier-shaped partial
  rows; only those partials — one per (key, bucket) per block, orders of
  magnitude smaller than the input and WITHOUT re-shipping every token
  payload — go through the groupby, where the same kernel (cascade mode, same
  interval) merges them.  Partials carry ``_first_ts`` (min contributing
  input ts) and the combine sorts on it, so float summation order and the
  nearest-row tie-break stay deterministic under any block layout.
  Requires ``dedup=False`` or upstream-deduplicated input (the flagship
  pipeline dedups in its clean stage, co-located per (source, day)).

Group size in both plans is bounded by ``window_s`` regardless of source skew
(a hot source becomes many windows, not one giant group) — the salting
strategy the north rule asks for, with the time range itself as the salt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import (
    BAD_ASSESSMENT_BITS,
    GOODFRAC_BAD_MIN,
    GOODFRAC_IND_MIN,
    QC_ALL_BAD_INPUTS,
    QC_BAD,
    QC_BAD_GOODFRAC,
    QC_INDETERMINATE,
    QC_INDETERMINATE_GOODFRAC,
    QC_SOME_BAD_INPUTS,
    QC_ZERO_WEIGHT,
)

US = 1_000_000


@dataclass(frozen=True)
class RollupConfig:
    interval_s: int
    key: str = "source"
    ts_col: str = "ts"
    values: tuple[str, ...] = ("n_tok", "tok_mean")
    window_s: int = 86400
    carry_tokens: bool = True
    id_col: str = "doc_id"  # deterministic tiebreak + subsample identity
    carry_cols: tuple[str, ...] = ("tokens",)  # payload carried from selected row
    dedup: bool = True  # drop duplicate (key, ts) rows, keep first by id
    bad_bits: int = BAD_ASSESSMENT_BITS
    ind_bits: int = 0
    goodfrac_bad_min: float = GOODFRAC_BAD_MIN
    goodfrac_ind_min: float = GOODFRAC_IND_MIN


def floor_bucket_us(ts_us: np.ndarray, interval_s: int) -> np.ndarray:
    """Bucket label = ts floored to the interval, anchored at the unix epoch
    (matches SQL date_trunc/time_bucket for 60/3600/86400 s)."""
    iv = np.int64(interval_s * US)
    return (ts_us // iv) * iv


def _segment_starts(change: np.ndarray) -> np.ndarray:
    """Start indices of segments given a per-row 'differs from previous' mask
    (first row always starts a segment)."""
    if len(change) == 0:
        return np.zeros(0, dtype=np.int64)
    change = change.copy()
    change[0] = True
    return np.flatnonzero(change).astype(np.int64)


def _key_change(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row 'differs from the previous row on (a, b)' mask of sorted keys
    (first row always True)."""
    if not len(a):
        return np.zeros(0, bool)
    return np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]


def dedup_order(g: pa.Table, row_id: np.ndarray, ts_us: np.ndarray, codes: np.ndarray,
                bad_bits: int = BAD_ASSESSMENT_BITS, tiebreak: bool = True) -> np.ndarray:
    """Row order for the exact (key, ts) dedup: by key code, ts, then id, so
    the first row of each (key, ts) run is the survivor."""
    # duplicate ids exist (same doc resent with a different payload): with
    # ``tiebreak`` the survivor is chosen by a CONTENT total order so dedup
    # is bit-deterministic under any arrival order.  Chain (standardize.py
    # list_column_tiebreak / list_column_content_hash):
    #   _tb (len·2³²+Σtokens)  — SQL-reproducible,
    #   bad flag + filled n_tok — SQL-reproducible (covers _tb ties
    #   with divergent injected corruption),
    #   _tb2 (order-sensitive payload hash) — engine-only final key
    #   (SQL-checked aggregates are already identical at that depth;
    #   _tb2 pins the carried payload).
    keys = [row_id, ts_us, codes]
    names = g.column_names

    def col(c: str) -> np.ndarray:
        return g[c].combine_chunks().to_numpy(zero_copy_only=False)

    if tiebreak and "_tb" in names:
        keys = [col("_tb")] + keys
        if "qc_n_tok" in names and "n_tok" in names:
            bad = ((col("qc_n_tok") & bad_bits) != 0).astype(np.int8)
            ntf = np.nan_to_num(
                g["n_tok"].combine_chunks().cast(pa.float64())
                .to_numpy(zero_copy_only=False), nan=0.0).astype(np.int64)
            keys = [ntf, bad] + keys
        if "_tb2" in names:
            keys = [col("_tb2")] + keys
    return np.lexsort(tuple(keys))


def _seg_sum(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    return np.add.reduceat(x, starts) if len(starts) else np.zeros(0, dtype=x.dtype)


def _key_codes(col) -> tuple[np.ndarray, pa.Array]:
    """Dictionary-encode the key column → (int32 codes, values array)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    d = arr.dictionary_encode()
    return d.indices.to_numpy(zero_copy_only=False).astype(np.int64), arr


def _bucket_qc_bits(
    n: np.ndarray,
    n_bad: np.ndarray,
    n_ind: np.ndarray,
    sum_w: np.ndarray,
    goodfrac: np.ndarray,
    cfg: RollupConfig,
) -> np.ndarray:
    """Transform-QC bits per bucket (parity with the reference's
    _perform_bin_average_qc_checks.py:30-79 bit table, computed from counters)."""
    bad_fraction = np.divide(n_bad, n, out=np.zeros_like(n, dtype=float), where=n > 0)
    qc = np.zeros(len(n), dtype=np.int64)
    qc |= QC_INDETERMINATE * (n_ind > 0)
    qc |= QC_SOME_BAD_INPUTS * ((bad_fraction > 0) & (bad_fraction < 1))
    qc |= QC_ZERO_WEIGHT * (sum_w == 0)
    qc |= (QC_ALL_BAD_INPUTS | QC_BAD) * np.isclose(bad_fraction, 1.0)
    gf = np.where(np.isnan(goodfrac), 0.0, goodfrac)
    qc |= QC_BAD_GOODFRAC * (gf < cfg.goodfrac_bad_min)
    qc |= QC_INDETERMINATE_GOODFRAC * (gf < cfg.goodfrac_ind_min)
    return qc.astype(np.int32)


def _finalize_value(
    out: dict,
    v: str,
    sum_w: np.ndarray,
    sum_wx: np.ndarray,
    sum_wx2: np.ndarray,
    n: np.ndarray,
    n_bad: np.ndarray,
    n_ind: np.ndarray,
    cfg: RollupConfig,
    vmin: np.ndarray | None = None,
    vmax: np.ndarray | None = None,
) -> None:
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(sum_w > 0, sum_wx / sum_w, np.nan)
        var = sum_wx2 / sum_w - mean * mean
        std = np.where(sum_w > 0, np.sqrt(np.maximum(var, 0.0)), np.nan)
        goodfrac = np.where(n > 0, (n - n_bad) / np.maximum(n, 1), np.nan)
    out[f"{v}_mean"] = mean
    out[f"{v}_std"] = std
    out[f"{v}_goodfraction"] = goodfrac
    out[f"qc_{v}"] = _bucket_qc_bits(n, n_bad, n_ind, sum_w, goodfrac, cfg)
    out[f"{v}_sum_w"] = sum_w
    out[f"{v}_sum_wx"] = sum_wx
    out[f"{v}_sum_wx2"] = sum_wx2
    out[f"{v}_n"] = n.astype(np.int64)
    out[f"{v}_n_bad"] = n_bad.astype(np.int64)
    out[f"{v}_n_ind"] = n_ind.astype(np.int64)
    if vmin is not None:
        out[f"{v}_min"] = vmin
        out[f"{v}_max"] = vmax


def _select_nearest(
    bucket: np.ndarray, starts: np.ndarray, counts: np.ndarray, ts_us: np.ndarray, interval_us: int
) -> np.ndarray:
    """Per bucket segment: index of the row whose ts is nearest the bucket
    center, ties → the row with the larger ts.  Rows must be sorted so ts is
    nondecreasing within each segment."""
    center = bucket + interval_us // 2
    dist = np.abs(ts_us - center[np.repeat(np.arange(len(starts)), counts)])
    mind = np.minimum.reduceat(dist, starts)
    is_min = dist == np.repeat(mind, counts)
    pos = np.where(is_min, np.arange(len(dist)), -1)
    return np.maximum.reduceat(pos, starts)


def rollup_batch(g: pa.Table, cfg: RollupConfig, from_tier: bool = False) -> pa.Table:
    """The shared rollup kernel: any mix of keys/buckets in one Arrow table →
    one tier-shaped row per (key, bucket), fully vectorized (no Python row
    loop).  Works as the per-group finalizer (grouped plan), the per-batch
    partial aggregator, and the partial combiner (cascade mode at the same
    interval merges tier-shaped rows exactly — sums of sums).
    """
    codes, key_arr = _key_codes(g[cfg.key])
    iv_us = cfg.interval_s * US

    if from_tier:
        return _rollup_cascade_sorted(g, cfg, codes, key_arr, iv_us)
    return _rollup_raw_sorted(g, cfg, codes, key_arr, iv_us)


def _rollup_raw_sorted(g, cfg, codes, key_arr, iv_us):
    ts_us = g[cfg.ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    row_id = g[cfg.id_col].to_numpy(zero_copy_only=False)
    order = dedup_order(g, row_id, ts_us, codes, cfg.bad_bits, tiebreak=cfg.dedup)
    ts_s = ts_us[order]
    code_s = codes[order]

    if cfg.dedup:  # exact dedup on (key, ts), keep first by id (smallest id)
        keep = _key_change(ts_s, code_s)
        sel_rows = order[keep]
        ts_s, code_s = ts_s[keep], code_s[keep]
    else:
        sel_rows = order

    bucket = floor_bucket_us(ts_s, cfg.interval_s)
    starts = _segment_starts(_key_change(bucket, code_s))
    counts = np.diff(np.r_[starts, len(bucket)])
    blabels = bucket[starts] if len(starts) else np.zeros(0, np.int64)
    out: dict = {
        cfg.key: key_arr.take(pa.array(sel_rows[starts], type=pa.int64())),
        "bucket": pa.array(blabels, type=pa.int64()).cast(pa.timestamp("us")),
        "n_rows": counts.astype(np.int64),
        "_first_ts": ts_s[starts] if len(starts) else np.zeros(0, np.int64),
    }
    # deterministic combine tiebreak when two partials of one (key, bucket)
    # share _first_ts (possible with dedup=False + duplicate timestamps
    # split across blocks): a stable uint64 hash of the minimal contributing
    # row id — any deterministic total order works, and the fixed-width hash
    # keeps the shuffle payload and the combine lexsort cheap (an object-
    # dtype string id column cost ~25% of the 16-CPU flagship wall)
    import pandas as pd

    first_ids = g[cfg.id_col].take(pa.array(sel_rows[starts], type=pa.int64()))
    out["_first_id"] = pa.array(
        pd.util.hash_array(np.asarray(first_ids.to_numpy(zero_copy_only=False)))
    )

    ones = np.ones(len(ts_s), dtype=np.float64)
    for v in cfg.values:
        x = g[v].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)[sel_rows]
        if f"qc_{v}" in g.column_names:
            qc = g[f"qc_{v}"].combine_chunks().to_numpy(zero_copy_only=False)[sel_rows]
        else:
            qc = np.zeros(len(x), dtype=np.int32)
        bad = ((qc & cfg.bad_bits) != 0) | np.isnan(x)
        ind = ((qc & cfg.ind_bits) != 0) & ~bad if cfg.ind_bits else np.zeros(len(x), bool)
        w = np.where(bad, 0.0, ones)
        xw = np.where(bad, 0.0, x)
        xmin = np.where(bad, np.inf, x)
        xmax = np.where(bad, -np.inf, x)
        vmin = np.minimum.reduceat(xmin, starts) if len(starts) else np.zeros(0)
        vmax = np.maximum.reduceat(xmax, starts) if len(starts) else np.zeros(0)
        _finalize_value(
            out,
            v,
            sum_w=_seg_sum(w, starts),
            sum_wx=_seg_sum(xw * w, starts),
            sum_wx2=_seg_sum(xw * xw * w, starts),
            n=counts.astype(np.int64),
            n_bad=_seg_sum(bad.astype(np.int64), starts),
            n_ind=_seg_sum(ind.astype(np.int64), starts),
            cfg=cfg,
            vmin=np.where(np.isfinite(vmin), vmin, np.nan),
            vmax=np.where(np.isfinite(vmax), vmax, np.nan),
        )

    if cfg.carry_tokens:
        if len(starts):
            pick = _select_nearest(blabels, starts, counts, ts_s, iv_us)
            take = pa.array(sel_rows[pick], type=pa.int64())
        else:
            take = pa.array([], type=pa.int64())
        out[f"sel_{cfg.id_col}"] = g[cfg.id_col].take(take)
        out["sel_ts"] = g[cfg.ts_col].take(take)
        for c in cfg.carry_cols:
            out[c] = g[c].take(take)

    return pa.table(out)


def _rollup_cascade_sorted(g, cfg, codes, key_arr, iv_us):
    b_us = g["bucket"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    if "_first_ts" in g.column_names:
        first_ts = g["_first_ts"].combine_chunks().to_numpy(zero_copy_only=False)
    else:
        first_ts = b_us
    if "_first_id" in g.column_names:
        first_id = g["_first_id"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((first_id, first_ts, b_us, codes))
    else:
        first_id = None
        order = np.lexsort((first_ts, b_us, codes))
    b_s, code_s, first_s = b_us[order], codes[order], first_ts[order]
    take = pa.array(order, type=pa.int64())

    bucket = floor_bucket_us(b_s, cfg.interval_s)
    starts = _segment_starts(_key_change(bucket, code_s))
    counts = np.diff(np.r_[starts, len(bucket)])
    blabels = bucket[starts] if len(starts) else np.zeros(0, np.int64)
    m = len(starts)

    def col(name: str) -> np.ndarray:
        return g[name].combine_chunks().to_numpy(zero_copy_only=False)[order]

    out: dict = {
        cfg.key: key_arr.take(pa.array(order[starts], type=pa.int64())),
        "bucket": pa.array(blabels, type=pa.int64()).cast(pa.timestamp("us")),
        "n_rows": _seg_sum(col("n_rows"), starts),
        "_first_ts": first_s[starts] if m else np.zeros(0, np.int64),
    }
    if first_id is not None:
        out["_first_id"] = g["_first_id"].take(pa.array(order[starts], type=pa.int64()))
    for v in cfg.values:
        has_minmax = f"{v}_min" in g.column_names
        vmin = vmax = None
        if has_minmax:
            xmin = np.where(np.isnan(col(f"{v}_min")), np.inf, col(f"{v}_min"))
            xmax = np.where(np.isnan(col(f"{v}_max")), -np.inf, col(f"{v}_max"))
            vmin = np.minimum.reduceat(xmin, starts) if m else np.zeros(0)
            vmax = np.maximum.reduceat(xmax, starts) if m else np.zeros(0)
            vmin = np.where(np.isfinite(vmin), vmin, np.nan)
            vmax = np.where(np.isfinite(vmax), vmax, np.nan)
        _finalize_value(
            out,
            v,
            sum_w=_seg_sum(col(f"{v}_sum_w"), starts),
            sum_wx=_seg_sum(col(f"{v}_sum_wx"), starts),
            sum_wx2=_seg_sum(col(f"{v}_sum_wx2"), starts),
            n=_seg_sum(col(f"{v}_n"), starts),
            n_bad=_seg_sum(col(f"{v}_n_bad"), starts),
            n_ind=_seg_sum(col(f"{v}_n_ind"), starts),
            cfg=cfg,
            vmin=vmin,
            vmax=vmax,
        )

    if cfg.carry_tokens and "sel_ts" in g.column_names:
        sel_ts = g["sel_ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)[order]
        # candidates within a segment must be ts-nondecreasing for the
        # tie-break; re-sort each segment by sel_ts via a scoped lexsort
        if m:
            seg_id = np.repeat(np.arange(m), counts)
            sub = np.lexsort((sel_ts, seg_id))
            pick = sub[_select_nearest(blabels, starts, counts, sel_ts[sub], iv_us)]
            ptake = pa.array(order[np.asarray(pick)], type=pa.int64())
        else:
            ptake = pa.array([], type=pa.int64())
        out[f"sel_{cfg.id_col}"] = g[f"sel_{cfg.id_col}"].take(ptake)
        out["sel_ts"] = g["sel_ts"].take(ptake)
        for c in cfg.carry_cols:
            out[c] = g[c].take(ptake)

    return pa.table(out)


def _add_window(ds, ts_col: str, window_s: int, from_tier: bool):
    src = "bucket" if from_tier else ts_col

    def add(batch: pa.Table) -> pa.Table:
        ts_us = batch[src].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        return batch.append_column("_window", pa.array(floor_bucket_us(ts_us, window_s)))

    return ds.map_batches(add, batch_format="pyarrow")


def rollup(ds, cfg: RollupConfig, from_tier: bool = False):
    """Grouped (semantic-reference) plan: raw rows (from_tier=False) or finer
    tier rows (from_tier=True) → tier, via ONE full
    ``groupby([key, _window]).map_groups`` exchange.  Supports cross-batch
    dedup within each (key, window)."""
    ds = _add_window(ds, cfg.ts_col, cfg.window_s, from_tier)

    def run(group: pa.Table) -> pa.Table:
        return rollup_batch(group.drop_columns(["_window"]), cfg, from_tier)

    return ds.groupby([cfg.key, "_window"]).map_groups(run, batch_format="pyarrow")


def rollup_fast(ds, cfg: RollupConfig, from_tier: bool = False):
    """Combiner plan (the scale path): per-batch partial aggregation, then a
    shuffle of ONLY the tier-shaped partials, merged by the same kernel.

    Exactly equal to ``rollup`` output (deterministic combine order via
    ``_first_ts``) provided input needs no cross-batch dedup: pass
    ``dedup=False`` or feed upstream-deduplicated data (the flagship's clean
    stage dedups per (source, day) before this)."""

    def partial(batch: pa.Table) -> pa.Table:
        return rollup_batch(batch, cfg, from_tier)

    def combine(group: pa.Table) -> pa.Table:
        return rollup_batch(group.drop_columns(["_window"]), cfg, from_tier=True)

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    partials = _add_window(partials, "bucket", cfg.window_s, from_tier=True)
    return partials.groupby([cfg.key, "_window"]).map_groups(combine, batch_format="pyarrow")


def calendar_rollup(ds, key: str, ts_col: str, value_col: str,
                    unit: str = "month", value_scale: int = 100):
    """Calendar-aware rollup: buckets are true calendar units (month, week,
    quarter, year — NON-uniform widths), which ``floor_bucket_us``'s
    fixed-seconds arithmetic cannot express.  Bucketing uses Arrow's
    ``floor_temporal`` (week starts Monday, matching SQL date_trunc).

    Combiner push-down: each batch pre-aggregates per (key, bucket) with the
    exact-decimal recipe — sums accumulate as int64 of round(v*scale), so
    the per-(key, bucket) combine is associative integer addition and the
    emitted ``value_sum`` bit-equals ``ROUND(sum(v), log10(scale))`` under
    ANY block layout; ``value_mean`` is defined as rounded-sum / n on both
    sides.  The final shuffle moves one row per (key, bucket) per block."""

    def partial(b: pa.Table) -> pa.Table:
        bucket = pc.floor_temporal(b[ts_col].combine_chunks(), unit=unit)
        bus = bucket.cast(pa.int64()).to_numpy(zero_copy_only=False)
        codes, key_arr = _key_codes(b[key])
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        cents = np.round(v * value_scale).astype(np.int64)
        order = np.lexsort((bus, codes))
        cs, bs = codes[order], bus[order]
        vs, cc = v[order], cents[order]
        st = _segment_starts(np.r_[True, (cs[1:] != cs[:-1]) | (bs[1:] != bs[:-1])]) \
            if len(cs) else np.zeros(0, np.int64)
        n = np.diff(np.r_[st, len(cs)])
        return pa.table({
            key: key_arr.take(pa.array(order[st], type=pa.int64())),
            "bucket": pa.array(bs[st].astype("datetime64[us]")),
            "n_rows": pa.array(n.astype(np.int64)),
            "_sum_i": pa.array(np.add.reduceat(cc, st) if len(st) else cc[:0]),
            "_min": pa.array(np.minimum.reduceat(vs, st) if len(st) else vs[:0]),
            "_max": pa.array(np.maximum.reduceat(vs, st) if len(st) else vs[:0]),
        })

    def combine(g: pa.Table) -> pa.Table:
        bus = g["bucket"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = g["n_rows"].combine_chunks().to_numpy(zero_copy_only=False)
        si = g["_sum_i"].combine_chunks().to_numpy(zero_copy_only=False)
        mn = g["_min"].combine_chunks().to_numpy(zero_copy_only=False)
        mx = g["_max"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(bus, kind="stable")
        bs = bus[order]
        st = _segment_starts(np.r_[True, bs[1:] != bs[:-1]]) if len(bs) else np.zeros(0, np.int64)
        ns = np.add.reduceat(n[order], st) if len(st) else n[:0]
        ss = np.add.reduceat(si[order], st) if len(st) else si[:0]
        sums = ss.astype(np.float64) / float(value_scale)
        return pa.table({
            key: g[key].take(pa.array(order[st] if len(st) else [], type=pa.int64())),
            "bucket": pa.array((bs[st] if len(st) else bs[:0]).astype("datetime64[us]")),
            "n_rows": pa.array(ns.astype(np.int64)),
            "value_sum": pa.array(sums),
            "value_mean": pa.array(sums / ns if len(st) else sums),
            "value_min": pa.array(np.minimum.reduceat(mn[order], st) if len(st) else mn[:0]),
            "value_max": pa.array(np.maximum.reduceat(mx[order], st) if len(st) else mx[:0]),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key, "bucket"]).map_groups(combine, batch_format="pyarrow"))


def best_tier(interval_s: int, tiers: dict[str, int]) -> str:
    """Continuous-aggregate READ planning: pick the coarsest stored tier
    whose interval divides the requested bucket width, so a 2h query is
    served by re-aggregating the 1h tier (24 rows/key/day) instead of raw
    events — the serve-from-rollup half of the tier cascade (TimescaleDB
    real-time-aggregate shape; the reference always re-reads raw,
    tsdat/io/base/storage.py:126).

    Exactness holds because tier sums are cent-quantized integers
    (associative re-accumulation) and min/max/count are order-free — the
    re-aggregated answer is bit-identical to computing from raw."""
    ok = {t: iv for t, iv in tiers.items() if interval_s % iv == 0}
    if not ok:
        # No stored tier's windows nest into the requested bucket (e.g. a
        # 90s request over 1m tiers): re-aggregating ANY tier would
        # mis-bucket, so signal "read raw" — exactness over convenience.
        return "raw"
    return max(ok, key=lambda t: ok[t])
