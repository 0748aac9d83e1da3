"""Exact grouped statistics over quantized columns.

The reference computes per-bin mean/std inside its transform kernels
(/root/reference/tsdat/transform_v2/bin_average/calculate_bin_average.py:75-109,
_weighted_std.py:4) but has no cross-column statistics; these are
engine-native additions for corpus analytics.

Determinism contract: inputs are decimal-quantized, so sufficient statistics
(n, Σx, Σy, Σx², Σy², Σxy) accumulate as EXACT integers — per block in
int64 (safe while block_rows × max(x_int·y_int)² < 2⁶³), merged on the
driver in Python arbitrary-precision ints.  Integer addition is associative,
so the result is bit-identical under any block/combine order; the final
float expression is spelled identically on the engine and SQL sides
(``num / (sqrt(denx) * sqrt(deny))`` — sqrt and divide are correctly-rounded
IEEE ops, so both sides produce the same double).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from .reduce import key_hash, keyed_fold


def _suffstats_partial(group_col: str, x_col: str, y_col: str,
                       x_scale: int, y_scale: int):
    """Per-block partial sufficient statistics (n, Σx, Σy, Σx², Σy², Σxy)
    over integer-quantized (x, y), one output row per (block, group)."""

    def partial(b: pa.Table) -> pa.Table:
        g = b[group_col].combine_chunks()
        d = g.dictionary_encode()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        x = np.round(
            b[x_col].combine_chunks().to_numpy(zero_copy_only=False) * x_scale
        ).astype(np.int64)
        y = np.round(
            b[y_col].combine_chunks().to_numpy(zero_copy_only=False) * y_scale
        ).astype(np.int64)
        order = np.argsort(codes, kind="stable")
        cs = codes[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]]) if len(cs) else np.zeros(0, np.int64)
        xs, ys = x[order], y[order]

        def seg(v):
            return np.add.reduceat(v, starts) if len(starts) else v[:0]

        return pa.table(
            {
                group_col: d.dictionary.take(pa.array(cs[starts] if len(starts) else [],
                                                      type=pa.int64())),
                "n": pa.array(np.diff(np.r_[starts, len(cs)]).astype(np.int64)
                              if len(starts) else np.zeros(0, np.int64)),
                "sx": pa.array(seg(xs)),
                "sy": pa.array(seg(ys)),
                "sxx": pa.array(seg(xs * xs)),
                "syy": pa.array(seg(ys * ys)),
                "sxy": pa.array(seg(xs * ys)),
            }
        )

    return partial


def grouped_covar_slope(ds, group_col: str, x_col: str, y_col: str,
                        x_scale: int = 100, y_scale: int = 1):
    """Exact grouped population covariance + OLS slope (y on x) from the
    same integer sufficient statistics as :func:`grouped_corr`.

    Both outputs are spelled as the identical float expression on the SQL
    side, so results are bit-equal::

        covar_xy = CAST(n*sxy - sx*sy AS DOUBLE) / CAST(n*n*xs*ys AS DOUBLE)
        slope    = CAST(n*sxy - sx*sy AS DOUBLE) / CAST(n*sxx - sx*sx AS DOUBLE)
                   * (xs / ys)
    """
    partial = _suffstats_partial(group_col, x_col, y_col, x_scale, y_scale)
    acc = _fold_suffstats(ds, partial, group_col)

    out_g, out_cov, out_slope = [], [], []
    for k in sorted(acc):
        n, sx, sy, sxx, syy, sxy = acc[k]
        num = n * sxy - sx * sy
        denx = n * sxx - sx * sx
        out_g.append(k)
        out_cov.append(float(num) / float(n * n * x_scale * y_scale) if n else None)
        out_slope.append(float(num) / float(denx) * (x_scale / y_scale)
                         if denx > 0 else None)

    import ray.data as rd

    return rd.from_arrow(pa.table({
        group_col: pa.array(out_g),
        "covar_xy": pa.array(out_cov, pa.float64()),
        "slope_yx": pa.array(out_slope, pa.float64()),
    }))


def _fold_suffstats(ds, partial, group_col: str) -> dict:
    """Drain per-(block, group) partial sufficient statistics and fold them
    in Python arbitrary-precision ints (exact at any scale)."""
    acc: dict = {}
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        keys = b[group_col].to_pylist()
        cols = {c: b[c].to_pylist() for c in ("n", "sx", "sy", "sxx", "syy", "sxy")}
        for i, k in enumerate(keys):
            row = acc.setdefault(k, [0, 0, 0, 0, 0, 0])
            for j, c in enumerate(("n", "sx", "sy", "sxx", "syy", "sxy")):
                row[j] += int(cols[c][i])
    return acc


def seg_int_sums(keys: np.ndarray, vals: dict[str, np.ndarray],
                 key_name: str) -> pa.Table:
    """Exact integer segment sums keyed on ``keys``: one row per distinct
    key (ascending) with every ``vals`` array summed by argsort + segment
    ``reduceat``.  Integer addition is associative, so the sums are
    bit-identical under any downstream combine order."""
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    st = (np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
          if len(ks) else np.zeros(0, np.int64))
    out = {key_name: pa.array(ks[st] if len(st) else ks[:0])}
    for name, v in vals.items():
        vv = v[order]
        out[name] = pa.array(np.add.reduceat(vv, st) if len(st) else vv[:0])
    return pa.table(out)


def grouped_int_sums(ds, key: str, vals: list[str] | tuple[str, ...]):
    """Exact grouped integer sums: per-block :func:`seg_int_sums` partials,
    one :func:`~tsdat_ray.stages.reduce.keyed_fold`.  ``key`` and every column in
    ``vals`` must already be int64 (quantize decimals upstream with
    round(v*scale)).  Integer addition is associative, so the result is
    bit-identical under any block/combine order — the engine's standard
    exact-decimal aggregation shape (see rollup.py and CLAUDE.md recipes).

    Scale: the shuffle moves only per-(block, key) partials, and per-task
    memory is bounded by the distinct keys of one fold call.  Output: one
    row per key with summed ``vals``."""
    vals = list(vals)

    def segsum(t: pa.Table) -> pa.Table:
        return seg_int_sums(
            t[key].combine_chunks().to_numpy(zero_copy_only=False),
            {v: t[v].combine_chunks().to_numpy(zero_copy_only=False)
             for v in vals}, key)

    return keyed_fold(ds.map_batches(segsum, batch_format="pyarrow"), key,
                      segsum)


def grouped_corr(ds, group_col: str, x_col: str, y_col: str,
                 x_scale: int = 100, y_scale: int = 1):
    """Exact Pearson correlation of (x, y) per group.

    ``x_scale``/``y_scale``: decimal quantum reciprocals (value·scale must be
    integral, e.g. 100 for cent-quantized columns).  One pass, no shuffle:
    per-block partial sufficient statistics (vectorized segment sums) drain
    to the driver — one row per (block, group), bounded by groups × blocks —
    and fold exactly in Python ints.

    SQL twin::

        WITH q AS (SELECT g, CAST(ROUND(x*xs) AS BIGINT) x,
                          CAST(ROUND(y*ys) AS BIGINT) y FROM t)
        SELECT g, CAST(n*sxy - sx*sy AS DOUBLE)
                  / (sqrt(CAST(n*sxx - sx*sx AS DOUBLE))
                     * sqrt(CAST(n*syy - sy*sy AS DOUBLE))) ...
    """

    partial = _suffstats_partial(group_col, x_col, y_col, x_scale, y_scale)
    acc = _fold_suffstats(ds, partial, group_col)

    out_g, out_c = [], []
    for k in sorted(acc):
        n, sx, sy, sxx, syy, sxy = acc[k]
        num = n * sxy - sx * sy
        denx = n * sxx - sx * sx
        deny = n * syy - sy * sy
        den = math.sqrt(float(denx)) * math.sqrt(float(deny))
        out_g.append(k)
        out_c.append(float(num) / den if den > 0 else None)

    import ray.data as rd

    return rd.from_arrow(
        pa.table({group_col: pa.array(out_g), "corr_xy": pa.array(out_c, pa.float64())})
    )


def grouped_ohlc(ds, key: str, ts_col: str, value_col: str, id_col: str,
                 interval_s: int = 3600, value_scale: int = 100):
    """OHLC candles per (key, time bucket): open = value at the earliest
    (ts, id), close = value at the latest (ts, id), low/high = min/max —
    the classic financial downsample the tier rollup's mean/min/max lacks.

    Combiner push-down: per-block partials carry, per (key, bucket),
    (open ts/id/vq, close ts/id/vq, lo, hi, n); the merge — pick the partial
    with the lexicographically smallest (ts, id) for open, largest for
    close, min/max/sum the rest — is associative with a (ts, id) total
    order, so the result is bit-deterministic under any block layout.  One
    keyed fold of partial rows by (key, bucket) finalizes; values are exact
    ``round(v·scale)`` ints until the final division."""
    US = 1_000_000
    iv_us = interval_s * US

    def partial(b: pa.Table) -> pa.Table:
        kd = b[key].combine_chunks().dictionary_encode()
        codes = kd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        vq = np.round(v * value_scale).astype(np.int64)
        bkt = (ts // iv_us) * iv_us
        order = np.lexsort((ids, ts, bkt, codes))
        cs, bs = codes[order], bkt[order]
        tss, idss, vqs = ts[order], ids[order], vq[order]
        st = np.flatnonzero(np.r_[True, (cs[1:] != cs[:-1]) | (bs[1:] != bs[:-1])]) \
            if len(cs) else np.zeros(0, np.int64)
        en = np.r_[st[1:], len(cs)] - 1 if len(st) else st
        return pa.table({
            key: kd.dictionary.take(pa.array(cs[st], type=pa.int64())),
            "_bucket": pa.array(bs[st] if len(st) else bs[:0]),
            "_ots": pa.array(tss[st] if len(st) else tss[:0]),
            "_oid": pa.array(idss[st] if len(st) else idss[:0]),
            "_ovq": pa.array(vqs[st] if len(st) else vqs[:0]),
            "_cts": pa.array(tss[en] if len(st) else tss[:0]),
            "_cid": pa.array(idss[en] if len(st) else idss[:0]),
            "_cvq": pa.array(vqs[en] if len(st) else vqs[:0]),
            "_lo": pa.array(np.minimum.reduceat(vqs, st) if len(st) else vqs[:0]),
            "_hi": pa.array(np.maximum.reduceat(vqs, st) if len(st) else vqs[:0]),
            "_n": pa.array(np.diff(np.r_[st, len(cs)]).astype(np.int64)
                           if len(st) else np.zeros(0, np.int64)),
        })

    def fold(g: pa.Table) -> pa.Table:
        k = g[key].to_numpy(zero_copy_only=False)
        bkt = g["_bucket"].combine_chunks().to_numpy(zero_copy_only=False)
        cols = {c: g[c].combine_chunks().to_numpy(zero_copy_only=False)
                for c in ("_ots", "_oid", "_ovq", "_cts", "_cid", "_cvq",
                          "_lo", "_hi", "_n")}
        # open: first partial by (ots, oid) per (key, bucket)
        oo = np.lexsort((cols["_oid"], cols["_ots"], bkt, k))
        ks, bs = k[oo], bkt[oo]
        st = np.flatnonzero(np.r_[True, (ks[1:] != ks[:-1]) | (bs[1:] != bs[:-1])]) \
            if len(ks) else np.zeros(0, np.int64)
        open_vq = cols["_ovq"][oo][st]
        # close: last partial by (cts, cid) per (key, bucket) — same segment
        # boundaries hold for any within-(key,bucket) permutation
        co = np.lexsort((cols["_cid"], cols["_cts"], bkt, k))
        en = np.r_[st[1:], len(ks)] - 1 if len(st) else st
        close_vq = cols["_cvq"][co][en]
        lo = np.minimum.reduceat(cols["_lo"][oo], st) if len(st) else st
        hi = np.maximum.reduceat(cols["_hi"][oo], st) if len(st) else st
        n = np.add.reduceat(cols["_n"][oo], st) if len(st) else st
        sc = float(value_scale)
        return pa.table({
            key: pa.array(ks[st] if len(st) else ks[:0]),
            "bucket_ts": pa.array((bs[st] if len(st) else bs[:0])
                                  .astype("datetime64[us]")),
            "open": pa.array(open_vq.astype(np.float64) / sc),
            "high": pa.array(np.asarray(hi, np.int64).astype(np.float64) / sc),
            "low": pa.array(np.asarray(lo, np.int64).astype(np.float64) / sc),
            "close": pa.array(close_vq.astype(np.float64) / sc),
            "n": pa.array(np.asarray(n, np.int64)),
        })

    return keyed_fold(ds.map_batches(partial, batch_format="pyarrow"),
                      [key, "_bucket"], fold)


def grouped_mode(ds, key: str, value_col: str, value_scale: int = 100):
    """Exact MODE per key over a 1/scale-quantized column — most frequent
    value, ties broken by smallest value (a total order, so the result is
    deterministic and SQL-matchable).

    Combiner push-down: per-block partial counts per (key, vq) — the
    shuffle moves one row per (block, key, distinct value), bounded by the
    value domain, never by row count — then a per-key argmax over the
    summed partials."""

    def partial(b: pa.Table) -> pa.Table:
        kd = b[key].combine_chunks().dictionary_encode()
        codes = kd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        vq = np.round(v * value_scale).astype(np.int64)
        n = (b["_n"].combine_chunks().to_numpy(zero_copy_only=False)
             if "_n" in b.column_names else np.ones(len(vq), dtype=np.int64))
        order = np.lexsort((vq, codes))
        cs, vs, ns = codes[order], vq[order], n[order]
        st = np.flatnonzero(np.r_[True, (cs[1:] != cs[:-1]) | (vs[1:] != vs[:-1])]) \
            if len(cs) else np.zeros(0, np.int64)
        return pa.table({
            key: kd.dictionary.take(pa.array(cs[st], type=pa.int64())),
            value_col: pa.array((vs[st] if len(st) else vs[:0])
                                .astype(np.float64) / float(value_scale)),
            "_n": pa.array(np.add.reduceat(ns, st) if len(st) else ns[:0]),
        })

    def argmax(g: pa.Table) -> pa.Table:
        v = g[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        vq = np.round(v * value_scale).astype(np.int64)
        n = g["_n"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(vq, kind="stable")
        vs, ns = vq[order], n[order]
        st = np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]]) \
            if len(vs) else np.zeros(0, np.int64)
        tot = np.add.reduceat(ns, st)
        best = int(np.argmax(tot))  # first max = smallest value (sorted)
        return pa.table({
            key: g[key].slice(0, 1),
            "mode_value": pa.array([float(vs[st][best]) / value_scale]),
            "n_mode": pa.array([int(tot[best])], type=pa.int64()),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(key).map_groups(argmax, batch_format="pyarrow"))


def mad_outliers(ds, key: str, value_col: str, k: int = 3, scale: int = 100):
    """Robust outlier flagging: rows where |v - median| > k*MAD within their
    ``key`` group (median absolute deviation; the classic robust alternative
    to z-scores for anomaly detection).  Both medians are PERCENTILE_DISC
    order statistics over ``scale``-quantized integers, so every comparison
    is integer-exact and reproducible by ``quantile_disc`` in SQL.  Three
    column-pruned streaming passes: median fold (bounded histogram
    tree-reduce), deviation-median fold, vectorized filter -- the broadcast
    state is one integer pair per group."""
    import ray

    from .window_funcs import exact_quantiles_disc

    def _disc_map(src, out_scale: int) -> dict:
        out: dict = {}
        for t in src.iter_batches(batch_format="pyarrow", batch_size=None):
            for g, m in zip(t[key].to_pylist(), t["qd50"].to_pylist()):
                out[g] = int(round(m * out_scale))
        return out

    med = _disc_map(exact_quantiles_disc(
        ds.select_columns([key, value_col]), key=key, value_col=value_col,
        qs=(0.5,), scale=scale), scale)
    med_ref = ray.put(med)

    def dev(b: pa.Table) -> pa.Table:
        m = ray.get(med_ref)
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        cents = np.round(v * scale).astype(np.int64)
        meds = np.array([m[g] for g in b[key].to_pylist()], dtype=np.int64)
        return pa.table({key: b[key], "_dev": pa.array(np.abs(cents - meds))})

    devs = ds.select_columns([key, value_col]).map_batches(
        dev, batch_format="pyarrow")
    mad = _disc_map(exact_quantiles_disc(devs, key=key, value_col="_dev",
                                         qs=(0.5,), scale=1), 1)
    med_mad_ref = ray.put((med, mad))

    def flag(b: pa.Table) -> pa.Table:
        m, md = ray.get(med_mad_ref)
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)
        cents = np.round(v * scale).astype(np.int64)
        grp = b[key].to_pylist()
        meds = np.array([m[g] for g in grp], dtype=np.int64)
        mads = np.array([md[g] for g in grp], dtype=np.int64)
        return b.filter(pa.array(np.abs(cents - meds) > k * mads))

    return ds.map_batches(flag, batch_format="pyarrow")


def cooccurrence_pairs(ds, key_cols, item_col: str):
    """Market-basket co-occurrence: for every unordered pair of ``item_col``
    values observed inside the same group (the composite ``key_cols``
    basket), the number of baskets containing both.

    Shape: per-block distinct (basket, item) partials (the shuffle moves
    deduped pairs, not rows) → ONE keyed fold co-locating each basket
    hash → fully VECTORIZED within-partition pair emission (segment
    reshape/repeat arithmetic — no per-basket Python; baskets are bounded by
    the item-domain size) → a bounded (item_a, item_b) count fold.  Returns
    (item_a, item_b, n) with item_a < item_b."""

    def distinct_partial(b: pa.Table) -> pa.Table:
        basket = key_hash(b, key_cols).view(np.int64)
        item = b[item_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((item, basket))
        bk, it = basket[order], item[order]
        keep = np.r_[True, (bk[1:] != bk[:-1]) | (it[1:] != it[:-1])] \
            if len(bk) else np.zeros(0, bool)
        return pa.table({
            "_basket": pa.array(bk[keep]),
            item_col: pa.array(it[keep]),
        })

    def pairs_in_partition(g: pa.Table) -> pa.Table:
        bk = g["_basket"].combine_chunks().to_numpy(zero_copy_only=False)
        enc = g[item_col].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        order = np.lexsort((codes, bk))
        bk_s, it_s = bk[order], codes[order]
        keep = np.r_[True, (bk_s[1:] != bk_s[:-1]) | (it_s[1:] != it_s[:-1])] \
            if len(bk_s) else np.zeros(0, bool)
        bk_s, it_s = bk_s[keep], it_s[keep]
        st = np.flatnonzero(np.r_[True, bk_s[1:] != bk_s[:-1]]) \
            if len(bk_s) else np.zeros(0, np.int64)
        sz = np.diff(np.r_[st, len(bk_s)])
        # all (i < j) index pairs per segment, pure arithmetic
        cnt = sz * (sz - 1) // 2
        tot = int(cnt.sum())
        if not tot:
            return pa.table({"item_a": pa.array([], pa.string()),
                             "item_b": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        seg = np.repeat(np.arange(len(sz)), cnt)
        within = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        # enumerate pairs (i, j) of 0..s-1 in lexicographic order:
        # i = s-2-floor((sqrt(8*(cnt_s-1-w)+1)-1)/2) is fiddly — use the
        # standard row-major expansion instead: i advances when the running
        # triangle boundary passes
        s_of = sz[seg]
        w = within
        i = (np.floor((2 * s_of - 1 - np.sqrt((2 * s_of - 1) ** 2 - 8 * w))
                      / 2)).astype(np.int64)
        j = (w - (i * (2 * s_of - i - 1)) // 2 + i + 1).astype(np.int64)
        base = np.repeat(st, cnt)
        a_, b_ = it_s[base + i], it_s[base + j]
        lo, hi = np.minimum(a_, b_), np.maximum(a_, b_)
        packed = lo * np.int64(len(vocab)) + hi
        u, c = np.unique(packed, return_counts=True)
        return pa.table({
            "item_a": pa.array(vocab[(u // len(vocab))].tolist(), pa.string()),
            "item_b": pa.array(vocab[(u % len(vocab))].tolist(), pa.string()),
            "n": pa.array(c.astype(np.int64)),
        })

    pairs = keyed_fold(ds.map_batches(distinct_partial, batch_format="pyarrow"),
                       "_basket", pairs_in_partition)
    acc: dict[tuple, int] = {}
    for t in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        for a, b2, n in zip(t["item_a"].to_pylist(), t["item_b"].to_pylist(),
                            t["n"].to_pylist()):
            # partition-local dictionary CODES ordered the pair; normalize
            # to string order here so every partition lands on one key
            k = (a, b2) if a <= b2 else (b2, a)
            acc[k] = acc.get(k, 0) + n
    import ray.data as rd

    ks = sorted(acc)
    return rd.from_arrow(pa.table({
        "item_a": pa.array([k[0] for k in ks], pa.string()),
        "item_b": pa.array([k[1] for k in ks], pa.string()),
        "n": pa.array([acc[k] for k in ks], pa.int64()),
    }))


def ks_2samp(ds, value_col: str, side_col: str, side_a, side_b):
    """Exact two-sample Kolmogorov–Smirnov statistic between the
    ``value_col`` distributions of rows where ``side_col == side_a`` vs
    ``== side_b`` — the distribution-drift test a corpus-QA pipeline runs
    between two sources / snapshots.

    Every comparison is integer (cross-multiplied ECDFs):
    ``D = max_v |cumA(v)·nB − cumB(v)·nA|`` with the final statistic
    ``D / (nA·nB)`` divided double-first on both sides — hash-exact vs SQL
    window functions.

    Scale shape: per-batch (value, side) count combiner → one groupby over
    DISTINCT values (for a continuous statistic, quantize first — the
    support, not the corpus, bounds everything downstream) → a single
    constant-key task sorts the support, takes prefix sums, and emits ONE
    row: ``(n_a, n_b, ks_num, ks_at, ks_stat)``; ``ks_at`` is the smallest
    value attaining the max."""

    def partial(b: pa.Table) -> pa.Table:
        v = b[value_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        s = b[side_col].to_numpy(zero_copy_only=False)
        a_mask, b_mask = s == side_a, s == side_b
        out_v, out_a, out_b = [], [], []
        for m, which in ((a_mask, 0), (b_mask, 1)):
            uv, cnt = np.unique(v[m], return_counts=True)
            out_v.append(uv)
            out_a.append(cnt if which == 0 else np.zeros(len(uv), np.int64))
            out_b.append(cnt if which == 1 else np.zeros(len(uv), np.int64))
        vv = np.concatenate(out_v) if out_v else np.zeros(0, np.int64)
        return pa.table({
            "_v": pa.array(vv.astype(np.int64)),
            "_ca": pa.array(np.concatenate(out_a).astype(np.int64)),
            "_cb": pa.array(np.concatenate(out_b).astype(np.int64)),
        })

    def fold_support(g: pa.Table) -> pa.Table:
        v = g["_v"].combine_chunks().to_numpy(zero_copy_only=False)
        ca = g["_ca"].combine_chunks().to_numpy(zero_copy_only=False)
        cb = g["_cb"].combine_chunks().to_numpy(zero_copy_only=False)
        uv = np.unique(v)
        idx = np.searchsorted(uv, v)
        sa = np.zeros(len(uv), np.int64)
        sb = np.zeros(len(uv), np.int64)
        np.add.at(sa, idx, ca)
        np.add.at(sb, idx, cb)
        return pa.table({"_v": pa.array(uv), "_ca": pa.array(sa),
                         "_cb": pa.array(sb),
                         "_one": pa.array(np.zeros(len(uv), np.int64))})

    def finalize(g: pa.Table) -> pa.Table:
        v = g["_v"].combine_chunks().to_numpy(zero_copy_only=False)
        ca = g["_ca"].combine_chunks().to_numpy(zero_copy_only=False)
        cb = g["_cb"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(v, kind="stable")
        v, ca, cb = v[order], ca[order], cb[order]
        cum_a, cum_b = np.cumsum(ca), np.cumsum(cb)
        n_a, n_b = int(cum_a[-1]) if len(v) else 0, int(cum_b[-1]) if len(v) else 0
        d = np.abs(cum_a * n_b - cum_b * n_a)
        ks_num = int(d.max()) if len(v) else 0
        ks_at = int(v[int(np.argmax(d))]) if len(v) else 0
        denom = np.float64(n_a * n_b) if n_a and n_b else np.float64(1)
        return pa.table({
            "n_a": pa.array([n_a], pa.int64()),
            "n_b": pa.array([n_b], pa.int64()),
            "ks_num": pa.array([ks_num], pa.int64()),
            "ks_at": pa.array([ks_at], pa.int64()),
            "ks_stat": pa.array([float(np.float64(ks_num) / denom)], pa.float64()),
        })

    return (keyed_fold(ds.map_batches(partial, batch_format="pyarrow"), "_v",
                       fold_support)
            .groupby("_one").map_groups(finalize, batch_format="pyarrow"))


def corpus_fingerprint(ds, id_col: str = "doc_id", text_col: str = "text",
                       fanin: int = 8):
    """Order-independent corpus checksum for dataset versioning: one row
    ``(n_rows, fp48)`` where ``fp48 = Σ md5_48("<id>|<text>") mod 2^48`` —
    the audit primitive that lets two pipelines (or two engine versions, or
    engine vs SQL) assert they hold the SAME logical corpus without moving
    it.  Addition mod 2^48 is commutative/associative, so the fold is
    partition-order-free; md5 keeps it portable (``md5()`` exists in DuckDB,
    Spark, shells — the :func:`..sampling.md5_split` recipe) and 48 bits fit
    a BIGINT exactly on both sides.

    Scale shape: per-batch partial (hashing is C-speed per row; payload
    never leaves the task — only a 2-int partial does) + tree reduce."""
    import hashlib

    from .reduce import tree_reduce

    MOD = 1 << 48

    def partial(t: pa.Table) -> pa.Table:
        if "fp48" in t.column_names:  # merge level
            n = int(sum(t["n_rows"].to_pylist()))
            s = int(sum(t["fp48"].to_pylist()) % MOD)
            return pa.table({"n_rows": pa.array([n], pa.int64()),
                             "fp48": pa.array([s], pa.int64())})
        ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        txt = t[text_col].combine_chunks().fill_null("").to_pylist()
        acc = 0
        for i, s in zip(ids, txt):
            acc += int(hashlib.md5(
                (str(i) + "|" + s).encode()).hexdigest()[:12], 16)
        return pa.table({"n_rows": pa.array([len(ids)], pa.int64()),
                         "fp48": pa.array([acc % MOD], pa.int64())})

    return tree_reduce(ds.select_columns([id_col, text_col]), partial,
                       fanin=fanin)


def winsorized_sums(ds, key: str, value_col: str,
                    lo_q: float = 0.01, hi_q: float = 0.99,
                    scale: int = 100):
    """Winsorized (clipped-at-quantile) totals per key: clip ``value`` to
    the key's exact discrete [lo_q, hi_q] quantiles, then sum — the robust
    aggregate that bounds the influence of outliers without dropping rows.

    Two passes: (1) exact per-key PERCENTILE_DISC thresholds from the
    bounded tree-reduced histogram (:func:`..window_funcs.exact_quantiles_disc`
    — real data values, so SQL ``quantile_disc`` reproduces them bit-exactly);
    (2) a tiny (|keys| rows — key is a bounded enum by contract, never a
    user-grade id) threshold table broadcast once, clip + int-cent partial
    sums per block, one salted fold (the CLAUDE.md exact-decimal recipe:
    integer addition is associative, so any combine order lands on the same
    cents).  Output: (key, n, wins_sum) with wins_sum = cents/scale."""
    import ray

    from .window_funcs import exact_quantiles_disc

    qt = exact_quantiles_disc(ds, key=key, value_col=value_col,
                              qs=(lo_q, hi_q), scale=scale)
    names = [f"qd{int(round(q * 100))}" for q in (lo_q, hi_q)]
    thr: dict = {}
    for b in qt.iter_batches(batch_format="pyarrow", batch_size=None):
        for kk, lo, hi in zip(b[key].to_pylist(),
                              b[names[0]].to_pylist(),
                              b[names[1]].to_pylist()):
            thr[kk] = (int(round(lo * scale)), int(round(hi * scale)))
    thr_ref = ray.put(thr)

    def partial(b: pa.Table) -> pa.Table:
        t = ray.get(thr_ref)
        k = b[key].to_numpy(zero_copy_only=False)
        v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(
            zero_copy_only=False)
        c = np.round(v * scale).astype(np.int64)
        lo = np.array([t[kk][0] for kk in k], dtype=np.int64)
        hi = np.array([t[kk][1] for kk in k], dtype=np.int64)
        c = np.minimum(np.maximum(c, lo), hi)
        order = np.argsort(k, kind="stable")
        ks, cs = k[order], c[order]
        st = (np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
              if len(ks) else np.zeros(0, np.int64))
        return pa.table({
            key: pa.array(ks[st] if len(st) else ks[:0]),
            "_n": pa.array(np.diff(np.r_[st, len(ks)]).astype(np.int64)),
            "_c": pa.array(np.add.reduceat(cs, st) if len(st) else cs[:0]),
        })

    def fold(g: pa.Table) -> pa.Table:
        k = g[key].to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        ks = k[order]
        st = (np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
              if len(ks) else np.zeros(0, np.int64))
        n = g["_n"].combine_chunks().to_numpy(zero_copy_only=False)[order]
        c = g["_c"].combine_chunks().to_numpy(zero_copy_only=False)[order]
        return pa.table({
            key: pa.array(ks[st] if len(st) else ks[:0]),
            "n": pa.array(np.add.reduceat(n, st) if len(st) else n[:0]),
            "wins_sum": pa.array(
                (np.add.reduceat(c, st) if len(st) else c[:0]) / scale),
        })

    return keyed_fold(ds.select_columns([key, value_col])
                      .map_batches(partial, batch_format="pyarrow"), key, fold)


def profile_columns(ds, cols: tuple[str, ...], fanin: int = 8):
    """Data-profiler summary: one row per column with exact
    ``(n_rows, n_null, n_distinct)`` — the schema-audit primitive (what a
    Great-Expectations/Deequ profile computes before writing expectations).

    Scale shape: one streaming pass emits per-batch partials — a
    len(cols)-row count table (tree-reduced: bounded domain) and per-batch
    PRE-DEDUPED (column, value-key) pairs that flow into the engine's
    distinct-set tree fold (:func:`..dedup.distinct_count`), so the moving
    set is bounded by distinct values, never rows.  Value keys: floats via
    ``repr`` after ``+0.0`` (folds -0.0 into 0.0 the way SQL equality
    does; repr is injective on doubles), ints/strings verbatim — distinct
    COUNTS are representation-independent, so no cross-engine text-format
    contract is needed.  NULLs are excluded from distinct (the SQL
    ``count(DISTINCT col)`` convention) and counted separately."""
    from .dedup import distinct_count
    from .reduce import tree_reduce

    cols = list(cols)

    def canon(arr: pa.ChunkedArray) -> list:
        a = arr.combine_chunks()
        ty = a.type
        vals = a.drop_null()
        if pa.types.is_floating(ty):
            return [repr(x + 0.0) for x in vals.to_pylist()]
        return [str(x) for x in vals.to_pylist()]

    def pairs(b: pa.Table) -> pa.Table:
        out_c, out_v = [], []
        for c in cols:
            u = sorted(set(canon(b[c])))
            out_c.extend([c] * len(u))
            out_v.extend(u)
        return pa.table({"column": pa.array(out_c, pa.string()),
                         "vkey": pa.array(out_v, pa.string())})

    def counts(b: pa.Table) -> pa.Table:
        if "n_rows" in b.column_names:  # merge level
            k = b["column"].to_numpy(zero_copy_only=False)
            order = np.argsort(k, kind="stable")
            ks = k[order]
            st = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) if len(ks) \
                else np.zeros(0, np.int64)
            n = b["n_rows"].combine_chunks().to_numpy(
                zero_copy_only=False)[order]
            z = b["n_null"].combine_chunks().to_numpy(
                zero_copy_only=False)[order]
            return pa.table({
                "column": pa.array(ks[st] if len(st) else ks[:0]),
                "n_rows": pa.array(np.add.reduceat(n, st)
                                   if len(st) else n[:0]),
                "n_null": pa.array(np.add.reduceat(z, st)
                                   if len(st) else z[:0])})
        return pa.table({
            "column": pa.array(cols, pa.string()),
            "n_rows": pa.array([b.num_rows] * len(cols), pa.int64()),
            "n_null": pa.array([b[c].null_count for c in cols], pa.int64())})

    cnt_tabs = list(tree_reduce(ds, counts, fanin=fanin)
                    .iter_batches(batch_format="pyarrow", batch_size=None))
    dct_tabs = list(distinct_count(
        ds.map_batches(pairs, batch_format="pyarrow"),
        key="column", value="vkey", fanin=fanin)
        .iter_batches(batch_format="pyarrow", batch_size=None))
    cnt = {r["column"]: (r["n_rows"], r["n_null"])
           for r in pa.concat_tables(cnt_tabs).to_pylist()}
    dct = {r["column"]: r["n_distinct"]
           for r in pa.concat_tables(dct_tabs).to_pylist()}
    return pa.table({
        "column": pa.array(cols, pa.string()),
        "n_rows": pa.array([cnt[c][0] for c in cols], pa.int64()),
        "n_null": pa.array([cnt[c][1] for c in cols], pa.int64()),
        "n_distinct": pa.array([dct.get(c, 0) for c in cols], pa.int64()),
    })


def gini_concentration(ds, value_col: str = "n_chars", fanin: int = 8):
    """Gini coefficient of a non-negative integer column as an EXACT
    integer fraction ``(gini_num, gini_den)`` — the standard corpus-skew
    audit (how concentrated are the tokens/bytes in few documents?),
    emitted as integers so the contract is bit-exact (no float sums whose
    grouping could differ; G = num/den if the reader wants the scalar).

    Identity: with items sorted ascending and 1-based rank i,
    ``G = Σ(2i − n − 1)·x_i / (n·Σx)``.  Ties make the numerator
    order-independent within equal values, so a bounded value-histogram is
    sufficient statistics: per-batch ``(value, count)`` partials tree-fold
    (domain = distinct values, bounded for lengths), and the final
    histogram computes each equal-value run's rank-sum in closed form —
    a run of c items starting at rank s contributes
    ``x · (2·(s·c + c·(c−1)/2) − c·(n+1))``."""
    from .reduce import tree_reduce

    def hist(b: pa.Table) -> pa.Table:
        if "_cnt" in b.column_names:
            v = b["_v"].combine_chunks().to_numpy(zero_copy_only=False)
            c = b["_cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        else:
            v = b[value_col].combine_chunks().cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            c = np.ones(len(v), dtype=np.int64)
        order = np.argsort(v, kind="stable")
        vs, cs = v[order], c[order]
        st = (np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]])
              if len(vs) else np.zeros(0, np.int64))
        return pa.table({"_v": pa.array(vs[st] if len(st) else vs[:0]),
                         "_cnt": pa.array(np.add.reduceat(cs, st)
                                          if len(st) else cs[:0])})

    agg = tree_reduce(ds.select_columns([value_col]), hist, fanin=fanin)

    def finalize(b: pa.Table) -> pa.Table:
        v = b["_v"].combine_chunks().to_numpy(zero_copy_only=False)
        c = b["_cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(v, kind="stable")
        v, c = v[order].astype(object), c[order].astype(object)
        n = int(sum(c))
        s_tot = int(sum(int(x) * int(k) for x, k in zip(v, c)))
        starts = np.r_[0, np.cumsum(c)[:-1]] + 1  # 1-based first rank
        num = 0
        for x, k, s in zip(v, c, starts):
            x, k, s = int(x), int(k), int(s)
            num += x * (2 * (s * k + k * (k - 1) // 2) - k * (n + 1))
        return pa.table({"n": pa.array([n], pa.int64()),
                         "sum_x": pa.array([s_tot], pa.int64()),
                         "gini_num": pa.array([num], pa.int64()),
                         "gini_den": pa.array([n * s_tot], pa.int64())})

    return agg.map_batches(finalize, batch_format="pyarrow", batch_size=None)


def availability_report(ds, key: str = "event_type", ts_col: str = "ts",
                        interval_s: int = 60, day_s: int = 86400):
    """Data-availability / gap report: per (key, day), how many
    ``interval_s`` buckets between the day's first and last sample actually
    contain data — the completeness accounting tsdat surfaces as QC
    coverage metadata (reference: goodfraction per output bin,
    tsdat/transform_v2/bin_average/calculate_bin_average.py:101) lifted to
    an ops report (present / span / missing / uptime per key-day).

    Scale shape: per-batch (key, day, bucket) dedupe bounds the shuffle by
    DISTINCT triples (≤ 1440/day per key at 1m), one (key, day) fold counts
    uniques and takes span endpoints.  uptime divides double-first (the
    DuckDB int/int law)."""
    iv_us = interval_s * 1_000_000
    day_us = day_s * 1_000_000

    def partial(b: pa.Table) -> pa.Table:
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        kd = b[key].combine_chunks().dictionary_encode()
        codes = kd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        day = (ts // day_us) * day_us
        m = (ts // iv_us) * iv_us
        # fused (key, bucket) — bucket implies day, so dedupe on it alone
        order = np.lexsort((m, codes))
        cs, ms = codes[order], m[order]
        keep = np.r_[True, (cs[1:] != cs[:-1]) | (ms[1:] != ms[:-1])] \
            if len(cs) else np.zeros(0, bool)
        return pa.table({
            key: kd.dictionary.take(pa.array(cs[keep])),
            "_day": pa.array(day[order][keep].astype("datetime64[us]")),
            "_m": pa.array(ms[keep]),
        })

    def fold(g: pa.Table) -> pa.Table:
        m = np.unique(g["_m"].combine_chunks().to_numpy(zero_copy_only=False))
        span = int((m[-1] - m[0]) // iv_us) + 1
        npres = len(m)
        return pa.table({
            key: g[key].slice(0, 1),
            "day": g["_day"].slice(0, 1),
            "n_present": pa.array([npres], pa.int64()),
            "span": pa.array([span], pa.int64()),
            "n_missing": pa.array([span - npres], pa.int64()),
            "uptime": pa.array([float(npres) / float(span)]),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key, "_day"]).map_groups(fold, batch_format="pyarrow"))


def windowed_value_hist(ds, key: str = "event_type", ts_col: str = "ts",
                        value_col: str = "value", interval_s: int = 3600,
                        bin_width: float = 5.0):
    """Histogram continuous aggregate: per (key, time window, value bin)
    counts — the mergeable-sketch tier column (per-window distributions
    survive re-aggregation to coarser tiers because bin counts are
    integers).  Nonzero bins only, one row per (key, window, bin).

    Combiner push-down: per-batch fused (key, window, bin) bincount
    partials (one row per DISTINCT triple per block), one groupby sums —
    bin assignment is floor(value / width) with the identical double
    division on the SQL side."""
    iv_us = interval_s * 1_000_000

    def partial(b: pa.Table) -> pa.Table:
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = b[value_col].combine_chunks().to_numpy(zero_copy_only=False)
        kd = b[key].combine_chunks().dictionary_encode()
        codes = kd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        w = (ts // iv_us) * iv_us
        binv = np.floor(v / bin_width).astype(np.int64)
        order = np.lexsort((binv, w, codes))
        cs, ws, bs = codes[order], w[order], binv[order]
        st = np.flatnonzero(np.r_[True, (cs[1:] != cs[:-1]) | (ws[1:] != ws[:-1])
                                   | (bs[1:] != bs[:-1])]) if len(cs) else \
            np.zeros(0, np.int64)
        cnt = np.diff(np.r_[st, len(cs)]).astype(np.int64) if len(st) else \
            np.zeros(0, np.int64)
        return pa.table({
            key: kd.dictionary.take(pa.array(cs[st] if len(st) else cs[:0])),
            "bucket": pa.array((ws[st] if len(st) else ws[:0]).astype("datetime64[us]")),
            "bin": pa.array(bs[st] if len(st) else bs[:0]),
            "_n": pa.array(cnt),
        })

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby([key, "bucket", "bin"]).sum("_n"))

    def rename(b: pa.Table) -> pa.Table:
        return b.rename_columns([*b.column_names[:-1], "n"])

    return out.map_batches(rename, batch_format="pyarrow")


def cohort_matrix(ds, user_col: str = "user_id", ts_col: str = "ts",
                  bucket_s: int = 86400, max_offset: int = 14):
    """Cohort retention matrix: users bucketed by FIRST-touch day (cohort),
    counted distinct per (cohort, day-offset 0..max_offset) — the full
    triangle the single-window retention query collapses.

    Scale shape (the retention_7d recipe generalized): per-user first-ts
    is a combiner push-down min; the user dimension grows with the corpus
    so it hash-joins back onto the stream (never broadcasts); batch-local
    (cohort, offset, user) dedupe bounds the final shuffle by distinct
    triples."""
    from .joins import hash_join

    b_us = bucket_s * 1_000_000

    def local_min(b: pa.Table) -> pa.Table:
        u = b[user_col].combine_chunks().to_numpy(zero_copy_only=False)
        ts = b["_first" if "_first" in b.column_names else ts_col] \
            .combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        us, tss = u[order], ts[order]
        keep = np.r_[True, us[1:] != us[:-1]] if len(us) else np.zeros(0, bool)
        return pa.table({user_col: pa.array(us[keep]),
                         "_first": pa.array(tss[keep])})

    def fold_min(g: pa.Table) -> pa.Table:
        # vectorized fold: one call holds many users, so per-group overhead
        # is bounded by the fold width, not user cardinality (the r2
        # map_groups-per-key law)
        return local_min(g).rename_columns([user_col, "first_ts"])

    first = keyed_fold(ds.map_batches(local_min, batch_format="pyarrow"),
                       user_col, fold_min)

    def to_us(b: pa.Table) -> pa.Table:
        return pa.table({
            user_col: b[user_col],
            "_ts_us": b[ts_col].combine_chunks().cast(pa.int64()),
        })

    joined = hash_join(ds.map_batches(to_us, batch_format="pyarrow"), first,
                       on=user_col, how="inner")

    def triple(b: pa.Table) -> pa.Table:
        ts = b["_ts_us"].combine_chunks().to_numpy(zero_copy_only=False)
        f = b["first_ts"].combine_chunks().to_numpy(zero_copy_only=False)
        cohort = (f // b_us) * b_us
        off = ((ts // b_us) * b_us - cohort) // b_us
        m = (off >= 0) & (off <= max_offset)
        u = b[user_col].combine_chunks().to_numpy(zero_copy_only=False)[m]
        cs, offs = cohort[m], off[m]
        order = np.lexsort((u, offs, cs))
        cs, offs, us = cs[order], offs[order], u[order]
        keep = np.r_[True, (cs[1:] != cs[:-1]) | (offs[1:] != offs[:-1])
                     | (us[1:] != us[:-1])] if len(cs) else np.zeros(0, bool)
        return pa.table({"_cohort": pa.array(cs[keep]),
                         "_off": pa.array(offs[keep]),
                         user_col: pa.array(us[keep])})

    def count_users(g: pa.Table) -> pa.Table:
        u = np.unique(g[user_col].combine_chunks().to_numpy(zero_copy_only=False))
        return pa.table({
            "cohort": pa.array(np.array([g["_cohort"][0].as_py()],
                                        np.int64).astype("datetime64[us]")),
            "offset_d": pa.array([int(g["_off"][0].as_py())], pa.int64()),
            "n_users": pa.array([len(u)], pa.int64()),
        })

    return (joined.map_batches(triple, batch_format="pyarrow")
            .groupby(["_cohort", "_off"]).map_groups(count_users,
                                                     batch_format="pyarrow"))


def funnel_steps(ds, steps: tuple = ("signup", "click", "purchase"),
                 user_col: str = "user_id", type_col: str = "event_type",
                 ts_col: str = "ts", window_s: int = 7 * 86400):
    """Strict-order funnel conversion: count users reaching each step in
    sequence — step 1 at its first occurrence, each later step strictly
    AFTER the previous step's timestamp and within ``window_s`` of step 1.

    One keyed shuffle of only the funnel-typed events (pre-filtered — the
    moving set is bounded by matching rows, not the corpus); per-user
    groups replay the sequence vectorized.  Per-group work is bounded by
    that user's funnel events; for >10⁶ users note the per-group overhead
    law (CLAUDE.md) — acceptable because groups here are tiny and the
    output is one row."""
    w_us = window_s * 1_000_000
    step_ix = {s: i for i, s in enumerate(steps)}

    def keep_types(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.is_in(b[type_col], value_set=pa.array(list(steps)))
        t = b.filter(m)
        return pa.table({
            user_col: t[user_col],
            "_ts": t[ts_col].combine_chunks().cast(pa.int64()),
            "_step": pa.array(np.array([step_ix[s] for s in
                                        t[type_col].to_pylist()], np.int8)),
        })

    def per_user(g: pa.Table) -> pa.Table:
        ts = g["_ts"].combine_chunks().to_numpy(zero_copy_only=False)
        st = g["_step"].combine_chunks().to_numpy(zero_copy_only=False)
        reached = np.zeros(len(steps), np.int64)
        s0 = ts[st == 0]
        if len(s0):
            cur = int(s0.min())
            deadline = cur + w_us
            reached[0] = 1
            for i in range(1, len(steps)):
                nxt = ts[(st == i) & (ts > cur) & (ts <= deadline)]
                if not len(nxt):
                    break
                cur = int(nxt.min())
                reached[i] = 1
        return pa.table({"_acc": pa.array([reached.tobytes()], pa.binary())})

    def total(b: pa.Table) -> pa.Table:
        acc = np.zeros(len(steps), np.int64)
        for r in b["_acc"].to_pylist():
            acc += np.frombuffer(r, np.int64)
        return pa.table({"_acc": pa.array([acc.tobytes()], pa.binary())})

    from .reduce import tree_reduce

    per = (ds.map_batches(keep_types, batch_format="pyarrow")
           .groupby(user_col).map_groups(per_user, batch_format="pyarrow"))
    folded = tree_reduce(per, total, fanin=8)

    def finalize(b: pa.Table) -> pa.Table:
        acc = np.zeros(len(steps), np.int64)
        for r in b["_acc"].to_pylist():
            acc += np.frombuffer(r, np.int64)
        return pa.table({f"n_{s}": pa.array([int(acc[i])], pa.int64())
                         for i, s in enumerate(steps)})

    return folded.map_batches(finalize, batch_format="pyarrow",
                              batch_size=None)


def trending_topk(ds, key: str = "user_id", ts_col: str = "ts",
                  bucket_s: int = 86400, k: int = 3):
    """Trending top-k per time bucket: the k keys with the most events in
    each bucket (ties → smaller key) — the dashboard leaderboard query.

    Two bounded shuffles: per-batch (bucket, key) count partials (fused
    lexsort — rows collapse to distinct pairs before moving), one
    composite groupby sums exactly, then per-batch partial top-k per
    bucket caps the final per-bucket merge at blocks × k candidates."""
    b_us = bucket_s * 1_000_000

    def partial(b: pa.Table) -> pa.Table:
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        u = b[key].combine_chunks().to_numpy(zero_copy_only=False)
        day = (ts // b_us) * b_us
        order = np.lexsort((u, day))
        ds_, us_ = day[order], u[order]
        st = np.flatnonzero(np.r_[True, (ds_[1:] != ds_[:-1])
                                  | (us_[1:] != us_[:-1])]) if len(ds_) else \
            np.zeros(0, np.int64)
        cnt = np.diff(np.r_[st, len(ds_)]).astype(np.int64) if len(st) else \
            np.zeros(0, np.int64)
        return pa.table({"_day": pa.array(ds_[st] if len(st) else ds_[:0]),
                         key: pa.array(us_[st] if len(st) else us_[:0]),
                         "_n": pa.array(cnt)})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(["_day", key]).sum("_n"))

    def local_topk(b: pa.Table) -> pa.Table:
        import pandas as pd

        df = b.to_pandas().rename(columns={"sum(_n)": "n"})
        df = df.sort_values(["n", key], ascending=[False, True], kind="stable")
        return pa.Table.from_pandas(df.groupby("_day", sort=False).head(k),
                                    preserve_index=False)

    def final_topk(g: pa.Table) -> pa.Table:
        import pandas as pd

        df = g.to_pandas().sort_values(["n", key],
                                       ascending=[False, True],
                                       kind="stable").head(k)
        out = pa.Table.from_pandas(df, preserve_index=False)
        day = out["_day"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({"day": pa.array(day.astype("datetime64[us]")),
                         key: out[key],
                         "n": out["n"].combine_chunks().cast(pa.int64())})

    return (counts.map_batches(local_topk, batch_format="pyarrow")
            .groupby("_day").map_groups(final_topk, batch_format="pyarrow"))


def ab_test_conversion(ds, user_col: str = "user_id",
                       type_col: str = "event_type",
                       convert_type: str = "purchase",
                       value_col: str | None = None,
                       min_value: float | None = None,
                       threshold_hex: str = "80000000"):
    """Two-proportion A/B z-test on user conversion: users split into arms
    by the portable md5-prefix contract (CLAUDE.md recipe — any engine
    with an md5 reproduces the assignment), conversion = user emitted at
    least one ``convert_type`` event; one row out with per-arm counts and
    the pooled z statistic (identical double expression tree as SQL).

    Scale shape: batch-local (user, converted) dedupe/OR partials, one
    keyed fold (per-task groups bounded by the fold width, never user
    cardinality), md5 of DISTINCT users only, integer counts tree-fold."""
    import hashlib

    from .reduce import tree_reduce

    def partial(b: pa.Table) -> pa.Table:
        u = b[user_col].combine_chunks().to_numpy(zero_copy_only=False)
        conv = (b[type_col].combine_chunks().to_numpy(zero_copy_only=False)
                == convert_type)
        if min_value is not None:
            conv &= (b[value_col].combine_chunks()
                     .to_numpy(zero_copy_only=False) > min_value)
        conv = conv.astype(np.int64)
        order = np.argsort(u, kind="stable")
        us, cs = u[order], conv[order]
        st = np.flatnonzero(np.r_[True, us[1:] != us[:-1]]) if len(us) else \
            np.zeros(0, np.int64)
        cmax = np.maximum.reduceat(cs, st) if len(st) else cs[:0]
        return pa.table({user_col: pa.array(us[st] if len(st) else us[:0]),
                         "_conv": pa.array(cmax)})

    def fold(g: pa.Table) -> pa.Table:
        u = g[user_col].combine_chunks().to_numpy(zero_copy_only=False)
        c = g["_conv"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(u, kind="stable")
        us, cs = u[order], c[order]
        st = np.flatnonzero(np.r_[True, us[1:] != us[:-1]])
        cmax = np.maximum.reduceat(cs, st)
        uu = us[st]
        arm_a = np.array([hashlib.md5(str(x).encode()).hexdigest()[:8]
                          < threshold_hex for x in uu.tolist()])
        n_a, n_b = int(arm_a.sum()), int((~arm_a).sum())
        c_a = int(cmax[arm_a].sum())
        c_b = int(cmax[~arm_a].sum())
        return pa.table({"n_a": pa.array([n_a], pa.int64()),
                         "n_b": pa.array([n_b], pa.int64()),
                         "conv_a": pa.array([c_a], pa.int64()),
                         "conv_b": pa.array([c_b], pa.int64())})

    per = keyed_fold(ds.map_batches(partial, batch_format="pyarrow"),
                     user_col, fold)

    def total(b: pa.Table) -> pa.Table:
        return pa.table({c: pa.array([int(np.sum(
            b[c].combine_chunks().to_numpy(zero_copy_only=False)))], pa.int64())
            for c in ("n_a", "n_b", "conv_a", "conv_b")})

    folded = tree_reduce(per, total, fanin=8)

    def finalize(b: pa.Table) -> pa.Table:
        n_a = int(b["n_a"][0].as_py())
        n_b = int(b["n_b"][0].as_py())
        c_a = int(b["conv_a"][0].as_py())
        c_b = int(b["conv_b"][0].as_py())
        p_a = float(c_a) / float(n_a)
        p_b = float(c_b) / float(n_b)
        pp = float(c_a + c_b) / float(n_a + n_b)
        # degenerate pools (everyone or no one converts) have zero variance
        z = 0.0 if pp in (0.0, 1.0) else \
            (p_b - p_a) / math.sqrt(pp * (1 - pp) * (1.0 / n_a + 1.0 / n_b))
        return pa.table({"n_a": pa.array([n_a], pa.int64()),
                         "n_b": pa.array([n_b], pa.int64()),
                         "conv_a": pa.array([c_a], pa.int64()),
                         "conv_b": pa.array([c_b], pa.int64()),
                         "z": pa.array([z])})

    return folded.map_batches(finalize, batch_format="pyarrow",
                              batch_size=None)


def time_to_convert(ds, user_col: str = "user_id", ts_col: str = "ts",
                    type_col: str = "event_type", start_type: str = "signup",
                    convert_type: str = "purchase",
                    qs: tuple = (0.5, 0.9)):
    """Time-to-conversion distribution: seconds from each user's FIRST
    ``start_type`` event to their first ``convert_type`` event strictly
    after it; one row out (n_converted + exact PERCENTILE_DISC of the
    delay).

    Scale shape: per-user first-start is a keyed vectorized min fold
    (never one task per user); conversions hash-join against it (user
    dimension never broadcasts), filter, second keyed min fold, then the
    bounded-histogram disc-quantile fold over integer seconds."""
    import pyarrow.compute as pc

    from .joins import hash_join
    from .window_funcs import exact_quantiles_disc

    def min_fold(ds_, name):
        """Per-user minimum of ``name``: batch partials, one keyed fold."""

        def first(b: pa.Table) -> pa.Table:
            u = b[user_col].combine_chunks().to_numpy(zero_copy_only=False)
            ts = b[name].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
            order = np.lexsort((ts, u))
            us, tss = u[order], ts[order]
            keep = np.r_[True, us[1:] != us[:-1]] if len(us) else np.zeros(0, bool)
            return pa.table({user_col: pa.array(us[keep]),
                             name: pa.array(tss[keep])})

        return keyed_fold(ds_.map_batches(first, batch_format="pyarrow"),
                          user_col, first)

    def typed(t):
        def f(b: pa.Table) -> pa.Table:
            m = pc.equal(b[type_col], t)
            k = b.filter(m)
            return pa.table({user_col: k[user_col],
                             "_ts": k[ts_col].combine_chunks().cast(pa.int64())})
        return f

    starts = (min_fold(ds.map_batches(typed(start_type), batch_format="pyarrow"),
                       "_ts")
              .map_batches(lambda b: b.rename_columns([user_col, "_s_ts"]),
                           batch_format="pyarrow"))

    convs = ds.map_batches(typed(convert_type), batch_format="pyarrow")
    joined = hash_join(convs, starts, on=user_col, how="inner")

    def after(b: pa.Table) -> pa.Table:
        ts = b["_ts"].combine_chunks().to_numpy(zero_copy_only=False)
        s = b["_s_ts"].combine_chunks().to_numpy(zero_copy_only=False)
        m = ts > s
        u = b[user_col].combine_chunks().to_numpy(zero_copy_only=False)[m]
        # date_diff('second', s, p) counts second-boundary crossings:
        # floor each side to seconds BEFORE subtracting (not floor of the
        # microsecond difference — differs whenever sub-second parts wrap).
        dt = ts[m] // 1_000_000 - s[m] // 1_000_000
        return pa.table({user_col: pa.array(u), "_dt": pa.array(dt)})

    # materialize: two consumers (quantile fold + count) would otherwise
    # re-execute the folds+join DAG; the table is one (user, dt) row per
    # CONVERTED user — object-store-resident, never driver-resident
    deltas = min_fold(joined.map_batches(after, batch_format="pyarrow"),
                      "_dt").materialize()

    def const_key(b: pa.Table) -> pa.Table:
        return pa.table({"_k": pa.array(np.zeros(len(b), np.int64)),
                         "dt": b["_dt"].combine_chunks().cast(pa.float64())})

    q = exact_quantiles_disc(deltas.map_batches(const_key, batch_format="pyarrow"),
                             key="_k", value_col="dt", qs=qs, scale=1)

    def n_conv(b: pa.Table) -> pa.Table:
        return pa.table({"_n": pa.array([len(b)], pa.int64())})

    from .reduce import tree_reduce

    n_ds = tree_reduce(deltas.map_batches(n_conv, batch_format="pyarrow"),
                       lambda b: pa.table({"_n": pa.array([int(np.sum(
                           b["_n"].combine_chunks().to_numpy(zero_copy_only=False)))],
                           pa.int64())}), fanin=8)
    n_tab = pa.concat_tables(n_ds.iter_batches(batch_format="pyarrow",
                                               batch_size=None))
    n_total = int(n_tab["_n"].combine_chunks().to_numpy(zero_copy_only=False).sum())

    names = [f"p{int(round(qq * 100))}_s" for qq in qs]

    def finalize(b: pa.Table) -> pa.Table:
        out = {"n_converted": pa.array([n_total], pa.int64())}
        for qq, nm in zip(qs, names):
            out[nm] = b[f"qd{int(round(qq * 100))}"].slice(0, 1)
        return pa.table(out)

    return q.map_batches(finalize, batch_format="pyarrow", batch_size=None)


def volume_anomaly(ds, key: str = "event_type", ts_col: str = "ts",
                   bucket_s: int = 86400):
    """Ingest-volume anomaly score: per (key, day) event count plus its
    z-score against THAT key's own daily distribution — the data-ops
    monitoring view (a source whose daily volume collapses or spikes shows
    |z| >> 0 the day it happens).

    Combiner push-down: per-batch (key, day) count partials; the folded
    table is bounded by keys × days, so per-key mean/std come from exact
    integer sufficient statistics (n, Σc, Σc²) computed on the tiny
    aggregate — the z expression is spelled identically in SQL (sample
    std, double-first division)."""
    b_us = bucket_s * 1_000_000

    def partial(b: pa.Table) -> pa.Table:
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        k = b[key].to_numpy(zero_copy_only=False)
        day = (ts // b_us) * b_us
        order = np.lexsort((day, k))
        ks, ds_ = k[order], day[order]
        st = np.flatnonzero(np.r_[True, (ks[1:] != ks[:-1])
                                  | (ds_[1:] != ds_[:-1])]) if len(ks) else \
            np.zeros(0, np.int64)
        cnt = np.diff(np.r_[st, len(ks)]).astype(np.int64) if len(st) else \
            np.zeros(0, np.int64)
        return pa.table({key: pa.array(ks[st] if len(st) else ks[:0]),
                         "_day": pa.array(ds_[st] if len(st) else ds_[:0]),
                         "_n": pa.array(cnt)})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby([key, "_day"]).sum("_n"))

    def finalize(b: pa.Table) -> pa.Table:
        # bounded input: keys × days rows — one task, exact int folds
        k = b[key].to_numpy(zero_copy_only=False)
        day = b["_day"].combine_chunks().to_numpy(zero_copy_only=False)
        n = b["sum(_n)"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((day, k))
        k, day, n = k[order], day[order], n[order]
        z = np.zeros(len(k), np.float64)
        mean = np.zeros(len(k), np.float64)
        for kk in np.unique(k):
            m = k == kk
            c = int(m.sum())
            sx = int(n[m].sum())
            sxx = int((n[m].astype(object) ** 2).sum())
            mu = float(sx) / float(c)
            mean[m] = mu
            num = c * sxx - sx * sx
            if c > 1 and num > 0:
                # sample variance (c*Σx² − (Σx)²)/(c(c−1)), the identical
                # double expression as the SQL twin
                sd = math.sqrt(float(num) / float(c * (c - 1)))
                z[m] = (n[m].astype(np.float64) - mu) / sd
        return pa.table({key: pa.array(k),
                         "day": pa.array(day.astype("datetime64[us]")),
                         "n": pa.array(n.astype(np.int64)),
                         "mean_n": pa.array(mean),
                         "z": pa.array(z)})

    # the aggregate is keys x days rows — coalesce to ONE block so finalize
    # sees every day of a key (per-block stats would be wrong)
    return counts.repartition(1).map_batches(finalize, batch_format="pyarrow",
                                             batch_size=None)


def retention_curve(ds, user_col: str = "user_id", ts_col: str = "ts",
                    bucket_s: int = 86400, max_offset: int = 14):
    """Normalized retention curve: the cohort matrix with each cell divided
    by its cohort's size (distinct users at offset 0 — every user is
    active on their first-touch day by construction, so the offset-0 cell
    IS the cohort size).  The matrix is cohorts × offsets — bounded — so
    the ratio pass coalesces to one block; the heavy lifting stays in
    :func:`cohort_matrix`'s distributed folds."""
    mat = cohort_matrix(ds, user_col=user_col, ts_col=ts_col,
                        bucket_s=bucket_s, max_offset=max_offset)

    def ratio(b: pa.Table) -> pa.Table:
        import pandas as pd

        df = b.to_pandas()
        size = (df[df.offset_d == 0].set_index("cohort")["n_users"])
        denom = df["cohort"].map(size).to_numpy(np.float64)
        df["retention"] = df["n_users"].to_numpy(np.float64) / denom
        return pa.Table.from_pandas(df, preserve_index=False)

    return mat.repartition(1).map_batches(ratio, batch_format="pyarrow",
                                          batch_size=None)


def acf_per_key(ds, key: str = "event_type", ts_col: str = "ts",
                bucket_s: int = 3600, lags: tuple = (1, 2, 3)):
    """Lag-k autocorrelation of each key's zero-filled bucket-count series
    — the classic time-series seasonality/persistence diagnostic, computed
    aggregate-first: the heavy pass is the same distributed (key, bucket)
    integer count fold every tier query uses; the ACF itself runs on the
    BOUNDED per-key series (buckets per key, not rows).

    Exactness contract: all sufficient statistics (n, Σx, Σx², and per lag
    Σ head, Σ tail, Σ head·tail) are exact int64 sums over the dense grid;
    the only float math is ONE fixed expression
    ``mu = Sx/n; r = (Sxy - mu*(S1+S2) + (n-k)*mu*mu) / (Sxx - n*mu*mu)``
    evaluated with the identical IEEE op order by the SQL twin (the
    volume_anomaly recipe)."""
    bucket_us = bucket_s * 1_000_000

    def partial(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        hb = (ts // bucket_us) * bucket_us
        order = np.lexsort((hb, k))
        ks, hs = k[order], hb[order]
        chg = np.r_[True, (ks[1:] != ks[:-1]) | (hs[1:] != hs[:-1])] \
            if len(ks) else np.zeros(0, bool)
        st = np.flatnonzero(chg)
        cnt = np.diff(np.r_[st, len(ks)]).astype(np.int64)
        take = pa.array(order[st] if len(st) else [], type=pa.int64())
        return pa.table({
            key: pa.array(b[key].take(take).to_numpy(zero_copy_only=False)),
            "_hb": pa.array(hs[st] if len(st) else hs[:0]),
            "_n": pa.array(cnt),
        })

    def fold(g: pa.Table) -> pa.Table:
        k = g[key].to_numpy(zero_copy_only=False)
        h = g["_hb"].combine_chunks().to_numpy(zero_copy_only=False)
        n = g["_n"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((h, k))
        ks, hs, ns = k[order], h[order], n[order]
        chg = np.r_[True, (ks[1:] != ks[:-1]) | (hs[1:] != hs[:-1])]
        st = np.flatnonzero(chg)
        csum = np.add.reduceat(ns, st)
        ks, hs = ks[st], hs[st]
        # per-key dense series + sufficient stats
        kst = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) \
            if len(ks) else np.zeros(0, np.int64)
        ken = np.r_[kst[1:], len(ks)]
        out = {key: [], "k": [], "acf": []}
        for s, e in zip(kst, ken):
            hb, c = hs[s:e], csum[s:e]
            T = int((hb[-1] - hb[0]) // bucket_us) + 1
            x = np.zeros(T, np.int64)
            x[(hb - hb[0]) // bucket_us] = c
            n_ = T
            Sx = int(x.sum())
            Sxx = int((x * x).sum())
            mu = Sx / n_
            for lag in lags:
                if lag >= T:
                    continue
                head, tail = x[:-lag], x[lag:]
                S1, S2 = int(head.sum()), int(tail.sum())
                Sxy = int((head * tail).sum())
                num = Sxy - mu * (S1 + S2) + (n_ - lag) * mu * mu
                den = Sxx - n_ * mu * mu
                out[key].append(ks[s])
                out["k"].append(lag)
                out["acf"].append(num / den if den != 0 else None)
        return pa.table({key: pa.array(out[key]),
                         "k": pa.array(out["k"], pa.int64()),
                         "acf": pa.array(out["acf"], pa.float64())})

    return keyed_fold(ds.map_batches(partial, batch_format="pyarrow"), key,
                      fold)


def benford_digits(ds, value_col: str = "value", scale: int = 100):
    """Benford first-significant-digit audit of a positive decimal column
    (the classic fabricated-data / unit-mixing detector).  Digit = leading
    decimal digit of the scale-quantized int via vectorized integer
    division — identical to SQL ``substr(CAST(vc AS VARCHAR), 1, 1)`` for
    positive ints, with no float log10 boundary risk; counts fold as exact
    integers; frac is one int/int division both sides perform
    identically."""
    from .reduce import tree_reduce

    def partial(b: pa.Table) -> pa.Table:
        if "digit" in b.column_names:
            d = b["digit"].combine_chunks().to_numpy(zero_copy_only=False)
            c = b["n"].combine_chunks().to_numpy(zero_copy_only=False)
        else:
            v = b[value_col].combine_chunks().cast(pa.float64()).to_numpy(
                zero_copy_only=False)
            vc = np.round(v * scale).astype(np.int64)
            d = vc[vc > 0]
            # leading digit by repeated integer division (≤19 vectorized
            # passes; identical to SQL substr(CAST(vc AS VARCHAR), 1, 1)
            # for positive ints, with no float log10 boundary risk)
            while len(d) and d.max() >= 10:
                m = d >= 10
                d = d.copy()
                d[m] //= 10
            c = np.ones(len(d), np.int64)
        u, inv = np.unique(d, return_inverse=True)
        cnt = np.bincount(inv, weights=c.astype(np.float64)).astype(np.int64)
        return pa.table({"digit": pa.array(u), "n": pa.array(cnt)})

    agg = tree_reduce(ds.select_columns([value_col]), partial, fanin=8)

    def finalize(b: pa.Table) -> pa.Table:
        d = b["digit"].combine_chunks().to_numpy(zero_copy_only=False)
        c = b["n"].combine_chunks().to_numpy(zero_copy_only=False)
        u, inv = np.unique(d, return_inverse=True)
        cnt = np.bincount(inv, weights=c.astype(np.float64)).astype(np.int64)
        total = int(cnt.sum())
        return pa.table({"digit": pa.array(u),
                         "n": pa.array(cnt),
                         "frac": pa.array(cnt / total)})

    return agg.map_batches(finalize, batch_format="pyarrow",
                           batch_size=None)


def user_entropy(ds, key: str = "user_id", item: str = "event_type",
                 scale: float = 1e9):
    """Per-user Shannon entropy (nats) of the event-type mix — the
    behavioral-predictability signal (0 = a user who only ever does one
    thing).  One keyed fold of per-block (user, type, count)
    partials; entropy folds inside the partition under the proven
    quantized-log contract (word_entropy recipe: per-term
    round(-(p·ln p)·1e9) int64 sums are associative and reproduced
    term-for-term by the SQL twin)."""
    from .text_quant import half_away as _ha

    def partial(b: pa.Table) -> pa.Table:
        u = b[key].combine_chunks().to_numpy(zero_copy_only=False)
        t = b[item].to_numpy(zero_copy_only=False)
        order = np.lexsort((t, u))
        us, ts = u[order], t[order]
        chg = np.r_[True, (us[1:] != us[:-1]) | (ts[1:] != ts[:-1])] \
            if len(us) else np.zeros(0, bool)
        st = np.flatnonzero(chg)
        c = np.diff(np.r_[st, len(us)]).astype(np.int64)
        return pa.table({
            key: pa.array(us[st]), item: pa.array(ts[st] if len(st) else ts[:0]),
            "_c": pa.array(c),
        })

    def fold(g: pa.Table) -> pa.Table:
        u = g[key].combine_chunks().to_numpy(zero_copy_only=False)
        t = g[item].to_numpy(zero_copy_only=False)
        c = g["_c"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((t, u))
        us, ts, cs = u[order], t[order], c[order]
        chg = np.r_[True, (us[1:] != us[:-1]) | (ts[1:] != ts[:-1])]
        st = np.flatnonzero(chg)
        csum = np.add.reduceat(cs, st)
        uu = us[st]
        kst = np.flatnonzero(np.r_[True, uu[1:] != uu[:-1]]) \
            if len(uu) else np.zeros(0, np.int64)
        seg = np.cumsum(np.r_[True, uu[1:] != uu[:-1]]) - 1 \
            if len(uu) else np.zeros(0, np.int64)
        n_per = np.add.reduceat(csum, kst) if len(kst) else csum[:0]
        p = csum.astype(np.float64) / n_per[seg].astype(np.float64)
        q = _ha(-(p * np.log(p)) * scale)
        qsum = np.bincount(seg, weights=q,
                           minlength=len(kst)) if len(kst) else \
            np.zeros(0, np.float64)
        return pa.table({
            key: pa.array(uu[kst] if len(kst) else uu[:0]),
            "n_events": pa.array(n_per),
            "entropy": pa.array(qsum / scale),
        })

    return keyed_fold(ds.map_batches(partial, batch_format="pyarrow"), key,
                      fold)


def burstiness_per_key(ds, key: str = "event_type", ts_col: str = "ts",
                       window_s: int = 24 * 3600):
    """Goh–Barabási burstiness B = (σ−μ)/(σ+μ) of inter-arrival times per
    key (B→1 bursty, 0 Poisson-like, →−1 periodic) — the stream-health
    twin of grouped_max_gap, built on its identical two-phase shape: per
    (key, time-window) tasks emit (min_s, max_s, n, Σdt, Σdt²) over
    floor-second gaps (date_diff('second') semantics), the tiny per-key
    window merge adds boundary gaps, and ONE fixed double expression
    (mirrored literally by the SQL twin) turns exact int sums into B.
    Σdt² stays int64 up to ~3·10⁹ one-day gaps per key; beyond that use
    the python-bigint suffstats fold (stats.py:_fold_suffstats)."""
    win_us = window_s * 1_000_000

    def add_window(b: pa.Table) -> pa.Table:
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return b.append_column("_window", pa.array((ts // win_us) * win_us))

    def per_window(g: pa.Table) -> pa.Table:
        ts = np.sort(g[ts_col].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False))
        sec = ts // 1_000_000  # date_diff('second') floors each side
        dt = np.diff(sec)
        return pa.table({
            key: g[key].slice(0, 1),
            "_min_s": pa.array([int(sec[0])], pa.int64()),
            "_max_s": pa.array([int(sec[-1])], pa.int64()),
            "_n": pa.array([len(dt)], pa.int64()),
            "_sx": pa.array([int(dt.sum())], pa.int64()),
            "_sxx": pa.array([int((dt * dt).sum())], pa.int64()),
        })

    part = (ds.map_batches(add_window, batch_format="pyarrow")
            .groupby([key, "_window"]).map_groups(per_window,
                                                  batch_format="pyarrow"))

    def merge(g: pa.Table) -> pa.Table:
        mn = g["_min_s"].combine_chunks().to_numpy(zero_copy_only=False)
        mx = g["_max_s"].combine_chunks().to_numpy(zero_copy_only=False)
        n = g["_n"].combine_chunks().to_numpy(zero_copy_only=False)
        sx = g["_sx"].combine_chunks().to_numpy(zero_copy_only=False)
        sxx = g["_sxx"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(mn, kind="stable")
        mn, mx = mn[order], mx[order]
        bdt = mn[1:] - mx[:-1]  # boundary gaps between adjacent windows
        N = int(n.sum()) + len(bdt)
        if N == 0:
            return pa.table({key: g[key].slice(0, 0),
                             "n_gaps": pa.array([], pa.int64()),
                             "burstiness": pa.array([], pa.float64())})
        SX = int(sx.sum()) + int(bdt.sum())
        SXX = int(sxx.sum()) + int((bdt * bdt).sum())
        # ONE fixed double expression, mirrored literally by the SQL twin
        mu = SX / N
        sd = np.sqrt(SXX / N - mu * mu)
        b = (sd - mu) / (sd + mu)
        return pa.table({key: g[key].slice(0, 1),
                         "n_gaps": pa.array([N], pa.int64()),
                         "burstiness": pa.array([b], pa.float64())})

    return part.groupby(key).map_groups(merge, batch_format="pyarrow")
