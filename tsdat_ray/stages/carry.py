"""``window_scan``: the one two-phase scan of the window-function family.

An operator ordered by (ts, id) within a key (lag, running sums, rolling
frames, sessions, ...) splits each key's history into fixed time windows
and runs in two phases:

1. one shuffle on (key, ``_window``) (:func:`window_groups`) runs the
   operator's ``local`` kernel per group.  It computes every in-window
   result and repeats the window's tiny summary (a total, a last value, a
   tail) on each of its rows, so Ray's block splitting cannot lose it.  The
   output streams to a Parquet checkpoint
   (:func:`~tsdat_ray.stages.spill.checkpoint_with_summary`), whose map
   task also writes the summary rows (<= one per group per block) to a
   sidecar;
2. ``fold_carry`` folds the summaries by key
   (:func:`~tsdat_ray.stages.reduce.keyed_fold`); each fold call sorts
   them by (key, window), dedups and hands every key segment to the
   operator's vectorized ``fold``, which returns one carry per window
   (the state of all earlier windows).  ``attach_carry`` joins the carry
   back onto the checkpointed rows by (key, window): a small carry is
   broadcast as one Arrow table and probed per batch; a large one takes a
   bucketed hash join.  Neither holds per-key state on the driver.

The operator's finish, a map over the result, combines each row's local
value with its window's carry.  The window width sets how the work
spreads; integer and order-free arithmetic give the same rows at every
width.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .reduce import keyed_fold

US = 1_000_000

# process-level cache: broadcast-table object ref hex -> (table, MultiIndex)
_LOOKUP_CACHE: dict = {}


def _dedup_first(b: pa.Table, key: str, window_col: str) -> pa.Table:
    """Keep the first row per (key, window) of one batch (summary values are
    repeated on every row of a group, so any representative is exact)."""
    k = b[key].to_numpy(zero_copy_only=False)
    w = b[window_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    order = np.lexsort((w, k))
    ks, ws = k[order], w[order]
    keep = np.r_[True, (ks[1:] != ks[:-1]) | (ws[1:] != ws[:-1])] \
        if len(ks) else np.zeros(0, bool)
    return b.take(pa.array(order[keep], type=pa.int64()))


def summary_from_part(part, key: str, window_col: str,
                      summary_cols: list[str]):
    """Extract the tiny per-(key, window) summary Dataset from a phase-1
    output whose summary columns are repeated on every row."""
    return part.select_columns([key, window_col, *summary_cols]).map_batches(
        lambda b: _dedup_first(b, key, window_col), batch_format="pyarrow")


def fold_carry(summary_ds, key: str, window_col: str,
               summary_cols: list[str],
               fold: Callable[[np.ndarray, np.ndarray, dict], dict]):
    """Distributed per-key prefix fold of a (key, window) summary Dataset.

    ``fold(starts, windows, cols) -> {carry_col: array}`` sees the
    partition's rows sorted by (key, window) ascending and exactly deduped;
    ``starts`` marks each key segment's first index.  Returned arrays must
    align with ``windows`` (one carry per (key, window)); values may be
    numpy arrays, ``pa.Array``, or lists (for list-typed carries).
    """

    def fold_partition(g: pa.Table) -> pa.Table:
        k = g[key].to_numpy(zero_copy_only=False)
        w = g[window_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((w, k))
        ks, ws = k[order], w[order]
        keep = np.r_[True, (ks[1:] != ks[:-1]) | (ws[1:] != ws[:-1])] \
            if len(ks) else np.zeros(0, bool)
        idx = order[keep]
        ks, ws = ks[keep], ws[keep]
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) \
            if len(ks) else np.zeros(0, np.int64)
        take = pa.array(idx, type=pa.int64())
        cols: dict = {}
        for c in summary_cols:
            arr = g[c].combine_chunks().take(take)
            if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type):
                cols[c] = arr  # tiny; folds consume via .values/.to_pylist()
            else:
                cols[c] = arr.to_numpy(zero_copy_only=False)
        carry_cols = fold(starts, ws, cols)
        out = {key: pa.array(ks), window_col: pa.array(ws)}
        for nm, arr in carry_cols.items():
            out[nm] = arr if isinstance(arr, (pa.Array, pa.ChunkedArray)) \
                else pa.array(arr)
        return pa.table(out)

    return keyed_fold(summary_ds, key, fold_partition)


def _lookup(ref) -> tuple[pa.Table, pd.MultiIndex]:
    """Per-process cached (table, composite index) for the broadcast path."""
    import ray

    hx = ref.hex() if hasattr(ref, "hex") else str(ref)
    got = _LOOKUP_CACHE.get(hx)
    if got is None:
        tab, key, window_col = ray.get(ref)
        if window_col is None:
            mi = pd.Index(tab[key].to_numpy(zero_copy_only=False))
        else:
            mi = pd.MultiIndex.from_arrays([
                tab[key].to_numpy(zero_copy_only=False),
                tab[window_col].combine_chunks().cast(pa.int64())
                .to_numpy(zero_copy_only=False)])
        got = (tab, mi)
        if len(_LOOKUP_CACHE) >= 8:  # several attach stages can interleave
            _LOOKUP_CACHE.pop(next(iter(_LOOKUP_CACHE)))
        _LOOKUP_CACHE[hx] = got
    return got


def attach_carry(part, carry_ds, key: str, window_col: str | None,
                 broadcast_budget_bytes: int = 64 << 20,
                 num_buckets: int = 64):
    """Attach a carry Dataset's columns onto ``part`` by (key, window)
    (window_col=None → by key alone), left-join semantics.

    Budget-gated: a small carry broadcasts as one Arrow table (driver only
    concatenates folded blocks) with a vectorized per-batch index probe; an
    oversize carry takes the bucketed hash_join — no driver state."""
    import ray

    carry_m = carry_ds.materialize()
    if carry_m.size_bytes() > broadcast_budget_bytes:
        return _bucketed_attach(part, carry_m, key, window_col, num_buckets)

    tabs = ray.get(carry_m.to_arrow_refs())
    tabs = [t for t in tabs if t.num_rows] or tabs
    if not tabs:
        # an empty carry happens only for an empty part (every summary row
        # comes from part), so there are no rows to attach onto
        return part
    tab = pa.concat_tables(tabs)
    ref = ray.put((tab.combine_chunks(), key, window_col))
    carry_cols = [c for c in tab.column_names if c not in (key, window_col)]

    def attach(b: pa.Table) -> pa.Table:
        ct, mi = _lookup(ref)
        if window_col is None:
            probe = pd.Index(b[key].to_numpy(zero_copy_only=False))
        else:
            probe = pd.MultiIndex.from_arrays([
                b[key].to_numpy(zero_copy_only=False),
                b[window_col].combine_chunks().cast(pa.int64())
                .to_numpy(zero_copy_only=False)])
        pos = mi.get_indexer(probe)
        valid = pos >= 0
        take = pa.array(np.where(valid, pos, 0).astype(np.int64))
        out = {c: b[c] for c in b.column_names}
        for cc in carry_cols:
            col = ct[cc].combine_chunks().take(take)
            if not valid.all():
                col = pc.if_else(pa.array(valid), col,
                                 pa.nulls(len(valid), col.type))
            out[cc] = col
        return pa.table(out)

    return part.map_batches(attach, batch_format="pyarrow")


def _bucketed_attach(part, carry_m, key: str, window_col: str | None,
                     num_buckets: int):
    """Zero-driver-state attach for an oversize carry: both sides co-locate
    by ``hash(key) % num_buckets`` and each bucket runs the SAME vectorized
    index probe + typed Arrow gather as the broadcast path.  (``pa.Table.
    join`` cannot carry list-typed non-key fields — the rolling/lag(k)
    tail carries are ``list<…>`` — so the join-based fallback would crash
    exactly at the cardinality this path exists for.)"""
    on = [key] if window_col is None else [key, window_col]
    p_schema = pa.schema(list(zip(part.schema().names, part.schema().types)))
    c_schema = pa.schema(list(zip(carry_m.schema().names, carry_m.schema().types)))
    types: dict[str, pa.DataType] = {}
    for sch in (p_schema, c_schema):
        for f in sch:
            types.setdefault(f.name, f.type)
    part_cols = list(p_schema.names)
    carry_cols = [c for c in c_schema.names if c not in on]
    all_cols = part_cols + [c for c in carry_cols if c not in part_cols]

    def tag(side: int):
        def add(b: pa.Table) -> pa.Table:
            h = pd.util.hash_array(b[key].to_numpy(zero_copy_only=False))
            cols = {
                c: (b[c] if c in b.column_names else pa.nulls(b.num_rows, types[c]))
                for c in all_cols
            }
            cols["_bk"] = pa.array((h % np.uint64(num_buckets)).astype(np.int64))
            cols["_cside"] = pa.array(np.full(b.num_rows, side, np.int8))
            return pa.table(cols)

        return add

    both = part.map_batches(tag(0), batch_format="pyarrow").union(
        carry_m.map_batches(tag(1), batch_format="pyarrow"))

    def join_bucket(g: pa.Table) -> pa.Table:
        side = g["_cside"].combine_chunks().to_numpy(zero_copy_only=False)
        g = g.drop_columns(["_bk", "_cside"])
        mask = pa.array(side == 0)
        rows = g.filter(mask).select(part_cols)
        ct = g.filter(pc.invert(mask)).select(on + carry_cols)
        if window_col is None:
            mi = pd.Index(ct[key].to_numpy(zero_copy_only=False))
            probe = pd.Index(rows[key].to_numpy(zero_copy_only=False))
        else:
            mi = pd.MultiIndex.from_arrays([
                ct[key].to_numpy(zero_copy_only=False),
                ct[window_col].combine_chunks().cast(pa.int64())
                .to_numpy(zero_copy_only=False)])
            probe = pd.MultiIndex.from_arrays([
                rows[key].to_numpy(zero_copy_only=False),
                rows[window_col].combine_chunks().cast(pa.int64())
                .to_numpy(zero_copy_only=False)])
        pos = mi.get_indexer(probe)
        valid = pos >= 0
        take = pa.array(np.where(valid, pos, 0).astype(np.int64))
        out = {c: rows[c] for c in part_cols}
        for cc in carry_cols:
            col = ct[cc].combine_chunks().take(take)
            if not valid.all():
                col = pc.if_else(pa.array(valid), col,
                                 pa.nulls(len(valid), col.type))
            out[cc] = col
        return pa.table(out)

    return both.groupby("_bk").map_groups(join_bucket, batch_format="pyarrow")


def time_windows(ds, ts_col: str, window_s: int):
    """Add ``_window``: the start (µs) of each row's ``window_s`` bucket."""
    win_us = window_s * US

    def add_window(b: pa.Table) -> pa.Table:
        ts = b[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        return b.append_column("_window", pa.array((ts // win_us) * win_us))

    return ds.map_batches(add_window, batch_format="pyarrow")


def ts_order(g: pa.Table, ts_col: str, id_col: str | None = None):
    """A group's timestamps (int64) and its row order by (ts, id); by ts
    alone (stable) when there is no id column."""
    ts = g[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    if id_col is None:
        return ts, np.argsort(ts, kind="stable")
    return ts, np.lexsort((g[id_col].to_numpy(zero_copy_only=False), ts))


def window_groups(ds, key: str, fn: Callable[[pa.Table], pa.Table]):
    """The (key, ``_window``) shuffle: ``fn`` runs once per group."""
    return ds.groupby([key, "_window"]).map_groups(fn, batch_format="pyarrow")


def window_scan(ds, key: str, local: Callable[[pa.Table], pa.Table],
                summary_cols: list[str], fold: Callable):
    """Two-phase scan of ``ds`` (which has a ``_window`` column): ``local``
    per (key, window) group, checkpointed with its ``summary_cols``, then
    ``fold`` (see :func:`fold_carry`) over each key's window summaries.
    Returns ``local``'s rows plus the fold's carry columns."""
    from .spill import checkpoint_with_summary

    part, summ = checkpoint_with_summary(window_groups(ds, key, local), key,
                                         summary_cols)
    carry = fold_carry(summ, key, "_window", summary_cols, fold)
    return attach_carry(part, carry, key, "_window")


# ---------------------------------------------------------------- helpers
# row helpers for the window operators' kernels and finishes: they live here,
# not in window_funcs, so the worker processes that run those closures
# import only this module (which the carry attach imports anyway)

def column(b: pa.Table, col: str) -> np.ndarray:
    """A column of ``b`` as one numpy array."""
    return b[col].combine_chunks().to_numpy(zero_copy_only=False)


def float_column(b: pa.Table, col: str) -> np.ndarray:
    """A column of ``b`` cast to float64, as one numpy array."""
    return b[col].combine_chunks().cast(pa.float64()).to_numpy(zero_copy_only=False)


def with_columns(b: pa.Table, drop, new: dict) -> pa.Table:
    """``b`` without its ``drop`` columns, then the ``new`` ones."""
    return pa.table({**{c: b[c] for c in b.column_names if c not in drop}, **new})


def carry_heads(b: pa.Table, pos: np.ndarray, depth: int, dtype):
    """(row, values) for each row at in-window position < ``depth`` whose
    list ``_carry`` is non-empty: the last ``depth - pos`` carried values,
    the head of the row's frame that lies in earlier windows."""
    ca = b["_carry"].combine_chunks()
    cvals = np.asarray(ca.values.to_numpy(zero_copy_only=False), dtype=dtype)
    coffs = ca.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    for i in np.flatnonzero(pos < depth):
        s, e = coffs[i], coffs[i + 1]
        if e > s:
            yield i, cvals[max(s, e - int(depth - pos[i])):e]


# shared vectorized segment folds (rows sorted by (key, window), starts =
# first index of each key segment)

def shift_within_segments(vals: np.ndarray, starts: np.ndarray, fill):
    """carry[i] = vals[i-1] within each segment, ``fill`` at segment heads —
    the lag/counter 'previous window's summary' fold."""
    if not len(vals):
        return vals.copy()
    out = np.r_[np.asarray([fill], dtype=vals.dtype), vals[:-1]]
    out[starts] = fill
    return out


def shift_back_within_segments(vals: np.ndarray, starts: np.ndarray, fill):
    """carry[i] = vals[i+1] within each segment, ``fill`` at segment tails —
    the lead/next-window fold."""
    n = len(vals)
    if not n:
        return vals.copy()
    out = np.r_[vals[1:], np.asarray([fill], dtype=vals.dtype)]
    ends = np.r_[starts[1:], n] - 1
    out[ends] = fill
    return out


def exclusive_prefix_within_segments(vals: np.ndarray,
                                     starts: np.ndarray) -> np.ndarray:
    """Exclusive running sum per segment, accumulated in window order, so
    float results do not depend on the block layout.  Integer dtypes use
    the exact subtract-base trick; floats run np.cumsum per segment to
    keep the addition order."""
    n = len(vals)
    if not n:
        return vals.copy()
    if np.issubdtype(vals.dtype, np.integer):
        cs = np.cumsum(vals)
        excl = cs - vals
        base = np.repeat(excl[starts], np.diff(np.r_[starts, n]))
        return excl - base
    out = np.empty_like(vals)
    ends = np.r_[starts[1:], n]
    for s, e in zip(starts, ends):
        seg = vals[s:e]
        out[s:e] = np.r_[seg.dtype.type(0), np.cumsum(seg)[:-1]]
    return out


def inclusive_prefix_within_segments(vals: np.ndarray,
                                     starts: np.ndarray) -> np.ndarray:
    """Inclusive running sum per segment (int-exact subtract-base trick)."""
    n = len(vals)
    if not n:
        return vals.copy()
    cs = np.cumsum(vals)
    base = cs[starts] - vals[starts]
    return cs - np.repeat(base, np.diff(np.r_[starts, n]))


def segment_totals(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each segment's total, repeated on every row of the segment."""
    n = len(vals)
    if not n:
        return vals.copy()
    incl = inclusive_prefix_within_segments(vals, starts)
    ends = np.r_[starts[1:], n] - 1
    return np.repeat(incl[ends], np.diff(np.r_[starts, n]))


def running_max_before_within_segments(vals: np.ndarray, starts: np.ndarray,
                                       fill) -> np.ndarray:
    """carry[i] = max(vals[seg_start..i-1]) (``fill`` at heads) — the
    interval-union prefix-max fold."""
    n = len(vals)
    if not n:
        return vals.copy()
    out = np.empty_like(vals)
    ends = np.r_[starts[1:], n]
    for s, e in zip(starts, ends):
        run = np.maximum.accumulate(vals[s:e])
        out[s:e] = np.r_[np.asarray([fill], dtype=vals.dtype), run[:-1]]
    return out


def tail_buffer_within_segments(list_arr, starts: np.ndarray, depth: int,
                                dtype) -> pa.Array:
    """Per-window carry buffer = last ``depth`` values of all PRECEDING
    windows in the segment (empty at heads) — the rolling-frame tail fold.
    ``list_arr`` is the per-window tail list column; output is a list
    column of the same value dtype."""
    vals = np.asarray(list_arr.combine_chunks().values.to_numpy(
        zero_copy_only=False) if isinstance(list_arr, pa.ChunkedArray)
        else list_arr.values.to_numpy(zero_copy_only=False), dtype=dtype)
    arr = list_arr.combine_chunks() if isinstance(list_arr, pa.ChunkedArray) \
        else list_arr
    offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(arr)
    out: list = []
    ends = np.r_[starts[1:], n]
    for s, e in zip(starts, ends):
        buf = np.zeros(0, dtype=dtype)
        for i in range(s, e):
            out.append(buf)
            tail = vals[offs[i]:offs[i + 1]]
            buf = np.r_[buf, tail][-depth:] if depth > 0 else buf[:0]
    pa_dtype = pa.from_numpy_dtype(np.dtype(dtype))
    return pa.array([o.tolist() for o in out], type=pa.list_(pa_dtype))
