"""Tree reductions for bounded-cardinality aggregates.

When an aggregation's OUTPUT domain is bounded (vocab histograms, per-key
maxima over a bounded key set, distinct sets, candidate-pair sets), a keyed
``groupby`` pays a full sort/hash shuffle of every partial row.  The right
reduction shape is a repartition tree: apply an associative per-batch
combiner locally, fold blocks ``fanin`` ways, then once more to a single
block (measured 10 s → 0.2 s for the sf0.1 vocab histogram vs either
shuffle strategy).  Raise ``levels``/``fanin`` when a single merged partial
outgrows one worker's memory.

If the domain is NOT bounded, use :func:`keyed_fold`, the one keyed
two-phase aggregation: it salts partial rows by a stable hash of the
columns whose equal values must meet and folds each salt group in one
task, so every site shares one hash and one width.
"""

from __future__ import annotations

# Fold calls per keyed_fold (salt groups).  Read on the driver when a fold
# is planned, so a test can monkeypatch it.
WIDTH = 64


def topk_merge(ds, by, ascending, k: int):
    """Distributed top-k: each block keeps its local top-k (valid whenever
    rows are globally unique on the sort identity, e.g. post-aggregation or
    post-join keyed rows), the driver merges the ≤ k·blocks survivors and
    re-sorts once.  Returns a pyarrow Table with the INPUT schema exactly
    (rows are re-materialized via ``Table.take`` — no pandas dtype drift).

    ``by``/``ascending``: pandas-style sort spec; ties must be fully broken
    by the trailing columns for a deterministic result."""
    import pyarrow as pa

    by, ascending = list(by), list(ascending)

    def _sel(t: pa.Table) -> "pa.Array":
        df = t.select(by).to_pandas()
        idx = df.sort_values(by, ascending=ascending, kind="stable").index[:k]
        return pa.array(idx.to_numpy(), type=pa.int64())

    def local(t: pa.Table) -> pa.Table:
        return t.take(_sel(t))

    tabs = list(ds.map_batches(local, batch_format="pyarrow")
                .iter_batches(batch_format="pyarrow", batch_size=None))
    tabs = [t for t in tabs if t.num_rows]
    if not tabs:
        sch = ds.schema()  # None when no block ever had rows or a schema
        return pa.schema(list(zip(sch.names, sch.types)) if sch else []).empty_table()
    cat = pa.concat_tables(tabs).combine_chunks()
    return cat.take(_sel(cat))


def tree_reduce(ds, combine_fn, fanin: int = 8, levels: int = 2):
    """``combine_fn(pa.Table) -> pa.Table`` must be associative and
    idempotent on its own output (combine(combine(x)) == combine(x)).
    Returns a Dataset with a single combined block."""
    out = ds.map_batches(combine_fn, batch_format="pyarrow")
    width = fanin
    for _ in range(max(1, levels) - 1):
        out = out.repartition(width).map_batches(
            combine_fn, batch_format="pyarrow", batch_size=None
        )
        width = max(1, width // fanin)
    return out.repartition(1).map_batches(combine_fn, batch_format="pyarrow", batch_size=None)


def key_hash(t, by):
    """Stable uint64 hash per row of ``t``'s ``by`` columns.  Integer,
    boolean and temporal columns hash as int64 (so int32 and int64 sides of
    a union agree; uint64 wraps), dictionaries by value, floats with -0.0
    folded into 0.0, strings and binaries by content
    (``pd.util.hash_array``)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    h = np.zeros(t.num_rows, np.uint64)
    for c in by:
        a = t[c].combine_chunks()
        if pa.types.is_dictionary(a.type):
            a = a.dictionary_decode()
        if pa.types.is_temporal(a.type):
            a = a.view(pa.int32() if a.type.bit_width == 32 else pa.int64())
        if pa.types.is_integer(a.type) or pa.types.is_boolean(a.type):
            a = a.cast(pa.int64(), safe=False).fill_null(0)
        v = a.to_numpy(zero_copy_only=False)
        if v.dtype.kind == "f":
            v = v + 0.0
        h = h * np.uint64(0x9E3779B97F4A7C15) ^ pd.util.hash_array(v)
    return h


def keyed_fold(ds, by, fold):
    """Two-phase keyed aggregation: salt each row with ``key_hash(by) %
    WIDTH``, shuffle by the salt and call ``fold(pa.Table) -> pa.Table``
    once per salt group.  Every row whose ``by`` values are equal lands in
    the same call (with other keys beside it), so ``fold`` must handle many
    keys and must not depend on which keys share its call.  ``fold`` sees
    the input columns (no salt).  Blocks cross the shuffle, and come back
    from ``fold``, without schema-level metadata (a Parquet read's or
    ``Table.from_pandas``'s): Ray Data cannot hash such a schema when it
    concatenates blocks, and logs "Failed to hash the schemas"."""
    import numpy as np
    import pyarrow as pa

    by = [by] if isinstance(by, str) else list(by)
    width = np.uint64(WIDTH)

    def add_salt(t: pa.Table) -> pa.Table:
        salt = (key_hash(t, by) % width).astype(np.int64)
        return t.replace_schema_metadata(None).append_column("_salt", pa.array(salt))

    def run(g: pa.Table) -> pa.Table:
        return fold(g.drop_columns(["_salt"])).replace_schema_metadata(None)

    return (ds.map_batches(add_salt, batch_format="pyarrow")
            .groupby("_salt").map_groups(run, batch_format="pyarrow"))
