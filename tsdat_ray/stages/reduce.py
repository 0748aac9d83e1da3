"""Tree reductions for bounded-cardinality aggregates.

When an aggregation's OUTPUT domain is bounded (vocab histograms, per-key
maxima over a bounded key set, distinct sets, candidate-pair sets), a keyed
``groupby`` pays a full sort/hash shuffle of every partial row.  The right
reduction shape is a repartition tree: apply an associative per-batch
combiner locally, fold blocks ``fanin`` ways, then once more to a single
block (measured 10 s → 0.2 s for the sf0.1 vocab histogram vs either
shuffle strategy).  Raise ``levels``/``fanin`` when a single merged partial
outgrows one worker's memory; if the domain is NOT bounded, use a real
groupby instead.
"""

from __future__ import annotations


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
