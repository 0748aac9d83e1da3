"""``reduce.keyed_fold``: the one salted two-phase aggregation.

Every operator routed through it must return the same rows at any block
layout and any fold width: a fold call sees whole keys, and which keys
share a call never shows in the result."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from tsdat_ray.stages import reduce

US = 1_000_000


def _blocks(t: pa.Table, n: int):
    """``t`` as a Dataset of ``n`` contiguous blocks (the same rows)."""
    step = -(-t.num_rows // n)
    return rd.from_arrow([t.slice(i * step, step) for i in range(n)])


def _frame(res) -> pd.DataFrame:
    if isinstance(res, pa.Table):
        df = res.to_pandas()
    else:
        tabs = [t for t in res.iter_batches(batch_format="pyarrow", batch_size=None)
                if t.num_columns]
        df = pa.concat_tables(tabs).to_pandas() if tabs else pd.DataFrame()
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _events(n=600, seed=5):
    rng = np.random.default_rng(seed)
    return pa.table({
        "k": pa.array(rng.choice(["a", "b", "c", "d", "e"], n)),
        "user": pa.array(rng.integers(0, 40, n).astype(np.int64)),
        "eid": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(np.sort(rng.integers(0, 3 * 86400, n)) * US)
        .cast(pa.timestamp("us")),
        "v": pa.array(rng.integers(0, 5000, n) / 100.0),
        "cnt": pa.array(np.cumsum(rng.integers(0, 5, n)).astype(np.int64)),
    })


def _docs(n=120, seed=9):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(25)]
    texts = [" ".join(rng.choice(words, rng.integers(3, 9))) for _ in range(n // 2)]
    texts = texts + [texts[i] for i in rng.integers(0, len(texts), n - len(texts))]
    toks = [rng.integers(0, 30, rng.integers(1, 12)).astype(np.int32) for _ in range(n)]
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
    })


def _stats(ds):
    from tsdat_ray.stages.stats import grouped_int_sums

    return grouped_int_sums(ds.select_columns(["user", "cnt"]), "user", ["cnt"])


def _window_funcs(ds):
    from tsdat_ray.stages.window_funcs import counter_increase

    return counter_increase(ds, "k", "ts", "v", "eid", window_s=6 * 3600)


def _carry(ds):
    from tsdat_ray.stages.carry import fold_carry

    def add_window(b: pa.Table) -> pa.Table:
        ts = b["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"k": b["k"], "_window": pa.array(ts // (6 * 3600 * US)),
                         "_tot": b["cnt"]})

    def fold(starts, windows, cols):
        # carry = the previous window's summary within each key (0 first)
        prev = np.r_[0, cols["_tot"][:-1]]
        prev[starts] = 0
        return {"_carry": prev}

    # one summary row per (key, window): the max running count in it
    summ = ds.map_batches(add_window, batch_format="pyarrow")
    summ = summ.groupby(["k", "_window"]).max("_tot").map_batches(
        lambda b: b.rename_columns(["k", "_window", "_tot"]), batch_format="pyarrow")
    return fold_carry(summ, "k", "_window", ["_tot"], fold)


def _dedup(ds):
    from tsdat_ray.stages.dedup import exact_dedup

    return exact_dedup(ds.select_columns(["doc_id", "text"]))


def _text(ds):
    from tsdat_ray.stages.text import topk_words

    return topk_words(ds, k=12)


def _sampling(ds):
    from tsdat_ray.stages.sampling import topk_token_bigrams

    return topk_token_bigrams(ds, k=15)


def _graph(ds):
    from tsdat_ray.stages.graph import connected_components

    def pairs(b: pa.Table) -> pa.Table:
        i = b["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({"id_a": pa.array(i), "id_b": pa.array((i * 7 + 3) % 90)})

    return connected_components(ds.map_batches(pairs, batch_format="pyarrow"))


def _joins(ds):
    from tsdat_ray.stages.joins import set_op

    left = ds.select_columns(["k", "user"])
    right = ds.filter(expr="eid < 200").select_columns(["k", "user"])
    return set_op(left, right, ("k", "user"), mode="intersect")


def _similarity(ds):
    from tsdat_ray.stages.similarity import semdedup

    def emb(b: pa.Table) -> pa.Table:
        i = b["eid"].combine_chunks().to_numpy(zero_copy_only=False)
        vec = np.stack([np.cos(i % 11), np.sin(i % 11), (i % 3) / 3.0], 1)
        return pa.table({"vec_id": pa.array(i), "label": pa.array(i % 6),
                         "embedding": pa.array(list(vec.astype(np.float32)),
                                               pa.list_(pa.float32()))})

    return semdedup(ds.map_batches(emb, batch_format="pyarrow"), eps=0.999,
                    cluster_col="label")


CASES = {
    "stats.grouped_int_sums": (_events, _stats),
    "window_funcs.counter_increase": (_events, _window_funcs),
    "carry.fold_carry": (_events, _carry),
    "dedup.exact_dedup": (_docs, _dedup),
    "text.topk_words": (_docs, _text),
    "sampling.topk_token_bigrams": (_docs, _sampling),
    "graph.connected_components": (_docs, _graph),
    "joins.set_op": (_events, _joins),
    "similarity.semdedup": (_events, _similarity),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_keyed_fold_ops_independent_of_blocks_and_width(ray_session, monkeypatch,
                                                        case):
    make, op = CASES[case]
    tab = make()
    frames = {}
    for width in (64, 4):
        monkeypatch.setattr(reduce, "WIDTH", width)
        for n in (1, 7):
            frames[(width, n)] = _frame(op(_blocks(tab, n)))
    base = frames[(64, 1)]
    assert len(base)
    for got in frames.values():
        pd.testing.assert_frame_equal(got, base, check_exact=True)


def test_key_hash_int32_and_int64_agree():
    """int32 and int64 sides of a union hash alike (negatives too)."""
    v = np.array([-3, 0, 7, 1 << 30], np.int64)
    a = pa.table({"x": pa.array(v.astype(np.int32))})
    b = pa.table({"x": pa.array(v)})
    np.testing.assert_array_equal(reduce.key_hash(a, ["x"]),
                                  reduce.key_hash(b, ["x"]))


def test_keyed_fold_strips_schema_metadata(ray_session, monkeypatch):
    monkeypatch.setattr(reduce, "WIDTH", 4)
    df = pd.DataFrame({"k": np.arange(40) % 9, "n": np.ones(40, np.int64)})
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))

    def fold(g: pa.Table) -> pa.Table:
        out = g.to_pandas().groupby("k", as_index=False)["n"].sum()
        return pa.Table.from_pandas(out, preserve_index=False)

    tabs = [t for t in reduce.keyed_fold(ds, "k", fold)
            .iter_batches(batch_format="pyarrow", batch_size=None) if t.num_rows]
    assert all(t.schema.metadata is None for t in tabs)
    got = pa.concat_tables(tabs).to_pandas().sort_values("k")
    assert got["n"].tolist() == [5, 5, 5, 5, 4, 4, 4, 4, 4]
