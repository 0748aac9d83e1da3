"""Engine rollup vs the independent single-process oracle.

Verifies the per-row invariants from BASELINE.json on a deterministic
synthetic corpus: exact equality on buckets / counts / QC bits / selected
token arrays at every tier, float tolerance 1e-9 on means and stds.  The
tiers checked are the ones the flagship pipeline (``run_pipeline``) writes
to its store, plus the one-job plan of the events tiers (``rollup_tiers``),
which rolls every tier of a (key, day) in one task.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdat_ray.oracle import (
    oracle_rollup_cascade,
    oracle_rollup_raw,
    oracle_standardize,
)
from tsdat_ray.pipelines.rollup_pipeline import PipelineConfig, clean_group, run_pipeline
from tsdat_ray.stages.rollup import RollupConfig, _key_change, _key_codes, dedup_order
from tsdat_ray.stages.standardize import (
    list_column_content_hash,
    list_column_tiebreak,
    standardize_batch,
)
from tsdat_ray.state.manifest import Manifest
from tsdat_ray.synth import generate_sequences_table

N_ROWS = 4000
US_ = 1_000_000


@pytest.fixture(scope="module")
def seq_table() -> pa.Table:
    return generate_sequences_table(N_ROWS, seed=42)


def _run_store(tbl: pa.Table, root) -> tuple[dict, Manifest]:
    """Run the flagship pipeline on ``tbl``, written as a one-file Parquet
    corpus under ``root``, into a fresh store there."""
    import pyarrow.parquet as pq

    (root / "corpus").mkdir()
    pq.write_table(tbl, root / "corpus" / "part-0.parquet")
    cfg = PipelineConfig(out_root=str(root / "store"), resume=False)
    return run_pipeline(str(root / "corpus"), cfg), Manifest(cfg.out_root)


def _store_tiers(tbl: pa.Table, root) -> list[pd.DataFrame]:
    """The t1m, t1h and t1d dirs the flagship pipeline writes for ``tbl``,
    with the hive ``source`` column as str."""
    import pyarrow.parquet as pq

    man = _run_store(tbl, root)[1]
    out = []
    for t in ("t1m", "t1h", "t1d"):
        df = pq.read_table(man.tier_dir(t)).to_pandas()
        out.append(_sorted_pdf(df.assign(source=df["source"].astype(str))))
    return out


def _sorted_pdf(ds_or_df) -> pd.DataFrame:
    df = ds_or_df.to_pandas() if not isinstance(ds_or_df, pd.DataFrame) else ds_or_df
    if np.issubdtype(df["bucket"].dtype, np.datetime64):
        df = df.assign(bucket=df["bucket"].astype("int64"))
    if "sel_ts" in df and np.issubdtype(df["sel_ts"].dtype, np.datetime64):
        df = df.assign(sel_ts=df["sel_ts"].astype("int64"))
    return df.sort_values(["source", "bucket"]).reset_index(drop=True)


def _assert_tier_matches(eng: pd.DataFrame, orc: pd.DataFrame, values=("n_tok", "tok_mean")):
    assert len(eng) == len(orc), f"row count {len(eng)} != {len(orc)}"
    assert (eng["source"].to_numpy() == orc["source"].to_numpy()).all()
    assert (eng["bucket"].to_numpy() == orc["bucket"].to_numpy()).all()
    assert (eng["n_rows"].to_numpy() == orc["n_rows"].to_numpy()).all()
    for v in values:
        for c in (f"{v}_n", f"{v}_n_bad", f"{v}_n_ind", f"qc_{v}"):
            np.testing.assert_array_equal(eng[c].to_numpy(), orc[c].to_numpy(), err_msg=c)
        for c in (f"{v}_mean", f"{v}_std", f"{v}_goodfraction", f"{v}_sum_w", f"{v}_sum_wx", f"{v}_sum_wx2"):
            np.testing.assert_allclose(
                eng[c].to_numpy(), orc[c].to_numpy(), rtol=1e-9, atol=1e-12, err_msg=c, equal_nan=True
            )
    # token-array invariant: exact match of the selected row + its token array
    assert (eng["sel_doc_id"].to_numpy() == orc["sel_doc_id"].to_numpy()).all()
    assert (eng["sel_ts"].to_numpy() == orc["sel_ts"].to_numpy()).all()
    for a, b in zip(eng["tokens"], orc["tokens"]):
        assert list(a) == list(b)


def test_rollup_tiers_match_oracle(ray_session, seq_table, tmp_path):
    t1m, t1h, t1d = _store_tiers(seq_table, tmp_path)

    odf = oracle_standardize(seq_table)
    o1m = oracle_rollup_raw(odf, 60)
    o1h = oracle_rollup_cascade(o1m, 3600)
    o1d = oracle_rollup_cascade(o1h, 86400)

    _assert_tier_matches(t1m, _sorted_pdf(o1m))
    _assert_tier_matches(t1h, _sorted_pdf(o1h))
    _assert_tier_matches(t1d, _sorted_pdf(o1d))


def test_synth_determinism():
    a = generate_sequences_table(500, seed=42)
    b = generate_sequences_table(500, seed=42)
    assert a.equals(b)
    c = generate_sequences_table(500, seed=43)
    assert not a.equals(c)


def test_synth_has_anomalies(seq_table):
    odf = oracle_standardize(seq_table)
    assert (odf["qc_n_tok"] & 1).sum() > 0, "no missing n_tok injected"
    assert (odf["qc_n_tok"] & 2).sum() > 0, "no mismatched n_tok injected"
    dup = odf.duplicated(["source", "ts_us"]).sum()
    assert dup > 0, "no duplicate timestamps injected"
    gaps = 0
    for _, g in odf.groupby("source"):
        d = np.diff(np.sort(g["ts_us"].unique()))
        gaps += (d > 10 * 1_000_000).sum()
    assert gaps > 0, "no gaps injected"


def _plan_tiers(rows, n_blocks: int, dedup: bool = False) -> list[pd.DataFrame]:
    """The 1m, 1h and 1d tables ``rollup_tiers`` makes of ``rows`` spread
    over ``n_blocks`` blocks, sorted by (source, bucket)."""
    from tsdat_ray.stages.rollup import rollup_tiers

    cfgs = [RollupConfig(interval_s=iv, dedup=dedup) for iv in (60, 3600, 86400)]
    df = rollup_tiers(rows.repartition(n_blocks), cfgs).to_pandas()
    if not len(df):
        return [df] * len(cfgs)
    return [_sorted_pdf(df[df["interval_s"] == c.interval_s].drop(columns="interval_s"))
            for c in cfgs]


def _standardized(tbl: pa.Table):
    import ray.data as rd

    return rd.from_arrow(tbl).map_batches(standardize_batch, batch_format="pyarrow")


def _cleaned(tbl: pa.Table):
    """``tbl`` standardized and deduplicated by the flagship clean stage."""
    from tsdat_ray.pipelines.rollup_pipeline import _add_day

    std = _standardized(tbl).map_batches(lambda b: _add_day(b, "ts"), batch_format="pyarrow")
    return (
        std.groupby(["source", "day"])
        .map_groups(lambda g: clean_group(g), batch_format="pyarrow")
        .drop_columns(["day"])
        .materialize()
    )


def test_rollup_tiers_plan_matches_oracle(ray_session, seq_table):
    """The one-job plan == oracle at 1m, 1h and 1d on
    pre-deduplicated input, at 40 blocks (so (source, bucket) groups span
    many blocks) and at 1; the two layouts' tier tables are bit-equal, sum
    columns included.  With ``dedup`` the plan also deduplicates the
    standardized rows itself: a group holds all of its (key, day)."""
    o1m = oracle_rollup_raw(oracle_standardize(seq_table), 60)
    o1h = oracle_rollup_cascade(o1m, 3600)
    oracles = (o1m, o1h, oracle_rollup_cascade(o1h, 86400))
    cleaned = _cleaned(seq_table)
    shredded, whole = _plan_tiers(cleaned, 40), _plan_tiers(cleaned, 1)
    deduped = _plan_tiers(_standardized(seq_table), 40, dedup=True)
    for got, one, own, orc in zip(shredded, whole, deduped, oracles):
        _assert_tier_matches(got, _sorted_pdf(orc))
        pd.testing.assert_frame_equal(got, one, check_exact=True)
        _assert_tier_matches(own, _sorted_pdf(orc))


def test_rollup_tiers_plan_empty_and_single_row(ray_session):
    empty = _plan_tiers(_cleaned(generate_sequences_table(10, seed=9).slice(0, 0)), 1)
    assert [len(t) for t in empty] == [0, 0, 0]
    one = generate_sequences_table(1, seed=1)
    o1m = oracle_rollup_raw(oracle_standardize(one), 60)
    o1h = oracle_rollup_cascade(o1m, 3600)
    for got, orc in zip(_plan_tiers(_cleaned(one), 1),
                        (o1m, o1h, oracle_rollup_cascade(o1h, 86400))):
        assert len(got) == 1
        _assert_tier_matches(got, _sorted_pdf(orc))


def test_rollup_edge_cases_vs_oracle(ray_session, tmp_path):
    """Property-style edge cases: tiny/degenerate corpora through the
    flagship pipeline vs the oracle at every tier (hypothesis-lite:
    deterministic seeds over the edge-case grid beats flaky random draws
    in CI)."""
    cases = []
    # single row
    cases.append(generate_sequences_table(1, seed=1))
    # two rows same bucket
    cases.append(generate_sequences_table(2, seed=2))
    # a few dozen rows, multiple seeds (different anomaly mixes)
    for s in (3, 4, 5):
        cases.append(generate_sequences_table(60, seed=s))

    for i, tbl in enumerate(cases):
        (tmp_path / str(i)).mkdir()
        o1m = oracle_rollup_raw(oracle_standardize(tbl), 60)
        o1h = oracle_rollup_cascade(o1m, 3600)
        o1d = oracle_rollup_cascade(o1h, 86400)
        for got, orc in zip(_store_tiers(tbl, tmp_path / str(i)), (o1m, o1h, o1d)):
            _assert_tier_matches(got, _sorted_pdf(orc))


def test_rollup_empty_input(ray_session, tmp_path):
    tbl = generate_sequences_table(10, seed=9).slice(0, 0)
    stats, man = _run_store(tbl, tmp_path)
    for n in Manifest.tier_names(("1m", "1h", "1d"), ("1m",)):
        key = n if n == "raw" else n[1:]
        assert stats[key]["rows"] == 0 and stats[key]["new_partitions"] == 0, n
        assert man.list_partition_dirs(n) == [], n


def test_calendar_rollup_bit_deterministic_across_layouts(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.rollup import calendar_rollup

    US = 1_000_000
    rng = np.random.default_rng(21)
    n = 4000
    ts = (np.sort(rng.integers(0, 90 * 86400, n)).astype(np.int64) * US
          + np.datetime64("2024-01-01").astype("datetime64[us]").astype(np.int64))
    tbl = pa.table({
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "k": pa.array(rng.choice(["a", "b"], n)),
        "v": pa.array(np.round(rng.uniform(0, 500, n), 2)),
    })
    outs = []
    for parts in (1, 7):
        out = calendar_rollup(rd.from_arrow(tbl).repartition(parts), key="k",
                              ts_col="ts", value_col="v", unit="month")
        outs.append(out.to_pandas().sort_values(["k", "bucket"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    # 90 days from Jan 1 = Jan/Feb/Mar (+ a few Apr rows) per key
    assert outs[0]["bucket"].dt.day.eq(1).all()


# ---- dedup order: the content hash, computed only where it decides

_dedup_rows = st.lists(
    st.tuples(st.integers(0, 1),                              # source
              st.integers(0, 3),                              # ts (s)
              st.integers(0, 2),                              # doc_id
              st.lists(st.integers(0, 5), max_size=4),        # tokens
              st.sampled_from([0, 1, 2, 4]),                  # qc_n_tok
              st.booleans(),                                  # n_tok null
              st.permutations(range(4))),                     # a twin's token order
    max_size=30)


def _dedup_table(rows) -> pa.Table:
    """Rows with duplicate (source, ts, doc_id).  Each row with a reordered
    ``perm`` of its tokens gets a twin that only the content hash tells
    apart: same source, ts, doc_id, n_tok and QC bits, and so the same
    ``_tb`` (len, sum)."""
    cols = {c: [] for c in ("source", "ts", "doc_id", "tokens", "qc_n_tok", "n_tok")}
    for s, t, d, toks, qc, null, perm in rows:
        twin = [toks[i] for i in perm if i < len(toks)]
        for tk in ([toks, twin] if twin != toks else [toks]):
            cols["source"].append("ab"[s])
            cols["ts"].append(t * US_)
            cols["doc_id"].append(f"d{d}")
            cols["tokens"].append(tk)
            cols["qc_n_tok"].append(qc)
            cols["n_tok"].append(None if null else len(tk))
    tokens = pa.array(cols["tokens"], pa.list_(pa.int32()))
    return pa.table({
        "doc_id": pa.array(cols["doc_id"], pa.string()),
        "tokens": tokens,
        "n_tok": pa.array(cols["n_tok"], pa.int32()),
        "source": pa.array(cols["source"], pa.string()),
        "ts": pa.array(cols["ts"], pa.int64()).cast(pa.timestamp("us")),
        "qc_n_tok": pa.array(cols["qc_n_tok"], pa.int32()),
        "_tb": pa.array(list_column_tiebreak(tokens)),
    })


def _dedup_keys(g: pa.Table):
    ts = g["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    codes = _key_codes(g["source"])[0]
    return g["doc_id"].to_numpy(zero_copy_only=False), ts, codes


def _eager_order(g: pa.Table) -> np.ndarray:
    """The dedup order with a ``_tb2`` content hash on every row, as
    standardize once emitted it."""
    row_id, ts, codes = _dedup_keys(g)
    bad = ((g["qc_n_tok"].to_numpy() & 3) != 0).astype(np.int8)
    ntf = np.nan_to_num(g["n_tok"].cast(pa.float64()).to_numpy(zero_copy_only=False),
                        nan=0.0).astype(np.int64)
    tb2 = list_column_content_hash(g["tokens"])
    return np.lexsort((tb2, ntf, bad, g["_tb"].to_numpy(), row_id, ts, codes))


def _check_dedup(g: pa.Table) -> None:
    want = _eager_order(g)
    assert np.array_equal(dedup_order(g, *_dedup_keys(g)), want)
    _, ts, codes = _dedup_keys(g)
    keep = _key_change(ts[want], codes[want])
    survivors = g.take(pa.array(want[keep], pa.int64())).drop_columns(["_tb"])
    assert clean_group(g).equals(survivors)


@settings(max_examples=200, deadline=None)
@given(_dedup_rows, st.integers(0, 60))
def test_dedup_order_lazy_hash_equals_eager(rows, cut):
    g = _dedup_table(rows)
    _check_dedup(g)
    cut = min(cut, g.num_rows)
    _check_dedup(pa.concat_tables([g.slice(0, cut), g.slice(cut)]))  # chunked


def test_dedup_order_hash_decides_planted_twins_only(monkeypatch):
    """Empty and single-row tables; a twin pair the hash alone orders; and
    rows of unique (source, ts) hash nothing."""
    import tsdat_ray.stages.rollup as rollup_mod

    pair = _dedup_table([(0, 1, 0, [1, 2, 3], 0, False, (2, 1, 0, 3))])
    assert pair.num_rows == 2 and pair["_tb"][0] == pair["_tb"][1]
    h = list_column_content_hash(pair["tokens"])
    assert h[0] != h[1]
    assert clean_group(pair)["tokens"].to_pylist() == [pair["tokens"][int(np.argmin(h))].as_py()]
    for g in (pair, pair.slice(0, 0), pair.slice(1, 1)):
        _check_dedup(g)

    hashed = []

    def spy(col):
        hashed.append(len(col))
        return list_column_content_hash(col)

    monkeypatch.setattr(rollup_mod, "list_column_content_hash", spy)
    unique = _dedup_table([(s, t, 0, [t, 1], 0, False, (0, 1, 2, 3))
                           for s in (0, 1) for t in range(2, 5)])
    for g, n_hashed in ((unique, []), (pa.concat_tables([unique, pair]), [2])):
        hashed.clear()
        assert np.array_equal(dedup_order(g, *_dedup_keys(g)), _eager_order(g))
        assert hashed == n_hashed
