"""Mimics the driver's correctness gate: run every ``queries()`` entry and its
``oracle_sql()`` twin on the same testdata, compare row count, column names and
values (sorted, order-insensitive; floats to 1e-9)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return c


def _to_pdf(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    try:
        import pyarrow as pa

        if isinstance(res, pa.Table):
            return res.to_pandas()
    except ImportError:
        pass
    return res.to_pandas()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _check(con, name: str) -> None:
    q = entrymod.queries()[name]
    got = _norm(_to_pdf(q(SF_DIR)))
    exp = _norm(con.sql(entrymod.oracle_sql()[name]).df())
    assert list(got.columns) == list(exp.columns), f"{name}: columns {list(got.columns)} != {list(exp.columns)}"
    assert len(got) == len(exp), f"{name}: rows {len(got)} != {len(exp)}"
    for c in got.columns:
        a, b = got[c].to_numpy(), exp[c].to_numpy()
        if np.issubdtype(np.asarray(a).dtype, np.floating) or np.issubdtype(
            np.asarray(b).dtype, np.floating
        ):
            np.testing.assert_allclose(
                a.astype(float), b.astype(float), rtol=1e-9, atol=1e-12, equal_nan=True,
                err_msg=f"{name}.{c}",
            )
        else:
            mismatch = a != b
            if mismatch.any() and a.dtype == object:
                # None vs nan normalization
                an = pd.Series(a).fillna(-1).to_numpy()
                bn = pd.Series(b).fillna(-1).to_numpy()
                np.testing.assert_array_equal(an, bn, err_msg=f"{name}.{c}")
            else:
                np.testing.assert_array_equal(a, b, err_msg=f"{name}.{c}")


@pytest.mark.parametrize("name", sorted(entrymod.oracle_sql().keys()))
def test_query_matches_oracle(ray_session, con, name):
    _check(con, name)


def test_seq_oracle_reads_store_corpus(ray_session, con):
    """A process that reuses a finished sequences store (a chunked bench
    sweep, a driver rerun) starts with no corpus pinned; the query must pin
    it, or its oracle reads the sf0.01 corpus."""
    entrymod.queries()["seq_rollup_1h"](SF_DIR)  # the store is built
    entrymod._LAST_SEQ_CORPUS.clear()
    _check(con, "seq_rollup_1h")


def test_seq_store_finishes_invalidated_tier(ray_session, con):
    """A store whose t1d partitions were invalidated is rebuilt before
    ``seq_rollup_1d`` reads it."""
    man = entrymod._seq_store(SF_DIR)
    parts = man.completed("t1d")
    assert parts and man.invalidate("t1d", sorted(parts)) == len(parts)
    assert not man.completed("t1d")
    _check(con, "seq_rollup_1d")
    assert man.completed("t1d") == parts


def test_entry_smoke(ray_session):
    res = entrymod.entry()
    pdf = _to_pdf(res)
    assert len(pdf) > 0
    assert "n_tok_mean" in pdf.columns


def test_seq_tier_queries_run(ray_session):
    for name in ("seq_rollup_1m", "seq_rollup_1h", "seq_rollup_1d"):
        pdf = _to_pdf(entrymod.queries()[name](SF_DIR))
        assert len(pdf) > 0, name


def test_rows_only_queries_run(ray_session):
    """Every queries() entry without a SQL oracle still runs and returns a
    stable, non-degenerate result (the driver's weaker rows-only check)."""
    qs = entrymod.queries()
    oracled = set(entrymod.oracle_sql())
    expect_nonempty = {
        "neardup_minhash_docs", "simhash_docs", "lang_id_docs",
        "fingerprint_docs", "media_image_stats", "media_audio_features",
        "media_video_frames", "neardup_embeddings_lsh",
    }
    for name in sorted(set(qs) - oracled - {"seq_rollup_1m", "seq_rollup_1h", "seq_rollup_1d"}):
        pdf = _to_pdf(qs[name](SF_DIR))
        assert pdf is not None, name
        if name in expect_nonempty:
            assert len(pdf) > 0, name
