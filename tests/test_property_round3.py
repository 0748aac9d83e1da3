"""Property-based checks for round-3 kernels (hypothesis)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st


# ------------------------------------------------------------- PNG codec ----

@given(
    st.integers(1, 20), st.integers(1, 20), st.sampled_from([1, 3, 4]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_png_roundtrip_property(h, w, c, seed):
    from tsdat_ray.stages.png_codec import png_decode, png_encode

    img = np.random.default_rng(seed).integers(0, 256, (h, w, c), np.uint8)
    np.testing.assert_array_equal(png_decode(png_encode(img)), img)


# ------------------------------------------------------ JPEG flat blocks ----

@given(st.integers(0, 255), st.integers(1, 3), st.integers(60, 95))
@settings(max_examples=25, deadline=None)
def test_jpeg_flat_within_one_lsb(level, octave, quality):
    from tsdat_ray.stages.jpeg_codec import jpeg_decode, jpeg_encode

    img = np.full((8 * octave, 8, 3), level, np.uint8)
    out = jpeg_decode(jpeg_encode(img, quality=quality))
    assert int(np.abs(out.astype(int) - level).max()) <= 1


# ----------------------------------------------- dedup tie-break property ----

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_dedup_survivor_independent_of_row_order(seed):
    """The (key, ts) dedup survivor must depend only on CONTENT, never on
    arrival order — the invariant behind the round-3 _tb tie-break."""
    from tsdat_ray.stages.rollup import RollupConfig, _key_codes, _rollup_raw_sorted
    from tsdat_ray.stages.standardize import standardize_batch

    rng = np.random.default_rng(seed)
    n = 24
    # duplicate ids with independent payloads (what synth's DUP_P injects)
    idx = np.sort(rng.integers(0, 8, n))
    lens = rng.integers(1, 6, n)
    toks = [rng.integers(0, 100, ln).astype(np.int32).tolist() for ln in lens]
    tbl = pa.table({
        "doc_id": pa.array([f"web-{i:08d}" for i in idx]),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "n_tok": pa.array(lens.astype(np.int32)),
        "source": pa.array(["web"] * n),
    })
    cfg = RollupConfig(interval_s=60)

    def run(order: np.ndarray) -> pa.Table:
        std = standardize_batch(tbl.take(pa.array(order, type=pa.int64())))
        codes, keys = _key_codes(std["source"])
        out = _rollup_raw_sorted(std, cfg, codes, keys, 60 * 1_000_000)
        return out

    a = run(np.arange(n))
    b = run(rng.permutation(n))
    assert a.equals(b)


# ----------------------- quantized-float contract vs DuckDB (differential) --

_ENT_SQL = """
    WITH w AS (
        SELECT doc_id, word
        FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS word
              FROM documents)
        WHERE word <> ''
    ), n AS (SELECT doc_id, count(*) AS n FROM w GROUP BY 1),
    c AS (SELECT doc_id, word, count(*) AS c FROM w GROUP BY 1, 2),
    q AS (SELECT c.doc_id,
                 CAST(round(-((c.c / n.n) * ln(c.c / n.n)) * 1e9) AS BIGINT)
                     AS q
          FROM c JOIN n USING (doc_id))
    SELECT d.doc_id, coalesce(n.n, 0) AS n_words,
           coalesce(s.sq, 0) / 1e9 AS entropy
    FROM documents d
    LEFT JOIN n USING (doc_id)
    LEFT JOIN (SELECT doc_id, CAST(sum(q) AS BIGINT) AS sq
               FROM q GROUP BY 1) s ON s.doc_id = d.doc_id
    ORDER BY d.doc_id
"""


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_word_entropy_bitexact_vs_duckdb(ray_session, data):
    """The quantized-entropy contract holds for ARBITRARY word mixes, not
    just the synthetic corpus: engine doubles == DuckDB doubles exactly."""
    import duckdb
    import ray.data as rd

    from tsdat_ray.stages.text import word_entropy

    rng = data.draw(st.randoms(use_true_random=False))
    vocab = ["aa", "b", "ccc", "dd", "e", "ffff", "g7", "h"]
    docs = [" ".join(rng.choice(vocab)
                     for _ in range(rng.randint(1, 40)))
            for _ in range(rng.randint(1, 16))]
    tab = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                    "text": pa.array(docs)})
    got = (word_entropy(rd.from_arrow(tab).repartition(3)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", tab)
    exp = con.sql(_ENT_SQL).df()
    assert (got["n_words"].to_numpy() == exp["n_words"].to_numpy()).all()
    # exact double equality — the whole point of the quantized contract
    assert (got["entropy"].to_numpy() == exp["entropy"].to_numpy()).all()


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_kl_by_source_bitexact_vs_duckdb(ray_session, data):
    import duckdb
    import ray.data as rd

    from tsdat_ray.stages.text import kl_divergence_by

    rng = data.draw(st.randoms(use_true_random=False))
    vocab = ["x", "yy", "zzz", "w", "vv"]
    srcs = ["s1", "s2", "s3"][: rng.randint(1, 3)]
    rows = [(rng.choice(srcs),
             " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 25))))
            for _ in range(rng.randint(2, 24))]
    tab = pa.table({"source": pa.array([r[0] for r in rows]),
                    "text": pa.array([r[1] for r in rows])})
    got = (kl_divergence_by(rd.from_arrow(tab).repartition(4))
           .to_pandas().sort_values("source").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", tab)
    exp = con.sql("""
        WITH w AS (
            SELECT source, word
            FROM (SELECT source, unnest(string_split(text, ' ')) AS word
                  FROM documents) WHERE word <> ''
        ), c AS (SELECT source, word, count(*) AS c_kw FROM w GROUP BY 1, 2),
        cw AS (SELECT word, CAST(sum(c_kw) AS BIGINT) AS c_w FROM c GROUP BY 1),
        cs AS (SELECT source, CAST(sum(c_kw) AS BIGINT) AS c_k FROM c GROUP BY 1),
        n AS (SELECT CAST(sum(c_kw) AS BIGINT) AS n FROM c),
        q AS (SELECT c.source,
                     CAST(round(
                         (CAST(c.c_kw AS DOUBLE) / CAST(cs.c_k AS DOUBLE))
                         * ln((CAST(c.c_kw AS DOUBLE) * CAST(n.n AS DOUBLE))
                              / (CAST(cs.c_k AS DOUBLE)
                                 * CAST(cw.c_w AS DOUBLE)))
                         * 1e9) AS BIGINT) AS q
              FROM c CROSS JOIN n JOIN cw USING (word) JOIN cs USING (source))
        SELECT q.source, cs.c_k AS n_words,
               CAST(sum(q.q) AS BIGINT) / 1e9 AS kl
        FROM q JOIN cs ON cs.source = q.source
        GROUP BY 1, 2 ORDER BY 1
    """).df()
    assert (got["n_words"].to_numpy() == exp["n_words"].to_numpy()).all()
    assert (got["kl"].to_numpy() == exp["kl"].to_numpy()).all()


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_windowed_quantiles_disc_matches_duckdb(ray_session, data):
    """The ceil(n·q)−1 disc-quantile convention must equal DuckDB's
    quantile_disc for arbitrary n, tie patterns and windows."""
    import duckdb
    import ray.data as rd

    from tsdat_ray.stages.window_funcs import windowed_quantiles_disc

    rng = data.draw(st.randoms(use_true_random=False))
    n = rng.randint(2, 200)
    us = 1_000_000
    ts = np.array([rng.randint(0, 3 * 3600) * us for _ in range(n)],
                  dtype="datetime64[us]")
    key = np.array([rng.choice(["a", "b"]) for _ in range(n)])
    # cent-quantized with deliberate ties
    val = np.round(np.array([rng.choice([1.25, 2.5, 2.5, 7.75,
                                         rng.uniform(0, 10)])
                             for _ in range(n)]), 2)
    tab = pa.table({"event_type": pa.array(key), "ts": pa.array(ts),
                    "value": pa.array(val)})
    got = (windowed_quantiles_disc(rd.from_arrow(tab).repartition(5),
                                   key="event_type", ts_col="ts",
                                   value_col="value", interval_s=3600,
                                   qs=(0.25, 0.5, 0.95))
           .to_pandas().sort_values(["event_type", "bucket"])
           .reset_index(drop=True))
    con = duckdb.connect()
    con.register("events", tab)
    exp = con.sql("""
        SELECT event_type, date_trunc('hour', ts) AS bucket,
               quantile_disc(value, 0.25) AS qd25,
               quantile_disc(value, 0.50) AS qd50,
               quantile_disc(value, 0.95) AS qd95
        FROM events GROUP BY 1, 2 ORDER BY 1, 2
    """).df()
    for c in ("qd25", "qd50", "qd95"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all()
