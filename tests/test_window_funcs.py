"""Distributed window-function operators vs sequential references."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from tsdat_ray.stages.window_funcs import (
    exact_median_quantized,
    grouped_rank,
    grouped_topk,
    partitioned_cumsum,
    partitioned_lag,
    semi_anti_join,
)

US = 1_000_000


@pytest.fixture
def log(ray_session):
    rng = np.random.default_rng(13)
    n = 3000
    ts = np.sort(rng.integers(0, 40 * 3600, n)).astype(np.int64) * US
    # force empty-window gaps for the minority key: all its events cluster
    # in hours 0-2 and 30-32 (6h windows 1..4 empty for it)
    key = np.where(rng.random(n) < 0.9, "hot", "cold")
    cold = key == "cold"
    ts[cold] = np.where(rng.random(cold.sum()) < 0.5,
                        rng.integers(0, 2 * 3600, cold.sum()),
                        rng.integers(30 * 3600, 32 * 3600, cold.sum())).astype(np.int64) * US
    v = rng.integers(0, 10000, n) / 100.0  # cent-quantized
    return pa.table(
        {
            "k": pa.array(key),
            "eid": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "v": pa.array(v),
        }
    )


def _seq_order(t):
    ts = t["ts"].cast(pa.int64()).to_numpy()
    eid = t["eid"].to_numpy()
    k = t["k"].to_numpy(zero_copy_only=False)
    return np.lexsort((eid, ts, k))


def test_partitioned_lag_exact_across_empty_windows(log):
    out = (
        partitioned_lag(rd.from_arrow(log).repartition(5), key="k", ts_col="ts",
                        value_col="v", id_col="eid", window_s=6 * 3600)
        .to_pandas().sort_values("eid").reset_index(drop=True)
    )
    order = _seq_order(log)
    k = log["k"].to_numpy(zero_copy_only=False)[order]
    v = log["v"].to_numpy()[order]
    eid = log["eid"].to_numpy()[order]
    exp = np.full(len(v), np.nan)
    exp[1:] = np.where(k[1:] == k[:-1], v[:-1], np.nan)
    expected = dict(zip(eid, exp))
    got = out.set_index("eid")["v_lag"]
    for e in eid:
        a, b = got[e], expected[e]
        assert (np.isnan(a) and np.isnan(b)) or a == b


def test_partitioned_cumsum_matches_sequential(log):
    out = (
        partitioned_cumsum(rd.from_arrow(log).repartition(5), key="k", ts_col="ts",
                           value_col="v", id_col="eid", window_s=6 * 3600,
                           value_scale=100)
        .to_pandas().sort_values("eid").reset_index(drop=True)
    )
    order = _seq_order(log)
    k = log["k"].to_numpy(zero_copy_only=False)[order]
    cents = np.round(log["v"].to_numpy()[order] * 100).astype(np.int64)
    eid = log["eid"].to_numpy()[order]
    exp = np.empty(len(cents), np.int64)
    run = {}
    for i, (kk, c) in enumerate(zip(k, cents)):
        run[kk] = run.get(kk, 0) + int(c)
        exp[i] = run[kk]
    expected = dict(zip(eid, exp / 100.0))
    got = out.set_index("eid")["v_cumsum"]
    for e in eid:
        assert got[e] == expected[e]  # bitwise: exact int accumulation


def test_grouped_rank_matches_argsort(log):
    out = (
        grouped_rank(rd.from_arrow(log).repartition(5), key="k", value_col="v",
                     id_col="eid", n_buckets=16)
        .to_pandas().sort_values("eid").reset_index(drop=True)
    )
    k = log["k"].to_numpy(zero_copy_only=False)
    v = log["v"].to_numpy()
    eid = log["eid"].to_numpy()
    got = out.set_index("eid")["rnk"]
    for kk in ("hot", "cold"):
        m = k == kk
        order = np.lexsort((eid[m], -v[m]))
        for r, e in enumerate(eid[m][order], start=1):
            assert got[e] == r


def test_grouped_topk(log):
    out = (
        grouped_topk(rd.from_arrow(log).repartition(5), key="k", value_col="v",
                     id_col="eid", k=3)
        .to_pandas()
    )
    k = log["k"].to_numpy(zero_copy_only=False)
    v = log["v"].to_numpy()
    eid = log["eid"].to_numpy()
    for kk in ("hot", "cold"):
        m = k == kk
        order = np.lexsort((eid[m], -v[m]))[:3]
        exp = set(eid[m][order])
        got = set(out[out["k"] == kk]["eid"])
        assert got == exp


def test_semi_anti_partition(log):
    left = rd.from_arrow(log)
    right = rd.from_arrow(log.filter(pa.compute.greater(log["v"], 99.0)))
    semi = semi_anti_join(left, "eid", right, "eid").to_pandas()
    anti = semi_anti_join(rd.from_arrow(log), "eid", right, "eid", anti=True).to_pandas()
    n_hi = int((log["v"].to_numpy() > 99.0).sum())
    assert len(semi) == n_hi
    assert len(anti) == log.num_rows - n_hi
    assert set(semi["eid"]).isdisjoint(set(anti["eid"]))


def test_exact_median_odd_even(ray_session):
    t = pa.table(
        {
            "k": pa.array(["a"] * 5 + ["b"] * 4),
            "v": pa.array([1.00, 3.50, 2.25, 9.99, 0.01, 4.0, 1.0, 2.0, 3.0]),
        }
    )
    out = exact_median_quantized(rd.from_arrow(t).repartition(3), key="k",
                                 value_col="v", scale=100).to_pandas()
    m = dict(zip(out["k"], out["median_value"]))
    assert m["a"] == 2.25          # odd count: middle
    assert m["b"] == 2.5           # even count: avg of 2, 3


def test_rolling_sum_matches_sequential(log):
    from tsdat_ray.stages.window_funcs import partitioned_rolling_sum

    n_frame = 6
    out = (
        partitioned_rolling_sum(rd.from_arrow(log).repartition(7), key="k",
                                ts_col="ts", value_col="v", id_col="eid",
                                frame_n=n_frame, window_s=3600,
                                value_scale=100)
        .to_pandas().set_index("eid")
    )
    k = log["k"].to_numpy(zero_copy_only=False)
    ts = log["ts"].to_numpy()
    v = np.round(log["v"].to_numpy() * 100).astype(np.int64)
    eid = log["eid"].to_numpy()
    for kk in ("hot", "cold"):
        m = k == kk
        order = np.lexsort((eid[m], ts[m].astype("int64")))
        vs, es = v[m][order], eid[m][order]
        for j in range(len(vs)):
            lo = max(0, j - n_frame + 1)
            exp_sum = vs[lo: j + 1].sum() / 100.0
            assert out.loc[es[j], "v_rsum"] == exp_sum  # bitwise: int cents
            assert out.loc[es[j], "v_rcnt"] == j + 1 - lo


def test_first_value_per_key(log):
    from tsdat_ray.stages.window_funcs import partitioned_first_value

    out = (
        partitioned_first_value(rd.from_arrow(log).repartition(7), key="k",
                                ts_col="ts", value_col="v", id_col="eid")
        .to_pandas()
    )
    k = log["k"].to_numpy(zero_copy_only=False)
    ts = log["ts"].to_numpy().astype("int64")
    v = log["v"].to_numpy()
    eid = log["eid"].to_numpy()
    for kk in ("hot", "cold"):
        m = k == kk
        first = v[m][np.lexsort((eid[m], ts[m]))[0]]
        assert (out[out["k"] == kk]["v_first"] == first).all()


def test_lead_matches_sequential(log):
    from tsdat_ray.stages.window_funcs import partitioned_lead

    out = (
        partitioned_lead(rd.from_arrow(log).repartition(7), key="k",
                         ts_col="ts", value_col="v", id_col="eid",
                         window_s=3600)
        .to_pandas().set_index("eid")
    )
    k = log["k"].to_numpy(zero_copy_only=False)
    ts = log["ts"].to_numpy().astype("int64")
    v = log["v"].to_numpy()
    eid = log["eid"].to_numpy()
    for kk in ("hot", "cold"):
        m = k == kk
        order = np.lexsort((eid[m], ts[m]))
        vs, es = v[m][order], eid[m][order]
        for j in range(len(vs)):
            exp = vs[j + 1] if j + 1 < len(vs) else np.nan
            got = out.loc[es[j], "v_lead"]
            assert (np.isnan(got) and np.isnan(exp)) or got == exp


def test_percent_rank(log):
    from tsdat_ray.stages.window_funcs import grouped_percent_rank

    out = (
        grouped_percent_rank(rd.from_arrow(log).repartition(5), key="k",
                             value_col="v", id_col="eid", n_buckets=16)
        .to_pandas().set_index("eid")
    )
    k = log["k"].to_numpy(zero_copy_only=False)
    v = log["v"].to_numpy()
    eid = log["eid"].to_numpy()
    for kk in ("hot", "cold"):
        m = k == kk
        n = int(m.sum())
        order = np.lexsort((eid[m], -v[m]))
        for r, e in enumerate(eid[m][order], start=1):
            assert out.loc[e, "pct_rank"] == (r - 1) / (n - 1)


def test_time_weighted_avg_matches_sequential(log):
    from tsdat_ray.stages.window_funcs import time_weighted_avg

    out = (
        time_weighted_avg(rd.from_arrow(log).repartition(7), key="k",
                          ts_col="ts", value_col="v", id_col="eid",
                          window_s=3600)
        .to_pandas()
    )
    k = log["k"].to_numpy(zero_copy_only=False)
    ts = log["ts"].to_numpy().astype("int64")
    v = np.round(log["v"].to_numpy() * 100).astype(np.int64)
    eid = log["eid"].to_numpy()
    day_us = 86400 * US
    acc = {}
    for kk in ("hot", "cold"):
        m = k == kk
        order = np.lexsort((eid[m], ts[m]))
        tss, vs = ts[m][order], v[m][order]
        for j in range(len(tss) - 1):
            dt = int(tss[j + 1] - tss[j])
            day = (int(tss[j]) // day_us) * day_us
            sw, sd = acc.get((kk, day), (0, 0))
            acc[(kk, day)] = (sw + int(vs[j]) * dt, sd + dt)
    assert len(out) == len(acc)
    for _, row in out.iterrows():
        sw, sd = acc[(row["k"], int(np.datetime64(row["bucket_ts"], "us").astype("int64")))]
        assert row["dur_us"] == sd
        assert row["twa"] == float(sw) / (100.0 * float(sd))  # identical IEEE expr


def _window_scan_ops():
    """Every operator on ``window_scan``, as name -> f(ds, window_s)."""
    from tsdat_ray.stages import window_funcs as wf

    kw = dict(key="k", ts_col="ts", value_col="v", id_col="eid")
    return {
        "lag": lambda d, w: wf.partitioned_lag(d, window_s=w, **kw),
        "lag_k": lambda d, w: wf.partitioned_lag_k(d, offset_k=3, window_s=w, **kw),
        "lead": lambda d, w: wf.partitioned_lead(d, window_s=w, **kw),
        "cumsum": lambda d, w: wf.partitioned_cumsum(d, value_scale=100, window_s=w, **kw),
        "rolling_sum": lambda d, w: wf.partitioned_rolling_sum(d, frame_n=4, window_s=w, **kw),
        "rolling_zscore": lambda d, w: wf.partitioned_rolling_zscore(d, frame_n=5, window_s=w, **kw),
        "rolling_minmax": lambda d, w: wf.partitioned_rolling_minmax(d, frame_n=4, window_s=w, **kw),
        "rolling_median": lambda d, w: wf.partitioned_rolling_median(d, frame_n=5, window_s=w, **kw),
        "decay_score": lambda d, w: wf.partitioned_decay_score(d, k_terms=8, window_s=w, **kw),
        "ewma": lambda d, w: wf.partitioned_ewma(d, window_s=w, **kw),
        "time_weighted_avg": lambda d, w: wf.time_weighted_avg(d, window_s=w, **kw),
        "counter_increase": lambda d, w: wf.counter_increase(d, window_s=w, **kw),
        "cusum": lambda d, w: wf.partitioned_cusum(d, drift=1.0, threshold=2.0, window_s=w, **kw),
        "interval_union": lambda d, w: wf.interval_union(
            d, key="k", ts_col="ts", dur_col="v", id_col="eid", window_s=w),
        "session_ids": lambda d, w: wf.session_ids(
            d, key="k", ts_col="ts", id_col="eid", gap_s=600, window_s=w),
    }


def test_window_ops_empty_and_single_row(ray_session):
    """Degenerate inputs (empty table, one row) flow through every
    ``window_scan`` / ``time_windows`` operator without error and with the
    sequential semantics."""
    from tsdat_ray.stages import window_funcs as wf
    from tsdat_ray.stages.sampling import pack_sequences_global
    from tsdat_ray.stages.text_quant import half_away

    empty = pa.table({
        "k": pa.array([], pa.string()),
        "eid": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "v": pa.array([], pa.float64()),
    })
    one = pa.table({
        "k": pa.array(["a"]),
        "eid": pa.array([7], pa.int64()),
        "ts": pa.array([1_000_000], pa.int64()).cast(pa.timestamp("us")),
        "v": pa.array([3.25]),
    })
    # the one-row answer of each operator (SQL semantics)
    nan = float("nan")
    expect = {
        "lag": {"v_lag": nan}, "lag_k": {"v_lag3": nan}, "lead": {"v_lead": nan},
        "cumsum": {"v_cumsum": 3.25},
        "rolling_sum": {"v_rsum": 3.25, "v_rcnt": 1},
        "rolling_zscore": {"v_zscore": nan},
        "rolling_minmax": {"v_rmin": 3.25, "v_rmax": 3.25},
        "rolling_median": {"v_rmed": 3.25},
        "decay_score": {"v_decay_q": int(half_away(wf.decay_weights(0.1, 8)[:1] * 3.25)[0])},
        "ewma": {"v_ewma": 3.25},
        "counter_increase": {"increase": 0.0},
        "cusum": {"cusum": 2.25, "alarm": True},
        "interval_union": {"covered_us": 3_250_000},
        "session_ids": {"session_id": 1},
    }
    for t in (empty, one):
        ds = rd.from_arrow(t)
        for name, op in _window_scan_ops().items():
            out = op(ds, 6 * 3600).to_pandas()
            if name == "time_weighted_avg":
                assert len(out) == 0, name  # no next step anywhere
                continue
            assert len(out) == t.num_rows, name
            for col, want in (expect[name].items() if t.num_rows else ()):
                got = out[col].iloc[0]
                if name == "ewma":  # (1-α)·v + α·v rounds
                    assert np.isclose(got, want, rtol=1e-15, atol=0), got
                else:
                    assert got == want or (np.isnan(got) and np.isnan(want)), \
                        (name, col, got)
        agg = wf.grouped_string_agg(ds, key="k", ts_col="ts", id_col="eid").to_pandas()
        gap = wf.grouped_max_gap(ds, key="k", ts_col="ts").to_pandas()
        assert len(agg) == len(gap) == t.num_rows
        if t.num_rows:
            assert agg["agg"][0] == "7" and agg["n"][0] == 1
            assert gap["max_gap_us"].isna().all()
        tr = wf.transition_counts(ds.map_batches(
            lambda b: b.append_column("c", b["k"]), batch_format="pyarrow"),
            key="k", ts_col="ts", cat_col="c", id_col="eid").to_pandas()
        assert len(tr) == 0  # one event has no transition
        docs = pa.table({"doc_id": pa.array(["d0"] * t.num_rows, pa.string()),
                         "tokens": pa.array([[1, 2, 3]] * t.num_rows,
                                            pa.list_(pa.int32()))})
        packed = pack_sequences_global(rd.from_arrow(docs), context_len=8).to_pandas()
        assert packed.to_dict("records") == (
            [{"example_id": 0, "n_tok": 3, "n_docs": 1}] if t.num_rows else [])


@pytest.mark.parametrize("name", sorted(_window_scan_ops()))
def test_window_scan_ops_independent_of_layout(log, name):
    """Each ``window_scan`` operator returns the same frame at 1 and 7 input
    blocks and at 6 h and 3 d windows.  EWMA is exact across block counts
    only: its closed form reassociates float products at each window edge,
    so other window widths agree to round-off."""
    op = _window_scan_ops()[name]

    def run(nblocks, window_s):
        df = op(rd.from_arrow(log).repartition(nblocks), window_s).to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    base = run(1, 6 * 3600)
    assert len(base)
    pd.testing.assert_frame_equal(run(7, 6 * 3600), base, check_exact=True)
    wide = run(7, 3 * 86400)
    if name == "ewma":
        pd.testing.assert_frame_equal(wide, base, rtol=1e-12)
    else:
        pd.testing.assert_frame_equal(wide, base, check_exact=True)


def test_ewma_matches_sequential(log):
    from tsdat_ray.stages.window_funcs import partitioned_ewma

    a = 0.15
    out = (
        partitioned_ewma(rd.from_arrow(log).repartition(7), key="k",
                         ts_col="ts", value_col="v", id_col="eid",
                         alpha=a, window_s=3600, chunk=64)
        .to_pandas().set_index("eid")
    )
    k = log["k"].to_numpy(zero_copy_only=False)
    ts = log["ts"].to_numpy().astype("int64")
    v = log["v"].to_numpy()
    eid = log["eid"].to_numpy()
    for kk in ("hot", "cold"):
        m = k == kk
        order = np.lexsort((eid[m], ts[m]))
        vs, es = v[m][order], eid[m][order]
        e = vs[0]
        got0 = out.loc[es[0], "v_ewma"]
        assert abs(got0 - e) <= 1e-9 * abs(e)
        for j in range(1, len(vs)):
            e = (1 - a) * e + a * vs[j]
            got = out.loc[es[j], "v_ewma"]
            assert abs(got - e) <= 1e-9 * max(abs(e), 1.0), (kk, j)


def test_decay_score_matches_sequential(log):
    """partitioned_decay_score == the brute-force per-row truncated sum of
    int64-quantized terms, bit-exact, across window boundaries and the
    cold key's empty-window gaps (narrow 1h windows force carries whose
    tails span multiple source windows)."""
    from tsdat_ray.stages.text_quant import half_away
    from tsdat_ray.stages.window_funcs import (decay_weights,
                                               partitioned_decay_score)

    K = 16
    sw = decay_weights(0.2, K)
    out = (
        partitioned_decay_score(rd.from_arrow(log).repartition(7), key="k",
                                ts_col="ts", value_col="v", id_col="eid",
                                alpha=0.2, k_terms=K, window_s=3600)
        .to_pandas().set_index("eid")
    )
    assert len(out) == log.num_rows
    k = log["k"].to_numpy(zero_copy_only=False)
    ts = log["ts"].to_numpy().astype("int64")
    v = log["v"].to_numpy()
    eid = log["eid"].to_numpy()
    for kk in ("hot", "cold"):
        m = k == kk
        order = np.lexsort((eid[m], ts[m]))
        vs, es = v[m][order], eid[m][order]
        for j in range(len(vs)):
            lo = max(0, j - K + 1)
            exp = int(half_away(sw[j - np.arange(lo, j + 1)]
                                * vs[lo:j + 1]).sum())
            assert int(out.loc[es[j], "v_decay_q"]) == exp, (kk, j)


def test_rolling_median_matches_sequential(log):
    """partitioned_rolling_median == brute per-row sorted-frame median
    (SQL truncated-frame semantics), across window boundaries and the
    cold key's empty-window gaps, for odd AND even frame sizes."""
    from tsdat_ray.stages.window_funcs import partitioned_rolling_median

    k = log["k"].to_numpy(zero_copy_only=False)
    ts = log["ts"].to_numpy().astype("int64")
    v = log["v"].to_numpy()
    eid = log["eid"].to_numpy()
    for K in (7, 8):
        out = (
            partitioned_rolling_median(rd.from_arrow(log).repartition(7),
                                       key="k", ts_col="ts", value_col="v",
                                       id_col="eid", frame_n=K,
                                       value_scale=100, window_s=3600)
            .to_pandas().set_index("eid")
        )
        assert len(out) == log.num_rows
        for kk in ("hot", "cold"):
            m = k == kk
            order = np.lexsort((eid[m], ts[m]))
            vq = np.round(v[m][order] * 100).astype(np.int64)
            es = eid[m][order]
            for j in range(len(vq)):
                fr = np.sort(vq[max(0, j - K + 1):j + 1])
                n = len(fr)
                exp = (float(fr[n // 2]) if n % 2
                       else (float(fr[n // 2 - 1]) + float(fr[n // 2])) / 2.0)
                got = out.loc[es[j], "v_rmed"]
                assert got == exp / 100, (kk, K, j, got, exp / 100)


def test_counter_increase_matches_sequential(log):
    from tsdat_ray.stages.window_funcs import counter_increase

    out = (
        counter_increase(rd.from_arrow(log).repartition(5), key="k",
                         ts_col="ts", value_col="v", id_col="eid",
                         window_s=6 * 3600)
        .to_pandas()
    )
    # sequential reference in int cents
    order = _seq_order(log)
    k = log["k"].to_numpy(zero_copy_only=False)[order]
    ts = log["ts"].cast(pa.int64()).to_numpy()[order]
    vq = np.round(log["v"].to_numpy() * 100).astype(np.int64)[order]
    exp: dict = {}
    prev_k, prev_v = None, None
    for i in range(len(k)):
        day = (ts[i] // (86400 * US)) * 86400 * US
        if k[i] != prev_k:
            inc = 0
        elif vq[i] >= prev_v:
            inc = int(vq[i] - prev_v)
        else:
            inc = int(vq[i])
        exp[(k[i], day)] = exp.get((k[i], day), 0) + inc
        prev_k, prev_v = k[i], vq[i]
    got = {(r["k"], int(r["bucket_ts"].value // 1000)): r["increase"]
           for _, r in out.iterrows()}  # Timestamp.value is ns -> us
    assert len(got) == len(exp)
    for (kk, dd), cents in exp.items():
        assert got[(kk, dd)] == float(cents) / 100.0


def test_counter_increase_single_row(ray_session):
    from tsdat_ray.stages.window_funcs import counter_increase

    t = pa.table({"k": pa.array(["a"]), "eid": pa.array([1], pa.int64()),
                  "ts": pa.array([123 * US], pa.int64()).cast(pa.timestamp("us")),
                  "v": pa.array([5.25])})
    out = counter_increase(rd.from_arrow(t), key="k", ts_col="ts",
                           value_col="v", id_col="eid").to_pandas()
    assert len(out) == 1 and out["increase"][0] == 0.0


def test_rolling_zscore_matches_sequential(log):
    from tsdat_ray.stages.window_funcs import partitioned_rolling_zscore

    n = 8
    out = (
        partitioned_rolling_zscore(rd.from_arrow(log).repartition(5), key="k",
                                   ts_col="ts", value_col="v", id_col="eid",
                                   frame_n=n, window_s=6 * 3600)
        .to_pandas().set_index("eid")
    )
    order = _seq_order(log)
    k = log["k"].to_numpy(zero_copy_only=False)[order]
    vq = np.round(log["v"].to_numpy() * 100).astype(np.int64)[order]
    es = log["eid"].to_numpy()[order]
    hist: dict = {}
    for j in range(len(k)):
        prev = hist.setdefault(k[j], [])
        frame = np.asarray(prev[-n:], dtype=np.int64)
        m = len(frame)
        got = out.loc[es[j], "v_zscore"]
        if m >= 2:
            s1, s2 = frame.sum(), (frame * frame).sum()
            var = (s2 - (s1 * s1) / m) / (m - 1)
            if var > 0:
                exp = (vq[j] - s1 / m) / np.sqrt(var)
                assert got == exp, (k[j], j)
            else:
                assert np.isnan(got), (k[j], j)
        else:
            assert np.isnan(got), (k[j], j)
        prev.append(vq[j])


def test_rolling_zscore_tiny_groups(ray_session):
    from tsdat_ray.stages.window_funcs import partitioned_rolling_zscore

    t = pa.table({"k": pa.array(["a", "a", "a", "b"]),
                  "eid": pa.array([1, 2, 3, 4], pa.int64()),
                  "ts": pa.array([i * US for i in (1, 2, 3, 1)],
                                 pa.int64()).cast(pa.timestamp("us")),
                  "v": pa.array([1.0, 2.0, 4.0, 9.0])})
    out = (partitioned_rolling_zscore(rd.from_arrow(t), key="k", ts_col="ts",
                                      value_col="v", id_col="eid")
           .to_pandas().set_index("eid"))
    assert np.isnan(out.loc[1, "v_zscore"])   # no preceding rows
    assert np.isnan(out.loc[2, "v_zscore"])   # one preceding row
    s1, s2 = 100 + 200, 100**2 + 200**2
    var = (s2 - s1 * s1 / 2) / 1
    assert out.loc[3, "v_zscore"] == (400 - s1 / 2) / np.sqrt(var)
    assert np.isnan(out.loc[4, "v_zscore"])   # lone row of its key


def test_interval_union_matches_sequential(log):
    from tsdat_ray.stages.window_funcs import interval_union

    out = (interval_union(rd.from_arrow(log).repartition(5), key="k",
                          ts_col="ts", dur_col="v", id_col="eid",
                          window_s=3600)  # small windows force many carries
           .to_pandas().set_index("k"))
    ts = log["ts"].cast(pa.int64()).to_numpy()
    dq = np.round(log["v"].to_numpy() * 100).astype(np.int64)
    end = ts + dq * 10_000
    k = log["k"].to_numpy(zero_copy_only=False)
    for kk in np.unique(k):
        mask = k == kk
        ivs = sorted(zip(ts[mask].tolist(), end[mask].tolist()))
        total, m = 0, None
        for s, e in ivs:
            lo = s if m is None else max(s, m)
            if e > lo:
                total += e - lo
            m = e if m is None else max(m, e)
        assert out.loc[kk, "covered_us"] == total, kk


def test_interval_union_spanning_windows(ray_session):
    from tsdat_ray.stages.window_funcs import interval_union

    # one giant interval covering everything + contained intervals in later
    # windows: the carry must suppress their contributions entirely
    t = pa.table({"k": pa.array(["a"] * 3),
                  "eid": pa.array([1, 2, 3], pa.int64()),
                  "ts": pa.array([0, 7200 * US, 14400 * US],
                                 pa.int64()).cast(pa.timestamp("us")),
                  "v": pa.array([20000.0, 10.0, 10.0])})  # 20000s covers all
    out = interval_union(rd.from_arrow(t), key="k", ts_col="ts",
                         dur_col="v", id_col="eid", window_s=3600).to_pandas()
    assert out["covered_us"].tolist() == [20000 * US]


def test_cume_dist_matches_sequential_with_ties(ray_session):
    from tsdat_ray.stages.window_funcs import grouped_cume_dist

    rng = np.random.default_rng(5)
    n = 2000
    k = np.where(rng.random(n) < 0.8, "x", "y")
    v = rng.integers(0, 50, n).astype(np.float64)  # heavy ties
    t = pa.table({"k": pa.array(k), "eid": pa.array(np.arange(n, dtype=np.int64)),
                  "v": pa.array(v)})
    out = (grouped_cume_dist(rd.from_arrow(t).repartition(6), key="k",
                             value_col="v", n_buckets=8)
           .to_pandas().set_index("eid"))
    for kk in ("x", "y"):
        mask = k == kk
        vs = np.sort(v[mask])
        nn = mask.sum()
        for eid in np.flatnonzero(mask)[:200]:
            exp = np.searchsorted(vs, v[eid], side="right") / nn
            assert out.loc[eid, "cume_dist"] == exp, (kk, eid)


def test_time_range_rolling_matches_sequential(log):
    from tsdat_ray.stages.window_funcs import time_range_rolling_sum

    rng_us = 1800 * US
    out = (
        time_range_rolling_sum(rd.from_arrow(log).repartition(5), key="k",
                               ts_col="ts", value_col="v", id_col="eid",
                               range_s=1800, window_s=3600)
        .to_pandas().set_index("eid")
    )
    assert len(out) == log.num_rows  # helpers never leak into output
    ts = log["ts"].cast(pa.int64()).to_numpy()
    vq = np.round(log["v"].to_numpy() * 100).astype(np.int64)
    k = log["k"].to_numpy(zero_copy_only=False)
    eid = log["eid"].to_numpy()
    for i in range(0, len(ts), 7):
        mask = (k == k[i]) & (ts >= ts[i] - rng_us) & (ts <= ts[i])
        assert out.loc[eid[i], "v_trsum"] == vq[mask].sum() / 100.0, i
        assert out.loc[eid[i], "v_trcnt"] == int(mask.sum()), i


def test_time_range_rolling_rejects_bad_range(ray_session):
    import pytest as _pytest

    from tsdat_ray.stages.window_funcs import time_range_rolling_sum

    with _pytest.raises(ValueError):
        time_range_rolling_sum(None, key="k", ts_col="ts", value_col="v",
                               id_col="eid", range_s=7200, window_s=3600)


def test_lookahead_count_matches_sequential(ray_session):
    from tsdat_ray.stages.window_funcs import lookahead_count

    rng = np.random.default_rng(23)
    nl, nr = 1500, 1500
    lk = rng.integers(0, 40, nl).astype(np.int64)
    lts = rng.integers(0, 20 * 3600, nl).astype(np.int64) * US
    rk = rng.integers(0, 40, nr).astype(np.int64)
    rts = rng.integers(0, 20 * 3600, nr).astype(np.int64) * US
    left = rd.from_arrow(pa.table({
        "k": pa.array(lk), "eid": pa.array(np.arange(nl, dtype=np.int64)),
        "ts": pa.array(lts).cast(pa.timestamp("us"))})).repartition(5)
    right = rd.from_arrow(pa.table({
        "k": pa.array(rk),
        "ts": pa.array(rts).cast(pa.timestamp("us"))})).repartition(4)
    rng_us = 1800 * US
    out = (lookahead_count(left, right, key="k", ts_col="ts", id_col="eid",
                           range_s=1800, window_s=3600)
           .to_pandas().set_index("eid"))
    assert len(out) == nl
    for i in range(0, nl, 11):
        exp = int(((rk == lk[i]) & (rts > lts[i]) & (rts <= lts[i] + rng_us)).sum())
        assert out.loc[i, "n_ahead"] == exp, i


def test_dense_rank_matches_sequential_with_ties(ray_session):
    from tsdat_ray.stages.window_funcs import grouped_dense_rank

    rng = np.random.default_rng(5)
    n = 2000
    key = np.where(rng.random(n) < 0.8, "a", "b")
    # heavy ties: values drawn from a small quantized domain
    val = np.round(rng.integers(0, 50, n) * 0.5, 2)
    ds = rd.from_arrow(pa.table({
        "id": pa.array(np.arange(n)), "k": pa.array(key), "v": pa.array(val)}))
    out = grouped_dense_rank(ds, key="k", value_col="v").take_all()
    got = {r["id"]: r["drnk"] for r in out}
    for kk in ("a", "b"):
        sel = key == kk
        uniq = np.unique(val[sel])[::-1]  # descending distinct values
        rank_of = {v: i + 1 for i, v in enumerate(uniq)}
        for i in np.flatnonzero(sel):
            assert got[i] == rank_of[val[i]]


def test_max_gap_two_phase_matches_sequential(ray_session):
    from tsdat_ray.stages.window_funcs import grouped_max_gap

    rng = np.random.default_rng(6)
    n = 1500
    ts = np.sort(rng.integers(0, 90 * 3600, n)).astype(np.int64) * US
    key = np.where(rng.random(n) < 0.9, "hot", "cold")
    ds = rd.from_arrow(pa.table({
        "ts": pa.array(ts).cast(pa.timestamp("us")), "k": pa.array(key)}))
    # small window forces many cross-window boundary gaps
    out = {r["k"]: r["max_gap_us"]
           for r in grouped_max_gap(ds, key="k", ts_col="ts", window_s=3600).take_all()}
    for kk in ("hot", "cold"):
        expect = int(np.diff(np.sort(ts[key == kk])).max())
        assert out[kk] == expect


def test_max_gap_single_event_key_is_null(ray_session):
    from tsdat_ray.stages.window_funcs import grouped_max_gap

    ds = rd.from_arrow(pa.table({
        "ts": pa.array(np.array([0, US, 5 * US, 7 * US], np.int64)).cast(pa.timestamp("us")),
        "k": pa.array(["a", "a", "a", "lone"]),
    }))
    out = {r["k"]: r["max_gap_us"]
           for r in grouped_max_gap(ds, key="k", ts_col="ts", window_s=2).take_all()}
    assert out["lone"] is None
    assert out["a"] == 4 * US


def test_transition_counts_tiny_windows_match_sequential(ray_session):
    from tsdat_ray.stages.window_funcs import transition_counts

    rng = np.random.default_rng(9)
    n = 1200
    ts = np.sort(rng.integers(0, 6 * 3600, n)).astype(np.int64) * US
    key = rng.choice(["u1", "u2", "u3"], n)
    cat = rng.choice(["a", "b", "c"], n)
    ids = np.arange(n)
    ds = rd.from_arrow(pa.table({
        "ts": pa.array(ts).cast(pa.timestamp("us")), "k": pa.array(key),
        "c": pa.array(cat), "id": pa.array(ids)}))
    # 10-minute windows force many cross-window boundary transitions
    out = transition_counts(ds.repartition(5), key="k", ts_col="ts",
                            cat_col="c", id_col="id", window_s=600).take_all()
    got = {(r["k"], r["prev_cat"], r["cur_cat"]): r["n_transitions"] for r in out}
    expect: dict = {}
    for kk in np.unique(key):
        sel = key == kk
        order = np.lexsort((ids[sel], ts[sel]))
        cs = cat[sel][order]
        for p, c in zip(cs[:-1], cs[1:]):
            expect[(kk, p, c)] = expect.get((kk, p, c), 0) + 1
    assert got == expect


def test_cusum_matches_sequential_scan(ray_session):
    from tsdat_ray.stages.window_funcs import partitioned_cusum

    rng = np.random.default_rng(17)
    n = 2500
    ts = np.sort(rng.integers(0, 48 * 3600, n)).astype(np.int64) * US
    key = rng.choice(["a", "b"], n)
    val = np.round(rng.normal(10, 3, n), 2)
    ids = np.arange(n)
    ds = rd.from_arrow(pa.table({
        "ts": pa.array(ts).cast(pa.timestamp("us")), "k": pa.array(key),
        "v": pa.array(val), "id": pa.array(ids)}))
    # 1h windows force many cross-window carries
    out = partitioned_cusum(ds.repartition(4), key="k", ts_col="ts",
                            value_col="v", id_col="id", drift=10.5,
                            threshold=20.0, window_s=3600)
    got = {r["id"]: (r["cusum"], r["alarm"]) for r in out.take_all()}
    for kk in ("a", "b"):
        sel = np.flatnonzero(key == kk)
        order = sel[np.lexsort((ids[sel], ts[sel]))]
        s = 0
        for i in order:
            y = int(round(val[i] * 100)) - 1050
            s = max(0, s + y)
            assert abs(got[ids[i]][0] - s / 100.0) < 1e-12, ids[i]
            assert got[ids[i]][1] == (s > 2000)


def test_suggest_window_scales_with_key_cardinality(ray_session):
    from tsdat_ray.stages.window_funcs import suggest_window_s

    rng = np.random.default_rng(23)
    n = 20000
    ts = np.sort(rng.integers(0, 30 * 86400, n)).astype(np.int64) * US
    base = pa.table({"ts": pa.array(ts).cast(pa.timestamp("us"))})
    # low-cardinality: 2 keys → dense per-key stream → small windows
    lo = rd.from_arrow(base.append_column("k", pa.array(rng.choice(["a", "b"], n))))
    # high-cardinality: ~5000 keys → sparse per-key stream → wide windows
    hi = rd.from_arrow(base.append_column(
        "k", pa.array([f"u{i}" for i in rng.integers(0, 5000, n)])))
    w_lo = suggest_window_s(lo, key="k", ts_col="ts")
    w_hi = suggest_window_s(hi, key="k", ts_col="ts")
    # ~2500x cardinality gap → much wider windows (hi hits the clamp)
    assert w_hi >= 8 * w_lo
    assert w_hi == 64 * 86400
    assert 3600 <= w_lo <= 7 * 86400


def test_decay_and_rolling_quantile_property_vs_sequential(ray_session):
    """Property (r5): partitioned_decay_score and
    partitioned_rolling_quantile equal their sequential references for
    random key counts, window widths (forcing 0..many carries per key),
    frame/lag sizes, q values and tie patterns."""
    from tsdat_ray.stages.text_quant import half_away
    from tsdat_ray.stages.window_funcs import (decay_weights,
                                               partitioned_decay_score,
                                               partitioned_rolling_quantile)

    rng = np.random.default_rng(41)
    for trial, (window_s, K, q, alpha) in enumerate(
            [(3600, 5, 0.9, 0.3), (50, 12, 0.25, 0.1),
             (86400, 3, 0.5, 0.5), (10, 31, 0.99, 0.05)]):
        n = 500
        keys = rng.integers(0, 5, n).astype(np.int64)
        ts = rng.integers(0, 30_000, n).astype(np.int64) * 1_000_000
        ts[::13] = ts[0]  # ties across and within keys
        v = rng.integers(-5000, 5000, n) / 100.0
        ids = rng.permutation(n).astype(np.int64)
        tab = pa.table({
            "k": pa.array(keys), "eid": pa.array(ids),
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "v": pa.array(v),
        })
        ds = rd.from_arrow(tab).repartition(4)

        rq = (partitioned_rolling_quantile(ds, key="k", ts_col="ts",
                                           value_col="v", id_col="eid",
                                           q=q, frame_n=K, value_scale=100,
                                           window_s=window_s)
              .to_pandas().set_index("eid")["v_rq"])
        dq = (partitioned_decay_score(ds, key="k", ts_col="ts",
                                      value_col="v", id_col="eid",
                                      alpha=alpha, k_terms=K,
                                      window_s=window_s)
              .to_pandas().set_index("eid")["v_decay_q"])
        sw = decay_weights(alpha, K)
        for kk in np.unique(keys):
            m = keys == kk
            order = np.lexsort((ids[m], ts[m]))
            vq = half_away(v[m][order] * 100)
            es = ids[m][order]
            for j in range(len(vq)):
                # rolling quantile with DuckDB's lerp form
                fr = np.sort(vq[max(0, j - K + 1):j + 1])
                mlen = len(fr)
                pos = (mlen - 1) * q
                i0 = int(np.floor(pos))
                frac = pos - i0
                if i0 + 1 >= mlen or frac == 0.0:
                    exp_q = float(fr[i0])
                else:
                    exp_q = (float(fr[i0]) * (1.0 - frac)
                             + float(fr[i0 + 1]) * frac)
                assert rq.loc[es[j]] == exp_q / 100, (trial, kk, j)
                # decay: per-term quantized associative sum
                lo = max(0, j - K + 1)
                exp_d = int(half_away(sw[j - np.arange(lo, j + 1)]
                                      * (vq[lo:j + 1] / 100.0)).sum())
                assert int(dq.loc[es[j]]) == exp_d, (trial, kk, j)
