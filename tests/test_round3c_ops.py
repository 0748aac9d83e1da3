"""Unit tests for the round-3 continuation operators: exact-substring span
removal, n-gram vocab growth, two-sample KS, regex redaction."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture
def narrow_folds(monkeypatch):
    """Fold width 4, so a small input still spreads over several keyed-fold
    calls and each call holds several keys."""
    from tsdat_ray.stages import reduce

    monkeypatch.setattr(reduce, "WIDTH", 4)


def _docs(rows):
    return pa.table({
        "doc_id": pa.array(np.arange(len(rows), dtype=np.int64)),
        "text": pa.array(rows, pa.string()),
    })


def test_remove_dup_spans_brute_force(ray_session, narrow_folds):
    import ray.data as rd

    from tsdat_ray.stages.dedup import remove_duplicate_spans

    k = 5
    texts = [
        "abcdefghij UNIQUE one",
        "abcdefghij UNIQUE two",          # shares a long prefix with doc 0
        "totally different text here",
        "xx abcdefghij yy",               # shares the prefix mid-string
        "short",                          # < k after scrub boundaries
        "",                               # empty doc
        "short",                          # duplicate short doc (len >= k)
    ]
    out = (remove_duplicate_spans(
        rd.from_arrow(_docs(texts)), k=k)
        .to_pandas().set_index("doc_id").sort_index())

    # brute-force reference: positions of k-shingles in >= 2 distinct docs
    def shingles(s):
        if len(s) == 0:
            return [(0, "")]
        kk = min(k, len(s))
        return [(i, s[i:i + kk]) for i in range(len(s) - kk + 1)]

    owner = {}
    for d, s in enumerate(texts):
        for _, sh in shingles(s):
            owner.setdefault(sh, set()).add(d)
    for d, s in enumerate(texts):
        covered = np.zeros(len(s), bool)
        for p, sh in shingles(s):
            if len(owner[sh]) >= 2:
                covered[p:p + k] = True
        expect = "".join(c for c, cv in zip(s, covered) if not cv)
        assert out.loc[d, "text_clean"] == expect, (d, s)
        assert out.loc[d, "n_cut"] == int(covered.sum())

    # every doc present exactly once
    assert len(out) == len(texts)


def test_remove_dup_spans_disjoint_corpus_is_identity(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.dedup import remove_duplicate_spans

    texts = [f"totally unique document number {i} with its own words {i*7}"
             for i in range(20)]
    out = (remove_duplicate_spans(rd.from_arrow(_docs(texts)), k=50)
           .to_pandas().set_index("doc_id").sort_index())
    # k=50 > any shared span => nothing cut
    assert (out["n_cut"] == 0).all()
    assert list(out["text_clean"]) == texts


def test_vocab_growth_matches_brute_force(ray_session, narrow_folds):
    import ray.data as rd

    from tsdat_ray.stages.text import vocab_growth

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(3, 12)))
             for _ in range(120)]
    t = _docs(texts)

    for ngram, bw in ((1, 10), (2, 25)):
        out = (vocab_growth(rd.from_arrow(t), bucket_width=bw, ngram=ngram)
               .to_pandas().sort_values("bucket").reset_index(drop=True))
        first = {}
        for d, s in enumerate(texts):
            ws = s.split(" ")
            for i in range(len(ws) - ngram + 1):
                g = " ".join(ws[i:i + ngram])
                first.setdefault(g, d)
        buckets = {}
        for g, d in first.items():
            buckets[d // bw] = buckets.get(d // bw, 0) + 1
        exp_b = sorted(buckets)
        assert list(out["bucket"]) == exp_b
        assert list(out["new_words"]) == [buckets[b] for b in exp_b]
        assert list(out["vocab_size"]) == list(np.cumsum(
            [buckets[b] for b in exp_b]))


def test_ks_2samp_brute_force(ray_session, narrow_folds):
    import ray.data as rd

    from tsdat_ray.stages.stats import ks_2samp

    rng = np.random.default_rng(7)
    va = rng.integers(0, 40, 300)            # side a
    vb = rng.integers(10, 60, 200)           # side b — shifted => KS > 0
    t = pa.table({
        "v": pa.array(np.r_[va, vb].astype(np.int64)),
        "side": pa.array(["a"] * len(va) + ["b"] * len(vb)),
    })
    out = ks_2samp(rd.from_arrow(t), "v", "side", "a", "b").to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert row["n_a"] == len(va) and row["n_b"] == len(vb)

    support = np.unique(np.r_[va, vb])
    ca = np.array([(va <= s).sum() for s in support], np.int64)
    cb = np.array([(vb <= s).sum() for s in support], np.int64)
    d = np.abs(ca * len(vb) - cb * len(va))
    assert row["ks_num"] == d.max()
    assert row["ks_at"] == support[int(np.argmax(d))]
    assert row["ks_stat"] == d.max() / np.float64(len(va) * len(vb))
    assert row["ks_stat"] > 0.1


def test_ks_2samp_identical_sides_zero(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.stats import ks_2samp

    v = np.arange(100, dtype=np.int64) % 13
    t = pa.table({"v": pa.array(np.r_[v, v]),
                  "side": pa.array(["a"] * 100 + ["b"] * 100)})
    out = ks_2samp(rd.from_arrow(t), "v", "side", "a", "b").to_pandas()
    assert out.iloc[0]["ks_num"] == 0
    assert out.iloc[0]["ks_stat"] == 0.0


def test_regex_redact(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.text import regex_redact

    t = pa.table({
        "event_id": pa.array(np.arange(4, dtype=np.int64)),
        "props": pa.array(['{"k": 69}', "no digits", "a1b22c333", ""]),
    })
    out = (regex_redact(rd.from_arrow(t), "props", "[0-9]+", "<NUM>",
                        keep_cols=("event_id",))
           .to_pandas().sort_values("event_id"))
    assert list(out["props_redacted"]) == [
        '{"k": <NUM>}', "no digits", "a<NUM>b<NUM>c<NUM>", ""]


def test_token_type_ratio_brute_force(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.sampling import token_type_ratio

    rng = np.random.default_rng(5)
    rows = [rng.integers(0, 9, rng.integers(1, 30)).astype(np.int32)
            for _ in range(200)]
    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(len(rows))]),
        "tokens": pa.array([r.tolist() for r in rows],
                           pa.list_(pa.int32())),
    })
    out = (token_type_ratio(rd.from_arrow(t))
           .to_pandas().set_index("doc_id"))
    for i, r in enumerate(rows):
        row = out.loc[f"d{i}"]
        assert row["n_tok_actual"] == len(r)
        assert row["n_types"] == len(np.unique(r))
        assert row["ttr"] == np.float64(len(np.unique(r))) / np.float64(len(r))


def test_snapshot_diff_brute_force(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.dedup import snapshot_diff

    old = pa.table({
        "doc_id": pa.array(np.arange(10, dtype=np.int64)),
        "text": pa.array([f"t{i}" for i in range(10)]),
    })
    new = pa.table({
        # 0..4 unchanged, 5..7 changed, 8..9 removed, 20..21 added
        "doc_id": pa.array(np.r_[np.arange(8), [20, 21]].astype(np.int64)),
        "text": pa.array([f"t{i}" for i in range(5)]
                         + [f"t{i} v2" for i in range(5, 8)]
                         + ["fresh a", "fresh b"]),
    })
    out = (snapshot_diff(rd.from_arrow(old), rd.from_arrow(new),
                         num_buckets=4)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    got = dict(zip(out["doc_id"], out["status"]))
    assert got == {5: "changed", 6: "changed", 7: "changed",
                   8: "removed", 9: "removed",
                   20: "added", 21: "added"}
