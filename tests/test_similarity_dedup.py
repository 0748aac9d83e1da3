"""Similarity-search + near-dup operators: ANN recall vs brute force, LSH /
IVF candidate pruning, minhash near-dup detection on a planted corpus."""

import numpy as np
import pyarrow as pa
import pytest

from tsdat_ray.stages.dedup import (
    MinHasher,
    hamming_distance64,
    minhash_neardup_pairs,
    ngram_jaccard,
)
from tsdat_ray.stages.similarity import (
    build_ivf_centroids,
    embedding_neardup_exact,
    knn_brute_force,
    knn_ivf,
    knn_lsh,
)

DIM = 32
N = 400


@pytest.fixture(scope="module")
def emb_table() -> pa.Table:
    rng = np.random.Generator(np.random.Philox(key=np.array([99, 0], dtype=np.uint64)))
    base = rng.standard_normal((N, DIM))
    # plant 5 clusters of near-duplicates of row 0..4
    for i in range(5):
        for j in range(3):
            base[50 + i * 10 + j] = base[i] + 0.01 * rng.standard_normal(DIM)
    return pa.table(
        {
            "vec_id": pa.array(np.arange(N)),
            "embedding": pa.array([r.astype(np.float32).tolist() for r in base],
                                  pa.list_(pa.float32())),
        }
    )


def _brute_top(emb_table, qid, k):
    m = np.stack([np.asarray(x) for x in emb_table["embedding"].to_pylist()]).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m[qid]
    order = [i for i in np.argsort(-sims, kind="stable") if i != qid]
    return order[:k]


def test_knn_brute_force_matches_numpy(ray_session, emb_table):
    import ray.data as rd

    q = np.asarray(emb_table["embedding"][0].as_py())
    ds = rd.from_arrow(emb_table)
    got = knn_brute_force(ds, q, k=10, exclude_ids=(0,)).to_pandas()["vec_id"].tolist()
    assert got == _brute_top(emb_table, 0, 10)


def test_knn_lsh_recall(ray_session, emb_table):
    import ray.data as rd

    q = np.asarray(emb_table["embedding"][0].as_py())
    ds = rd.from_arrow(emb_table)
    got = set(knn_lsh(ds, q, k=10, probe_hamming=2, exclude_ids=(0,)).to_pandas()["vec_id"])
    exact = set(_brute_top(emb_table, 0, 10))
    # planted near-dups of row 0 land in the same LSH buckets → recall ≥ 0.5
    assert len(got & exact) >= 5


def test_knn_ivf_recall(ray_session, emb_table):
    import ray.data as rd

    m = np.stack([np.asarray(x) for x in emb_table["embedding"].to_pylist()])
    cent = build_ivf_centroids(m, n_lists=8)
    assert cent.shape == (8, DIM)
    q = np.asarray(emb_table["embedding"][0].as_py())
    ds = rd.from_arrow(emb_table)
    got = set(knn_ivf(ds, q, cent, k=10, n_probe=3, exclude_ids=(0,)).to_pandas()["vec_id"])
    exact = set(_brute_top(emb_table, 0, 10))
    assert len(got & exact) >= 5


def test_embedding_neardup_exact_finds_planted(ray_session, emb_table):
    import ray.data as rd

    ds = rd.from_arrow(emb_table)
    pairs = embedding_neardup_exact(ds, emb_table, threshold=0.99).to_pandas()
    # every planted near-dup (sim ≈ 1) appears; id_a < id_b holds
    assert (pairs["id_a"] < pairs["id_b"]).all()
    found = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    for i in range(5):
        for j in range(3):
            assert (i, 50 + i * 10 + j) in found


def test_minhash_and_jaccard_planted_dups(ray_session):
    import ray.data as rd

    base = [
        "the quick brown fox jumps over the lazy dog again and again in the field",
        "completely different content about ray data pipelines and arrow tables",
        "numerical weather prediction requires massive data assimilation systems",
    ]
    texts, ids = [], []
    for i, t in enumerate(base):
        ids.append(i)
        texts.append(t)
        ids.append(100 + i)
        texts.append(t.replace("the", "a", 1))  # near-duplicate
    for i in range(50):  # noise docs
        ids.append(1000 + i)
        texts.append(f"unique filler document number {i} with its own random words {i*7}")
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    ds = rd.from_arrow(tbl)
    pairs = minhash_neardup_pairs(ds, threshold=0.5).to_pandas()
    found = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    for i in range(3):
        assert (i, 100 + i) in found, f"planted near-dup pair {i} missed"
    assert (pairs["jaccard"] >= 0.5).all()


def test_hamming_and_jaccard_kernels():
    a = np.array([0b1011, 0], dtype=np.uint64)
    b = np.array([0b0010, np.iinfo(np.uint64).max], dtype=np.uint64)
    assert hamming_distance64(a, b).tolist() == [2, 64]
    assert ngram_jaccard("abcdefgh", "abcdefgh", k=3) == 1.0
    assert ngram_jaccard("abcdefgh", "zzzzzzzz", k=3) == 0.0


def test_minhash_signature_similarity_tracks_jaccard():
    h = MinHasher(num_perm=128, shingle_k=4)
    a = "the quick brown fox jumps over the lazy dog " * 3
    b = a.replace("quick", "swift")
    c = "entirely unrelated text with no overlap whatsoever here at all friends"
    sa, sb, sc = h.signature(a), h.signature(b), h.signature(c)
    sim_ab = (sa == sb).mean()
    sim_ac = (sa == sc).mean()
    true_ab = ngram_jaccard(a, b, k=4)
    assert abs(sim_ab - true_ab) < 0.15
    assert sim_ac < 0.1 < sim_ab


def test_simhash_neardup_pairs_planted(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.dedup import simhash_neardup_pairs

    base = (
        "the quick brown fox jumps over the lazy dog and keeps running through "
        "the wide green field toward the river bank where boats are moored"
    )
    ids, texts = [], []
    for i in range(3):
        ids.append(i)
        texts.append(base + f" variant {i}")
        ids.append(100 + i)
        texts.append(base.replace("quick", "swift") + f" variant {i}")  # near-dup of i
    for i in range(60):
        ids.append(1000 + i)
        texts.append(
            f"document {i} talks about completely unrelated topic number {i*13} "
            f"with its own vocabulary like {'zymurgy' if i%2 else 'quixotic'} {i*7}"
        )
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    out = simhash_neardup_pairs(rd.from_arrow(tbl), max_hamming=6).to_pandas()
    found = set(map(tuple, out[["id_a", "id_b"]].to_numpy()))
    for i in range(3):
        assert (i, 100 + i) in found, f"planted simhash near-dup {i} missed: {found}"
    assert (out["hamming"] <= 6).all()


def test_ann_at_scale_recall_and_speed(ray_session, tmp_path):
    """ANN scale path on a 20k-vector clustered corpus: IVF and LSH find
    most of the exact top-10 while scanning a fraction of the data."""
    import time

    import pyarrow.parquet as pq
    import ray.data as rd

    from tsdat_ray.stages.similarity import (
        _emb_matrix,
        build_ivf_centroids,
        knn_brute_force,
        knn_ivf,
        knn_lsh,
    )
    from tsdat_ray.synth import generate_embeddings_parquet

    d = generate_embeddings_parquet(str(tmp_path / "emb"), n_rows=20_000, dim=64,
                                    n_clusters=64, chunk_rows=5_000)
    ref = pq.read_table(f"{d}/emb-0.parquet", columns=["vec_id", "embedding"])
    q = np.asarray(ref["embedding"][7].as_py())

    ds = rd.read_parquet(d, columns=["vec_id", "embedding"], override_num_blocks=8)
    exact = set(knn_brute_force(ds, q, k=10, exclude_ids=(7,)).to_pandas()["vec_id"])

    sample = _emb_matrix(ref["embedding"])  # train IVF on the first chunk
    cents = build_ivf_centroids(sample, n_lists=32)
    ivf = set(knn_ivf(rd.read_parquet(d, columns=["vec_id", "embedding"], override_num_blocks=8),
                      q, cents, k=10, n_probe=4, exclude_ids=(7,)).to_pandas()["vec_id"])
    lsh = set(knn_lsh(rd.read_parquet(d, columns=["vec_id", "embedding"], override_num_blocks=8),
                      q, k=10, n_planes=8, probe_hamming=2, exclude_ids=(7,)).to_pandas()["vec_id"])
    assert len(ivf & exact) >= 7, f"IVF recall too low: {len(ivf & exact)}/10"
    assert len(lsh & exact) >= 4, f"LSH recall too low: {len(lsh & exact)}/10"


def test_exact_dedup_hash_only_mode(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.dedup import exact_dedup

    texts = [f"doc body {i % 40}" for i in range(400)]  # 40 distinct, 10x dup
    tbl = pa.table({"doc_id": pa.array(np.arange(400, dtype=np.int64)),
                    "text": pa.array(texts)})
    full = exact_dedup(rd.from_arrow(tbl).repartition(4)).to_pandas()
    ho = exact_dedup(rd.from_arrow(tbl).repartition(4), payload="hash").to_pandas()
    assert "text" not in ho.columns  # payload stripped before the shuffle
    a = full[["doc_id", "n_copies"]].sort_values("doc_id").reset_index(drop=True)
    b = ho[["doc_id", "n_copies"]].sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def _brute_jaccard_pairs(ids, texts, k, t):
    sets = {i: {s[j: j + k] for j in range(max(1, len(s) - k + 1))}
            for i, s in zip(ids, texts)}
    out = []
    for a in ids:
        for b in ids:
            if a >= b:
                continue
            u = len(sets[a] | sets[b])
            j = len(sets[a] & sets[b]) / u if u else 1.0
            if j >= t:
                out.append((a, b, j))
    return sorted(out)


@pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9])
def test_ngram_similarity_join_exact_vs_brute_force(ray_session, threshold):
    """The prefix-filtered join is EXACT — identical pair set and jaccard
    values to all-pairs brute force, at any threshold, including boundary
    thresholds, duplicate texts, short strings, and unicode."""
    import ray.data as rd

    from tsdat_ray.stages.dedup import ngram_similarity_join

    rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "théta"]
    ids, texts = [], []
    for i in range(60):
        ids.append(i)
        texts.append(" ".join(rng.choice(words, 12)))
    # planted near-dups, exact dups, and degenerate docs
    for i in range(10):
        ids.append(100 + i)
        texts.append(texts[i] + (" tail" if i % 2 else ""))
    ids += [200, 201, 202, 203]
    texts += ["ab", "ab", "", "é"]
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    got = (
        ngram_similarity_join(rd.from_arrow(tbl), threshold=threshold, shingle_k=5)
        .to_pandas().sort_values(["id_a", "id_b"]).to_numpy().tolist()
    )
    want = [[a, b, j] for a, b, j in _brute_jaccard_pairs(ids, texts, 5, threshold)]
    assert [(int(a), int(b)) for a, b, _ in got] == [(a, b) for a, b, _ in want]
    np.testing.assert_array_equal([j for *_, j in got], [j for *_, j in want])


def test_duplicated_span_coverage(ray_session):
    import ray.data as rd
    from tsdat_ray.stages.dedup import duplicated_span_coverage

    shared = "the quick brown fox jumps over the lazy dog again and again"
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "unique prefix one " + shared,          # shares `shared` with doc 1
            shared + " unique suffix two",
            "completely different text with no overlap whatsoever here",
            "tiny",                                  # shorter than k -> 1 gram
        ]),
    })
    out = (duplicated_span_coverage(rd.from_arrow(docs).repartition(3),
                                    id_col="doc_id", text_col="text", k=20)
           .to_pandas().set_index("doc_id").sort_index())
    k = 20
    texts = docs["text"].to_pylist()
    # sequential reference: positions whose 20-gram occurs in another doc
    grams = [{t[i:i + k] if len(t) >= k else t for i in range(max(len(t) - k + 1, 1))}
             for t in texts]
    for d, t in enumerate(texts):
        n = max(len(t) - k + 1, 1)
        assert out.loc[d, "n_grams"] == n
        others = set().union(*(g for j, g in enumerate(grams) if j != d))
        exp_dup = sum((t[i:i + k] if len(t) >= k else t) in others
                      for i in range(n))
        assert out.loc[d, "n_dup_grams"] == exp_dup
    assert out.loc[0, "n_dup_grams"] > 0
    assert out.loc[2, "n_dup_grams"] == 0


def test_duplicated_span_winnowing(ray_session):
    import ray.data as rd
    from tsdat_ray.stages.dedup import duplicated_span_coverage

    shared = "x" * 0 + "the quick brown fox jumps over the lazy dog again and again and more"
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "unique prefix one " + shared,
            shared + " unique suffix two",
            "completely different text with no overlap whatsoever here ok",
        ]),
    })
    out = (duplicated_span_coverage(rd.from_arrow(docs).repartition(2),
                                    id_col="doc_id", text_col="text", k=20,
                                    winnow_w=4)
           .to_pandas().set_index("doc_id").sort_index())
    # long shared span (> w + k - 1) must still be detected via shared
    # minimizers; the unrelated doc stays clean; totals shrink ~1/w
    assert out.loc[0, "n_dup_grams"] > 0
    assert out.loc[1, "n_dup_grams"] > 0
    assert out.loc[2, "n_dup_grams"] == 0
    n_all = len(docs["text"][0].as_py()) - 20 + 1
    assert out.loc[0, "n_grams"] < n_all / 2


def test_repetition_batch_degenerate_and_counts():
    import pyarrow as pa

    from tsdat_ray.stages.text import repetition_batch

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "a b a b a b",          # trigrams: aba bab aba bab → 2 distinct of 4
            "x y",                   # < 3 words: no row
            "",                      # single empty word: no row
            "p q r",                 # exactly one trigram
        ]),
    })
    out = repetition_batch(docs).to_pandas().set_index("doc_id").sort_index()
    assert list(out.index) == [0, 3]
    assert out.loc[0, "n_grams"] == 4 and out.loc[0, "n_distinct"] == 2
    assert out.loc[0, "dup_frac"] == 0.5
    assert out.loc[3, "n_grams"] == 1 and out.loc[3, "dup_frac"] == 0.0


def test_ngram_contamination_cross_set(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from tsdat_ray.stages.dedup import ngram_contamination

    bench_text = "one two three four five six seven eight nine ten"
    corpus = pa.table({
        "doc_id": pa.array([10, 11, 12], pa.int64()),
        "text": pa.array([
            bench_text + " extra tail words here",  # shares bench 8-grams
            "alpha beta gamma delta epsilon zeta eta theta iota kappa",
            "short doc",                              # < 8 words: no row
        ]),
    })
    bench = pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array([bench_text]),
    })
    out = (ngram_contamination(rd.from_arrow(corpus).repartition(2),
                               rd.from_arrow(bench), n=8)
           .to_pandas().set_index("doc_id").sort_index())
    assert list(out.index) == [10, 11]
    # doc 10 has 7 grams, of which the 3 lying inside bench_text match
    assert out.loc[10, "n_grams"] == 7 and out.loc[10, "n_contam"] == 3
    assert out.loc[11, "n_contam"] == 0 and out.loc[11, "n_grams"] == 3


def test_kmeans_deterministic_and_monotone(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from tsdat_ray.stages.similarity import kmeans_assign, kmeans_fit

    rng = np.random.default_rng(42)
    # 3 well-separated blobs
    blobs = np.concatenate([rng.normal(c, 0.1, size=(200, 8))
                            for c in (0.0, 5.0, 10.0)])
    ids = np.arange(len(blobs), dtype=np.int64)
    t = pa.table({"vec_id": pa.array(ids),
                  "embedding": pa.array(list(blobs.astype(np.float32)),
                                        type=pa.list_(pa.float32()))})
    c1, h1 = kmeans_fit(rd.from_arrow(t).repartition(4), k=3, n_iter=6, seed=1)
    c2, h2 = kmeans_fit(rd.from_arrow(t).repartition(9), k=3, n_iter=6, seed=1)
    assert (c1 == c2).all(), "centroids must not depend on block layout"
    assert all(h1[i + 1] <= h1[i] + 1e-9 for i in range(len(h1) - 1))

    asg = kmeans_assign(rd.from_arrow(t), c1).to_pandas().set_index("vec_id")
    m = blobs.astype(np.float32).astype(np.float64)
    d2 = ((m[:, None, :] - c1[None, :, :]) ** 2).sum(-1)
    exp = d2.argmin(1)
    got = asg.loc[ids, "cluster"].to_numpy()
    assert (got == exp).all()
    # blob structure recovered: 3 clusters of 200
    assert sorted(np.bincount(got, minlength=3).tolist()) == [200, 200, 200]


def test_bigram_lm_matches_sequential_reference(ray_session):
    import math

    import ray
    import ray.data as rd

    from tsdat_ray.stages.text import fit_bigram_lm, score_bigram_lm

    docs = ["the cat sat", "the cat ran", "a dog sat", "cat", ""]
    tbl = pa.table({"doc_id": pa.array(list(range(len(docs)))),
                    "text": pa.array(docs)})
    ds = rd.from_arrow(tbl).repartition(2)
    model = ray.put(fit_bigram_lm(ds))
    got = {r["doc_id"]: (r["avg_logp"], r["n_bigrams"])
           for r in score_bigram_lm(ds, model).take_all()}

    # sequential reference with real string keys (hash collisions ~0)
    uni, bi = {}, {}
    for d in docs:
        ws = d.split(" ")
        for w in ws:
            uni[w] = uni.get(w, 0) + 1
        for p, w in zip(ws[:-1], ws[1:]):
            bi[(p, w)] = bi.get((p, w), 0) + 1
    V, k = len(uni), 0.5
    for i, d in enumerate(docs):
        ws = d.split(" ")
        pairs = list(zip(ws[:-1], ws[1:]))
        if not pairs:
            # r4: <2-word docs are typed NULL (was NaN) — the SQL contract
            assert got[i][0] is None and got[i][1] == 0
            continue
        ref = sum(math.log((bi.get(pr, 0) + k) / (uni[pr[0]] + k * V))
                  for pr in pairs) / len(pairs)
        assert abs(got[i][0] - ref) < 1e-12, (i, got[i][0], ref)
        assert got[i][1] == len(pairs)


def test_minhash_flat_equals_per_doc():
    """Round-3 golden (judge #3): the flattened offsets-based shingling
    yields BIT-IDENTICAL signatures to the per-doc scalar path, including
    empty, sub-k, unicode, and null docs."""
    import pyarrow as pa

    h = MinHasher(num_perm=64, shingle_k=5)
    texts = ["hello world this is a document", "", "abc", "hellp world",
             "καλημέρα κόσμε unicode text", None, "xy", "hello world this",
             "a" * 5, "a" * 4]
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
    flat = h(batch)["sig"].to_pylist()
    scalar = [h.signature(s or "").tolist() for s in texts]
    assert flat == scalar


def test_char_shingles_flat_equals_per_doc():
    from tsdat_ray.stages.dedup import (_char_shingle_hashes,
                                        _flat_char_shingles)
    import numpy as np

    texts = ["hello world", "", "ab", "κόσμε κόσμε", "abcabcabc", None,
             "exact k!", "x"]
    doc_ids, hashes = _flat_char_shingles(texts, 5)
    for d in range(len(texts)):
        mine = hashes[doc_ids == d]
        ref = _char_shingle_hashes(texts[d] or "", 5)
        assert np.array_equal(np.sort(mine), ref), d


def test_actor_pool_guard_caps_at_low_cpu(ray_session):
    """Regression for the pool-sizing footgun: an actor pool sized >= the
    session's 4 CPUs can deadlock a concurrent shuffle (conftest.py).  The
    guard must cap any request to CPUs - headroom, and a stage asked for an
    oversized pool must still run to completion through it."""
    import ray
    import ray.data as rd

    from tsdat_ray.stages import safe_pool_size
    from tsdat_ray.stages.dedup import simhash_neardup_pairs

    cpus = int(ray.cluster_resources()["CPU"])
    assert safe_pool_size(8) <= max(1, cpus - 2)
    assert safe_pool_size(1) == 1
    assert safe_pool_size(64, headroom=2) == max(1, cpus - 2)

    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(40)), pa.int64()),
            "text": pa.array(
                [f"short document number {i} about topic {i % 5}" for i in range(40)]
            ),
        }
    )
    # concurrency=8 on a 4-CPU session wedged the groupby before the guard
    out = simhash_neardup_pairs(
        rd.from_arrow(tbl), max_hamming=3, concurrency=8
    ).to_pandas()
    assert {"id_a", "id_b", "hamming"} <= set(out.columns)


# --------------------------------------------------------------------------- #
# BPE vocabulary training (round 3)
# --------------------------------------------------------------------------- #

def _reference_bpe(word_freq: dict, n_merges: int):
    """Dead-simple dict-based BPE on a word-frequency table (the classic
    Sennrich et al. algorithm; left-to-right non-overlapping merge)."""
    vocab = {tuple(list(w) + ["</w>"]): f for w, f in word_freq.items()}
    merges = []
    for rank in range(n_merges):
        pairs: dict = {}
        for syms, f in vocab.items():
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + f
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append((rank, best[0], best[1], pairs[best]))
        new_vocab = {}
        for syms, f in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and (syms[i], syms[i + 1]) == best:
                    out.append(syms[i] + syms[i + 1])
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + f
        vocab = new_vocab
    return merges


def test_bpe_train_matches_reference(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.text import bpe_train

    docs = [
        "low lower lowest low low",
        "newer newest new new newer",
        "wider wide widest wider",
        "low new wide lower",
    ] * 3
    tbl = pa.table({"text": pa.array(docs)})
    got = (bpe_train(rd.from_arrow(tbl).repartition(3), n_merges=12)
           .to_pandas().sort_values("rank").reset_index(drop=True))

    freq: dict = {}
    for d in docs:
        for w in d.split():
            freq[w] = freq.get(w, 0) + 1
    exp = _reference_bpe(freq, 12)
    assert len(got) == len(exp)
    for i, (rank, a, b, cnt) in enumerate(exp):
        assert got.loc[i, "rank"] == rank
        assert got.loc[i, "left"] == a, (i, got.loc[i].to_dict(), (a, b))
        assert got.loc[i, "right"] == b
        assert got.loc[i, "pair_count"] == cnt


def test_bpe_tiebreak_name_order_not_id_order(ray_session):
    """Advisor r4: force a weighted pair-count tie between a pair led by a
    MERGED symbol (name "aa", allocation id 257) and one led by a plain
    byte (name "b", id 98).  Rendered-NAME order picks ("aa", "b");
    allocation-ID order would pick ("b", "</w>") — so this corpus detects
    any drift between the engine's tie-break and the SQL oracle's
    ``ORDER BY c DESC, a, b`` over names."""
    import duckdb
    import ray.data as rd

    import __ray_entry__ as entrymod
    from tsdat_ray.stages.text import bpe_train

    docs = ["aab aab aab"]
    tbl = pa.table({"text": pa.array(docs)})
    got = (bpe_train(rd.from_arrow(tbl), n_merges=6)
           .to_pandas().sort_values("rank").reset_index(drop=True))

    # merge 0 resolves the 3-way tie (a,a)/(a,b)/(b,</w>) to (a,a);
    # merge 1 is THE disagreement case: ("aa","b") ties ("b","</w>") at 3
    assert (got.loc[0, "left"], got.loc[0, "right"]) == ("a", "a")
    assert (got.loc[1, "left"], got.loc[1, "right"]) == ("aa", "b")

    # reference dict-BPE with the name-ordered tie-break agrees in full
    exp = _reference_bpe({"aab": 3}, 6)
    assert len(got) == len(exp)
    for i, (rank, a, b, cnt) in enumerate(exp):
        assert (got.loc[i, "left"], got.loc[i, "right"],
                int(got.loc[i, "pair_count"])) == (a, b, cnt)

    # and the ACTUAL driver oracle SQL re-trains the identical table
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM (VALUES "
                "('d1', 'aab aab aab')) t(doc_id, text)")
    odf = con.execute(entrymod.oracle_sql()["bpe_merges_docs"]).df()
    odf = odf.sort_values("rank").reset_index(drop=True)
    assert len(odf) == len(got)
    for i in range(len(got)):
        assert (odf.loc[i, "left"], odf.loc[i, "right"],
                int(odf.loc[i, "pair_count"])) == (
            got.loc[i, "left"], got.loc[i, "right"],
            int(got.loc[i, "pair_count"]))


# --------------------------------------------------------------------------- #
# exact covariance + PCA (round 3)
# --------------------------------------------------------------------------- #

def test_embedding_covariance_exact(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.similarity import embedding_covariance

    rng = np.random.default_rng(21)
    n, d = 200, 8
    m = rng.normal(0, 1, (n, d)).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n)),
        "embedding": pa.array(list(m), pa.list_(pa.float32())),
    })
    out = pa.concat_tables(
        embedding_covariance(rd.from_arrow(tbl).repartition(5), dim=d)
        .iter_batches(batch_format="pyarrow", batch_size=None)).to_pandas()
    y = m.astype(np.float64) * 1e6
    e = np.copysign(np.floor(np.abs(y) + 0.5), y).astype(np.int64)
    out = out.sort_values(["i", "j"]).reset_index(drop=True)
    k = 0
    for i in range(d):
        for j in range(i, d):
            assert out.loc[k, "s2_ij"] == int((e[:, i] * e[:, j]).sum())
            assert out.loc[k, "s1_i"] == int(e[:, i].sum())
            assert out.loc[k, "n"] == n
            k += 1


def test_pca_embeddings_recovers_principal_axis(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.similarity import pca_embeddings

    rng = np.random.default_rng(31)
    n, d = 400, 6
    axis = np.zeros(d)
    axis[2] = 1.0  # dominant variance along dim 2
    m = (rng.normal(0, 5, (n, 1)) * axis[None, :]
         + rng.normal(0, 0.1, (n, d))).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n)),
        "embedding": pa.array(list(m), pa.list_(pa.float32())),
    })
    out = (pca_embeddings(rd.from_arrow(tbl).repartition(4), dim=d, k=2)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    p = np.stack(out["pca"].to_numpy())
    # PC1 must align with the planted axis: |corr| ~ 1
    x = m[:, 2].astype(np.float64)
    c = np.corrcoef(x, p[:, 0].astype(np.float64))[0, 1]
    assert abs(c) > 0.999, c
    # deterministic across block layouts
    out2 = (pca_embeddings(rd.from_arrow(tbl).repartition(9), dim=d, k=2)
            .to_pandas().sort_values("vec_id").reset_index(drop=True))
    np.testing.assert_array_equal(np.stack(out2["pca"].to_numpy()), p)


def test_logreg_train_recovers_separator(ray_session):
    import ray.data as rd

    from tsdat_ray.stages.similarity import logreg_train

    rng = np.random.default_rng(17)
    n, d = 600, 6
    x = rng.normal(0, 1, (n, d))
    true_w = np.array([2.0, -1.5, 0.0, 0.5, 0.0, 1.0])
    logits = x @ true_w + 0.3
    y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(np.int64)
    tbl = pa.table({
        "embedding": pa.array(list(x.astype(np.float32)), pa.list_(pa.float32())),
        "label": pa.array(y + 4),  # (y + 4) % 2 == y
    })
    w, hist = logreg_train(rd.from_arrow(tbl).repartition(5), dim=d, n_iters=8)
    # loss decreases monotonically under Newton on this well-conditioned data
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:])), hist
    # recovered direction matches the truth
    c = np.corrcoef(true_w, w[:d])[0, 1]
    assert c > 0.97, (c, w)
    # training accuracy beats the base rate comfortably
    p = 1 / (1 + np.exp(-(x @ w[:d] + w[d])))
    acc = ((p > 0.5) == (y == 1)).mean()
    assert acc > 0.8, acc


def test_dedup_against_store_drops_known_content(ray_session):
    """New rows whose text already exists in the historical store are
    dropped; novel rows and intra-new duplicates survive (incremental
    ingest only guards against the STORE)."""
    import pyarrow as pa
    import ray.data as rd

    from tsdat_ray.stages.dedup import dedup_against_store

    old = pa.table({
        "doc_id": pa.array([f"o{i}" for i in range(200)]),
        "text": pa.array([f"stored document {i % 50}" for i in range(200)]),
    })
    new = pa.table({
        "doc_id": pa.array([f"n{i}" for i in range(100)]),
        # 0..24 collide with the store; 25+ are novel; 60/61 duplicate
        # each other but not the store
        "text": pa.array([f"stored document {i}" if i < 25
                          else ("same new text" if i in (60, 61)
                                else f"fresh document {i}")
                          for i in range(100)]),
    })
    out = dedup_against_store(rd.from_arrow(new).repartition(5),
                              rd.from_arrow(old).repartition(3)).to_pandas()
    kept = set(out["doc_id"])
    assert kept == {f"n{i}" for i in range(25, 100)}
    assert {"n60", "n61"} <= kept  # intra-new dups are NOT the store's job


def test_bloom_filter_contract():
    """No false negatives ever; FPR within ~3x of the analytic bound; OR
    merge equals the union filter bit-for-bit."""
    import numpy as np
    import pandas as pd

    from tsdat_ray.stages.sketch import BloomFilter

    m, k = 1 << 16, 7
    a = pd.util.hash_array(np.arange(2000))
    b = pd.util.hash_array(np.arange(50_000, 52_000))
    probe = pd.util.hash_array(np.arange(100_000, 150_000))

    bf = BloomFilter(m, k).add(a)
    assert bf.test(a).all()  # never a false negative
    n, mb = 2000, float(m)
    bound = (1 - np.exp(-k * n / mb)) ** k
    assert bf.test(probe).mean() <= 3 * bound + 1e-4

    merged = BloomFilter(m, k)
    merged.merge_bytes([BloomFilter(m, k).add(a).to_bytes(),
                        BloomFilter(m, k).add(b).to_bytes()])
    both = BloomFilter(m, k).add(np.concatenate([a, b]))
    assert merged.to_bytes() == both.to_bytes()
    rt = BloomFilter.from_bytes(merged.to_bytes(), m, k)
    assert rt.test(a).all() and rt.test(b).all()


def test_dedup_against_store_bloom_matches_exact(ray_session):
    """The Bloom-prefiltered path is output-identical to the exact path
    (no false negatives + exact confirm), including under a deliberately
    tiny filter where false positives are common."""
    import pyarrow as pa
    import ray.data as rd

    from tsdat_ray.stages.dedup import dedup_against_store, dedup_against_store_bloom

    old = pa.table({
        "doc_id": pa.array([f"o{i}" for i in range(300)]),
        "text": pa.array([f"stored document {i % 80}" for i in range(300)]),
    })
    new = pa.table({
        "doc_id": pa.array([f"n{i}" for i in range(150)]),
        "text": pa.array([f"stored document {i}" if i < 40
                          else f"fresh document {i}" for i in range(150)]),
    })
    exact = dedup_against_store(rd.from_arrow(new).repartition(5),
                                rd.from_arrow(old).repartition(3)).to_pandas()
    # m_bits=1<<10 with 80 distinct store hashes => lots of false positives,
    # all of which the exact confirm must discard
    bloom = dedup_against_store_bloom(rd.from_arrow(new).repartition(5),
                                      rd.from_arrow(old).repartition(3),
                                      m_bits=1 << 10).to_pandas()
    assert set(bloom["doc_id"]) == set(exact["doc_id"])
    assert set(bloom["doc_id"]) == {f"n{i}" for i in range(40, 150)}


def test_dedup_against_store_bloom_persisted_filter(ray_session):
    """Passing a persisted filter skips the store build scan and still
    yields the exact result — the steady-state ingest path."""
    import pyarrow as pa
    import ray.data as rd

    from tsdat_ray.stages.dedup import _hash_text, dedup_against_store_bloom
    from tsdat_ray.stages.sketch import bloom_build

    old = pa.table({
        "doc_id": pa.array([f"o{i}" for i in range(100)]),
        "text": pa.array([f"stored document {i % 30}" for i in range(100)]),
    })
    new = pa.table({
        "doc_id": pa.array([f"n{i}" for i in range(60)]),
        "text": pa.array([f"stored document {i}" if i < 10
                          else f"fresh document {i}" for i in range(60)]),
    })
    old_ds = rd.from_arrow(old).repartition(3)
    persisted = bloom_build(old_ds.select_columns(["text"]),
                            lambda b: _hash_text(b["text"]),
                            m_bits=1 << 18, k=7)
    out = dedup_against_store_bloom(rd.from_arrow(new).repartition(4), old_ds,
                                    m_bits=1 << 18,
                                    bloom_bytes=persisted).to_pandas()
    assert set(out["doc_id"]) == {f"n{i}" for i in range(10, 60)}


def test_cap_duplicates_keeps_k_smallest_ids(ray_session):
    """k=2 cap: each content cluster keeps exactly its two smallest ids
    with copy_rank 0/1; singletons pass through with rank 0."""
    import pyarrow as pa
    import ray.data as rd

    from tsdat_ray.stages.dedup import cap_duplicates

    rows = []
    for i in range(90):
        rows.append((i, f"boilerplate {i % 10}"))   # 10 clusters of 9
    for i in range(90, 100):
        rows.append((i, f"unique text {i}"))
    tab = pa.table({"doc_id": pa.array([r[0] for r in rows]),
                    "text": pa.array([r[1] for r in rows])})
    out = cap_duplicates(rd.from_arrow(tab).repartition(6), k=2).to_pandas()
    assert len(out) == 10 * 2 + 10
    for c in range(10):
        got = sorted(out[out.text == f"boilerplate {c}"]
                     [["doc_id", "copy_rank"]].itertuples(index=False))
        assert got == [(c, 0), (c + 10, 1)]
    uniq = out[out.doc_id >= 90]
    assert (uniq.copy_rank == 0).all() and len(uniq) == 10


def _semdedup_reference(ids, clusters, vecs, eps):
    """Sequential reference for the non-recursive SemDeDup drop rule."""
    import numpy as np

    n = np.linalg.norm(vecs, axis=1, keepdims=True)
    m = vecs / np.where(n == 0, 1.0, n)
    keep = []
    order = np.lexsort((ids, clusters))
    for i in order:
        dropped = any(
            clusters[j] == clusters[i] and ids[j] < ids[i]
            and float(m[i] @ m[j]) >= eps
            for j in order
        )
        if not dropped:
            keep.append(int(ids[i]))
    return sorted(keep)


def test_semdedup_declared_clusters_matches_reference(ray_session):
    """Planted near-duplicate groups inside declared clusters: the survivors
    equal the sequential drop rule, under adversarial block layouts."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from tsdat_ray.stages.similarity import semdedup

    rng = np.random.default_rng(7)
    base = rng.standard_normal((20, 16))
    ids, clusters, vecs = [], [], []
    vid = 0
    for c in range(5):
        for g in range(4):
            proto = base[c * 4 + g]
            for copy in range(3):  # 3 near-copies of each prototype
                vecs.append(proto + 1e-3 * rng.standard_normal(16))
                ids.append(vid)
                clusters.append(c)
                vid += 1
    vecs = np.array(vecs)
    ids_a, cl_a = np.array(ids), np.array(clusters)
    tab = pa.table({
        "vec_id": pa.array(ids_a),
        "label": pa.array(cl_a.astype(np.int32)),
        "embedding": pa.array(list(vecs.astype(np.float32)),
                              type=pa.list_(pa.float32())),
    })
    eps = 0.99
    want = _semdedup_reference(
        ids_a, cl_a, vecs.astype(np.float32).astype(np.float64), eps)
    for parts in (1, 5):
        out = semdedup(rd.from_arrow(tab).repartition(parts), eps=eps,
                       cluster_col="label").to_pandas()
        assert sorted(out["vec_id"]) == want
        # exactly one survivor per planted prototype group
        assert len(out) == 20
        assert set(out["cluster"]) == set(range(5))


def test_semdedup_kmeans_path_prunes_planted_dups(ray_session):
    """kmeans-cluster production path: well-separated planted clusters are
    recovered by kmeans, and each trio of near-copies collapses to one."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from tsdat_ray.stages.similarity import kmeans_fit, semdedup

    rng = np.random.default_rng(3)
    centers = rng.standard_normal((4, 8)) * 10.0
    vecs, ids = [], []
    vid = 0
    for c in range(4):
        for g in range(5):
            # prototypes inside a cluster stay angularly distinct (cosine
            # ~0.8) while true copies sit at cosine ~1-1e-9
            proto = centers[c] + 5.0 * rng.standard_normal(8)
            for _ in range(2):
                vecs.append(proto + 1e-4 * rng.standard_normal(8))
                ids.append(vid)
                vid += 1
    tab = pa.table({
        "vec_id": pa.array(np.array(ids)),
        "embedding": pa.array(list(np.array(vecs, dtype=np.float32)),
                              type=pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tab).repartition(3)
    cent, hist = kmeans_fit(ds, k=4, n_iter=8, seed=1)
    out = semdedup(ds, eps=0.9999, centroids=cent).to_pandas()
    # every planted pair collapses to its even (smaller) id
    assert sorted(out["vec_id"]) == [2 * i for i in range(20)]


def test_kmeans_quantized_matches_integer_reference(ray_session):
    """r5 fixed-point k-means: the distributed trajectory equals a
    sequential integer Lloyd's run EXACTLY — including duplicated points
    (guaranteed distance ties → smallest-cluster rule) and an empty
    cluster that must keep its previous centroid."""
    import ray.data as rd

    from tsdat_ray.stages.similarity import kmeans_quantized

    rng = np.random.default_rng(17)
    n, d, k = 120, 6, 4
    m = np.round(rng.normal(0, 1, (n, d)), 3).astype(np.float32)
    m[10] = m[11]  # exact duplicates: tie on every centroid distance
    m[12] = m[13]
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(m), pa.list_(pa.float32())),
    })
    got = (kmeans_quantized(rd.from_arrow(tbl).repartition(5), k=k,
                            n_iter=4).to_pandas()
           .set_index("vec_id")["cluster"].to_dict())

    y = m.astype(np.float64) * 1000
    X = np.copysign(np.floor(np.abs(y) + 0.5), y).astype(np.int64)
    cent = X[:k].copy()  # k smallest ids
    for _ in range(4):
        diff = X[:, None, :] - cent[None, :, :]
        a = np.argmin((diff * diff).sum(axis=2), axis=1)
        for j in range(k):
            sel = X[a == j]
            if len(sel):
                cent[j] = sel.sum(axis=0) // len(sel)
    diff = X[:, None, :] - cent[None, :, :]
    a = np.argmin((diff * diff).sum(axis=2), axis=1)
    for i in range(n):
        assert got[i] == int(a[i]), (i, got[i], int(a[i]))
    assert got[10] == got[11] and got[12] == got[13]
    # filtered to nothing: blocks without a schema still give an empty result
    none = rd.from_arrow(tbl).filter(lambda r: r["vec_id"] < 0)
    assert kmeans_quantized(none, k=k, n_iter=1).count() == 0


def test_pca_power_quantized_recovers_principal_axis(ray_session):
    """r5 fixed-point power iteration: (a) trajectory equals a sequential
    integer reference exactly, (b) the fixed-point direction aligns with
    the float leading eigenvector of the Gram matrix (cosine > 0.99) on a
    corpus with a dominant axis."""
    import ray.data as rd

    from tsdat_ray.stages.similarity import pca_power_quantized

    rng = np.random.default_rng(23)
    n, d = 300, 16
    axis = rng.normal(0, 1, d)
    axis /= np.linalg.norm(axis)
    m = (np.outer(rng.normal(0, 3, n), axis)
         + rng.normal(0, 0.3, (n, d))).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(m), pa.list_(pa.float32())),
    })
    got = (pca_power_quantized(rd.from_arrow(tbl).repartition(4), dim=d,
                               iters=8).to_pandas().sort_values("i"))
    v_got = got["v_q"].to_numpy()

    # sequential integer reference
    y = m.astype(np.float64) * 1e6
    e = np.copysign(np.floor(np.abs(y) + 0.5), y).astype(np.int64)
    S2 = [[int((e[:, i].astype(object) * e[:, j].astype(object)).sum())
           for j in range(d)] for i in range(d)]
    V = 1 << 20
    v = [V] + [0] * (d - 1)
    for _ in range(8):
        w = [sum(S2[i][j] * v[j] for j in range(d)) for i in range(d)]
        M = max(abs(x) for x in w) or 1
        nums = [x * V for x in w]
        v = [(nm - ((nm % M) + M) % M) // M for nm in nums]
    assert v_got.tolist() == v

    # alignment with the float leading eigenvector
    g = (m.astype(np.float64).T @ m.astype(np.float64))
    evals, evecs = np.linalg.eigh(g)
    lead = evecs[:, -1]
    vg = v_got.astype(np.float64)
    cos = abs(vg @ lead) / (np.linalg.norm(vg) * np.linalg.norm(lead))
    assert cos > 0.99, cos
