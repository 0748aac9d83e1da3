"""Similarity search over embedding columns.

* ``knn_brute_force`` — exact cosine top-k: the query matrix is broadcast once
  via ``ray.put`` and each batch does one numpy matmul (the scale baseline).
* ``knn_lsh`` — random-hyperplane LSH bucketing (the scale path): candidates
  are restricted to matching hash buckets, then exactly re-scored.
* ``embedding_dedup`` — near-duplicate pairs by cosine >= threshold within
  LSH buckets.
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa

from .reduce import keyed_fold


def _emb_matrix(col) -> np.ndarray:
    arr = col.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


def _normalize(m: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(nrm, 1e-30)


def knn_brute_force(ds, query: np.ndarray, k: int = 10,
                    emb_col: str = "embedding", id_col: str = "vec_id",
                    exclude_ids: tuple = ()):
    """Exact cosine top-k of one query vector against an embedding dataset.

    Per batch: one matmul against the broadcast query → per-batch local top-k
    rows; a final tiny global top-k on the concatenated candidates (at most
    k rows per batch leave each task, so the driver-side merge is small)."""
    import ray

    q = _normalize(np.asarray(query, dtype=np.float64).reshape(1, -1))
    q_ref = ray.put(q)
    excl = set(exclude_ids)

    def local_topk(batch: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        m = _normalize(_emb_matrix(batch[emb_col]))
        sims = (m @ qv.T).ravel()
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if excl:
            mask = ~np.isin(ids, list(excl))
            sims, ids = sims[mask], ids[mask]
            idx_map = np.flatnonzero(mask)
        else:
            idx_map = np.arange(len(ids))
        if len(sims) == 0:
            return pa.table({id_col: pa.array([], batch[id_col].type),
                             "similarity": pa.array([], pa.float64())})
        top = np.argsort(-sims, kind="stable")[:k]
        t = batch.take(pa.array(idx_map[top], type=pa.int64()))
        return pa.table({id_col: t[id_col], "similarity": pa.array(sims[top])})

    cand = ds.map_batches(local_topk, batch_format="pyarrow")
    # global merge: candidates are tiny (k per input block)
    out = cand.sort("similarity", descending=True).limit(k)
    return out


def knn_brute_force_multi(ds, queries: np.ndarray, query_ids: np.ndarray,
                          k: int = 10, emb_col: str = "embedding",
                          id_col: str = "vec_id", exclude_self: bool = True):
    """Exact cosine top-k for a BATCH of query vectors (the training-data
    shape: many lookups at once).  The whole normalized query matrix is
    broadcast once; each data batch does ONE (batch × queries) matmul and
    emits its local top-k per query; one small groupby over (query, ≤k per
    block) candidates finalizes.  Output: (query_id, vec_id, similarity,
    rank) — k rows per query."""
    import ray

    q = _normalize(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids)
    q_ref = ray.put((q, qids))

    def local_topk(batch: pa.Table) -> pa.Table:
        qm, qi = ray.get(q_ref)
        m = _normalize(_emb_matrix(batch[emb_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sims = m @ qm.T  # (rows, queries)
        if exclude_self:
            sims = np.where(ids[:, None] == qi[None, :], -np.inf, sims)
        kk = min(k, sims.shape[0])
        if kk == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], batch[id_col].type),
                             "similarity": pa.array([], pa.float64())})
        top = np.argpartition(-sims, kth=kk - 1, axis=0)[:kk]  # (k, queries)
        rows = top.ravel(order="F")
        qcol = np.repeat(qi, kk)
        s = sims[top, np.arange(sims.shape[1])[None, :]].ravel(order="F")
        keep = np.isfinite(s)
        return pa.table({"query_id": pa.array(qcol[keep]),
                         id_col: batch[id_col].take(pa.array(rows[keep], type=pa.int64())),
                         "similarity": pa.array(s[keep])})

    cand = ds.map_batches(local_topk, batch_format="pyarrow")

    def finalize(g: pa.Table) -> pa.Table:
        s = g["similarity"].combine_chunks().to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -s))[:k]
        t = g.take(pa.array(order, type=pa.int64()))
        return t.append_column("rank", pa.array(np.arange(1, len(order) + 1)))

    return cand.groupby("query_id").map_groups(finalize, batch_format="pyarrow")


class HyperplaneLSH:
    """Random-hyperplane signatures for cosine LSH (Charikar '02); planes are
    generated once per actor from a fixed seed so every worker agrees."""

    def __init__(self, dim: int, n_planes: int = 16, seed: int = 5,
                 emb_col: str = "embedding", id_col: str = "vec_id"):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
        self.planes = rng.standard_normal((dim, n_planes))
        self.emb_col = emb_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _emb_matrix(batch[self.emb_col])
        bits = (m @ self.planes) > 0
        sig = np.zeros(len(m), dtype=np.uint64)
        for j in range(bits.shape[1]):
            sig |= bits[:, j].astype(np.uint64) << np.uint64(j)
        return batch.append_column("lsh_bucket", pa.array(sig))


def embedding_dedup_pairs(ds, dim: int, threshold: float = 0.95, n_planes: int = 12,
                          emb_col: str = "embedding", id_col: str = "vec_id",
                          concurrency: int = 2):
    """Near-duplicate (id_a, id_b, similarity) pairs with cosine >= threshold.

    LSH-bucket first (groupby one shuffle), then exact pairwise cosine within
    each bucket — O(bucket²) work bounded by the bucket granularity."""

    def pairs(g: pa.Table) -> pa.Table:
        m = _normalize(_emb_matrix(g[emb_col]))
        ids = g[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        m, ids = m[order], ids[order]
        sims = m @ m.T
        iu, ju = np.triu_indices(len(ids), k=1)
        ok = sims[iu, ju] >= threshold
        return pa.table(
            {
                "id_a": pa.array(ids[iu[ok]]),
                "id_b": pa.array(ids[ju[ok]]),
                "similarity": pa.array(sims[iu[ok], ju[ok]]),
            }
        )

    from . import safe_pool_size

    sig = ds.map_batches(
        HyperplaneLSH,
        fn_constructor_kwargs=dict(dim=dim, n_planes=n_planes, emb_col=emb_col, id_col=id_col),
        batch_format="pyarrow",
        concurrency=safe_pool_size(concurrency),
    )
    return sig.groupby("lsh_bucket").map_groups(pairs, batch_format="pyarrow")


def embedding_neardup_exact(ds, ref: pa.Table, threshold: float,
                            emb_col: str = "embedding", id_col: str = "vec_id"):
    """EXACT near-duplicate pairs (id_a < id_b, cosine >= threshold): the full
    normalized reference matrix is broadcast once (``ray.put``) and each batch
    does one numpy matmul against it — O(n²) FLOPs split across blocks with
    no shuffle.  The correctness baseline; ``embedding_dedup_pairs`` (LSH
    buckets) is the scale path when all-pairs is infeasible."""
    import ray

    ref_ids = ref[id_col].to_numpy(zero_copy_only=False)
    order = np.argsort(ref_ids, kind="stable")
    ref_ids = ref_ids[order]
    m_ref = _normalize(_emb_matrix(ref[emb_col]))[order]
    ref_ref = ray.put((ref_ids, m_ref))

    def pairs(batch: pa.Table) -> pa.Table:
        rids, rm = ray.get(ref_ref)
        m = _normalize(_emb_matrix(batch[emb_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sims = m @ rm.T  # (batch, ref)
        # keep upper triangle only: batch id < ref id
        ok = (sims >= threshold) & (ids[:, None] < rids[None, :])
        bi, rj = np.nonzero(ok)
        return pa.table(
            {
                "id_a": pa.array(ids[bi]),
                "id_b": pa.array(rids[rj]),
                "similarity": pa.array(sims[bi, rj]),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow")


def knn_lsh(ds, query: np.ndarray, k: int = 10, n_planes: int = 8, seed: int = 5,
            probe_hamming: int = 1, emb_col: str = "embedding", id_col: str = "vec_id",
            exclude_ids: tuple = ()):
    """Approximate cosine top-k via hyperplane-LSH bucket probing: only rows
    whose signature is within ``probe_hamming`` bits of the query's signature
    are exactly re-scored (the scale path — candidate set shrinks ~2^planes×;
    recall grows with probe_hamming).  Same deterministic planes as
    ``HyperplaneLSH`` so index and query always agree."""
    q = _normalize(np.asarray(query, dtype=np.float64).reshape(1, -1))
    dim = q.shape[1]
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    planes = rng.standard_normal((dim, n_planes))
    qbits = (q @ planes > 0).ravel()
    qsig = np.uint64(0)
    for j in range(n_planes):
        qsig |= np.uint64(qbits[j]) << np.uint64(j)

    probes = {int(qsig)}
    if probe_hamming >= 1:
        probes |= {int(qsig ^ np.uint64(1 << j)) for j in range(n_planes)}
    if probe_hamming >= 2:
        probes |= {
            int(qsig ^ np.uint64((1 << i) | (1 << j)))
            for i in range(n_planes)
            for j in range(i + 1, n_planes)
        }
    excl = set(exclude_ids)

    def local(batch: pa.Table) -> pa.Table:
        m = _emb_matrix(batch[emb_col])
        bits = (m @ planes) > 0
        sig = np.zeros(len(m), dtype=np.uint64)
        for j in range(bits.shape[1]):
            sig |= bits[:, j].astype(np.uint64) << np.uint64(j)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        cand = np.isin(sig.astype(np.int64), list(probes))
        if excl:
            cand &= ~np.isin(ids, list(excl))
        if not cand.any():
            return pa.table({id_col: pa.array([], batch[id_col].type),
                             "similarity": pa.array([], pa.float64())})
        mm = _normalize(m[cand])
        sims = (mm @ q.T).ravel()
        top = np.argsort(-sims, kind="stable")[:k]
        sel = np.flatnonzero(cand)[top]
        return pa.table({id_col: batch[id_col].take(pa.array(sel, type=pa.int64())),
                         "similarity": pa.array(sims[top])})

    return ds.map_batches(local, batch_format="pyarrow").sort(
        "similarity", descending=True
    ).limit(k)


def build_ivf_centroids(ref_m: np.ndarray, n_lists: int = 16, n_iter: int = 8,
                        seed: int = 13) -> np.ndarray:
    """Deterministic spherical k-means coarse quantizer (IVF training), plain
    numpy — train driver-side on a sample, broadcast to workers."""
    m = _normalize(np.asarray(ref_m, dtype=np.float64))
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 3], dtype=np.uint64)))
    cent = m[rng.choice(len(m), size=min(n_lists, len(m)), replace=False)]
    for _ in range(n_iter):
        assign = (m @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            sel = m[assign == c]
            if len(sel):
                cent[c] = sel.mean(axis=0)
        cent = _normalize(cent)
    return cent


def knn_ivf(ds, query: np.ndarray, centroids: np.ndarray, k: int = 10, n_probe: int = 4,
            emb_col: str = "embedding", id_col: str = "vec_id", exclude_ids: tuple = ()):
    """IVF approximate top-k: per batch, assign rows to their nearest
    centroid; only rows whose list is among the query's ``n_probe`` nearest
    lists are exactly re-scored.  Centroids are broadcast once (``ray.put``)."""
    import ray

    q = _normalize(np.asarray(query, dtype=np.float64).reshape(1, -1))
    cent = _normalize(np.asarray(centroids, dtype=np.float64))
    probe_lists = np.argsort(-(cent @ q.T).ravel(), kind="stable")[:n_probe]
    cent_ref = ray.put((cent, set(int(x) for x in probe_lists)))
    excl = set(exclude_ids)

    def local(batch: pa.Table) -> pa.Table:
        c, probes = ray.get(cent_ref)
        m = _normalize(_emb_matrix(batch[emb_col]))
        assign = (m @ c.T).argmax(axis=1)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        cand = np.isin(assign, list(probes))
        if excl:
            cand &= ~np.isin(ids, list(excl))
        if not cand.any():
            return pa.table({id_col: pa.array([], batch[id_col].type),
                             "similarity": pa.array([], pa.float64())})
        sims = (m[cand] @ q.T).ravel()
        top = np.argsort(-sims, kind="stable")[:k]
        sel = np.flatnonzero(cand)[top]
        return pa.table({id_col: batch[id_col].take(pa.array(sel, type=pa.int64())),
                         "similarity": pa.array(sims[top])})

    return ds.map_batches(local, batch_format="pyarrow").sort(
        "similarity", descending=True
    ).limit(k)


def kmeans_fit(ds, k: int = 8, n_iter: int = 10, seed: int = 0,
               emb_col: str = "embedding", id_col: str = "vec_id",
               init_sample: int = 20_000):
    """Distributed Lloyd's k-means over an embedding column — full-data
    iterations, not the driver-sample shortcut ``build_ivf_centroids`` uses.

    Per iteration: broadcast the k×d centroid matrix (``ray.put`` once),
    each batch assigns rows to the nearest centroid (one matmul) and emits
    per-cluster partial (Σvec, count) — a k×d table per block, NOT the
    data — and the driver folds partials SORTED BY block-min id before
    summing, so centroid updates are bit-deterministic under any block
    arrival order.  Empty clusters keep their previous centroid.  Returns
    (centroids ndarray [k, d], inertia history list — non-increasing).

    At 100 TB each iteration is one streaming pass with a k×d×blocks
    shuffle-free drain; k-means|| style sharded init can replace the
    driver sample if k×d itself outgrows the driver."""
    import ray

    # deterministic init: first `init_sample` rows by id, k spread picks
    head = ds.limit(init_sample).take_all()
    ids0 = np.array([r[id_col] for r in head])
    m0 = np.array([r[emb_col] for r in head], dtype=np.float64)
    m0 = m0[np.argsort(ids0, kind="stable")]
    rng = np.random.default_rng(seed)
    cent = m0[rng.choice(len(m0), size=k, replace=False)].copy()

    inertia_hist = []
    for _ in range(n_iter):
        cref = ray.put(cent)

        def partial(b: pa.Table) -> pa.Table:
            c = ray.get(cref)
            m = _emb_matrix(b[emb_col])
            ids = b[id_col].to_numpy(zero_copy_only=False)
            d2 = (m * m).sum(1)[:, None] - 2.0 * (m @ c.T) + (c * c).sum(1)[None, :]
            a = np.argmin(d2, axis=1)
            sums = np.zeros((k, c.shape[1]))
            np.add.at(sums, a, m)
            cnt = np.bincount(a, minlength=k).astype(np.int64)
            sse = float(d2[np.arange(len(a)), a].sum())
            return pa.table({
                "_minid": pa.array(np.repeat(ids.min() if len(ids) else 0, k)),
                "_cluster": pa.array(np.arange(k, dtype=np.int64)),
                "_sum": pa.array(list(sums), type=pa.list_(pa.float64())),
                "_cnt": pa.array(cnt),
                "_sse": pa.array(np.repeat(sse, k)),
            })

        parts = []
        for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None):
            parts.append(b)
        cat = pa.concat_tables(parts)
        minid = cat["_minid"].to_numpy(zero_copy_only=False)
        order = np.argsort(minid, kind="stable")
        cl = cat["_cluster"].to_numpy(zero_copy_only=False)[order]
        cnt = cat["_cnt"].to_numpy(zero_copy_only=False)[order]
        sums = np.stack(cat["_sum"].to_pandas().to_numpy()[order])
        new = cent.copy()
        tot = np.zeros(k, dtype=np.int64)
        acc = np.zeros_like(cent)
        for j in range(len(cl)):  # tiny: blocks × k rows
            acc[cl[j]] += sums[j]
            tot[cl[j]] += cnt[j]
        nz = tot > 0
        new[nz] = acc[nz] / tot[nz, None]
        # one _sse per block, repeated k times
        inertia_hist.append(float(cat["_sse"].to_numpy(zero_copy_only=False)[order][::k].sum()))
        cent = new
    return cent, inertia_hist


def kmeans_assign(ds, centroids: np.ndarray, emb_col: str = "embedding",
                  id_col: str = "vec_id"):
    """Assign every row to its nearest centroid — pure map, one matmul per
    batch against the broadcast k×d matrix.  Output: (id, cluster, dist)."""
    import ray

    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(b: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _emb_matrix(b[emb_col])
        d2 = (m * m).sum(1)[:, None] - 2.0 * (m @ c.T) + (c * c).sum(1)[None, :]
        a = np.argmin(d2, axis=1)
        return pa.table({
            id_col: b[id_col],
            "cluster": pa.array(a.astype(np.int64)),
            "dist": pa.array(np.sqrt(np.maximum(d2[np.arange(len(a)), a], 0.0))),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


def embedding_covariance(ds, emb_col: str = "embedding", dim: int = 64,
                         quant: float = 1e6):
    """Distributed EXACT covariance of an embedding column via integer
    quantization: each batch folds round(x·quant) int64 vectors into
    (n, S1[d], S2[d,d]) partials — associative integer sums, so any
    combine order is bit-identical AND a SQL twin can reproduce them
    (the centroid-query recipe lifted to second moments).  Partials are
    d²-bounded (one (i, j, s1_i, s2_ij) table per block), tree-merged;
    the d×d solve (eigh for PCA) happens on the driver where d is small.

    Overflow bound: n · quant² · max|x_i x_j| must stay < 2⁶³ — at
    quant=1e6 and unit-normalized embeddings that is n < ~9e6 rows per
    MERGED partial; raise ``quant`` down (1e4) for larger corpora (the
    contract stays exact at any scale chosen).

    Returns a Dataset (one combined block) with columns i, j, s1_i, s2_ij,
    n where s2 covers the upper triangle including the diagonal."""
    import pyarrow as pa

    iu = np.triu_indices(dim)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[emb_col].combine_chunks()
        m = col.values.to_numpy(zero_copy_only=False).reshape(-1, dim)
        y = m.astype(np.float64) * quant
        # half-AWAY rounding (DuckDB round()); np.round is banker's and
        # arbitrary floats DO tie at .5 (CLAUDE.md recipe)
        e = np.copysign(np.floor(np.abs(y) + 0.5), y).astype(np.int64)
        s1 = e.sum(axis=0)
        s2 = e.T @ e
        return pa.table({
            "i": pa.array(iu[0].astype(np.int64)),
            "j": pa.array(iu[1].astype(np.int64)),
            "s1_i": pa.array(s1[iu[0]]),
            "s2_ij": pa.array(s2[iu]),
            "n": pa.array(np.full(len(iu[0]), len(e), np.int64)),
        })

    from .reduce import tree_reduce

    def merge(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = batch.to_pandas().groupby(["i", "j"], as_index=False).agg(
            s1_i=("s1_i", "sum"), s2_ij=("s2_ij", "sum"), n=("n", "sum"))
        return pa.Table.from_pandas(df, preserve_index=False)

    return tree_reduce(ds.map_batches(partial, batch_format="pyarrow"), merge)


def pca_embeddings(ds, emb_col: str = "embedding", dim: int = 64,
                   k: int = 8, quant: float = 1e6):
    """Distributed PCA: exact integer-quantized covariance (one pass,
    tree-merged d² partials) → driver-side ``eigh`` on the small d×d
    matrix → projection as a pure map over the corpus.  Deterministic up
    to eigenvector sign; signs are fixed by making each component's
    largest-|loading| coordinate positive."""
    import pyarrow as pa

    cov_ds = embedding_covariance(ds, emb_col=emb_col, dim=dim, quant=quant)
    cov_tab = pa.concat_tables(
        cov_ds.iter_batches(batch_format="pyarrow", batch_size=None))
    i = cov_tab["i"].to_numpy(zero_copy_only=False)
    j = cov_tab["j"].to_numpy(zero_copy_only=False)
    s1 = cov_tab["s1_i"].to_numpy(zero_copy_only=False).astype(np.float64)
    s2 = cov_tab["s2_ij"].to_numpy(zero_copy_only=False).astype(np.float64)
    n = int(cov_tab["n"][0].as_py())
    S1 = np.zeros(dim)
    S1[i[j == i]] = s1[j == i]
    C = np.zeros((dim, dim))
    C[i, j] = s2
    C[j, i] = s2
    mu = S1 / quant / n
    cov = C / (quant * quant) / n - np.outer(mu, mu)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(-w)[:k]
    comps = v[:, order]
    flip = np.sign(comps[np.argmax(np.abs(comps), axis=0), np.arange(comps.shape[1])])
    comps = comps * np.where(flip == 0, 1.0, flip)
    import ray

    cref = ray.put((mu, comps))

    def project(batch: pa.Table) -> pa.Table:
        m, cm = ray.get(cref)
        col = batch[emb_col].combine_chunks()
        x = col.values.to_numpy(zero_copy_only=False).reshape(-1, dim).astype(np.float64)
        p = (x - m) @ cm
        out = {c: batch[c] for c in batch.column_names if c != emb_col}
        out["pca"] = pa.array(list(p.astype(np.float32)), pa.list_(pa.float32()))
        return pa.table(out)

    return ds.map_batches(project, batch_format="pyarrow")


def logreg_train(ds, emb_col: str = "embedding", label_col: str = "label",
                 dim: int = 64, n_iters: int = 8, ridge: float = 1e-3):
    """Distributed binary logistic regression by Newton/IRLS — the quality-
    classifier training shape (fastText-style doc filters): each iteration
    broadcasts the current weights and makes ONE pass where every block
    folds its exact sufficient statistics (gradient X^T(p−y) and Hessian
    X^T diag(p(1−p)) X — d and d×d arrays, independent of rows); the
    driver solves the d×d ridge-damped Newton step.  Work per iteration is
    one streaming pass + a d²-bounded reduction; nothing corpus-sized ever
    leaves the workers.

    Labels: any integer column; y = (label % 2) by default mirrors the
    synthetic corpus.  Returns (weights[d+1] with bias last, history of
    mean log-loss per iteration)."""
    import ray

    w = np.zeros(dim + 1)

    def stats(batch: pa.Table, wref) -> pa.Table:
        wv = ray.get(wref)
        col = batch[emb_col].combine_chunks()
        x = col.values.to_numpy(zero_copy_only=False).reshape(-1, dim).astype(np.float64)
        y = (batch[label_col].to_numpy(zero_copy_only=False).astype(np.int64) % 2
             ).astype(np.float64)
        z = x @ wv[:dim] + wv[dim]
        p = 1.0 / (1.0 + np.exp(-z))
        r = p - y
        d = p * (1.0 - p)
        xb = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        g = xb.T @ r
        h = xb.T @ (xb * d[:, None])
        loss = float(np.sum(np.where(y > 0, -np.log(np.maximum(p, 1e-12)),
                                     -np.log(np.maximum(1 - p, 1e-12)))))
        return pa.table({
            "g": pa.array([g.tolist()], pa.list_(pa.float64())),
            "h": pa.array([h.reshape(-1).tolist()], pa.list_(pa.float64())),
            "loss": pa.array([loss]),
            "n": pa.array([len(x)], pa.int64()),
        })

    history = []
    for _ in range(n_iters):
        wref = ray.put(w)
        parts = ds.map_batches(lambda b, wref=wref: stats(b, wref),
                               batch_format="pyarrow")
        g = np.zeros(dim + 1)
        h = np.zeros((dim + 1, dim + 1))
        loss, n = 0.0, 0
        for t in parts.iter_batches(batch_format="pyarrow", batch_size=None):
            for i in range(t.num_rows):
                g += np.asarray(t["g"][i].as_py())
                h += np.asarray(t["h"][i].as_py()).reshape(dim + 1, dim + 1)
                loss += float(t["loss"][i].as_py())
                n += int(t["n"][i].as_py())
        history.append(loss / max(n, 1))
        w = w - np.linalg.solve(h + ridge * np.eye(dim + 1), g)
    return w, history


def semdedup(ds, eps: float, centroids: np.ndarray | None = None,
             cluster_col: str | None = None, emb_col: str = "embedding",
             id_col: str = "vec_id", keep_cols: tuple = ()):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540) — semantic dedup by
    clustering embeddings and pruning, within each cluster, every row whose
    cosine similarity to a LOWER-id row of the same cluster reaches ``eps``.

    Clusters come from ``cluster_col`` (a declared grouping) or from k-means
    ``centroids`` (the production path: :func:`kmeans_fit` upstream; the
    nearest-centroid assignment is fused into the map that feeds the
    shuffle, so clustering adds zero extra passes).  ONE keyed fold
    co-locates rows by cluster; within a fold call each cluster is a single
    normalized O(c²) matmul — the whole point of SemDeDup is that k is chosen
    so c ≈ n/k stays bounded (the pairwise work is k·(n/k)² = n²/k, tunable),
    so no all-pairs pass over the corpus ever happens.

    Survivor policy is the non-recursive drop rule — drop x if ANY smaller-id
    y in its cluster has sim(x, y) >= eps — which is SQL-expressible
    (NOT EXISTS) and therefore oracled on the declared-cluster variant.
    Returns survivors ``(id_col, cluster, *keep_cols)``.
    """
    import ray

    cref = ray.put(np.asarray(centroids, dtype=np.float64)) if centroids is not None else None

    def assign(b: pa.Table) -> pa.Table:
        if cluster_col is not None:
            cl = b[cluster_col].to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            c = ray.get(cref)
            m = _emb_matrix(b[emb_col])
            d2 = (m * m).sum(1)[:, None] - 2.0 * (m @ c.T) + (c * c).sum(1)[None, :]
            cl = np.argmin(d2, axis=1).astype(np.int64)
        cols = {id_col: b[id_col], "cluster": pa.array(cl),
                emb_col: b[emb_col]}
        for kc in keep_cols:
            cols[kc] = b[kc]
        return pa.table(cols)

    def prune(g: pa.Table) -> pa.Table:
        cl = g["cluster"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, cl))
        m = _normalize(_emb_matrix(g[emb_col]))[order]
        cl, ids = cl[order], ids[order]
        keep = np.ones(len(ids), dtype=bool)
        starts = np.flatnonzero(np.r_[True, cl[1:] != cl[:-1]]) if len(cl) else []
        ends = np.r_[starts[1:], len(cl)] if len(cl) else []
        for s, e in zip(starts, ends):
            c = e - s
            if c < 2:
                continue
            sims = m[s:e] @ m[s:e].T
            # row i dropped if any j < i (strictly smaller id) has sim >= eps
            dup = (np.tril(sims, k=-1) >= eps).any(axis=1)
            keep[s:e] = ~dup
        take = pa.array(order[keep], type=pa.int64())
        out = {id_col: g[id_col].take(take), "cluster": pa.array(cl[keep])}
        for kc in keep_cols:
            out[kc] = g[kc].take(take)
        return pa.table(out)

    return keyed_fold(ds.map_batches(assign, batch_format="pyarrow"), "cluster",
                      prune)


def kmeans_quantized(ds, k: int = 8, n_iter: int = 5,
                     emb_col: str = "embedding", id_col: str = "vec_id",
                     scale: int = 1000):
    """Fixed-point Lloyd's k-means — the HASH-EXACT clustering twin of
    :func:`kmeans_fit` (r5): embeddings quantize to int64
    ``round(x·scale)`` (half-away); initial centroids are the k
    smallest-id rows' quantized vectors (portable, seed-free); each
    iteration assigns every point to ``argmin_j Σ_d (x_d − c_jd)²`` in
    EXACT int64 arithmetic (ties → smallest j) and updates centroids to
    the elementwise FLOOR mean ``s_jd // n_j`` (an empty cluster keeps
    its centroid).  Integer argmin + associative integer sums make the
    whole trajectory bit-reproducible under any block layout AND
    replayable by a SQL recursive CTE (the divisible-numerator floor-div
    trick bridges DuckDB's truncating ``//``).  Same scale shape as the
    float operator: one streaming pass per iteration, k×d partials only.
    Returns a Dataset of (id, cluster) under the FINAL centroids."""
    import ray
    import ray.data as rd

    from .reduce import topk_merge
    from .text_quant import half_away

    # deterministic portable init: the k smallest ids' quantized vectors
    # (per-block top-k, then one merge of the survivors; no global sort)
    head = topk_merge(ds.select_columns([id_col, emb_col]), [id_col], [True], k)
    if not head.num_rows:  # empty input → typed empty result (pagerank_quantized
        return rd.from_arrow(pa.table({  # pattern; np.stack would raise)
            id_col: pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64())}))
    cent = half_away(_emb_matrix(head[emb_col]) * scale).astype(np.int64)
    kk, d = cent.shape

    def quant(b: pa.Table) -> np.ndarray:
        return half_away(_emb_matrix(b[emb_col]) * scale)

    for _ in range(n_iter):
        cref = ray.put(cent)

        def partial(b: pa.Table) -> pa.Table:
            c = ray.get(cref)
            m = quant(b)
            # exact integer distances: (m - c_j)² summed per dim
            diff = m[:, None, :] - c[None, :, :]
            d2 = (diff * diff).sum(axis=2)
            a = np.argmin(d2, axis=1)  # first min → smallest j on ties
            sums = np.zeros((kk, d), np.int64)
            np.add.at(sums, a, m)
            cnt = np.bincount(a, minlength=kk).astype(np.int64)
            return pa.table({
                "_cluster": pa.array(np.arange(kk, dtype=np.int64)),
                "_sum": pa.array(list(sums), type=pa.list_(pa.int64())),
                "_cnt": pa.array(cnt),
            })

        sums = np.zeros((kk, d), np.int64)
        cnts = np.zeros(kk, np.int64)
        for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None):
            cl = b["_cluster"].combine_chunks().to_numpy(zero_copy_only=False)
            sv = b["_sum"].combine_chunks()
            off = sv.offsets.to_numpy(zero_copy_only=False)
            vals = sv.values.to_numpy(zero_copy_only=False)
            for t, j in enumerate(cl):  # k rows per block — tiny fold
                sums[j] += vals[off[t]:off[t + 1]]
            cnts += np.bincount(cl, weights=b["_cnt"].combine_chunks()
                                .to_numpy(zero_copy_only=False),
                                minlength=kk).astype(np.int64)
        nz = cnts > 0
        cent[nz] = sums[nz] // cnts[nz, None]  # numpy // = floor (exact)

    cref = ray.put(cent)

    def assign(b: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = quant(b)
        diff = m[:, None, :] - c[None, :, :]
        a = np.argmin((diff * diff).sum(axis=2), axis=1)
        return pa.table({id_col: b[id_col],
                         "cluster": pa.array(a.astype(np.int64))})

    return ds.map_batches(assign, batch_format="pyarrow")


def pca_power_quantized(ds, dim: int = 64, iters: int = 8,
                        emb_col: str = "embedding", quant: float = 1e6,
                        v_scale: int = 1 << 20):
    """Fixed-point power iteration for the leading eigenvector of the
    (uncentered) second-moment matrix — the HASH-EXACT PCA-family twin of
    :func:`pca_embeddings` (r5):

    1. ONE distributed pass folds the exact integer Gram matrix
       ``S2[i][j] = Σ round(x_i·quant)·round(x_j·quant)`` (the
       :func:`embedding_covariance` sufficient-stat shape — associative
       int sums, d²-bounded partials);
    2. ``iters`` driver-side integer iterations (d² = 4096 multiplies —
       trivial): ``w = S2·v``, then renormalize in fixed point
       ``v'_i = floor(w_i·v_scale / max_j|w_j|)`` via the
       divisible-numerator form, so every step is exact integer
       arithmetic a SQL recursive CTE replays bit-for-bit (HUGEINT;
       magnitudes ≤ ~1e31 ≪ 2¹²⁷).

    Deterministic start ``v₀ = (v_scale, 0, …, 0)``; the returned
    direction is sign-fixed by the trajectory.  Output: one row per
    dimension ``(i, v_q)`` with ``v_q ∈ [−v_scale, v_scale]``;
    ``v_q / v_scale`` approximates the principal axis (cosine → 1 with
    iters for a dominant eigenvalue).  Float PCA (`pca_embeddings`)
    remains the numerically-polished operator; this is the reproducible
    audited contract."""
    import ray.data as rd

    cov = embedding_covariance(ds, emb_col=emb_col, dim=dim, quant=quant)
    tab = pa.concat_tables(cov.iter_batches(batch_format="pyarrow",
                                            batch_size=None))
    ii = tab["i"].to_numpy(zero_copy_only=False)
    jj = tab["j"].to_numpy(zero_copy_only=False)
    ss = tab["s2_ij"].combine_chunks().to_numpy(zero_copy_only=False)
    S2 = [[0] * dim for _ in range(dim)]
    for a, b, s in zip(ii, jj, ss):
        S2[int(a)][int(b)] = int(s)
        S2[int(b)][int(a)] = int(s)

    v = [int(v_scale)] + [0] * (dim - 1)
    for _ in range(iters):
        w = [sum(S2[i][j] * v[j] for j in range(dim)) for i in range(dim)]
        M = max(abs(x) for x in w) or 1
        # floor(w·v_scale / M) under BOTH python-floor and SQL-truncating
        # division: make the numerator exactly divisible first
        nums = [x * v_scale for x in w]
        v = [(nm - ((nm % M) + M) % M) // M for nm in nums]

    return rd.from_arrow(pa.table({
        "i": pa.array(np.arange(dim, dtype=np.int64)),
        "v_q": pa.array(np.array(v, dtype=np.int64)),
    }))
