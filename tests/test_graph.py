"""Connected components (stages/graph.py) vs a union-find reference."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from tsdat_ray.stages.graph import cc_numpy, connected_components


def _uf_reference(edges):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted({x for e in edges for x in e})
    comp = {}
    for n in nodes:
        comp.setdefault(find(n), []).append(n)
    return {n: min(comp[find(n)]) for n in nodes}


def _mixed_edges(seed=7):
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(100, 106):          # clique
        for j in range(i + 1, 106):
            edges.append((i, j))
    for k in range(201, 220):          # star
        edges.append((200, k))
    for k in range(300, 400):          # long chain (diameter 100)
        edges.append((k, k + 1))
    for _ in range(400):               # random pairs
        a, b = rng.integers(1000, 2000, 2)
        edges.append((int(a), int(b)))
    return edges


def test_cc_numpy_matches_union_find():
    edges = _mixed_edges()
    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)
    nodes, lab = cc_numpy(a, b)
    ref = _uf_reference(edges)
    assert dict(zip(nodes.tolist(), lab.tolist())) == ref


@pytest.mark.parametrize("width,final_max", [(8, 2_000_000), (4, 1)])
def test_connected_components_distributed(ray_session, monkeypatch, width,
                                          final_max):
    # final_max=1 forces the recursion branch on the residual rep graph;
    # a small fold width puts many components in each fold call
    from tsdat_ray.stages import reduce

    monkeypatch.setattr(reduce, "WIDTH", width)
    edges = _mixed_edges(seed=width)
    pairs = rd.from_arrow(pa.table({
        "id_a": pa.array([e[0] for e in edges], pa.int64()),
        "id_b": pa.array([e[1] for e in edges], pa.int64()),
    }))
    out = connected_components(pairs, final_max_edges=final_max).to_pandas()
    got = dict(zip(out["node"].tolist(), out["component"].tolist()))
    assert got == _uf_reference(edges)
    # exactly one row per node
    assert out["node"].is_unique


def test_connected_components_empty(ray_session):
    pairs = rd.from_arrow(pa.table({"id_a": pa.array([], pa.int64()),
                                    "id_b": pa.array([], pa.int64())}))
    assert connected_components(pairs).count() == 0


def test_cluster_dedup_survivors(ray_session):
    from tsdat_ray.stages.dedup import cluster_dedup

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(1, 11)), pa.int64()),
        "text": pa.array([f"t{i}" for i in range(1, 11)]),
    }))
    # clusters {1,2,3} (chain), {5,7}; 4,6,8,9,10 unpaired
    pairs = rd.from_arrow(pa.table({
        "id_a": pa.array([1, 2, 5], pa.int64()),
        "id_b": pa.array([2, 3, 7], pa.int64()),
    }))
    out = cluster_dedup(docs, pairs).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [1, 4, 5, 6, 8, 9, 10]


def test_cluster_dedup_no_pairs(ray_session):
    from tsdat_ray.stages.dedup import cluster_dedup

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["a", "b"]),
    }))
    pairs = rd.from_arrow(pa.table({"id_a": pa.array([], pa.int64()),
                                    "id_b": pa.array([], pa.int64())}))
    out = cluster_dedup(docs, pairs).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [1, 2]


def test_pagerank_matches_dense_power_iteration(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(29)
    n_nodes, n_edges = 40, 120
    a = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    b = (a + 1 + rng.integers(0, n_nodes - 1, n_edges)) % n_nodes  # no self-loops
    pairs = rd.from_arrow(pa.table({"id_a": pa.array(a), "id_b": pa.array(b)}))

    from tsdat_ray.stages.graph import pagerank
    got = {r["node"]: r["rank"] for r in pagerank(pairs.repartition(3),
                                                  iters=25).take_all()}

    # dense reference over the same undirected multigraph
    nodes = np.unique(np.r_[a, b])
    idx = {n: i for i, n in enumerate(nodes)}
    N = len(nodes)
    M = np.zeros((N, N))
    deg = np.zeros(N)
    for x, y in zip(a, b):
        M[idx[y], idx[x]] += 1
        M[idx[x], idx[y]] += 1
        deg[idx[x]] += 1
        deg[idx[y]] += 1
    r = np.full(N, 1.0 / N)
    for _ in range(25):
        r = 0.15 / N + 0.85 * (M @ (r / deg))
    for n_, i in idx.items():
        assert abs(got[n_] - r[i]) < 1e-12


def test_pagerank_quantized_matches_integer_reference(ray_session):
    """r5 fixed-point twin: the distributed int64 trajectory equals a
    sequential integer power iteration EXACTLY (floor shares, floor
    damping), and tracks the float pagerank to ~1/scale."""
    import ray.data as rd

    from tsdat_ray.stages.graph import pagerank, pagerank_quantized

    rng = np.random.default_rng(31)
    n_nodes, n_edges = 30, 80
    a = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    b = (a + 1 + rng.integers(0, n_nodes - 1, n_edges)) % n_nodes
    pairs = rd.from_arrow(pa.table({"id_a": pa.array(a), "id_b": pa.array(b)}))
    S = 10 ** 12
    got = {r_["node"]: r_["rank_q"]
           for r_ in pagerank_quantized(pairs.repartition(3), iters=12,
                                        scale=S).take_all()}

    nodes = np.unique(np.r_[a, b])
    idx = {n: i for i, n in enumerate(nodes)}
    N = len(nodes)
    adj: dict = {i: [] for i in range(N)}
    deg = np.zeros(N, np.int64)
    for x, y in zip(a, b):
        adj[idx[x]].append(idx[y])
        adj[idx[y]].append(idx[x])
        deg[idx[x]] += 1
        deg[idx[y]] += 1
    r = np.full(N, S // N, np.int64)
    base = (15 * S) // (100 * N)
    for _ in range(12):
        share = r // deg
        acc = np.array([sum(share[u] for u in adj[v]) for v in range(N)],
                       np.int64)
        r = base + (85 * acc) // 100
    for n_, i in idx.items():
        assert got[n_] == int(r[i]), (n_, got[n_], int(r[i]))

    # sanity: fixed-point tracks the float operator to ~1e-9 relative
    gf = {r_["node"]: r_["rank"]
          for r_ in pagerank(pairs.repartition(3), iters=12).take_all()}
    for n_ in idx:
        assert abs(got[n_] / S - gf[n_]) < 1e-6
