"""Sampling + sequence-packing operators for training-data curation.

Absent from the reference (SURVEY §2.7 — tsdat has no sampling); these are
the corpus-curation operators a token pipeline needs:

* ``stratified_sample`` — deterministic per-key cap: the first ``n_per_key``
  rows of each key by a stable order column (SQL: ``row_number() OVER
  (PARTITION BY key ORDER BY order_col) <= n``).  One windowless groupby —
  group size bounded by pre-limiting inside map_batches first (combiner
  push-down: each batch keeps at most n_per_key rows per key, so the shuffle
  moves ≤ n_per_key × blocks rows per key, never the full corpus).
* ``hash_split`` — deterministic train/val/test assignment from a stable
  content hash of an id column; no shuffle at all.
* ``pack_sequences`` — greedy sequence packing: concatenate token lists into
  fixed-length training examples (context windows), emitting one row per
  packed example with document boundaries.  Packing is batch-local (each
  block packs its own rows — the standard streaming approximation; a global
  bin-packing would serialize the corpus).
* ``token_histogram`` — distributed unigram counts over ``tokens`` list
  columns: per-batch ``np.bincount`` partials → one small groupby sum
  (shuffle carries at most vocab-size rows per block, not tokens).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .reduce import keyed_fold
from .spill import checkpoint as _ckpt


def stratified_sample(ds, key: str = "source", order_col: str = "doc_id",
                      n_per_key: int = 100):
    """First ``n_per_key`` rows per key by ``order_col`` (deterministic)."""

    def local_cap(batch: pa.Table) -> pa.Table:
        codes = batch[key].combine_chunks().dictionary_encode()
        k = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        o = batch[order_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((o, k))
        k_s = k[order]
        starts = np.flatnonzero(np.r_[True, k_s[1:] != k_s[:-1]]) if len(k_s) else np.zeros(0, np.int64)
        within = np.arange(len(k_s)) - np.repeat(starts, np.diff(np.r_[starts, len(k_s)]))
        keep = order[within < n_per_key]
        return batch.take(pa.array(np.sort(keep), type=pa.int64()))

    def final_cap(g: pa.Table) -> pa.Table:
        o = g[order_col].to_numpy(zero_copy_only=False)
        order = np.argsort(o, kind="stable")[:n_per_key]
        return g.take(pa.array(np.sort(order), type=pa.int64()))

    capped = ds.map_batches(local_cap, batch_format="pyarrow")
    return capped.groupby(key).map_groups(final_cap, batch_format="pyarrow")


def hash_split(ds, id_col: str = "doc_id", fractions: dict[str, float] | None = None,
               seed: int = 17):
    """Stable train/val/test split: siphash(id, seed-key) mod 10^6 →
    cumulative fraction buckets (vectorized ``pd.util.hash_array`` — the
    per-row crc32 loop was the round-1 hot spot here).  Pure map — rows
    never move, assignment survives re-runs and re-partitioning."""
    import pandas as pd

    fractions = fractions or {"train": 0.9, "val": 0.05, "test": 0.05}
    names = list(fractions)
    edges = np.cumsum([fractions[n] for n in names]) * 1_000_000
    hash_key = f"{seed:016d}"[-16:]  # 16-byte siphash key derived from seed

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        if ids.dtype == object:
            h = pd.util.hash_array(ids, hash_key=hash_key)
        else:  # numeric ids: mix the seed in arithmetically (hash_key is str-only)
            h = pd.util.hash_array(ids.astype(np.uint64) + np.uint64(seed))
        h = (h % np.uint64(1_000_000)).astype(np.int64)
        idx = np.searchsorted(edges, h, side="right").clip(0, len(names) - 1)
        split = np.array(names, dtype=object)[idx]
        return batch.append_column("split", pa.array(split.tolist(), pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def pack_sequences(ds, context_len: int = 2048, tokens_col: str = "tokens",
                   id_col: str = "doc_id", drop_last: bool = False):
    """Greedy batch-local packing of token lists into fixed-length examples.

    Documents are taken in batch order; each is split across examples as
    needed (no padding between docs — GPT-style packed pretraining layout).
    Output rows: ``example_id`` (batch-local), ``tokens`` (≤ context_len,
    == context_len except possibly the final example per batch),
    ``doc_ids`` + ``doc_offsets`` marking where each document starts."""

    def pack(batch: pa.Table) -> pa.Table:
        toks = batch[tokens_col].combine_chunks()
        values = toks.values.to_numpy(zero_copy_only=False)
        offsets = toks.offsets.to_numpy().astype(np.int64)
        ids = batch[id_col].to_pylist()
        total = int(offsets[-1] - offsets[0]) if batch.num_rows else 0
        base = offsets[0]
        n_ex = total // context_len + (0 if (drop_last or total % context_len == 0) else 1)

        ex_tokens, ex_ids, ex_offs = [], [], []
        for e in range(n_ex):
            lo, hi = e * context_len, min((e + 1) * context_len, total)
            ex_tokens.append(values[base + lo : base + hi])
            # docs whose span [offsets[i], offsets[i+1]) intersects [lo, hi)
            first = int(np.searchsorted(offsets - base, lo, side="right")) - 1
            last = int(np.searchsorted(offsets - base, hi, side="left"))
            ex_ids.append(ids[first:last])
            ex_offs.append((offsets[first:last] - base - lo).clip(0).astype(np.int32))

        return pa.table(
            {
                "example_id": pa.array(np.arange(n_ex, dtype=np.int64)),
                "tokens": pa.array([t.tolist() for t in ex_tokens], pa.list_(pa.int32())),
                "n_tok": pa.array([len(t) for t in ex_tokens], pa.int32()),
                "doc_ids": pa.array(ex_ids, pa.list_(pa.string())),
                "doc_offsets": pa.array([o.tolist() for o in ex_offs], pa.list_(pa.int32())),
            }
        )

    return ds.map_batches(pack, batch_format="pyarrow")


def token_histogram(ds, tokens_col: str = "tokens", fanin: int = 8):
    """Distributed unigram histogram: per-batch ``bincount`` partials (one
    row per present token id, bounded by vocab size) → two-level
    repartition + bincount tree-merge.  A keyed groupby would sort ~vocab ×
    blocks tiny rows (measured 10 s vs 0.2 s for the tree merge at sf0.1) —
    the histogram is vocab-BOUNDED, so merging whole partials is the right
    reduction shape; raise ``fanin`` levels for vocab × fanin beyond worker
    memory."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = batch[tokens_col].combine_chunks()
        values = toks.values.to_numpy(zero_copy_only=False)
        counts = np.bincount(values, minlength=0)
        present = np.flatnonzero(counts)
        return pa.table(
            {
                "token": pa.array(present.astype(np.int32)),
                "n": pa.array(counts[present].astype(np.int64)),
            }
        )

    def merge(batch: pa.Table) -> pa.Table:
        t = batch["token"].combine_chunks().to_numpy(zero_copy_only=False)
        n = batch["n"].combine_chunks().to_numpy(zero_copy_only=False)
        counts = np.bincount(t, weights=n)
        present = np.flatnonzero(counts)
        return pa.table(
            {
                "token": pa.array(present.astype(np.int32)),
                "n": pa.array(counts[present].astype(np.int64)),
            }
        )

    part = ds.map_batches(partial, batch_format="pyarrow")
    mid = part.repartition(fanin).map_batches(merge, batch_format="pyarrow", batch_size=None)
    return mid.repartition(1).map_batches(merge, batch_format="pyarrow", batch_size=None)


def approx_global_shuffle(ds, seed: int = 42):
    """Two-level shuffle for training-example streams: randomize block order
    + an independent seeded permutation within each block.  This is the
    standard pretraining-loader approximation — O(1) memory, no all-to-all —
    vs ``ds.random_shuffle()`` which moves every row (use that when exact
    uniformity matters more than a full extra shuffle).

    Stream-order reproducibility per seed additionally requires
    ``DataContext.execution_options.preserve_order = True`` (Ray's default
    False emits blocks in completion order); the CONTENT of each emitted
    batch is seed-deterministic either way.  For a layout-independent,
    fully portable permutation see :func:`global_shuffle_rank`."""

    def perm(batch: pa.Table, seed=seed) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch
        # per-batch deterministic stream: fold batch content into the key
        first = str(batch.column(0)[0].as_py()) if batch.num_columns else "0"
        key = np.array([seed, zlib.crc32(first.encode())], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        return batch.take(pa.array(rng.permutation(n), type=pa.int64()))

    return ds.randomize_block_order(seed=seed).map_batches(
        perm, batch_format="pyarrow", batch_size=None
    )


def pack_sequences_global(ds, context_len: int = 2048,
                          tokens_col: str = "tokens",
                          id_col: str = "doc_id",
                          docs_per_window: int = 65_536):
    """Deterministic GLOBAL packing plan — the layout-independent twin of
    :func:`pack_sequences`.

    Documents are packed in ONE total order — ``(id_col, len·2³²+Σtokens)``
    — so example boundaries are a pure function of the corpus, independent
    of block layout / parallelism (``pack_sequences`` packs per block: fast
    but layout-defined; this variant is the resumable, auditable plan a
    100 TB run wants).  Returns the plan's per-example composition, one row
    per packed example: ``example_id`` (global ordinal), ``n_tok`` (==
    context_len except possibly the last), ``n_docs`` (documents the
    example intersects).  Zero-length documents occupy no span and are
    excluded.  Duplicate ids are ordered by the content tie-break; a
    remaining tie has equal length, so the plan is well-defined regardless.

    Shape (nothing here ships token payloads — only (id, length) metadata
    moves):

    1. metadata pass: (id, window, tb, len) per doc — the window is a
       MONOTONE bucket of the pack order, derived from the id's trailing
       digits (``<prefix><idx>`` ids; distinct prefixes are rank-ordered
       via a bounded tree reduction) — ``idx // docs_per_window``;
    2. :func:`~tsdat_ray.stages.carry.window_scan` over those windows (one
       constant key): per-window sort + local exclusive prefix, then window
       token totals → exclusive prefix offsets, as in ``partitioned_cumsum``;
    3. vectorized span → example expansion (``ceil(len/L)+1`` rows per
       doc), per-batch partial sums, one ``groupby(example_id)`` Sum.

    SQL twin: ``sum(len) OVER (ORDER BY id, tb ROWS UNBOUNDED PRECEDING
    …)`` + ``generate_series(s//L, (e-1)//L)`` + GROUP BY example."""
    import ray

    from .carry import exclusive_prefix_within_segments, window_scan
    from .reduce import tree_reduce

    L = int(context_len)

    def meta(b: pa.Table) -> pa.Table:
        toks = b[tokens_col].combine_chunks()
        values = toks.values.to_numpy(zero_copy_only=False).astype(np.int64)
        offsets = toks.offsets.to_numpy().astype(np.int64)
        lens = np.diff(offsets)
        cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(values)])
        sums = cs[offsets[1:]] - cs[offsets[:-1]]
        tb = lens * np.int64(2**32) + sums
        ids = b[id_col].combine_chunks()
        # vectorized "<prefix><idx>" split (one RE2 pass, no per-row python)
        parts = pc.extract_regex(ids, pattern=r"^(?P<pfx>.*?)(?P<idx>\d*)$")
        idx_str = pc.if_else(pc.equal(pc.struct_field(parts, "idx"), ""),
                             "0", pc.struct_field(parts, "idx"))
        out = pa.table({
            id_col: ids,
            "_pfx": pc.struct_field(parts, "pfx"),
            "_idx": pc.cast(idx_str, pa.int64()),
            "_tb": pa.array(tb),
            "_len": pa.array(lens),
        })
        return out.filter(pa.array(lens > 0))

    # scale-linear metadata (one row per sequence), two consumers:
    # stream to Parquet scratch instead of pinning the object store (r4)
    md = _ckpt(ds.map_batches(meta, batch_format="pyarrow"), "packmeta")

    def uniq_pfx(b: pa.Table) -> pa.Table:
        p = b["_pfx"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({"_pfx": pa.array(np.unique(p.astype("U")).tolist())})

    # levels=1: the per-block partials are already ≤|prefixes| rows each,
    # one combine hop suffices — saves a whole repartition stage of latency
    pfx_rows = tree_reduce(md.select_columns(["_pfx"]), uniq_pfx,
                           levels=1).take_all()
    ranks = {r["_pfx"]: i for i, r in enumerate(
        sorted(pfx_rows, key=lambda r: r["_pfx"]))}
    rref = ray.put(ranks)

    def assign_window(b: pa.Table) -> pa.Table:
        rk = ray.get(rref)
        p = b["_pfx"].combine_chunks().to_numpy(zero_copy_only=False)
        ix = b["_idx"].combine_chunks().to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(p, return_inverse=True)
        r = (np.array([rk[v] for v in uniq], dtype=np.int64)[inv]
             if len(uniq) else ix[:0])
        win = r * np.int64(1 << 40) + ix // np.int64(docs_per_window)
        return pa.table({
            id_col: b[id_col], "_tb": b["_tb"], "_len": b["_len"],
            "_window": pa.array(win),
            "_all": pa.array(np.zeros(b.num_rows, np.int8)),
        })

    def local_scan(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy(zero_copy_only=False).astype("U")
        tb = g["_tb"].combine_chunks().to_numpy(zero_copy_only=False)
        ln = g["_len"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((tb, ids))
        cs = np.cumsum(ln[order])
        ls = np.empty(len(ln), np.int64)
        ls[order] = cs - ln[order]
        out = {c: g[c] for c in g.column_names}
        out["_ls"] = pa.array(ls)
        # repeated on every row: robust to Ray splitting group output
        out["_wtotal"] = pa.array(np.repeat(cs[-1] if len(cs) else 0, len(ln)))
        return pa.table(out)

    def fold(starts, windows, cols):
        return {"_off": exclusive_prefix_within_segments(cols["_wtotal"],
                                                         starts)}

    withc = window_scan(md.map_batches(assign_window, batch_format="pyarrow"),
                        "_all", local_scan, ["_wtotal"], fold)

    def expand(b: pa.Table) -> pa.Table:
        s = (b["_ls"].combine_chunks().to_numpy(zero_copy_only=False)
             + b["_off"].combine_chunks().to_numpy(zero_copy_only=False))
        ln = b["_len"].combine_chunks().to_numpy(zero_copy_only=False)
        e = s + ln
        ex_lo, ex_hi = s // L, (e - 1) // L
        counts = (ex_hi - ex_lo + 1).astype(np.int64)
        total = int(counts.sum())
        if not total:
            return pa.table({"example_id": pa.array([], pa.int64()),
                             "_t": pa.array([], pa.int64()),
                             "_d": pa.array([], pa.int64())})
        heads = np.repeat(np.cumsum(counts) - counts, counts)
        within = np.arange(total, dtype=np.int64) - heads
        exs = np.repeat(ex_lo, counts) + within
        s_r, e_r = np.repeat(s, counts), np.repeat(e, counts)
        t = np.minimum(e_r, (exs + 1) * L) - np.maximum(s_r, exs * L)
        # batch-local combine: one row per distinct example this batch touches
        order = np.argsort(exs, kind="stable")
        ex_s, t_s = exs[order], t[order]
        st = np.flatnonzero(np.r_[True, ex_s[1:] != ex_s[:-1]])
        return pa.table({
            "example_id": pa.array(ex_s[st]),
            "_t": pa.array(np.add.reduceat(t_s, st)),
            "_d": pa.array(np.diff(np.r_[st, total]).astype(np.int64)),
        })

    from ray.data.aggregate import Sum

    agg = (withc.map_batches(expand, batch_format="pyarrow")
           .groupby("example_id")
           .aggregate(Sum("_t", alias_name="n_tok"),
                      Sum("_d", alias_name="n_docs")))

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "example_id": b["example_id"].combine_chunks().cast(pa.int64()),
            "n_tok": b["n_tok"].combine_chunks().cast(pa.int64()),
            "n_docs": b["n_docs"].combine_chunks().cast(pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def md5_split(ds, id_col: str = "doc_id",
              fractions: dict[str, float] | None = None):
    """Content-hash split with a PORTABLE hash: bucket by the first 8 hex
    chars of ``md5(str(id))`` compared lexicographically against cumulative
    hex thresholds (lowercase hex compare == numeric compare, so any system
    with an md5 — SQL, Spark, a shell — reproduces the assignment exactly;
    cf. ``hash_split`` which is faster but siphash-specific).  Pure map, no
    shuffle; md5 over short ids runs at C speed per call and this path is
    for portability, not the hot path."""
    import hashlib

    fractions = fractions or {"train": 0.9, "val": 0.05, "test": 0.05}
    names = list(fractions)
    cum = np.cumsum([fractions[n] for n in names])
    # threshold hex strings: first 8 md5 nibbles < hex(f * 16^8) => split i
    thresholds = [format(min(int(f * (1 << 32)), (1 << 32) - 1), "08x")
                  for f in cum[:-1]]

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        prefixes = [hashlib.md5(str(i).encode()).hexdigest()[:8] for i in ids]
        pref = np.array(prefixes, dtype="U8")
        idx = np.searchsorted(np.array(thresholds, dtype="U8"), pref,
                              side="right").clip(0, len(names) - 1)
        split = np.array(names, dtype=object)[idx]
        return batch.append_column("split", pa.array(split.tolist(), pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def length_bucket_stats(ds, tokens_col: str = "n_tok", key: str = "source",
                        edges: tuple = (64, 128, 256, 512, 1024, 2048)):
    """Sequence-length bucketing for batch scheduling: per (key, length
    bucket) counts and token totals.  Combiner push-down — each batch emits
    one row per (key, bucket), the groupby moves ≤ |keys|·|buckets| rows per
    block.  Integer sums ⇒ order-free exact combine."""
    edges_arr = np.asarray(edges, dtype=np.int64)

    def partial(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        n = b[tokens_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        bkt = np.searchsorted(edges_arr, n, side="right").astype(np.int64)
        order = np.lexsort((bkt, k))
        ks, bs, ns = k[order], bkt[order], n[order]
        st = np.flatnonzero(np.r_[True, (ks[1:] != ks[:-1]) | (bs[1:] != bs[:-1])]) \
            if len(ks) else np.zeros(0, np.int64)
        return pa.table({
            key: pa.array(ks[st] if len(st) else ks[:0]),
            "bucket": pa.array(bs[st] if len(st) else bs[:0]),
            "n_seqs": pa.array(np.diff(np.r_[st, len(ks)]).astype(np.int64)),
            "n_tokens": pa.array(np.add.reduceat(ns, st) if len(st) else ns[:0]),
        })

    def combine(g: pa.Table) -> pa.Table:
        return pa.table({
            key: g[key].slice(0, 1),
            "bucket": g["bucket"].slice(0, 1),
            "n_seqs": pa.array([int(np.sum(g["n_seqs"].combine_chunks()
                                           .to_numpy(zero_copy_only=False)))], pa.int64()),
            "n_tokens": pa.array([int(np.sum(g["n_tokens"].combine_chunks()
                                             .to_numpy(zero_copy_only=False)))], pa.int64()),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key, "bucket"]).map_groups(combine, batch_format="pyarrow"))


def mask_repeated_ngrams(ds, tokens_col: str = "tokens", id_col: str = "doc_id",
                         n: int = 8):
    """Intra-sequence repeated-n-gram statistics (the within-document half of
    Lee et al. 2022 dedup): per sequence, the number of token positions
    covered by an n-gram window whose hash already occurred EARLIER in the
    same sequence.  Pure map, no shuffle; the whole batch is processed as
    ONE flattened numpy pass — windows hash via a uint64 polynomial dot
    (wraparound multiply), boundary-crossing windows are excluded by a
    SLICED sequence-id compare (no gather), duplicate windows are found with
    one stable radix argsort of a (hash + seq·golden) mixed key — stable
    keeps window positions ascending inside each (seq, hash) group, so the
    first occurrence wins without a 3-key lexsort (measured 2.2× on a 13
    M-token block) — and covered positions accumulate through a bincount
    diff/cumsum sweep.  Hash/mix collisions can miscount masked positions
    with probability ~ w²/2⁶⁴ per block (w = windows) — negligible for a
    curation statistic."""
    B = np.uint64(1099511628211)
    GOLD = np.uint64(0x9E3779B97F4A7C15)
    powers = B ** np.arange(n, dtype=np.uint64)

    def stats(b: pa.Table) -> pa.Table:
        # bound the per-call working set: fresh Ray workers allocating
        # hundreds of MB simultaneously hit first-touch/THP stalls (measured
        # 19 s vs 1 s UDF time for identical input on a fresh 32-worker
        # pool); ~256k-token chunks keep each allocation burst arena-sized
        if b.num_rows > 2048:
            parts = [stats(b.slice(i, 2048))
                     for i in range(0, b.num_rows, 2048)]
            return pa.concat_tables(parts)
        toks = b[tokens_col].combine_chunks()
        offs = toks.offsets.to_numpy().astype(np.int64)
        base = offs[0]
        offs = offs - base
        total = int(offs[-1]) if len(offs) else 0
        # a sliced ListArray keeps the parent values buffer: rebase it
        vals = toks.values.to_numpy(zero_copy_only=False)[
            base: base + total].astype(np.uint64)
        n_rows = b.num_rows
        lens = np.diff(offs)
        n_masked = np.zeros(n_rows, dtype=np.int64)
        if total >= n:
            win = np.lib.stride_tricks.sliding_window_view(vals[:total], n)
            h = win @ powers  # uint64 wraparound polynomial hash per window
            # sequence id per window start; a window stays inside its
            # sequence iff the ids at its first and last token agree —
            # a pure slice compare, no index gather
            seq_of = np.repeat(np.arange(n_rows, dtype=np.int64), lens)
            ok = seq_of[:total - n + 1] == seq_of[n - 1:]
            s = np.flatnonzero(ok)
            hh = h[ok]
            sid = seq_of[s]
            mix = hh + sid.astype(np.uint64) * GOLD
            order = np.argsort(mix, kind="stable")
            sid_o, h_o, s_o = sid[order], hh[order], s[order]
            dup = np.r_[False, (sid_o[1:] == sid_o[:-1]) & (h_o[1:] == h_o[:-1])] \
                if len(sid_o) else np.zeros(0, bool)
            ds_, de = s_o[dup], s_o[dup] + n
            # coverage per token position: +1 at window start, -1 past end
            diff = (np.bincount(ds_, minlength=total + 1)
                    - np.bincount(de, minlength=total + 1))
            covered = np.cumsum(diff[:total]) > 0
            # reduceat needs indices < len: clip trailing-empty-sequence
            # starts; rows with lens == 0 are zeroed below anyway
            idx = np.minimum(offs[:-1], total - 1)
            n_masked = np.add.reduceat(covered.astype(np.int64), idx) \
                if n_rows else n_masked
            n_masked = np.where(lens > 0, n_masked, 0)
        return pa.table({
            id_col: b[id_col],
            "n_tok": pa.array(lens.astype(np.int64)),
            "n_masked": pa.array(n_masked),
        })

    # whole blocks: the kernel's fixed numpy passes amortize over block-sized
    # token runs; the 1024-row default would re-pay them ~17× per block
    return ds.map_batches(stats, batch_format="pyarrow", batch_size=None)


def mix_domains(ds, key: str = "source", weight_col: str = "n_chars",
                id_col: str = "doc_id",
                budget_frac_num: int = 1, budget_frac_den: int = 2,
                temperature: str = "equal"):
    """Deterministic domain-mixing sampler: downsample each ``key`` domain so
    every domain contributes an equal share of a global weight budget
    (``budget = total * num // den``, split evenly over the k domains) —
    the data-mixture step of a training corpus build.

    Pass 1 folds exact per-domain integer weight sums (bounded by the domain
    count — drained driver-side, broadcast back).  Pass 2 keeps a row iff its
    PORTABLE md5 content-hash prefix clears the domain's acceptance
    threshold ``min(floor(budget_k/weight * 2^32), 2^32-1)`` — the md5-hex
    lexicographic-compare recipe (see :func:`md5_split`), so any engine with
    an md5 reproduces the exact sample.  All threshold arithmetic is integer
    or a single IEEE double division, identical on the SQL side.

    ``temperature`` sets the mixture law (per-domain budget as a function
    of the domain's natural weight ``w_d``; budget B = total·num//den):

    * ``"equal"``   — B // k per domain (τ = 0: maximal upsampling of
      small domains; the default, the original behavior);
    * ``"sqrt"``    — B · ⌊√w_d⌋ // Σ⌊√w_j⌋ (τ = ½: the standard
      temperature-sampling compromise).  ⌊√·⌋ is over an IEEE double
      sqrt, which is CORRECTLY ROUNDED (unlike pow) — so SQL's
      ``FLOOR(SQRT(CAST(w AS DOUBLE)))`` reproduces it bit-exactly,
      keeping the sample portable where a float ``w^τ`` would not be;
    * ``"natural"`` — B · w_d // total (τ = 1: uniform keep-rate)."""
    import hashlib

    import ray

    def wsum(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        w = b[weight_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        ks = k[order]
        st = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]]) if len(ks) else np.zeros(0, np.int64)
        return pa.table({key: pa.array(ks[st] if len(st) else ks[:0]),
                         "_w": pa.array(np.add.reduceat(w[order], st)
                                        if len(st) else w[:0])})

    toks: dict[str, int] = {}
    for t in ds.select_columns([key, weight_col]).map_batches(
            wsum, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for s, w in zip(t[key].to_pylist(), t["_w"].to_pylist()):
            toks[s] = toks.get(s, 0) + w

    total = sum(toks.values())
    k_dom = len(toks)
    B = total * budget_frac_num // budget_frac_den
    if temperature == "equal":
        budget = {s: B // max(k_dom, 1) for s in toks}
    elif temperature == "sqrt":
        sq = {s: int(np.floor(np.sqrt(float(w)))) for s, w in toks.items()}
        ssum = sum(sq.values()) or 1
        budget = {s: B * sq[s] // ssum for s in toks}
    elif temperature == "natural":
        budget = {s: B * w // max(total, 1) for s, w in toks.items()}
    else:
        raise ValueError(f"unknown temperature {temperature!r}")
    thr = {s: ("ffffffff" if w == 0 else
               format(min(int(np.floor(float(budget[s]) / float(w)
                                       * 4294967296.0)),
                          4294967295), "08x"))
           for s, w in toks.items()}  # zero-weight domain: keeping it is free
    thr_ref = ray.put(thr)

    def keep(b: pa.Table) -> pa.Table:
        thr = ray.get(thr_ref)
        ids = b[id_col].to_pylist()
        pref = np.array([hashlib.md5(str(i).encode()).hexdigest()[:8]
                         for i in ids], dtype="U8")
        lim = np.array([thr[s] for s in b[key].to_pylist()], dtype="U8")
        return b.filter(pa.array(pref < lim))

    return ds.map_batches(keep, batch_format="pyarrow")


def md5_sample_topk(ds, k: int = 100, id_col: str = "doc_id",
                    carry_cols: tuple[str, ...] = ()):
    """Deterministic portable global k-sample: the k rows with the smallest
    ``md5(str(id))`` — a uniform sample that any engine (SQL, Spark, a
    shell) reproduces exactly, and that is STABLE under re-partitioning,
    appends of unrelated rows, and reruns (each row's membership depends
    only on its own id, never on arrival order — the property 'LIMIT k on
    an arbitrary scan' lacks).

    Scale shape: each block emits its local k smallest (md5, id) rows —
    ≤ k · blocks candidate rows move, never the corpus — and one tiny sort
    finalizes.  The hex-string compare equals the numeric compare
    (lowercase hex, fixed width), so the DuckDB twin is ``ORDER BY
    md5(id) LIMIT k``."""
    import hashlib

    cols = [id_col, *carry_cols]

    def local_topk(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        digests = np.array([hashlib.md5(str(i).encode()).hexdigest()
                            for i in ids], dtype="U32")
        top = np.argsort(digests, kind="stable")[:k]
        t = batch.select([c for c in cols if c in batch.column_names]).take(
            pa.array(top, type=pa.int64()))
        return t.append_column("md5_key", pa.array(digests[top].tolist(), pa.string()))

    cand = ds.map_batches(local_topk, batch_format="pyarrow")
    return cand.sort("md5_key").limit(k)


def global_shuffle_rank(ds, id_col: str = "doc_id", seed: int = 0,
                        carry_cols: tuple[str, ...] = (),
                        n_prefix_hex: int = 2,
                        strata_col: str | None = None, n_strata: int = 1,
                        pos_col: str = "shuffle_pos"):
    """Deterministic PORTABLE global shuffle: each row's position in the
    permutation defined by ordering on ``(md5(f"{seed}:{id}"), id)`` — the
    auditable, resumable twin of :func:`approx_global_shuffle` (which is
    O(1)-memory but block-layout-defined).  Any engine with an md5
    reproduces the identical permutation (``row_number() OVER (ORDER BY
    md5(...), id) - 1`` in SQL), it is stable under re-partitioning and
    reruns, and changing ``seed`` draws an independent permutation.

    Scale shape: only ``(id, md5 key, carry_cols)`` rows move — never the
    payload.  Rows bucket by the first ``n_prefix_hex`` nibbles (hex-prefix
    ranges are order-aligned with the full-key order), the 16^p-row bucket
    count table folds to exclusive prefix offsets (CONSTANT size — not key-
    cardinality-proportional driver state), and each bucket finalizes its
    ranks with one lexsort: global rank = bucket offset + local position.
    One all-to-all of the id stream, same as any true global shuffle.

    ``strata_col`` (int values in [0, n_strata)) turns this into a
    CURRICULUM ordering: positions sort first by stratum, then by the md5
    permutation within each stratum — the standard easy-to-hard schedule
    with within-stage shuffling.  SQL twin: ``row_number() OVER (ORDER BY
    stratum, md5(...), id) - 1``.  The composite bucket table stays
    constant-size (``n_strata · 16^p``)."""
    import hashlib

    import ray.data as rd

    n_hash_buckets = 16 ** n_prefix_hex
    n_buckets = n_strata * n_hash_buckets
    cols = [id_col, *carry_cols]

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        digests = np.array([hashlib.md5(f"{seed}:{i}".encode()).hexdigest()
                            for i in ids], dtype="U32")
        bkt = np.array([int(d[:n_prefix_hex], 16) for d in digests],
                       dtype=np.int64)
        if strata_col is not None:
            s = batch[strata_col].combine_chunks().cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            assert (s >= 0).all() and (s < n_strata).all(), \
                f"{strata_col} values must lie in [0, {n_strata})"
            bkt = s * np.int64(n_hash_buckets) + bkt
        t = batch.select([c for c in cols if c in batch.column_names])
        t = t.append_column("_md5", pa.array(digests.tolist(), pa.string()))
        return t.append_column("_vb", pa.array(bkt))

    # corpus-sized (full rows + md5 keys), two consumers — disk checkpoint
    withk = _ckpt(ds.map_batches(keyed, batch_format="pyarrow"), "mdkey")

    def local_counts(b: pa.Table) -> pa.Table:
        vb = b["_vb"].combine_chunks().to_numpy(zero_copy_only=False)
        cnt = np.bincount(vb, minlength=n_buckets).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({"_vb": pa.array(nz), "_c": pa.array(cnt[nz])})

    def fold_counts(g: pa.Table) -> pa.Table:
        return pa.table({
            "_vb": g["_vb"].slice(0, 1),
            "_c": pa.array([int(np.sum(g["_c"].combine_chunks()
                                       .to_numpy(zero_copy_only=False)))],
                           pa.int64()),
        })

    cnt_tab = pa.concat_tables(
        withk.select_columns(["_vb"])
        .map_batches(local_counts, batch_format="pyarrow")
        .groupby("_vb").map_groups(fold_counts, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None))
    # constant-size (16^p rows) offset fold — bounded by the bucket fanout,
    # never by corpus or key cardinality
    counts = np.zeros(n_buckets, np.int64)
    vbs = cnt_tab["_vb"].combine_chunks().to_numpy(zero_copy_only=False)
    counts[vbs] = cnt_tab["_c"].combine_chunks().to_numpy(zero_copy_only=False)
    offsets = np.r_[np.int64(0), np.cumsum(counts)[:-1]]

    def rank_bucket(g: pa.Table) -> pa.Table:
        keys = g["_md5"].combine_chunks().to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        base = offsets[int(g["_vb"][0].as_py())]
        order = np.lexsort((ids, keys))
        pos = np.empty(len(keys), np.int64)
        pos[order] = base + np.arange(len(keys))
        out = {c: g[c] for c in cols if c in g.column_names}
        out[pos_col] = pa.array(pos)
        return pa.table(out)

    return withk.groupby("_vb").map_groups(rank_bucket, batch_format="pyarrow")


def quantile_gate(ds, key: str, value_col: str, q: float = 0.25,
                  scale: int = 1, keep: str = "ge"):
    """Per-key quantile quality gate: keep rows whose ``value_col`` clears
    their key's q-th PERCENTILE_DISC threshold — the "drop the worst quartile
    of each domain" filter quality-gated corpora use (relative-to-domain, so
    a verbose domain doesn't starve a terse one).

    Two-phase, no full shuffle: the thresholds come from
    :func:`~tsdat_ray.stages.window_funcs.exact_quantiles_disc` (bounded
    tree-reduced value histograms — rows never move), the tiny per-key
    threshold table is broadcast once (``ray.put``), and the gate itself is
    a vectorized searchsorted lookup + compare per batch.  With integer
    scores (``scale=1``) the threshold is a real data value (DuckDB
    ``quantile_disc`` convention), so ``>=`` agrees bit-exactly with SQL.

    ``keep='ge'`` keeps rows with value >= threshold (quality floor);
    ``keep='le'`` keeps value <= threshold (e.g. perplexity ceiling).
    """
    import ray

    from .window_funcs import exact_quantiles_disc

    thr = exact_quantiles_disc(ds, key, value_col, qs=(q,), scale=scale)
    tb = list(thr.iter_batches(batch_format="pyarrow", batch_size=None))
    tt = pa.concat_tables(tb)
    qname = f"qd{int(round(q * 100))}"
    keys = tt[key].to_numpy(zero_copy_only=False)
    vals = tt[qname].to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    tref = ray.put((keys[order], vals[order]))
    le = keep == "le"

    def gate(batch: pa.Table) -> pa.Table:
        ks, vs = ray.get(tref)
        bk = batch[key].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, bk)
        pos = np.clip(pos, 0, len(ks) - 1)
        t = vs[pos]
        bv = batch[value_col].to_numpy(zero_copy_only=False)
        ok = (bv <= t) if le else (bv >= t)
        ok &= ks[pos] == bk  # keys never seen in pass 1 (shouldn't happen) drop
        return batch.filter(pa.array(ok))

    return ds.map_batches(gate, batch_format="pyarrow")


def token_type_ratio(ds, tokens_col: str = "tokens", id_col: str = "doc_id"):
    """Per-sequence type-token ratio — distinct tokens / length, the
    lexical-diversity diagnostic run over a tokenized pre-training corpus
    (low TTR = degenerate/repetitive sequences worth filtering).

    Pure map, one flat pass per batch: a single lexsort over (row, value)
    counts each row's distinct tokens with no per-row Python.  The ratio
    divides double-first on both sides (the DuckDB int/int law), so the SQL
    twin ``len(list_distinct(tokens)) / len(tokens)`` is hash-exact."""

    def ttr(b: pa.Table) -> pa.Table:
        toks = b[tokens_col].combine_chunks()
        vals = toks.values.to_numpy(zero_copy_only=False)
        off = toks.offsets.to_numpy().astype(np.int64)
        lens = np.diff(off)
        n = len(lens)
        rowid = np.repeat(np.arange(n, dtype=np.int64), lens)
        sel = vals[off[0]:off[-1]].astype(np.int64) if len(vals) else \
            np.zeros(0, np.int64)
        # one fused int64 key (row, value) => a single cache-friendly sort
        # instead of a two-key lexsort (~3x on 100M-token batches); values
        # are non-negative ids so the packing is collision-free
        m = int(sel.max()) + 1 if len(sel) else 1
        key = np.sort(rowid * m + sel)
        newv = np.r_[True, key[1:] != key[:-1]] if len(key) else \
            np.zeros(0, bool)
        n_types = np.zeros(n, np.int64)
        np.add.at(n_types, (key[newv] // m), 1)
        return pa.table({
            id_col: b[id_col],
            "n_tok_actual": pa.array(lens),
            "n_types": pa.array(n_types),
            "ttr": pa.array(n_types.astype(np.float64) / lens.astype(np.float64)),
        })

    return ds.map_batches(ttr, batch_format="pyarrow")


def hrw_assign(ds, n_shards: int = 16, id_col: str = "doc_id",
               seed: int = 0, carry_cols: tuple[str, ...] = ()):
    """Rendezvous (highest-random-weight) sharding: each row goes to the
    shard maximizing ``md5(f"{seed}:{id}:{shard}")`` — the classic HRW
    scheme (Thaler & Ravishankar '98) behind consistent cache/storage
    placement: adding or removing a shard moves ONLY the rows whose argmax
    changed (~1/n of the corpus), never triggers a full reshuffle, and any
    engine with an md5 reproduces the identical assignment (lowercase fixed-
    width hex compares lexicographically == numerically — the portable-hash
    recipe).  Ties (2⁻¹²⁸-improbable) break to the smaller shard id.

    Scale shape: a pure stateless map — no shuffle, no broadcast, no state;
    the hash loop is n_shards · rows md5 calls per batch (n_shards is small
    by construction).  SQL twin: ``QUALIFY row_number() OVER (PARTITION BY
    id ORDER BY md5(...) DESC, shard) = 1`` over a range cross join."""
    import hashlib

    cols = [id_col, *carry_cols]

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        n = len(ids)
        best_key = np.full(n, "", dtype="U32")
        best_s = np.zeros(n, dtype=np.int64)
        for s in range(n_shards):
            suf = f":{s}"
            keys = np.array(
                [hashlib.md5(f"{seed}:{i}{suf}".encode()).hexdigest()
                 for i in ids], dtype="U32")
            win = keys > best_key  # strict: ties keep the earlier (smaller) s
            best_key[win] = keys[win]
            best_s[win] = s
        t = batch.select([c for c in cols if c in batch.column_names])
        return t.append_column("shard", pa.array(best_s))

    return ds.map_batches(assign, batch_format="pyarrow")


def weighted_sample_topk(ds, k: int = 100, id_col: str = "doc_id",
                         weight_col: str = "n_chars",
                         carry_cols: tuple[str, ...] = (), seed: int = 0):
    """Deterministic portable WEIGHTED sample without replacement: the k
    rows with the smallest priority key ``md5_u48(f"{seed}:{id}") //
    max(weight, 1)`` — the integer-division analogue of the
    Efraimidis–Spirakis exponential-jitter scheme (u^(1/w) keys), chosen
    because floor division over a 48-bit uniform is EXACTLY reproducible in
    any engine (no libm pow/log ULP drift): heavier rows get stochastically
    smaller keys (inclusion odds ∝ weight for weights ≪ 2⁴⁸), membership
    depends only on the row itself (stable under repartitioning, appends,
    reruns), and changing ``seed`` redraws independently.

    Scale shape: each block ships only its local k smallest (key, row)
    survivors — ≤ k·blocks rows move — and one tiny sort finalizes.  SQL
    twin: ``ORDER BY CAST('0x' || substr(md5(...), 1, 12) AS BIGINT) //
    GREATEST(w, 1), id LIMIT k``."""
    import hashlib

    cols = [id_col, weight_col, *carry_cols]

    def local_topk(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        w = np.maximum(
            batch[weight_col].combine_chunks().cast(pa.int64()).to_numpy(
                zero_copy_only=False), 1)
        u48 = np.array(
            [int(hashlib.md5(f"{seed}:{i}".encode()).hexdigest()[:12], 16)
             for i in ids], dtype=np.int64)
        key = u48 // w
        top = np.lexsort((np.asarray(ids), key))[:k]
        t = batch.select([c for c in cols if c in batch.column_names]).take(
            pa.array(top, type=pa.int64()))
        return t.append_column("wkey", pa.array(key[top]))

    cand = ds.map_batches(local_topk, batch_format="pyarrow")
    return cand.sort(["wkey", id_col]).limit(k)


def token_entropy(ds, tokens_col: str = "tokens", id_col: str = "doc_id",
                  scale: float = 1e9):
    """Per-sequence Shannon entropy (nats) of the token-id distribution —
    the tokenized-corpus twin of stages.text.word_entropy (low entropy =
    degenerate/repetitive sequences; complements token_type_ratio, which
    only counts distinct ids).

    Pure map: the same fused (row, value) int64-key sort as
    token_type_ratio, but keeping RUN LENGTHS (per-(seq, token) counts);
    per-term doubles use the DuckDB expression tree (double-first division,
    ln, half-away rounding at 1e9) and fold as exact int64s."""
    from .text_quant import half_away  # shared rounding helper

    def ent(b: pa.Table) -> pa.Table:
        toks = b[tokens_col].combine_chunks()
        vals = toks.values.to_numpy(zero_copy_only=False)
        off = toks.offsets.to_numpy().astype(np.int64)
        lens = np.diff(off)
        n = len(lens)
        rowid = np.repeat(np.arange(n, dtype=np.int64), lens)
        sel = vals[off[0]:off[-1]].astype(np.int64) if len(vals) else \
            np.zeros(0, np.int64)
        m = int(sel.max()) + 1 if len(sel) else 1
        key = np.sort(rowid * m + sel)
        if len(key):
            starts = np.r_[True, key[1:] != key[:-1]]
            run_row = key[starts] // m
            idx = np.flatnonzero(starts)
            c = np.diff(np.r_[idx, len(key)]).astype(np.int64)
            p = c.astype(np.float64) / lens[run_row].astype(np.float64)
            q = half_away(-(p * np.log(p)) * scale)
            qsum = np.bincount(run_row, weights=q, minlength=n)
        else:
            qsum = np.zeros(n, np.float64)
        return pa.table({
            id_col: b[id_col],
            "n_tok_actual": pa.array(lens),
            "entropy": pa.array(qsum / scale),
        })

    return ds.map_batches(ent, batch_format="pyarrow")


def topk_token_bigrams(ds, k: int = 50, tokens_col: str = "tokens"):
    """EXACT top-k adjacent token-id pairs over the tokenized corpus — the
    BPE pair-count statistic computed at corpus scale (ties → smaller
    (a, b) pair, a total order).

    One flat pass per batch: adjacent pairs inside each sequence fuse into
    a single int64 key (a·2³¹ + b — token ids are int32), np.unique gives
    per-block partial counts (one row per DISTINCT pair per block), one
    keyed fold by pair sums exactly, and only ``reduce.WIDTH`` × k
    candidates reach the final merge (the topk_words shape on the list
    column)."""

    def partial(b: pa.Table) -> pa.Table:
        toks = b[tokens_col].combine_chunks()
        vals = toks.values.to_numpy(zero_copy_only=False).astype(np.int64)
        off = toks.offsets.to_numpy().astype(np.int64)
        base = off[0]
        lens = np.diff(off)
        n = len(lens)
        sel = vals[base:off[-1]] if len(vals) else np.zeros(0, np.int64)
        if len(sel) > 1:
            a, bb = sel[:-1], sel[1:]
            # mask pairs that straddle a sequence boundary; zero-length
            # leading sequences yield boundary index -1 which would wrap
            # to the LAST valid pair — drop non-positive indices
            ends = np.cumsum(lens)[:-1] - 1 if n > 1 else np.zeros(0, np.int64)
            ends = ends[ends >= 0]
            m = np.ones(len(a), bool)
            m[ends] = False
            fused = a[m] * (1 << 31) + bb[m]
            uf, cnt = np.unique(fused, return_counts=True)
        else:
            uf = np.zeros(0, np.int64)
            cnt = np.zeros(0, np.int64)
        return pa.table({"_p": pa.array(uf), "n": pa.array(cnt.astype(np.int64))})

    def part_topk(g: pa.Table) -> pa.Table:
        # numpy sort+reduceat fold (pandas groupby cost ~2x on the
        # millions of per-block partials a fold call holds; r4)
        p = g["_p"].combine_chunks().to_numpy(zero_copy_only=False)
        n = g["n"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(p, kind="stable")
        ps, ns = p[order], n[order]
        st = np.flatnonzero(np.r_[True, ps[1:] != ps[:-1]]) \
            if len(ps) else np.zeros(0, np.int64)
        pu = ps[st]
        tot = np.add.reduceat(ns, st) if len(st) else ns[:0]
        sel = np.lexsort((pu, -tot))[:k]  # (n DESC, pair ASC), exact ties
        return pa.table({"_p": pa.array(pu[sel]),
                         "n": pa.array(tot[sel])})

    cand = keyed_fold(ds.map_batches(partial, batch_format="pyarrow"), "_p",
                      part_topk)
    tabs = list(cand.iter_batches(batch_format="pyarrow", batch_size=None))
    cat = pa.concat_tables(tabs) if tabs else pa.table(
        {"_p": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})
    df = cat.to_pandas().sort_values(["n", "_p"], ascending=[False, True],
                                     kind="stable").head(k)
    import ray.data as rd

    p = df["_p"].to_numpy(np.int64)
    return rd.from_arrow(pa.table({
        "tok_a": pa.array((p >> 31).astype(np.int64)),
        "tok_b": pa.array((p & ((1 << 31) - 1)).astype(np.int64)),
        "n": pa.array(df["n"].to_numpy(np.int64)),
    }))
