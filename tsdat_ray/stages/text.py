"""Text-analysis stages for training-data pipelines: token counting, quality
scoring, language ID, document fingerprinting.

All are vectorized ``map_batches`` stages; language ID and fingerprinting are
actor-pool classes (regexes / profile tables compiled once per actor)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .reduce import keyed_fold
from .spill import checkpoint as _ckpt


def token_count_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Whitespace token count (split on single spaces — mirrors the SQL oracle
    ``len(string_split(text, ' '))``)."""
    counts = pc.list_value_length(pc.split_pattern(batch[text_col], " "))
    return pa.table({id_col: batch[id_col], "n_ws_tokens": pc.cast(counts, pa.int64())})


def quality_score_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Cheap quality heuristics: length, word count, punctuation / digit /
    uppercase ratios, mean word length."""
    text = batch[text_col]
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    words = pc.split_pattern_regex(text, r"\s+")
    n_words = pc.cast(pc.list_value_length(words), pa.int64())
    n_punct = pc.cast(pc.utf8_length(pc.replace_substring_regex(text, r"[^.,;:!?]", "")), pa.float64())
    n_digit = pc.cast(pc.utf8_length(pc.replace_substring_regex(text, r"[^0-9]", "")), pa.float64())
    n_upper = pc.cast(pc.utf8_length(pc.replace_substring_regex(text, r"[^A-Z]", "")), pa.float64())
    denom = pc.max_element_wise(pc.cast(n_chars, pa.float64()), pa.scalar(1.0))
    return pa.table(
        {
            id_col: batch[id_col],
            "n_chars": n_chars,
            "n_words": n_words,
            "punct_ratio": pc.divide(n_punct, denom),
            "digit_ratio": pc.divide(n_digit, denom),
            "upper_ratio": pc.divide(n_upper, denom),
        }
    )


class BPEishTokenCounter:
    """GPT-2-style pre-tokenizer regex token count (compiled once per actor).

    ``PATTERN_RE2`` drops the ``(?!\\S)`` lookahead so the same pattern runs
    under RE2 engines (e.g. DuckDB ``regexp_extract_all``) — verified
    count-identical to Python ``re`` on the test corpora."""

    PATTERN = r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+(?!\S)|\s+"
    PATTERN_RE2 = r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+"

    def __init__(self, text_col: str = "text", id_col: str = "doc_id", pattern: str | None = None):
        import re

        self.pattern = pattern or self.PATTERN
        self.rx = re.compile(self.pattern)
        self.text_col = text_col
        self.id_col = id_col
        # Arrow fast path: one RE2 kernel pass over the whole column instead
        # of a python findall per row.  RE2 rejects lookaheads and treats \s
        # as ASCII (python re is unicode) — so the kernel must (a) compile
        # and (b) agree with python on a sample; verified per batch on the
        # first 64 rows, dropped permanently on the first disagreement.
        try:
            pc.count_substring_regex(pa.array(["probe 't x9 !"]), self.pattern)
            self._arrow_ok: bool | None = None  # unverified yet
        except pa.ArrowInvalid:
            self._arrow_ok = False

    def _python_counts(self, texts, count: int) -> np.ndarray:
        return np.fromiter(
            (len(self.rx.findall(s or "")) for s in texts),
            dtype=np.int64, count=count,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch[self.text_col].combine_chunks(), "")
        if self._arrow_ok is not False:
            vals = pc.count_substring_regex(col, self.pattern).to_numpy(
                zero_copy_only=False).astype(np.int64)
            if self._arrow_ok is None:
                probe = col.slice(0, 64).to_pylist()
                self._arrow_ok = bool(
                    (self._python_counts(probe, len(probe)) == vals[:len(probe)]).all())
            if self._arrow_ok:
                return pa.table({self.id_col: batch[self.id_col],
                                 "n_bpe_tokens": pa.array(vals)})
        vals = self._python_counts(col.to_pylist(), batch.num_rows)
        return pa.table({self.id_col: batch[self.id_col], "n_bpe_tokens": pa.array(vals)})


class LangId:
    """N-gram-profile language-ID heuristic over a small built-in stopword /
    trigram table (en/de/fr/es) — a deterministic fake for the real model the
    container lacks, with the actor-pool plumbing real."""

    PROFILES = {
        "en": {" the ", " and ", " of ", " to ", " is ", " in ", "tion", " that "},
        "de": {" der ", " und ", " die ", " das ", " ist ", " nicht", "sch", " ein "},
        "fr": {" le ", " la ", " et ", " les ", " des ", " est ", " une ", " que "},
        "es": {" el ", " la ", " de ", " los ", " es ", " una ", " que ", "ción"},
    }

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    def classify(self, s: str) -> tuple[str, float]:
        s = " " + (s or "").lower() + " "
        best, best_score = "und", 0
        for lang, grams in self.PROFILES.items():
            score = sum(s.count(g) for g in grams)
            if score > best_score:
                best, best_score = lang, score
        denom = max(1, len(s.split()))
        return best, min(1.0, best_score / denom)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized: one ``pc.count_substring`` kernel per profile gram
        (32 column passes) instead of n_rows × 32 python ``str.count``
        calls; first-max argmax reproduces the scalar tie-break (pinned
        bit-identical in tests/test_round2b_ops.py)."""
        n = batch.num_rows
        col = batch[self.text_col].combine_chunks()
        lowered = pc.utf8_lower(pc.fill_null(col, ""))
        pad = pa.array(np.full(n, " ", dtype=object), pa.string())
        padded = pc.binary_join_element_wise(pad, lowered, pad, "")
        scores = np.zeros((len(self.PROFILES), n), dtype=np.int64)
        for li, grams in enumerate(self.PROFILES.values()):
            for g in grams:
                scores[li] += pc.count_substring(padded, g).to_numpy(
                    zero_copy_only=False).astype(np.int64)
        best = np.argmax(scores, axis=0)  # first max wins == dict order
        best_score = scores[best, np.arange(n)]
        names = np.array(list(self.PROFILES), dtype=object)
        langs = np.where(best_score > 0, names[best], "und")
        # denom = word count of the padded text (len(s.split()))
        words = pc.count_substring_regex(padded, r"\S+").to_numpy(
            zero_copy_only=False).astype(np.int64)
        confs = np.minimum(1.0, best_score / np.maximum(1, words))
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "lang_pred": pa.array(langs.tolist(), pa.string()),
                "lang_conf": pa.array(confs),
            }
        )


class Fingerprinter:
    """Rolling-hash document fingerprint (winnowing-style: min rolling hash
    per window) — stable under small edits, cheap to compare."""

    def __init__(self, k: int = 8, window: int = 16, text_col: str = "text", id_col: str = "doc_id"):
        self.k = k
        self.window = window
        self.text_col = text_col
        self.id_col = id_col

    def fingerprint(self, s: str) -> np.uint64:
        b = (s or "").encode("utf-8", "ignore")
        if len(b) < self.k:
            b = b + b"\x00" * (self.k - len(b))
        a = np.frombuffer(b, dtype=np.uint8).astype(np.uint64)
        h = np.zeros(len(a) - self.k + 1, dtype=np.uint64)
        for j in range(self.k):
            h = h * np.uint64(1099511628211) + a[j : len(a) - self.k + 1 + j]
        # winnow: min hash per sliding window, xor-combine the selected set
        if len(h) <= self.window:
            sel = np.array([h.min()], dtype=np.uint64)
        else:
            sw = np.lib.stride_tricks.sliding_window_view(h, self.window)
            sel = np.unique(sw.min(axis=1))
        with np.errstate(over="ignore"):  # wraparound is the hash semantics
            mixed = sel * np.uint64(0x9E3779B97F4A7C15)
        return np.bitwise_xor.reduce(mixed) if len(mixed) else np.uint64(0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """One flattened pass over the batch (bit-identical to the scalar
        :meth:`fingerprint` — pinned in tests/test_round2b_ops.py): a global
        rolling k-byte hash over the column's concatenated utf-8 buffer,
        ONE sliding-window-min sweep, per-doc window selection from the
        Arrow offsets, lexsort dedup + xor-reduceat.  Only docs shorter
        than k bytes (zero-padded, rare) take a per-row path."""
        from .dedup import _string_column_bytes

        k, w = self.k, self.window
        base = np.uint64(1099511628211)
        offs, data = _string_column_bytes(batch[self.text_col])
        n = len(offs) - 1
        lens = np.diff(offs)
        if len(data) >= k:
            d64 = data.astype(np.uint64)
            with np.errstate(over="ignore"):
                h_all = np.zeros(len(data) - k + 1, dtype=np.uint64)
                for j in range(k):
                    h_all = h_all * base + d64[j: len(data) - k + 1 + j]
        else:
            h_all = np.zeros(0, np.uint64)
        n_h = np.where(lens >= k, lens - k + 1, 0).astype(np.int64)
        long = lens >= k
        small = long & (n_h <= w)   # sel = [min of the doc's hashes]
        big = long & (n_h > w)      # sel = unique sliding-window mins
        pairs_doc, pairs_val = [], []
        if small.any():
            idx = np.flatnonzero(small)
            cnt = n_h[idx]
            heads = np.cumsum(cnt) - cnt
            within = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(heads, cnt)
            hv = h_all[np.repeat(offs[idx], cnt) + within]
            pairs_doc.append(idx)
            pairs_val.append(np.minimum.reduceat(hv, heads))
        if big.any():
            sw_min = np.lib.stride_tricks.sliding_window_view(h_all, w).min(axis=1)
            idx = np.flatnonzero(big)
            cnt = n_h[idx] - w + 1   # windows per doc
            heads = np.cumsum(cnt) - cnt
            within = np.arange(int(cnt.sum()), dtype=np.int64) - np.repeat(heads, cnt)
            pairs_doc.append(np.repeat(idx, cnt))
            pairs_val.append(sw_min[np.repeat(offs[idx], cnt) + within])
        short_idx = np.flatnonzero(~long)
        if len(short_idx):
            sh = np.empty(len(short_idx), dtype=np.uint64)
            for t, d in enumerate(short_idx):  # rare: only docs under k bytes
                b = np.r_[data[offs[d]:offs[d + 1]].astype(np.uint64),
                          np.zeros(k - lens[d], np.uint64)]
                hh = np.uint64(0)
                with np.errstate(over="ignore"):
                    for j in range(k):
                        hh = hh * base + b[j]
                sh[t] = hh
            pairs_doc.append(short_idx)
            pairs_val.append(sh)
        out = np.zeros(n, dtype=np.uint64)
        if pairs_doc:
            dids = np.concatenate(pairs_doc)
            vals = np.concatenate(pairs_val)
            order = np.lexsort((vals, dids))
            ds_, vs = dids[order], vals[order]
            keep = np.r_[True, (ds_[1:] != ds_[:-1]) | (vs[1:] != vs[:-1])] \
                if len(ds_) else np.zeros(0, bool)
            ds_, vs = ds_[keep], vs[keep]
            with np.errstate(over="ignore"):
                mixed = vs * np.uint64(0x9E3779B97F4A7C15)
            starts = np.flatnonzero(np.r_[True, ds_[1:] != ds_[:-1]]) \
                if len(ds_) else np.zeros(0, np.int64)
            if len(starts):
                out[ds_[starts]] = np.bitwise_xor.reduceat(mixed, starts)
        return pa.table({self.id_col: batch[self.id_col], "fingerprint": pa.array(out)})


def word_gram_hashes(batch: pa.Table, n: int, text_col: str = "text"):
    """64-bit hashes of every word n-gram in the batch, one hash pass.

    Splits on single spaces (``string_split(text, ' ')`` semantics), siphashes
    the batch's flattened word array ONCE (``pd.util.hash_array`` — process-
    independent, so hashes agree across workers), then rolls an n-term
    polynomial combine so equal n-grams hash equal and a cross-gram collision
    is ~m²/2⁶⁵ per corpus slice — effectively exact.

    Returns ``(gram_hash uint64[], doc_index int64[])`` where ``doc_index``
    is the row index within the batch; docs with fewer than n words
    contribute no grams (mirrors the SQL lateral-range twin)."""
    import pandas as pd

    words = pc.split_pattern(batch[text_col].combine_chunks(), " ")
    words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
    lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = np.asarray(words.flatten().to_pandas(), dtype=object)
    h = pd.util.hash_array(flat).astype(np.uint64)
    docix = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    m = len(h) - n + 1
    if m <= 0:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    combo = np.zeros(m, dtype=np.uint64)
    mult = np.uint64(0x9E3779B97F4A7C15)
    for j in range(n):
        combo = combo * mult + h[j: m + j]
    same_doc = docix[:m] == docix[n - 1:]
    return combo[same_doc], docix[:m][same_doc]


def repetition_batch(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id", n: int = 3) -> pa.Table:
    """Gopher-style within-document repetition signal (Rae et al. 2021,
    "duplicate n-gram fraction" family): per doc, total word n-gram
    positions, distinct n-grams, and the duplicate fraction
    ``1.0 - distinct/total`` (spelled identically in the SQL oracle so both
    sides compute the same IEEE double — no rounding contract needed).

    Fully vectorized: one hash pass over the batch's words
    (``word_gram_hashes``), one lexsort over (doc, gram).  Docs with fewer
    than n words emit no row (their SQL GROUP BY has no gram rows)."""
    grams, gdoc = word_gram_hashes(batch, n, text_col)
    ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
    if not len(grams):
        return pa.table({id_col: pa.array([], pa.int64()),
                         "n_grams": pa.array([], pa.int64()),
                         "n_distinct": pa.array([], pa.int64()),
                         "dup_frac": pa.array([], pa.float64())})
    order = np.lexsort((grams, gdoc))
    gs, ds_ = grams[order], gdoc[order]
    first = np.r_[True, (ds_[1:] != ds_[:-1]) | (gs[1:] != gs[:-1])]
    tot = np.bincount(gdoc, minlength=len(ids)).astype(np.int64)
    uniq = np.bincount(ds_[first], minlength=len(ids)).astype(np.int64)
    nz = np.flatnonzero(tot > 0)
    return pa.table({
        id_col: pa.array(ids[nz]),
        "n_grams": pa.array(tot[nz]),
        "n_distinct": pa.array(uniq[nz]),
        "dup_frac": pa.array(1.0 - uniq[nz] / tot[nz], pa.float64()),
    })


def topk_bigrams(ds, k: int = 50, text_col: str = "text"):
    """EXACT global top-k adjacent word PAIRS by count (the first step of
    BPE-style tokenizer training / collocation mining).  Pairs never cross
    document boundaries; empty split artifacts are dropped before pairing so
    "a. b" and "a b" yield the same bigram.  Ties break by bigram ascending.

    Same scale shape as :func:`topk_words`: per-block partial counts (the
    shuffle carries one row per (block, distinct bigram), not per token),
    one keyed fold by bigram sums partials, per-call top-k is globally
    sufficient, ``reduce.WIDTH * k`` candidates reach the merge."""
    import pyarrow.compute as pc

    def partial_counts(batch: pa.Table) -> pa.Table:
        w = pc.split_pattern_regex(
            pc.utf8_lower(pc.coalesce(batch[text_col].combine_chunks(), "")),
            r"[^0-9a-z]+",
        )
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        flat = w.flatten()
        offs = w.offsets.to_numpy()
        ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        docid = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
        idx = np.flatnonzero(ne)
        keepdoc = docid[idx]
        adj = keepdoc[1:] == keepdoc[:-1] if len(idx) else np.zeros(0, bool)
        li = idx[:-1][adj] if len(idx) else idx[:0]
        ri = idx[1:][adj] if len(idx) else idx[:0]
        pair = pc.binary_join_element_wise(
            flat.take(pa.array(li, pa.int64())),
            flat.take(pa.array(ri, pa.int64())), " ")
        d = pair.dictionary_encode()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.bincount(codes, minlength=len(d.dictionary))
        return pa.table({"bigram": d.dictionary.cast(pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})

    def part_topk(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby("bigram", as_index=False)["n"].sum()
        df = df.sort_values(["n", "bigram"], ascending=[False, True],
                            kind="stable").head(k)
        return pa.Table.from_pandas(df[["bigram", "n"]], preserve_index=False)

    cand = keyed_fold(ds.map_batches(partial_counts, batch_format="pyarrow"),
                      "bigram", part_topk)
    tabs = list(cand.iter_batches(batch_format="pyarrow"))
    cat = pa.concat_tables(tabs) if tabs else pa.table(
        {"bigram": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    df = cat.to_pandas().sort_values(["n", "bigram"], ascending=[False, True],
                                     kind="stable").head(k)
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df.reset_index(drop=True),
                                              preserve_index=False))


def topk_words(ds, k: int = 50, text_col: str = "text"):
    """EXACT global top-k words by count (ties broken by word ascending —
    a total order, so the result is deterministic and SQL-matchable).

    Scale shape: per-block PARTIAL counts first (Arrow C split + dictionary
    encode; the shuffle then carries one row per (block, distinct word), not
    per token), one keyed fold by word sums partials — each word lives
    wholly in one fold call, so a per-call top-k is globally sufficient —
    and only ``reduce.WIDTH * k`` candidate rows reach the final merge."""
    import pyarrow.compute as pc

    def partial_counts(batch: pa.Table) -> pa.Table:
        w = pc.split_pattern_regex(
            pc.utf8_lower(pc.coalesce(batch[text_col].combine_chunks(), "")),
            r"[^0-9a-z]+",
        )
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        flat = w.flatten()
        d = flat.dictionary_encode()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.bincount(codes, minlength=len(d.dictionary))
        words = d.dictionary.to_pandas().to_numpy()
        keep = words != ""  # boundary-split artifacts
        return pa.table({"word": pa.array(words[keep], pa.string()),
                         "n": pa.array(cnt[keep].astype(np.int64))})

    def part_topk(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby("word", as_index=False)["n"].sum()
        df = df.sort_values(["n", "word"], ascending=[False, True], kind="stable").head(k)
        return pa.Table.from_pandas(df[["word", "n"]], preserve_index=False)

    cand = keyed_fold(ds.map_batches(partial_counts, batch_format="pyarrow"),
                      "word", part_topk)
    tabs = list(cand.iter_batches(batch_format="pyarrow"))
    cat = pa.concat_tables(tabs) if tabs else pa.table(
        {"word": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    df = cat.to_pandas().sort_values(["n", "word"], ascending=[False, True],
                                     kind="stable").head(k)
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df.reset_index(drop=True),
                                              preserve_index=False))


def oov_rate(ds, vocab_k: int = 256, text_col: str = "text",
             id_col: str = "doc_id"):
    """Per-document out-of-vocabulary rate against the EXACT global top-k
    vocabulary (the tokenizer-coverage / quality signal used to gate training
    corpora).

    Two streaming passes over the corpus:

    1. vocabulary = :func:`topk_words` (count DESC, word ASC total order —
       the bounded keyed-fold exact merge, never a full-vocab
       broadcast: only ``k`` words come back to the driver);
    2. the k-word vocabulary is broadcast once (``ray.put``) and each batch
       is scored with one Arrow split kernel + one ``pc.is_in`` membership
       pass + ``np.add.reduceat`` over the list offsets — no per-row Python.

    Integer outputs (n_words, n_oov) and an int/int double division (DuckDB
    converts both operands first, numpy does the same here) keep the whole
    contract hash-exact vs the SQL twin.  Word split contract is identical
    to ``topk_words``: lowercase, ``[^0-9a-z]+`` separators, '' dropped.
    """
    import ray

    vb = list(topk_words(ds, k=vocab_k, text_col=text_col).iter_batches(
        batch_format="pyarrow", batch_size=None))
    vocab = pa.concat_tables(vb)["word"].combine_chunks() if vb else pa.array(
        [], pa.string())
    vref = ray.put(vocab)

    def score(batch: pa.Table) -> pa.Table:
        voc = ray.get(vref)
        w = pc.split_pattern_regex(
            pc.utf8_lower(pc.coalesce(batch[text_col].combine_chunks(), "")),
            r"[^0-9a-z]+",
        )
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        flat = w.flatten()
        offs = w.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        valid = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        inv = pc.is_in(flat, value_set=voc).to_numpy(zero_copy_only=False)
        oov = valid & ~inv
        # reduceat over [start, end) word ranges; empty ranges must yield 0
        n_rows = batch.num_rows
        n_words = np.zeros(n_rows, dtype=np.int64)
        n_oov = np.zeros(n_rows, dtype=np.int64)
        lens = offs[1:] - offs[:-1]
        nz = lens > 0
        if nz.any():
            st = offs[:-1][nz]
            n_words[nz] = np.add.reduceat(valid.astype(np.int64), st)
            n_oov[nz] = np.add.reduceat(oov.astype(np.int64), st)
        rate = (n_oov * 1.0) / np.maximum(n_words, 1)
        return pa.table({
            id_col: batch[id_col],
            "n_words": pa.array(n_words),
            "n_oov": pa.array(n_oov),
            "oov_rate": pa.array(rate),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def chunk_documents(ds, id_col: str = "doc_id", text_col: str = "text",
                    chunk_len: int = 512, stride: int = 400):
    """Overlapping character-window chunking (the RAG / context-window prep
    op): one output row per (doc, chunk) with ``chunk_idx``, the chunk text
    and its start offset.  Chunks start at 0, stride, 2·stride … while the
    start is inside the document (every doc yields ≥1 chunk, so empty docs
    survive as one empty chunk — the SQL twin's semantics).  Pure flat-map
    expansion (the Dataset-native row multiplier): zero shuffle, output
    rows ≈ rows · len/stride, each batch expands with vectorized Arrow
    ``utf8_slice_codeunits`` — no per-row Python on the text itself."""

    def expand(b: pa.Table) -> pa.Table:
        txt = b[text_col].combine_chunks()
        nchars = pc.utf8_length(txt).to_numpy(zero_copy_only=False).astype(np.int64)
        # a chunk starts at k*stride only while k*stride < len (or k == 0)
        n_chunks = np.where(nchars > 0, (nchars - 1) // stride + 1, 1)
        rows = np.repeat(np.arange(len(nchars)), n_chunks)
        idx = np.arange(len(rows)) - np.repeat(
            np.cumsum(n_chunks) - n_chunks, n_chunks)
        starts = idx * stride
        taken = txt.take(pa.array(rows, type=pa.int64()))
        if isinstance(taken, pa.ChunkedArray):
            taken = taken.combine_chunks()
        # utf8_slice_codeunits takes scalar start/stop — slice one distinct
        # offset group at a time (≤ max chunks per doc groups), then scatter
        # back with one inverse-permutation take
        parts, order_parts = [], []
        for off in np.unique(starts):
            sel = np.flatnonzero(starts == off)
            sub = taken.take(pa.array(sel, type=pa.int64()))
            if isinstance(sub, pa.ChunkedArray):
                sub = sub.combine_chunks()
            part = pc.utf8_slice_codeunits(
                sub, start=int(off), stop=int(off) + chunk_len)
            parts.append(part)
            order_parts.append(sel)
        if parts:
            order_all = np.concatenate(order_parts)
            inv = np.empty(len(order_all), dtype=np.int64)
            inv[order_all] = np.arange(len(order_all))
            chunk_arr = pa.concat_arrays(parts).take(pa.array(inv))
        else:
            chunk_arr = pa.array([], pa.string())
        return pa.table({
            id_col: b[id_col].take(pa.array(rows, type=pa.int64())),
            "chunk_idx": pa.array(idx.astype(np.int64)),
            "chunk_start": pa.array(starts.astype(np.int64)),
            "chunk_text": chunk_arr,
        })

    return ds.map_batches(expand, batch_format="pyarrow")


def fit_bigram_lm(ds, text_col: str = "text", fanin: int = 8):
    """Corpus-level bigram language model counts (the perplexity-filter
    shape: fit cheap n-gram stats, score every doc, drop the tail).

    Returns ``(uni_h, uni_c, bi_h, bi_c, vocab_size)``: sorted uint64 word /
    bigram hash arrays with counts, built from per-batch partial counts
    folded through a tree reduction (shuffle rows bounded by distinct
    hashes per block, never corpus words).  Hash-keyed counts make lookup a
    searchsorted — a cross-word collision (~V²/2⁶⁴) only perturbs smoothing
    noise.  At 100 TB, cap the table with heavy-hitters (Misra-Gries in
    stages/sketch.py) and treat the tail as OOV — the smoothing term
    already handles unseen mass."""
    import pandas as pd

    from .reduce import tree_reduce

    def partial(b: pa.Table) -> pa.Table:
        if "_h" in b.column_names:  # fold of partials
            h = b["_h"].combine_chunks().to_numpy(zero_copy_only=False)
            c = b["_c"].combine_chunks().to_numpy(zero_copy_only=False)
            w = b["_kind"].combine_chunks().to_numpy(zero_copy_only=False)
        else:
            words = pc.split_pattern(b[text_col].combine_chunks(), " ")
            words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
            lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
            flat = np.asarray(words.flatten().to_pandas(), dtype=object)
            uh = pd.util.hash_array(flat).astype(np.uint64)
            docix = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
            m = len(uh) - 1
            mult = np.uint64(0x9E3779B97F4A7C15)
            if m > 0:
                bh = uh[:m] * mult + uh[1:]
                bh = bh[docix[:m] == docix[1:]]
            else:
                bh = np.zeros(0, np.uint64)
            h = np.r_[uh, bh]
            w = np.r_[np.zeros(len(uh), np.int8), np.ones(len(bh), np.int8)]
            c = np.ones(len(h), dtype=np.int64)
        order = np.lexsort((h, w))
        ws, hs, cs = w[order], h[order], c[order]
        chg = np.r_[True, (ws[1:] != ws[:-1]) | (hs[1:] != hs[:-1])] if len(ws) else np.zeros(0, bool)
        st = np.flatnonzero(chg)
        return pa.table({"_kind": pa.array(ws[st] if len(st) else ws[:0]),
                         "_h": pa.array(hs[st] if len(st) else hs[:0]),
                         "_c": pa.array(np.add.reduceat(cs, st) if len(st) else cs[:0])})

    agg = tree_reduce(ds.select_columns([text_col]), partial, fanin=fanin)
    hs, cs, ws = [], [], []
    for b in agg.iter_batches(batch_format="pyarrow", batch_size=None):
        hs.append(b["_h"].combine_chunks().to_numpy(zero_copy_only=False))
        cs.append(b["_c"].combine_chunks().to_numpy(zero_copy_only=False))
        ws.append(b["_kind"].combine_chunks().to_numpy(zero_copy_only=False))
    h = np.concatenate(hs) if hs else np.zeros(0, np.uint64)
    c = np.concatenate(cs) if cs else np.zeros(0, np.int64)
    w = np.concatenate(ws) if ws else np.zeros(0, np.int8)
    uni_h, uni_c = h[w == 0], c[w == 0]
    bi_h, bi_c = h[w == 1], c[w == 1]
    uo, bo = np.argsort(uni_h), np.argsort(bi_h)
    return (uni_h[uo], uni_c[uo], bi_h[bo], bi_c[bo], int(len(uni_h)))


def score_bigram_lm(ds, model, k: float = 0.5, text_col: str = "text",
                    id_col: str = "doc_id",
                    quantize_scale: float | None = None):
    """Per-doc average bigram log-likelihood under add-k smoothing:
    mean over bigrams of log((c(p,w)+k) / (c(p)+k·V)).  ``model`` is a
    ``ray.put`` handle of :func:`fit_bigram_lm`'s tuple — broadcast once,
    two searchsorteds per batch.  Docs with <2 words score NULL.

    ``quantize_scale`` (r4): per-BIGRAM terms are rounded (DuckDB
    half-away) to ``round(logp·scale)`` int64 before summing — integer
    addition is associative, so the doc average is bit-deterministic under
    any batch layout AND reproducible by the SQL twin term-for-term (the
    word_entropy/text_quant contract; ln agrees bitwise between numpy and
    DuckDB on identical doubles)."""
    import pandas as pd
    import ray

    from .text_quant import half_away as _ha

    def score(b: pa.Table) -> pa.Table:
        uni_h, uni_c, bi_h, bi_c, V = ray.get(model)
        words = pc.split_pattern(b[text_col].combine_chunks(), " ")
        words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = np.asarray(words.flatten().to_pandas(), dtype=object)
        uh = pd.util.hash_array(flat).astype(np.uint64)
        docix = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        m = max(len(uh) - 1, 0)
        mult = np.uint64(0x9E3779B97F4A7C15)
        if m > 0:
            bh_all = uh[:m] * mult + uh[1:]
            same = docix[:m] == docix[1:]
            bh, ph, bdoc = bh_all[same], uh[:m][same], docix[:m][same]
        else:
            bh = ph = np.zeros(0, np.uint64)
            bdoc = np.zeros(0, np.int64)

        def lookup(sh, sc, q):
            pos = np.searchsorted(sh, q)
            pos_c = np.clip(pos, 0, max(len(sh) - 1, 0))
            hit = (sh[pos_c] == q) if len(sh) else np.zeros(len(q), bool)
            return np.where(hit, sc[pos_c] if len(sh) else 0, 0).astype(np.float64)

        cb = lookup(bi_h, bi_c, bh)
        cp = lookup(uni_h, uni_c, ph)
        logp = np.log(cb + k) - np.log(cp + k * V)
        cnts = np.zeros(len(lens), dtype=np.int64)
        np.add.at(cnts, bdoc, 1)
        if quantize_scale:
            qs = np.zeros(len(lens), dtype=np.int64)
            np.add.at(qs, bdoc, _ha(logp * quantize_scale))
            # identical double op order as the SQL: (sum/scale)/n
            avg = (qs / quantize_scale) / np.maximum(cnts, 1)
        else:
            sums = np.zeros(len(lens))
            np.add.at(sums, bdoc, logp)
            avg = sums / np.maximum(cnts, 1)
        valid = cnts > 0
        return pa.table({
            id_col: b[id_col],
            "avg_logp": pa.array(np.where(valid, avg, 0.0), mask=~valid),
            "n_bigrams": pa.array(cnts),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def tfidf_top_terms(ds, k: int = 3, text_col: str = "text",
                    id_col: str = "doc_id", fanin: int = 8):
    """Top-``k`` TF-IDF terms per document with a fully ORDER-EXACT contract:
    ranking is (tf DESC, df ASC, word ASC) — integers and strings only, so
    the idf float never enters a comparison and SQL reproduces the exact
    ranking.  Corpus pass 1 folds document frequency (rows-containing-word;
    vocab-bounded tree merge, broadcast once); pass 2 ranks per document
    inside each block with one lexsort — documents never span rows, so the
    ranking needs no shuffle at all.  Tokens are single-space splits with
    empties dropped (``string_split(text, ' ')``, ``word <> ''``)."""
    import pyarrow.compute as pc
    import ray

    from .reduce import tree_reduce

    def df_partial(b: pa.Table) -> pa.Table:
        if "df" in b.column_names:  # merge level: re-fold partials
            w = b["word"].to_numpy(zero_copy_only=False)
            c = b["df"].combine_chunks().to_numpy(zero_copy_only=False)
        else:
            words = pc.split_pattern(pc.coalesce(
                b[text_col].combine_chunks(), ""), " ")
            offs = words.offsets.to_numpy(zero_copy_only=False)
            flat = words.flatten().to_numpy(zero_copy_only=False)
            rows = np.repeat(np.arange(len(b), dtype=np.int64),
                             np.diff(offs))
            keep = flat != ""
            flat, rows = flat[keep], rows[keep]
            order = np.lexsort((flat, rows))
            fs, rs = flat[order], rows[order]
            first = np.r_[True, (fs[1:] != fs[:-1]) | (rs[1:] != rs[:-1])] \
                if len(fs) else np.zeros(0, bool)
            w = fs[first]
            order2 = np.argsort(w, kind="stable")
            ws = w[order2]
            st = np.flatnonzero(np.r_[True, ws[1:] != ws[:-1]]) \
                if len(ws) else np.zeros(0, np.int64)
            w = ws[st] if len(st) else ws[:0]
            c = np.diff(np.r_[st, len(ws)]).astype(np.int64) \
                if len(st) else np.zeros(0, np.int64)
            return pa.table({"word": pa.array(w, pa.string()),
                             "df": pa.array(c)})
        order = np.argsort(w, kind="stable")
        ws, cs = w[order], c[order]
        st = np.flatnonzero(np.r_[True, ws[1:] != ws[:-1]]) \
            if len(ws) else np.zeros(0, np.int64)
        return pa.table({
            "word": pa.array(ws[st] if len(st) else ws[:0], pa.string()),
            "df": pa.array(np.add.reduceat(cs, st) if len(st) else cs[:0]),
        })

    dfmap: dict[str, int] = {}
    for t in tree_reduce(ds.select_columns([text_col]), df_partial,
                         fanin=fanin).iter_batches(
            batch_format="pyarrow", batch_size=None):
        for w, c in zip(t["word"].to_pylist(), t["df"].to_pylist()):
            dfmap[w] = dfmap.get(w, 0) + c
    df_ref = ray.put(dfmap)

    def rank(b: pa.Table) -> pa.Table:
        dfmap = ray.get(df_ref)
        words = pc.split_pattern(pc.coalesce(
            b[text_col].combine_chunks(), ""), " ")
        offs = words.offsets.to_numpy(zero_copy_only=False)
        flat = words.flatten().to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(b), dtype=np.int64), np.diff(offs))
        keep = flat != ""
        flat, rows = flat[keep], rows[keep]
        order = np.lexsort((flat, rows))
        fs, rs = flat[order], rows[order]
        st = np.flatnonzero(np.r_[True, (fs[1:] != fs[:-1]) | (rs[1:] != rs[:-1])]) \
            if len(fs) else np.zeros(0, np.int64)
        uw = fs[st] if len(st) else fs[:0]
        ur = rs[st] if len(st) else rs[:0]
        tf = np.diff(np.r_[st, len(fs)]).astype(np.int64) \
            if len(st) else np.zeros(0, np.int64)
        dfv = np.array([dfmap[w] for w in uw], dtype=np.int64)
        # per row: order by tf DESC, df ASC, word ASC; take first k
        o = np.lexsort((uw, dfv, -tf, ur))
        ur_o = ur[o]
        seg = np.flatnonzero(np.r_[True, ur_o[1:] != ur_o[:-1]]) \
            if len(ur_o) else np.zeros(0, np.int64)
        pos = np.arange(len(ur_o)) - np.repeat(seg, np.diff(np.r_[seg, len(ur_o)]))
        sel = pos < k
        ids = b[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array(ids[ur_o[sel]]),
            "rnk": pa.array((pos[sel] + 1).astype(np.int64)),
            "word": pa.array(uw[o][sel], pa.string()),
            "tf": pa.array(tf[o][sel]),
            "df": pa.array(dfv[o][sel]),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        rank, batch_format="pyarrow")


def fuzzy_pairs(ds, text_col: str, max_dist: int = 2, len_band: int = 2,
                fanin: int = 8):
    """Fuzzy-match pairs over the DISTINCT values of ``text_col``: pairs
    (a < b) sharing a first character, within ``len_band`` of each other's
    length, and with Levenshtein distance ≤ ``max_dist`` — the banded
    entity-resolution / fuzzy-dedup primitive (the band is part of the
    contract, mirrored in SQL; an edit at position 0 is out of scope by
    design, as in standard first-letter blocking).

    The distinct-value set folds with a tree reduction (bounded by the
    value vocabulary — same assumption as token_histogram); pair blocks
    then evaluate a fully VECTORIZED Levenshtein DP (row loop over
    characters, every cell broadcast across the block's pairs)."""
    import ray
    import ray.data as rd

    from .reduce import tree_reduce

    def uniq(b: pa.Table) -> pa.Table:
        col = b[text_col].to_numpy(zero_copy_only=False)
        return pa.table({text_col: pa.array(np.unique(col.astype(str)))})

    vals: set = set()
    for t in tree_reduce(ds.select_columns([text_col]), uniq, fanin=fanin
                         ).iter_batches(batch_format="pyarrow",
                                        batch_size=None):
        vals.update(t[text_col].to_pylist())
    names = sorted(vals)
    n = len(names)
    if n < 2:
        return rd.from_arrow(pa.table({
            "name_a": pa.array([], pa.string()),
            "name_b": pa.array([], pa.string()),
            "dist": pa.array([], pa.int64())}))
    lens = np.array([len(s) for s in names], dtype=np.int64)
    first = np.array([s[:1] for s in names], dtype="U1")
    names_ref = ray.put((names, lens, first))

    def pairs_for(block: pa.Table) -> pa.Table:
        names, lens, first = ray.get(names_ref)
        idx = block["i"].combine_chunks().to_numpy(zero_copy_only=False)
        out_a, out_b, out_d = [], [], []
        all_j = np.arange(len(names))
        for i in idx:
            cand = all_j[(all_j > i) & (first[all_j] == first[i])
                         & (np.abs(lens[all_j] - lens[i]) <= len_band)]
            if not len(cand):
                continue
            a = names[i]
            La = len(a)
            a_arr = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
            for b_len in np.unique(lens[cand]):
                grp = cand[lens[cand] == b_len]
                bm = np.zeros((len(grp), int(b_len)), dtype=np.uint32)
                for r, j in enumerate(grp):
                    bm[r] = np.frombuffer(names[j].encode("utf-32-le"),
                                          dtype=np.uint32)
                # DP: rows = chars of a (shared), cols vectorized over grp
                prev = np.broadcast_to(
                    np.arange(b_len + 1, dtype=np.int32),
                    (len(grp), int(b_len) + 1)).copy()
                for r in range(1, La + 1):
                    cur = np.empty_like(prev)
                    cur[:, 0] = r
                    neq = (bm != a_arr[r - 1]).astype(np.int32)
                    sub = prev[:, :-1] + neq
                    np.minimum(prev[:, 1:] + 1, sub, out=sub)
                    # left-to-right dependency: sequential min over columns
                    run = cur[:, 0]
                    for c in range(1, int(b_len) + 1):
                        run = np.minimum(run + 1, sub[:, c - 1])
                        cur[:, c] = run
                    prev = cur
                d = prev[:, -1]
                ok = d <= max_dist
                for j, dd in zip(grp[ok], d[ok]):
                    out_a.append(a)
                    out_b.append(names[j])
                    out_d.append(int(dd))
        return pa.table({"name_a": pa.array(out_a, pa.string()),
                         "name_b": pa.array(out_b, pa.string()),
                         "dist": pa.array(out_d, pa.int64())})

    src = rd.from_arrow(pa.table({"i": pa.array(np.arange(n, dtype=np.int64))}))
    nb = max(2, min(32, n // 8))
    return src.repartition(nb).map_batches(pairs_for, batch_format="pyarrow")


def bpe_train(ds, n_merges: int = 50, text_col: str = "text",
              max_word_types: int = 200_000):
    """Distributed BPE vocabulary training (the sentencepiece/GPT-2 shape).

    The corpus-scale half is ONE exact distributed word-frequency pass
    (per-block Arrow split + dictionary-encode partials, keyed fold by word
    — the :func:`topk_words` shuffle shape).  The merge loop
    then runs on the BOUNDED word-type table (≤ ``max_word_types`` rows,
    kept by count desc — the standard BPE-on-word-counts trick: merge
    decisions depend only on type frequencies, never on corpus order), so
    its cost is vocab-bounded regardless of corpus size.  The loop itself
    is flattened numpy: all word types live in one int32 symbol array with
    offsets; each iteration counts adjacent pairs via a packed-key
    ``np.unique`` + weighted bincount, picks the max (ties → the
    lexicographically smallest RENDERED (left, right) name pair — id
    allocation order never enters, so the SQL oracle's
    ``ORDER BY c DESC, a, b`` over symbol names reproduces the pick
    exactly; pinned by a tie-forcing unit test), and applies
    non-overlapping greedy merges
    with a run-parity mask (``aaa`` merges the first pair only, matching
    the reference BPE left-to-right scan).

    Returns a Dataset of merges: (rank, left, right, pair_count) with
    left/right rendered as strings ('</w>' marks word end)."""
    import pyarrow.compute as pc

    import ray.data as rd

    def partial_counts(batch: pa.Table) -> pa.Table:
        w = pc.split_pattern_regex(
            pc.utf8_lower(pc.coalesce(batch[text_col].combine_chunks(), "")),
            r"[^0-9a-z]+",
        )
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        flat = w.flatten()
        d = flat.dictionary_encode()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.bincount(codes, minlength=len(d.dictionary))
        words = d.dictionary.to_pandas().to_numpy()
        keep = words != ""
        return pa.table({"word": pa.array(words[keep], pa.string()),
                         "n": pa.array(cnt[keep].astype(np.int64))})

    def sum_per_word(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby("word", as_index=False)["n"].sum()
        return pa.Table.from_pandas(df[["word", "n"]], preserve_index=False)

    wc = keyed_fold(ds.map_batches(partial_counts, batch_format="pyarrow"),
                    "word", sum_per_word)
    tabs = list(wc.iter_batches(batch_format="pyarrow", batch_size=None))
    wt = (pa.concat_tables(tabs) if tabs
          else pa.table({"word": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())}))
    df = wt.to_pandas().sort_values(["n", "word"], ascending=[False, True],
                                    kind="stable").head(max_word_types)
    words = df["word"].to_numpy()
    freq = df["n"].to_numpy().astype(np.int64)

    # flatten word types into one symbol array: byte ids 0..255, 256='</w>'
    END = 256
    names: list[str] = [chr(i) if 32 <= i < 127 else f"<0x{i:02X}>"
                        for i in range(256)]
    names.append("</w>")
    enc = [np.frombuffer(w.encode(), np.uint8).astype(np.int32) for w in words]
    lens = np.array([len(e) + 1 for e in enc], np.int64)
    syms = np.empty(int(lens.sum()), np.int32)
    offs = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    for i, e in enumerate(enc):
        syms[offs[i]:offs[i + 1] - 1] = e
        syms[offs[i + 1] - 1] = END
    wpos = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    alive = np.ones(len(syms), bool)

    merges: list[tuple[int, str, str, int]] = []
    for rank in range(n_merges):
        idx = np.flatnonzero(alive)
        if len(idx) < 2:
            break
        s = syms[idx]
        wp = wpos[idx]
        same = wp[1:] == wp[:-1]
        if not same.any():
            break
        key = s[:-1].astype(np.int64) * np.int64(1 << 32) + s[1:]
        wgt = freq[wp[1:]]
        uk, inv = np.unique(key[same], return_inverse=True)
        cnt = np.bincount(inv, weights=wgt[same].astype(np.float64))
        top = np.flatnonzero(cnt == cnt.max())
        # ties → lexicographically smallest (left, right) STRING pair (a
        # stable, id-order-independent contract pinned by the golden test)
        best = int(min(top, key=lambda t: (names[int(uk[t] >> 32)],
                                           names[int(uk[t] & 0xFFFFFFFF)])))
        bc = int(cnt[best])
        a, b = int(uk[best] >> 32), int(uk[best] & 0xFFFFFFFF)
        new_id = len(names)
        # a left symbol can never end in '</w>' (it is word-final), so the
        # merged name is the plain concatenation
        names.append(names[a] + names[b])
        merges.append((rank, names[a], names[b], bc))
        # non-overlapping greedy within runs: candidate pair starts where
        # (s[p], s[p+1]) == (a, b) in the same word; in a consecutive run
        # keep positions at even offset from the run start
        cand = np.flatnonzero(same & (key == uk[best]))
        if len(cand):
            runstart = np.r_[True, np.diff(cand) != 1]
            runid = np.cumsum(runstart) - 1
            first = cand[runstart]
            parity = (cand - first[runid]) % 2 == 0
            keepp = cand[parity]
            syms[idx[keepp]] = new_id
            alive[idx[keepp + 1]] = False

    out = pa.table({
        "rank": pa.array([m[0] for m in merges], pa.int64()),
        "left": pa.array([m[1] for m in merges], pa.string()),
        "right": pa.array([m[2] for m in merges], pa.string()),
        "pair_count": pa.array([m[3] for m in merges], pa.int64()),
    })
    return rd.from_arrow(out)


class BPEEncoder:
    """Apply trained BPE merges to text — the inference half of
    :func:`bpe_train` (train → encode completes the tokenizer story).

    Token ids reproduce the trainer's id space exactly: 0..255 raw bytes,
    256 = ``'</w>'``, 257+rank per merge.  Pre-tokenization is the
    trainer's (lowercase, split on ``[^0-9a-z]+``); per word the standard
    BPE loop applies the PRESENT pair with the smallest rank, merging
    non-overlapping occurrences left-to-right (the trainer's run-parity
    rule), until no adjacent pair is mergeable.

    Scale shape: a stateful actor-pool stage.  Each batch dictionary-
    encodes its words, so the python merge loop runs once per NEW word
    TYPE (cached across batches in the actor — Zipf makes the hit rate
    ~1 after warm-up); per-doc token assembly is a fully vectorized
    offsets gather, never a per-word python concat.  Pass to
    ``map_batches(BPEEncoder, fn_constructor_kwargs=..., concurrency=N)``.
    """

    END = 256

    def __init__(self, merges, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        if hasattr(merges, "take_all"):          # Dataset → rows
            rows = merges.take_all()
        elif isinstance(merges, pa.Table):
            rows = merges.to_pylist()
        else:
            rows = list(merges)
        rows.sort(key=lambda r: r["rank"])
        names = [chr(i) if 32 <= i < 127 else f"<0x{i:02X}>" for i in range(256)]
        names.append("</w>")
        name_id = {nm: i for i, nm in enumerate(names)}
        self.rank_of: dict[tuple[int, int], int] = {}
        self.merged_id: dict[tuple[int, int], int] = {}
        for r in rows:
            a, b = name_id[r["left"]], name_id[r["right"]]
            nm = r["left"] + r["right"]
            name_id[nm] = len(names)
            names.append(nm)
            self.rank_of[(a, b)] = int(r["rank"])
            self.merged_id[(a, b)] = name_id[nm]
        self.names = names
        self._cache: dict[str, np.ndarray] = {}

    def encode_word(self, w: str) -> np.ndarray:
        """Sequential reference (and cache filler) for ONE word type."""
        got = self._cache.get(w)
        if got is not None:
            return got
        syms = list(np.frombuffer(w.encode(), np.uint8).astype(np.int64)) + [self.END]
        while len(syms) > 1:
            ranks = [self.rank_of.get((syms[i], syms[i + 1]))
                     for i in range(len(syms) - 1)]
            present = [r for r in ranks if r is not None]
            if not present:
                break
            best = min(present)
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and ranks[i] == best:
                    out.append(self.merged_id[(syms[i], syms[i + 1])])
                    i += 2  # left-to-right non-overlapping
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        enc = np.asarray(syms, dtype=np.int32)
        self._cache[w] = enc
        return enc

    def __call__(self, batch: pa.Table) -> pa.Table:
        w = pc.split_pattern_regex(
            pc.utf8_lower(pc.coalesce(batch[self.text_col].combine_chunks(), "")),
            r"[^0-9a-z]+",
        )
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        doc_wcnt = np.diff(w.offsets.to_numpy().astype(np.int64))
        flat = w.flatten()
        d = flat.dictionary_encode()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = d.dictionary.to_pandas().to_numpy()
        # encode new word types once (python loop bounded by NEW types)
        encs = [self.encode_word(u) if u else np.zeros(0, np.int32)
                for u in uniq]
        ulens = np.fromiter((len(e) for e in encs), np.int64,
                            count=len(encs))
        uoffs = np.r_[np.int64(0), np.cumsum(ulens)]
        uvals = (np.concatenate(encs) if encs else np.zeros(0, np.int32))
        # vectorized assembly: gather each word instance's id run
        wl = ulens[codes]
        total = int(wl.sum())
        heads = np.cumsum(wl) - wl
        within = np.arange(total, dtype=np.int64) - np.repeat(heads, wl)
        values = uvals[np.repeat(uoffs[codes], wl) + within] if total else \
            np.zeros(0, np.int32)
        # per-doc offsets: sum of word token counts per doc
        wdoc_offs = np.r_[np.int64(0), np.cumsum(doc_wcnt)]
        tok_per_doc = np.diff(np.r_[np.int64(0), np.cumsum(wl)][wdoc_offs])
        doc_offs = np.r_[np.int64(0), np.cumsum(tok_per_doc)]
        toks = pa.ListArray.from_arrays(
            pa.array(doc_offs, pa.int32()), pa.array(values, pa.int32()))
        return pa.table({
            self.id_col: batch[self.id_col],
            "tokens": toks,
            "n_tok": pa.array(tok_per_doc.astype(np.int32)),
        })


GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_rules(ds, text_col: str = "text", id_col: str = "doc_id",
                 min_words: int = 50, max_words: int = 100_000,
                 min_mean_word_len: float = 3.0, max_mean_word_len: float = 10.0,
                 min_stopwords: int = 2, max_symbol_ratio: float = 0.1,
                 stopwords: tuple = GOPHER_STOPWORDS):
    """Gopher quality rules (Rae et al. 2021, Table A1 subset): the composite
    document filter every large text corpus ships — word-count bounds, mean
    word length bounds, a minimum number of DISTINCT stopwords present, and
    a symbol-to-word ratio cap ('#' chars + non-overlapping '...').

    Pure map, zero shuffle: one Arrow split kernel per batch, per-row folds
    via ``np.add.reduceat`` over the list offsets, stopword presence via one
    equality kernel per stopword (8 total).  Every signal is an integer (or
    an int/int double division mirrored by SQL), so the whole rule — keep
    flag included — is hash-exact against the DuckDB twin.  Emits ALL rows
    with their signals + ``keep``; chain ``.filter`` to drop rejects.
    Word-split contract shared with ``topk_words``: lowercase,
    ``[^0-9a-z]+``, '' dropped."""

    def rules(batch: pa.Table) -> pa.Table:
        text = pc.coalesce(batch[text_col].combine_chunks(), "")
        w = pc.split_pattern_regex(pc.utf8_lower(text), r"[^0-9a-z]+")
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        flat = w.flatten()
        offs = w.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        valid = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        wlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        n_rows = batch.num_rows
        lens = offs[1:] - offs[:-1]
        nz = lens > 0
        st = offs[:-1][nz]

        def fold(x):
            out = np.zeros(n_rows, dtype=np.int64)
            if nz.any():
                out[nz] = np.add.reduceat(x, st)
            return out

        n_words = fold(valid.astype(np.int64))
        word_chars = fold(np.where(valid, wlen, 0))
        n_stop = np.zeros(n_rows, dtype=np.int64)
        for s in stopwords:
            eq = pc.equal(flat, s).to_numpy(zero_copy_only=False)
            n_stop += (fold(eq.astype(np.int64)) > 0).astype(np.int64)
        n_hash = pc.count_substring(text, "#").to_numpy(zero_copy_only=False).astype(np.int64)
        n_ell = pc.count_substring(text, "...").to_numpy(zero_copy_only=False).astype(np.int64)
        n_sym = n_hash + n_ell
        denom = np.maximum(n_words, 1)
        mwl = (word_chars * 1.0) / denom
        sym_ratio = (n_sym * 1.0) / denom
        keep = ((n_words >= min_words) & (n_words <= max_words)
                & (mwl >= min_mean_word_len) & (mwl <= max_mean_word_len)
                & (n_stop >= min_stopwords) & (sym_ratio <= max_symbol_ratio))
        return pa.table({
            id_col: batch[id_col],
            "n_words": pa.array(n_words),
            "word_chars": pa.array(word_chars),
            "n_stop": pa.array(n_stop),
            "n_sym": pa.array(n_sym),
            "keep": pa.array(keep),
        })

    return ds.map_batches(rules, batch_format="pyarrow")


def dsir_logratio(ds, model_target, model_raw, k: float = 0.5,
                  text_col: str = "text", id_col: str = "doc_id",
                  quantize_scale: float | None = None):
    """DSIR-shape importance weights (Xie et al. 2023, arXiv:2302.03169):
    per-doc log importance ratio log p_target(x) − log p_raw(x) under two
    hashed bigram LMs (:func:`fit_bigram_lm` on the target and raw corpora).

    Both models are ``ray.put`` handles broadcast once; each batch is scored
    under BOTH in one pass (one hash + two searchsorted lookups per model) —
    selection (top-k by weight, or a weight-threshold gate via
    ``sampling.quantile_gate``) composes downstream.  ``quantize_scale``
    (r4) applies the per-term quantized-log contract of
    :func:`score_bigram_lm` to BOTH models, making the weight
    bit-deterministic and SQL-oracle-able; unset, float log sums are
    layout-dependent (pinned by the sequential-reference LM pytest)."""
    import pandas as pd
    import ray

    from .text_quant import half_away as _ha

    def score(b: pa.Table) -> pa.Table:
        words = pc.split_pattern(b[text_col].combine_chunks(), " ")
        words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = np.asarray(words.flatten().to_pandas(), dtype=object)
        uh = pd.util.hash_array(flat).astype(np.uint64)
        docix = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        m = max(len(uh) - 1, 0)
        mult = np.uint64(0x9E3779B97F4A7C15)
        if m > 0:
            bh_all = uh[:m] * mult + uh[1:]
            same = docix[:m] == docix[1:]
            bh, ph, bdoc = bh_all[same], uh[:m][same], docix[:m][same]
        else:
            bh = ph = np.zeros(0, np.uint64)
            bdoc = np.zeros(0, np.int64)

        def lookup(sh, sc, q):
            pos = np.searchsorted(sh, q)
            pos_c = np.clip(pos, 0, max(len(sh) - 1, 0))
            hit = (sh[pos_c] == q) if len(sh) else np.zeros(len(q), bool)
            return np.where(hit, sc[pos_c] if len(sh) else 0, 0).astype(np.float64)

        def avg_logp(model):
            uni_h, uni_c, bi_h, bi_c, V = model
            cb = lookup(bi_h, bi_c, bh)
            cp = lookup(uni_h, uni_c, ph)
            logp = np.log(cb + k) - np.log(cp + k * V)
            if quantize_scale:
                s = np.zeros(len(lens), dtype=np.int64)
                np.add.at(s, bdoc, _ha(logp * quantize_scale))
                return s
            sums = np.zeros(len(lens))
            np.add.at(sums, bdoc, logp)
            return sums

        cnts = np.zeros(len(lens), dtype=np.int64)
        np.add.at(cnts, bdoc, 1)
        st = avg_logp(ray.get(model_target))
        sr = avg_logp(ray.get(model_raw))
        if quantize_scale:
            # identical double op order as the SQL: ((Δint)/scale)/n
            w = ((st - sr) / quantize_scale) / np.maximum(cnts, 1)
        else:
            w = (st - sr) / np.maximum(cnts, 1)
        valid = cnts > 0
        return pa.table({
            id_col: b[id_col],
            "dsir_weight": pa.array(np.where(valid, w, 0.0), mask=~valid),
            "n_bigrams": pa.array(cnts),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def vocab_growth(ds, text_col: str = "text", id_col: str = "doc_id",
                 bucket_width: int = 50, ngram: int = 1):
    """Heaps'-law vocabulary growth curve: how many DISTINCT word n-grams the
    corpus has introduced after each consecutive bucket of ``bucket_width``
    docs (in doc_id order) — the classic corpus-statistics diagnostic for
    tokenizer / vocab sizing.

    Scale shape:

    1. per-batch local combiner: one (gram-hash, local-min doc_id) row per
       batch-distinct gram — the shuffle is bounded by distinct grams per
       batch, never by tokens.  Grams are identified by a 128-bit hash pair
       (two independent siphash streams + polynomial n-gram combine — the
       dup-span argument: a cross-gram collision is ~m²/2¹²⁹, effectively
       exact), so gram STRINGS never move;
    2. one keyed fold by gram hash: global min doc_id per gram folds
       straight to (bucket, new_words) partials INSIDE the task;
    3. the tiny partial table (<= ``reduce.WIDTH`` x n_buckets rows)
       collapses in a single constant-key task that also computes the
       running total.  Pick ``bucket_width`` proportional to corpus size
       (the window-width law) so the curve itself stays bounded.

    Word split mirrors SQL ``string_split(text, ' ')`` (single space, empty
    tokens kept); docs with fewer than ``ngram`` words contribute no grams.
    Ints end-to-end — hash-exact.

    Returns ``(bucket, new_words, vocab_size)`` sorted by bucket."""
    import pandas as pd

    mult1 = np.uint64(0x9E3779B97F4A7C15)
    mult2 = np.uint64(0xC2B2AE3D27D4EB4F)

    def local_min(b: pa.Table) -> pa.Table:
        words = pc.split_pattern(b[text_col].combine_chunks(), " ")
        ids = b[id_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = np.asarray(words.flatten().to_pandas(), dtype=object)
        h1 = pd.util.hash_array(flat).astype(np.uint64)
        h2 = pd.util.hash_array(flat, hash_key="fedcba9876543210").astype(np.uint64)
        docix = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        m = len(h1) - ngram + 1
        if m <= 0:
            empty = np.zeros(0, np.int64)
            return pa.table({"_g1": pa.array(np.zeros(0, np.uint64)),
                             "_g2": pa.array(np.zeros(0, np.uint64)),
                             "_min": pa.array(empty)})
        g1 = np.zeros(m, dtype=np.uint64)
        g2 = np.zeros(m, dtype=np.uint64)
        for j in range(ngram):
            g1 = g1 * mult1 + h1[j: m + j]
            g2 = g2 * mult2 + h2[j: m + j]
        same_doc = docix[:m] == docix[ngram - 1:]
        g1, g2 = g1[same_doc], g2[same_doc]
        gdoc = ids[docix[:m][same_doc]]
        order = np.lexsort((gdoc, g2, g1))
        a, b2, d = g1[order], g2[order], gdoc[order]
        first = np.r_[True, (a[1:] != a[:-1]) | (b2[1:] != b2[:-1])] \
            if len(a) else np.zeros(0, bool)
        a, b2, d = a[first], b2[first], d[first]
        return pa.table({"_g1": pa.array(a), "_g2": pa.array(b2),
                         "_min": pa.array(d)})

    def fold_partition(g: pa.Table) -> pa.Table:
        g1 = g["_g1"].combine_chunks().to_numpy(zero_copy_only=False)
        g2 = g["_g2"].combine_chunks().to_numpy(zero_copy_only=False)
        mn = g["_min"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((mn, g2, g1))
        a, b2, d = g1[order], g2[order], mn[order]
        first = np.r_[True, (a[1:] != a[:-1]) | (b2[1:] != b2[:-1])] \
            if len(a) else np.zeros(0, bool)
        gmins = d[first]
        buckets = gmins // np.int64(bucket_width)
        ub, counts = np.unique(buckets, return_counts=True)
        return pa.table({"bucket": pa.array(ub),
                         "new_words": pa.array(counts.astype(np.int64)),
                         "_one": pa.array(np.zeros(len(ub), np.int64))})

    def finalize(g: pa.Table) -> pa.Table:
        b = g["bucket"].combine_chunks().to_numpy(zero_copy_only=False)
        n = g["new_words"].combine_chunks().to_numpy(zero_copy_only=False)
        ub = np.unique(b)
        sums = np.zeros(len(ub), np.int64)
        np.add.at(sums, np.searchsorted(ub, b), n)
        return pa.table({"bucket": pa.array(ub), "new_words": pa.array(sums),
                         "vocab_size": pa.array(np.cumsum(sums))})

    return (keyed_fold(ds.map_batches(local_min, batch_format="pyarrow"), "_g1",
                       fold_partition)
            .groupby("_one").map_groups(finalize, batch_format="pyarrow"))


def regex_redact(ds, col: str, pattern: str = "[0-9]+",
                 replacement: str = "<NUM>", out_col: str | None = None,
                 keep_cols: tuple[str, ...] = ()):
    """PII-style redaction: replace every match of an RE2 ``pattern`` in
    ``col`` with ``replacement`` (numbers / emails / phone shapes — the
    pre-training scrub pass).  One vectorized Arrow kernel per batch
    (``pc.replace_substring_regex``); Arrow and DuckDB both compile RE2, so
    ``regexp_replace(col, pattern, repl, 'g')`` is an exact oracle — no
    dialect skew.  Pure map: rows never move."""
    out_col = out_col or f"{col}_redacted"

    def redact(b: pa.Table) -> pa.Table:
        cols = {c: b[c] for c in keep_cols}
        cols[out_col] = pc.replace_substring_regex(
            b[col], pattern=pattern, replacement=replacement)
        return pa.table(cols)

    return ds.map_batches(redact, batch_format="pyarrow")


def _flat_words(t: pa.Table, text_col: str):
    """Single-space word split shared by the BM25 / posting-list family:
    returns (flat words, owning row index) with empty artifacts dropped —
    the ``string_split(text, ' ')`` / ``word <> ''`` SQL contract (same
    tokens as :func:`tfidf_top_terms`)."""
    words = pc.split_pattern(pc.coalesce(t[text_col].combine_chunks(), ""), " ")
    offs = words.offsets.to_numpy(zero_copy_only=False)
    flat = words.flatten().to_numpy(zero_copy_only=False)
    rows = np.repeat(np.arange(len(t), dtype=np.int64), np.diff(offs))
    keep = flat != ""
    return flat[keep], rows[keep]


def bm25_topk(ds, terms, k: int = 20, k1: float = 1.2, b: float = 0.75,
              text_col: str = "text", id_col: str = "doc_id", fanin: int = 8):
    """BM25 ranked retrieval over the corpus for a fixed bag of query
    ``terms`` — the lexical-search primitive (reference has no analogue;
    first-class for an LLM-data engine: quality-biased subset selection,
    seed-document expansion).

    Portability contract (hash-exact vs SQL): the idf is the LOG-FREE
    Robertson-Spärck-Jones odds ``(N - df + 0.5) / (df + 0.5)`` — every
    score is built from int-derived doubles with +,*,/ only (all exactly
    rounded IEEE ops), in one fixed parenthesization mirrored by the SQL
    twin, and the per-doc sum runs in fixed query-term order.  No
    transcendentals means no libm-ulp skew between numpy and DuckDB.

    Scale shape: pass 1 is a tree-reduced 6-row stats table (df per term,
    N, Σdl) — never a shuffle; pass 2 is a pure map_batches scoring pass
    (per-term tf via one flattened split + bincount, no per-row Python)
    followed by the block-local top-k merge (:func:`..reduce.topk_merge`):
    at most ``k`` rows leave each block."""
    from .reduce import topk_merge, tree_reduce

    terms = list(terms)
    META_N, META_DL = "\x00n_docs", "\x00sum_dl"

    def partial(t: pa.Table) -> pa.Table:
        if "key" in t.column_names:  # merge level: re-fold partials
            ks = t["key"].to_numpy(zero_copy_only=False)
            vs = t["val"].combine_chunks().to_numpy(zero_copy_only=False)
            order = np.argsort(ks, kind="stable")
            ks, vs = ks[order], vs[order]
            st = (np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
                  if len(ks) else np.zeros(0, np.int64))
            sums = np.add.reduceat(vs, st) if len(ks) else vs[:0]
            return pa.table({"key": pa.array(ks[st] if len(ks) else ks,
                                             pa.string()),
                             "val": pa.array(sums.astype(np.int64))})
        flat, rows = _flat_words(t, text_col)
        keys = [META_N, META_DL]
        vals = [len(t), int(len(flat))]
        for q in terms:
            keys.append("df:" + q)
            vals.append(int(len(np.unique(rows[flat == q]))))
        return pa.table({"key": pa.array(keys, pa.string()),
                         "val": pa.array(np.asarray(vals, np.int64))})

    stats_tab = pa.concat_tables(
        tree_reduce(ds.select_columns([text_col]), partial, fanin=fanin)
        .iter_batches(batch_format="pyarrow", batch_size=None))
    stats = dict(zip(stats_tab["key"].to_pylist(),
                     stats_tab["val"].to_pylist()))
    n_docs = int(stats.get(META_N, 0))
    sum_dl = int(stats.get(META_DL, 0))
    one = np.float64(1.0)
    avgdl = (np.float64(sum_dl) / np.float64(n_docs)) if n_docs else one
    k1d, bd = np.float64(k1), np.float64(b)
    idf = {q: ((np.float64(n_docs - int(stats.get("df:" + q, 0)))
                + np.float64(0.5))
               / (np.float64(int(stats.get("df:" + q, 0)))
                  + np.float64(0.5))) for q in terms}

    def score(t: pa.Table) -> pa.Table:
        flat, rows = _flat_words(t, text_col)
        dl = np.bincount(rows, minlength=len(t)).astype(np.int64)
        dld = dl.astype(np.float64)
        denom_base = k1d * ((one - bd) + (bd * (dld / avgdl)))
        sc = np.zeros(len(t), np.float64)
        hit = np.zeros(len(t), bool)
        for q in terms:  # fixed order == the SQL twin's explicit sum order
            tf = np.bincount(rows[flat == q],
                             minlength=len(t)).astype(np.float64)
            has = tf > 0
            contrib = np.zeros(len(t), np.float64)
            contrib[has] = idf[q] * ((tf[has] * (k1d + one))
                                     / (tf[has] + denom_base[has]))
            sc = sc + contrib
            hit |= has
        out = pa.table({id_col: t[id_col], "dl": pa.array(dl),
                        "score": pa.array(sc)})
        return out.filter(pa.array(hit))

    scored = ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow")
    return topk_merge(scored, by=["score", id_col],
                      ascending=[False, True], k=k)


def collocations_lift(ds, k: int = 50, min_count: int = 5,
                      text_col: str = "text", fanin: int = 8):
    """Collocation mining: top-``k`` adjacent word pairs by LIFT
    ``p(xy) / (p(x)·p(y)) = (c_xy·N_w·N_w) / (N_bg·c_x·c_y)`` — the
    log-free monotone twin of PMI (PMI = log(lift·N_w/N_bg·…) is monotone
    in lift for fixed totals), so the ranking is hash-exact vs SQL: every
    factor is an int-derived double and the one division is the final op.

    Scale shape: bigram and unigram counts are the :func:`topk_words`
    partial-count shuffles (one row per (block, distinct gram) — vocab- not
    token-bounded); totals are a 2-row tree reduce; the unigram table is
    vocab-bounded and broadcast into the lift pass; only ``min_count``
    survivors reach the final top-k merge.  Split convention: the
    lowercase ``[^0-9a-z]+`` regex split shared with :func:`topk_bigrams`."""
    import ray

    from .reduce import topk_merge, tree_reduce

    def grams_partial(batch: pa.Table) -> pa.Table:
        w = pc.split_pattern_regex(
            pc.utf8_lower(pc.coalesce(batch[text_col].combine_chunks(), "")),
            r"[^0-9a-z]+")
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        flat = w.flatten()
        offs = w.offsets.to_numpy()
        ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        docid = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
        idx = np.flatnonzero(ne)
        keepdoc = docid[idx]
        adj = keepdoc[1:] == keepdoc[:-1] if len(idx) else np.zeros(0, bool)
        li = idx[:-1][adj] if len(idx) else idx[:0]
        ri = idx[1:][adj] if len(idx) else idx[:0]
        pair = pc.binary_join_element_wise(
            flat.take(pa.array(li, pa.int64())),
            flat.take(pa.array(ri, pa.int64())), " ")
        uni = flat.take(pa.array(idx, pa.int64()))
        outs = []
        for kind, arr in (("bg", pair), ("w", uni)):
            d = arr.dictionary_encode()
            codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            cnt = np.bincount(codes, minlength=len(d.dictionary))
            grams = d.dictionary.to_pandas().to_numpy()
            outs.append(pa.table({
                "gram": pa.array(grams, pa.string()),
                "kind": pa.array(np.repeat(kind, len(grams)), pa.string()),
                "n": pa.array(cnt.astype(np.int64))}))
        return pa.concat_tables(outs)

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby(["gram", "kind"], as_index=False)["n"].sum()
        return pa.Table.from_pandas(df, preserve_index=False)

    # gram-vocab-scale (n-gram space grows with the corpus), multiple
    # consumers: Parquet scratch instead of an object-store pin (r4)
    counts = _ckpt(keyed_fold(ds.select_columns([text_col])
                              .map_batches(grams_partial, batch_format="pyarrow"),
                              "gram", fold),
                   "gramcounts")

    def totals(t: pa.Table) -> pa.Table:
        kind = t["kind"].to_numpy(zero_copy_only=False)
        n = t["n"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({
            "n_w": pa.array([int(n[kind == "w"].sum())], pa.int64()),
            "n_bg": pa.array([int(n[kind == "bg"].sum())], pa.int64())})

    def tot_merge(t: pa.Table) -> pa.Table:
        if "n_w" in t.column_names:
            return pa.table({
                "n_w": pa.array([int(pc.sum(t["n_w"]).as_py() or 0)],
                                pa.int64()),
                "n_bg": pa.array([int(pc.sum(t["n_bg"]).as_py() or 0)],
                                 pa.int64())})
        return totals(t)

    tot = pa.concat_tables(tree_reduce(counts, tot_merge, fanin=fanin)
                           .iter_batches(batch_format="pyarrow",
                                         batch_size=None))
    n_w = np.float64(int(tot["n_w"][0].as_py()))
    n_bg = np.float64(int(tot["n_bg"][0].as_py()))

    # unigram table: vocab-bounded, broadcast once
    uni_tabs = list(counts.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "w")),
        batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None))
    uni = (pa.concat_tables(uni_tabs).combine_chunks() if uni_tabs
           else pa.table({"gram": pa.array([], pa.string()),
                          "kind": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())}))
    uw = uni["gram"].to_numpy(zero_copy_only=False)
    un = uni["n"].combine_chunks().to_numpy(zero_copy_only=False)
    uorder = np.argsort(uw, kind="stable")
    uw, un = uw[uorder], un[uorder]
    uni_ref = ray.put((uw, un))

    def lift_pass(t: pa.Table) -> pa.Table:
        kind = t["kind"].to_numpy(zero_copy_only=False)
        sel = (kind == "bg")
        g = t["gram"].to_numpy(zero_copy_only=False)[sel]
        cxy = t["n"].combine_chunks().to_numpy(zero_copy_only=False)[sel]
        keep = cxy >= min_count
        g, cxy = g[keep], cxy[keep]
        if not len(g):
            return pa.table({"bigram": pa.array([], pa.string()),
                             "c_xy": pa.array([], pa.int64()),
                             "c_x": pa.array([], pa.int64()),
                             "c_y": pa.array([], pa.int64()),
                             "lift": pa.array([], pa.float64())})
        ww, wn = ray.get(uni_ref)
        parts = np.char.partition(g.astype(str), " ")
        cx = wn[np.searchsorted(ww, parts[:, 0])]
        cy = wn[np.searchsorted(ww, parts[:, 2])]
        lift = (((cxy.astype(np.float64) * n_w) * n_w)
                / ((n_bg * cx.astype(np.float64)) * cy.astype(np.float64)))
        return pa.table({"bigram": pa.array(g, pa.string()),
                         "c_xy": pa.array(cxy.astype(np.int64)),
                         "c_x": pa.array(cx.astype(np.int64)),
                         "c_y": pa.array(cy.astype(np.int64)),
                         "lift": pa.array(lift)})

    lifted = counts.map_batches(lift_pass, batch_format="pyarrow")
    return topk_merge(lifted, by=["lift", "bigram"],
                      ascending=[False, True], k=k)


def inverted_index(ds, shard_size: int = 256, text_col: str = "text",
                   id_col: str = "doc_id"):
    """Sharded posting lists — the inverted-index build: one output row per
    (word, doc-id shard) holding the sorted CSV posting list and its length.
    Sharding by ``doc_id // shard_size`` bounds every group (≤ shard_size
    ids) so a stopword's postings split across shards instead of wedging one
    reducer — the scale knob a monolithic ``groupby(word)`` lacks.

    Per batch: one flattened split + (word, doc) lexsort dedupe (documents
    never span rows, so batch-local distinct pairs are globally distinct);
    one (word, shard) shuffle whose payload is distinct pairs, not tokens.
    CSV postings keep the result SQL-comparable (``string_agg`` twin)."""

    def pairs(t: pa.Table) -> pa.Table:
        flat, rows = _flat_words(t, text_col)
        ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)[rows]
        order = np.lexsort((ids, flat))
        fs, ds_ = flat[order], ids[order]
        first = (np.r_[True, (fs[1:] != fs[:-1]) | (ds_[1:] != ds_[:-1])]
                 if len(fs) else np.zeros(0, bool))
        fs, ds_ = fs[first], ds_[first]
        return pa.table({"word": pa.array(fs, pa.string()),
                         "doc_id": pa.array(ds_.astype(np.int64)),
                         "shard": pa.array((ds_ // shard_size)
                                           .astype(np.int64))})

    def postings(g: pa.Table) -> pa.Table:
        # unique, not sort: duplicate doc_id rows exist in real corpora, so
        # cross-batch (word, doc) repeats must collapse like SQL DISTINCT
        ids = np.unique(g["doc_id"].combine_chunks()
                        .to_numpy(zero_copy_only=False))
        return pa.table({
            "word": g["word"].slice(0, 1),
            "shard": g["shard"].slice(0, 1),
            "df_shard": pa.array([len(ids)], pa.int64()),
            "postings": pa.array([",".join(str(i) for i in ids)],
                                 pa.string())})

    return (ds.select_columns([id_col, text_col])
            .map_batches(pairs, batch_format="pyarrow")
            .groupby(["word", "shard"])
            .map_groups(postings, batch_format="pyarrow"))


def vocab_overlap(ds, key: str = "source", text_col: str = "text",
                  fanin: int = 8):
    """Pairwise vocabulary overlap between corpus slices (sources): for
    every slice pair (a < b), how many distinct words they SHARE plus each
    slice's vocabulary size — the inputs to Jaccard/containment corpus-
    similarity matrices used for mixture design and contamination triage.

    Scale shape: the slice set is a bounded enum (≤ 63 by contract), so a
    word's slice membership packs into ONE int64 bitmask: per batch, words
    (Arrow regex split, the engine's standard ``[^0-9a-z]+`` tokenizer)
    OR-fold locally into (word, mask) partials; a vocab-bounded tree fold
    ORs masks per word; the final ≤ |vocab| masks collapse to a ≤ 2^|S|
    mask HISTOGRAM and every pair count reads off the histogram — no word
    ever crosses the wire twice and no pairwise join happens at all.
    Output: (source_a, source_b, n_shared, vocab_a, vocab_b), ints."""
    import pyarrow.compute as pc_

    from .reduce import tree_reduce

    srcs = sorted(
        r[key] for r in
        pa.concat_tables(
            tree_reduce(
                ds.select_columns([key]),
                lambda b: pa.table({key: pc_.unique(
                    b[key].combine_chunks())}),
                fanin=fanin)
            .iter_batches(batch_format="pyarrow", batch_size=None)
        ).to_pylist())
    assert len(srcs) <= 63, "bitmask packing supports up to 63 slices"
    bit = {s: 1 << i for i, s in enumerate(srcs)}

    def masks(b: pa.Table) -> pa.Table:
        if "_mask" in b.column_names:  # merge level: OR per word
            w = b["word"].to_numpy(zero_copy_only=False)
            m = b["_mask"].combine_chunks().to_numpy(zero_copy_only=False)
        else:
            words = pc_.split_pattern_regex(
                pc_.utf8_lower(pc_.coalesce(
                    b[text_col].combine_chunks(), "")), r"[^0-9a-z]+")
            if isinstance(words, pa.ChunkedArray):
                words = words.combine_chunks()
            lens = np.diff(words.offsets.to_numpy().astype(np.int64))
            flat = words.flatten().to_numpy(zero_copy_only=False)
            kb = np.repeat(
                np.array([bit[s] for s in b[key].to_pylist()],
                         dtype=np.int64), lens)
            keep = flat != ""
            w, m = flat[keep], kb[keep]
        order = np.argsort(w, kind="stable")
        ws, ms = w[order], m[order]
        st = (np.flatnonzero(np.r_[True, ws[1:] != ws[:-1]])
              if len(ws) else np.zeros(0, np.int64))
        return pa.table({
            "word": pa.array(ws[st] if len(st) else ws[:0],
                             pa.string()),
            "_mask": pa.array(np.bitwise_or.reduceat(ms, st)
                              if len(st) else ms[:0])})

    folded = tree_reduce(ds.select_columns([key, text_col]), masks,
                         fanin=fanin)

    def finalize(b: pa.Table) -> pa.Table:
        m = b["_mask"].combine_chunks().to_numpy(zero_copy_only=False)
        um, cnt = np.unique(m, return_counts=True)
        vocab = {s: int(cnt[(um & bb) != 0].sum()) for s, bb in bit.items()}
        rows = {"source_a": [], "source_b": [], "n_shared": [],
                "vocab_a": [], "vocab_b": []}
        for i, a in enumerate(srcs):
            for bname in srcs[i + 1:]:
                both = bit[a] | bit[bname]
                rows["source_a"].append(a)
                rows["source_b"].append(bname)
                rows["n_shared"].append(int(cnt[(um & both) == both].sum()))
                rows["vocab_a"].append(vocab[a])
                rows["vocab_b"].append(vocab[bname])
        return pa.table({
            "source_a": pa.array(rows["source_a"], pa.string()),
            "source_b": pa.array(rows["source_b"], pa.string()),
            "n_shared": pa.array(rows["n_shared"], pa.int64()),
            "vocab_a": pa.array(rows["vocab_a"], pa.int64()),
            "vocab_b": pa.array(rows["vocab_b"], pa.int64())})

    return folded.map_batches(finalize, batch_format="pyarrow",
                              batch_size=None)


# ---- corpus-statistics family (entropy / Zipf / per-source divergence) ---- #
#
# All four share one float contract with their DuckDB twins: every
# per-term double is computed with the IDENTICAL expression tree on both
# sides (int64 counts -> double-first division, libm ln), each term is
# quantized to an int64 at a fixed scale with half-AWAY-from-zero rounding
# (DuckDB ROUND semantics; np.round is banker's and would diverge), and
# only INTEGER sums cross the shuffle — associative, so any combine order
# lands on the identical result.


from .text_quant import half_away as _half_away


def word_entropy(ds, text_col: str = "text", id_col: str = "doc_id",
                 scale: float = 1e9):
    """Per-document Shannon entropy (nats) of the word distribution — the
    lexical-diversity / degenerate-text signal (near-zero entropy = one
    word repeated; a quality-filter axis Gopher's repetition rules don't
    capture directly).  Reference analog: per-variable QC stats computed
    per slice (tsdat/qc/checkers/check_std.py:21) — here the "slice" is a
    document and the stat is -sum(p ln p).

    Pure map, zero shuffle: one dictionary-encode + fused (row, code)
    int64-key sort per batch gives per-(doc, word) run lengths with no
    per-row Python; per-term quantized int64s fold with np.bincount
    (weights are ints < 2^53 => exact in the float accumulator)."""

    def ent(b: pa.Table) -> pa.Table:
        flat, rows = _flat_words(b, text_col)
        n = len(b)
        n_words = np.bincount(rows, minlength=n).astype(np.int64)
        if len(flat):
            d = pa.array(flat).dictionary_encode()
            codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            V = len(d.dictionary)
            key = np.sort(rows * V + codes)
            starts = np.r_[True, key[1:] != key[:-1]]
            run_row = key[starts] // V
            idx = np.flatnonzero(starts)
            c = np.diff(np.r_[idx, len(key)]).astype(np.int64)
            p = c.astype(np.float64) / n_words[run_row].astype(np.float64)
            q = _half_away(-(p * np.log(p)) * scale)
            qsum = np.bincount(run_row, weights=q, minlength=n)
        else:
            qsum = np.zeros(n, np.float64)
        return pa.table({
            id_col: b[id_col],
            "n_words": pa.array(n_words),
            "entropy": pa.array(qsum / scale),
        })

    return ds.map_batches(ent, batch_format="pyarrow")


def zipf_slope(ds, k: int = 30, text_col: str = "text"):
    """Zipf rank-frequency slope of the corpus: OLS fit of ln(count) on
    ln(rank) over the top-k words — the corpus-health diagnostic (natural
    text ~ -1; synthetic/templated corpora flatten).  One row out.

    The word counts come from the exact keyed fold of
    :func:`topk_words` (one shuffle of per-block distinct-word partials);
    the regression itself runs on k<=30 rows driver-side from QUANTIZED
    ln values (int64 at 1e6), so numerator/denominator are exact Python
    ints and the final division is the only double op."""
    import ray.data as rd

    top = topk_words(ds, k=k, text_col=text_col)
    tabs = list(top.iter_batches(batch_format="pyarrow", batch_size=None))
    t = pa.concat_tables(tabs)
    cnt = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    kk = len(cnt)
    if kk < 2:
        return rd.from_arrow(pa.table({"n_terms": pa.array([kk], pa.int64()),
                                       "zipf_slope": pa.array([0.0])}))
    rank = np.arange(1, kk + 1, dtype=np.float64)
    X = _half_away(np.log(rank) * 1e6)
    Y = _half_away(np.log(cnt.astype(np.float64)) * 1e6)
    sx, sy = int(X.sum()), int(Y.sum())
    sxy = int((X * Y).sum())
    sxx = int((X * X).sum())
    num = kk * sxy - sx * sy
    den = kk * sxx - sx * sx
    return rd.from_arrow(pa.table({
        "n_terms": pa.array([kk], pa.int64()),
        "zipf_slope": pa.array([float(num) / float(den)]),
    }))


def _source_word_pairs(ds, key: str, text_col: str):
    """(key, word) exact counts with per-word totals attached: per-block
    fused-int-key partials (one row per distinct (key, word) per block —
    tokens never ship), one keyed fold by word so each word lives wholly
    in one fold call, which emits (key, word, c_kw, c_w).
    Returns (pairs Dataset, {key: total_words}, grand_total)."""

    def partial(b: pa.Table) -> pa.Table:
        flat, rows = _flat_words(b, text_col)
        kd = b[key].combine_chunks().dictionary_encode()
        kcodes = kd.indices.to_numpy(zero_copy_only=False).astype(np.int64)[rows]
        kdict = kd.dictionary.to_pandas().to_numpy()
        if len(flat):
            wd = pa.array(flat).dictionary_encode()
            wcodes = wd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            V = len(wd.dictionary)
            fused = kcodes * V + wcodes
            uf, cnt = np.unique(fused, return_counts=True)
            ks = kdict[uf // V]
            words = wd.dictionary.to_pandas().to_numpy()[uf % V]
        else:
            ks = np.zeros(0, object)
            words = np.zeros(0, object)
            cnt = np.zeros(0, np.int64)
        return pa.table({key: pa.array(ks, pa.string()),
                         "word": pa.array(words, pa.string()),
                         "c_kw": pa.array(cnt.astype(np.int64))})

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby([key, "word"], sort=False,
                                   as_index=False)["c_kw"].sum()
        cw = df.groupby("word")["c_kw"].transform("sum")
        return pa.table({key: pa.array(df[key], pa.string()),
                         "word": pa.array(df["word"], pa.string()),
                         "c_kw": pa.array(df["c_kw"].to_numpy(np.int64)),
                         "c_w": pa.array(cw.to_numpy(np.int64))})

    pairs = keyed_fold(ds.select_columns([key, text_col])
                       .map_batches(partial, batch_format="pyarrow"), "word", fold)

    # tiny per-key word totals (bounded by |keys|, folded distributed)
    def ktotals(b: pa.Table) -> pa.Table:
        flat, rows = _flat_words(b, text_col)
        kd = b[key].combine_chunks().dictionary_encode()
        kcodes = kd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.bincount(kcodes[rows], minlength=len(kd.dictionary))
        return pa.table({key: kd.dictionary,
                         "_n": pa.array(cnt.astype(np.int64))})

    tot = (ds.select_columns([key, text_col])
           .map_batches(ktotals, batch_format="pyarrow")
           .groupby(key).sum("_n"))
    totals = {r[key]: int(r["sum(_n)"]) for r in tot.take_all()}
    return pairs, totals, sum(totals.values())


def distinctive_terms(ds, key: str = "source", k: int = 5,
                      min_count: int = 5, text_col: str = "text"):
    """Top-k DISTINCTIVE terms per corpus slice by pointwise lift
    p(word|key)/p(word) — the per-domain keyword profile used to audit a
    training-data mixture (which terms over-index in each source).

    Exact counts from one keyed fold by word of per-block partials
    (:func:`_source_word_pairs`); lift is the identical double expression
    tree as the SQL twin — (c_kw·N)/(c_w·c_k) with every operand cast
    double first — so ranking (lift DESC, word ASC) is deterministic.
    Per-batch partial top-k bounds the final per-key merge to
    blocks × |keys| × k candidate rows."""
    import ray

    pairs, totals, N = _source_word_pairs(ds, key, text_col)
    Nf = float(N)
    tref = ray.put(totals)

    def add_lift(b: pa.Table) -> pa.Table:
        import pandas as pd

        tot = ray.get(tref)
        keep = b.filter(pc.greater_equal(b["c_kw"], min_count))
        ks = keep[key].to_numpy(zero_copy_only=False)
        ck = np.array([float(tot[s]) for s in ks], np.float64) if len(ks) \
            else np.zeros(0)
        ckw = keep["c_kw"].to_numpy(zero_copy_only=False).astype(np.float64)
        cw = keep["c_w"].to_numpy(zero_copy_only=False).astype(np.float64)
        lift = (ckw * Nf) / (cw * ck) if len(ks) else np.zeros(0)
        t = keep.append_column("lift", pa.array(lift))
        # partial top-k per key within the batch
        df = t.to_pandas().sort_values(["lift", "word"],
                                       ascending=[False, True], kind="stable")
        df = df.groupby(key, sort=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    def final_topk(g: pa.Table) -> pa.Table:
        import pandas as pd

        df = g.to_pandas().sort_values(["lift", "word"],
                                       ascending=[False, True],
                                       kind="stable").head(k)
        return pa.Table.from_pandas(
            df[[key, "word", "c_kw", "lift"]], preserve_index=False)

    return (pairs.map_batches(add_lift, batch_format="pyarrow")
            .groupby(key).map_groups(final_topk, batch_format="pyarrow"))


def kl_divergence_by(ds, key: str = "source", text_col: str = "text",
                     scale: float = 1e9):
    """Per-slice unigram KL divergence KL(p_key || p_corpus) — the domain
    drift / mixture-shift diagnostic (0 = slice indistinguishable from the
    corpus; rises as a source's vocabulary usage diverges).

    Same exact pair counts as :func:`distinctive_terms`; each word's term
    (c_kw/c_k)·ln((c_kw·N)/(c_k·c_w)) is quantized int64 inside the
    word-partitioned fold, so only per-key INTEGER partial sums (bounded
    by |keys| per block) reach the final tiny groupby."""
    import ray

    pairs, totals, N = _source_word_pairs(ds, key, text_col)
    Nf = float(N)
    tref = ray.put(totals)

    def partial_kl(b: pa.Table) -> pa.Table:
        tot = ray.get(tref)
        ks = b[key].to_numpy(zero_copy_only=False)
        ck = np.array([float(tot[s]) for s in ks], np.float64) if len(ks) \
            else np.zeros(0)
        ckw = b["c_kw"].to_numpy(zero_copy_only=False).astype(np.float64)
        cw = b["c_w"].to_numpy(zero_copy_only=False).astype(np.float64)
        term = (ckw / ck) * np.log((ckw * Nf) / (ck * cw)) if len(ks) \
            else np.zeros(0)
        q = _half_away(term * scale)
        import pandas as pd

        df = pd.DataFrame({key: ks, "_q": q}).groupby(
            key, sort=False, as_index=False)["_q"].sum()
        return pa.Table.from_pandas(df, preserve_index=False)

    def finalize(b: pa.Table) -> pa.Table:
        tot = ray.get(tref)
        ks = b[key].to_numpy(zero_copy_only=False)
        n_words = np.array([tot[s] for s in ks], np.int64)
        q = b["sum(_q)"].to_numpy(zero_copy_only=False)
        return pa.table({key: b[key],
                         "n_words": pa.array(n_words),
                         "kl": pa.array(q / scale)})

    return (pairs.map_batches(partial_kl, batch_format="pyarrow")
            .groupby(key).sum("_q")
            .map_batches(finalize, batch_format="pyarrow"))


def gzip_ratio(ds, text_col: str = "text", id_col: str = "doc_id",
               level: int = 6):
    """Compression-ratio quality signal (deflate bytes / raw bytes) — the
    CCNet/Dolma-style heuristic: highly repetitive or templated documents
    compress far below natural text and get filtered.  zlib is stdlib C
    (no external codec), one call per document inside the batch — the
    per-row loop is the codec call itself, not Python math.  No SQL twin
    (DuckDB has no deflate): rows-only, pinned by pytest on known inputs."""
    import zlib

    def f(b: pa.Table) -> pa.Table:
        texts = b[text_col].to_pylist()
        raw = np.zeros(len(texts), np.int64)
        comp = np.zeros(len(texts), np.int64)
        for i, t in enumerate(texts):
            bb = (t or "").encode()
            raw[i] = len(bb)
            comp[i] = len(zlib.compress(bb, level))
        return pa.table({
            id_col: b[id_col],
            "raw_bytes": pa.array(raw),
            "gz_bytes": pa.array(comp),
            "gz_ratio": pa.array(comp.astype(np.float64)
                                 / np.maximum(raw, 1).astype(np.float64)),
        })

    return ds.map_batches(f, batch_format="pyarrow")
