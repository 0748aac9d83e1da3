"""Standardize stage: raw sequences batches → declared engine schema.

Ray-Data-first re-expression of the reference's retrieval + standardization
step (rename/cast/fill/derive; see /root/reference/tsdat/pipeline/base/
pipeline.py:59-148 and io/retrievers/_rename_variables.py:16-91): one
vectorized ``standardize_batch`` over a pyarrow batch (in the flagship, one
input row group, inside the task that reads it) that

* derives the deterministic event time ``ts`` from ``doc_id``
  (``EPOCH + i * interval``),
* computes ``tok_mean`` from the token list arrays (zero-copy numpy over the
  Arrow buffers),
* runs the two cheapest point-wise QC managers inline (CheckMissing and a
  fail-range consistency check on ``n_tok``; semantics per
  /root/reference/tsdat/qc/checkers/check_missing.py:8-27 and
  check_max.py:11-42), bit-packing results into ``qc_n_tok`` in manager order
  (record_quality_results.py:74-83) and nulling failed values
  (RemoveFailedValues, remove_failed_values.py:8-26),
* flags out-of-order arrival on ``qc_ts`` (CheckMonotonic semantics,
  check_monotonic.py:74-99, evaluated per input file: each row against the
  row before it in the file when both share a source — a batch that does
  not start a file gets that row as ``prev``.  The deviation from the
  reference's whole-slice view is documented in SURVEY.md §4.2),
* and, given the (source, day) partitions a resume already holds, drops
  their rows right after ``ts`` and CheckMonotonic, before any other step.

Stateless: a plain function, not an actor, since there is no per-worker state
to amortize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import (
    EPOCH_US,
    FILL_INT,
    MAX_TOKENS,
    NOMINAL_INTERVAL_S,
    QC_BIT_MISSING,
    QC_BIT_MONOTONIC,
    QC_BIT_RANGE,
)
from ..state.manifest import Manifest


_DAY_US = 86400 * 1_000_000


@dataclass(frozen=True)
class StandardizeConfig:
    epoch_us: int = EPOCH_US
    interval_s: int = NOMINAL_INTERVAL_S
    fill_int: int = FILL_INT
    max_tokens: int = MAX_TOKENS
    id_digits: int = 8  # doc_id = f"{source}-{i:0{id_digits}d}"


def list_column_sums(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(length, exact int64 sum) of each list in a list<int> column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    arr: pa.ListArray = col  # type: ignore[assignment]
    offsets = arr.offsets.to_numpy().astype(np.int64)
    lens = np.diff(offsets)
    sums = np.zeros(len(lens), np.int64)
    # one int64 reduceat over the NON-EMPTY lists of this array's child
    # span: their starts strictly increase and the last one ends the span,
    # so each segment is exactly its list (a reduceat over every start,
    # empty lists' included, would cut the list before a trailing empty
    # one short); no int64 copy or prefix sum of the values
    ne = lens > 0
    if ne.any():
        values = arr.values.to_numpy(zero_copy_only=False)[offsets[0]:offsets[-1]]
        sums[ne] = np.add.reduceat(values, offsets[:-1][ne] - offsets[0], dtype=np.int64)
    return lens, sums


def _means(lens: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """sum / len per list, NaN for an empty one.  The same doubles as a
    float64 prefix sum gives wherever that sum is exact (< 2**53)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(lens > 0, sums.astype(np.float64) / np.maximum(lens, 1), np.nan)


def list_column_means(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Vectorized mean over each list in a list<int32> column (NaN for empty)."""
    return _means(*list_column_sums(col))


def list_column_lengths(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offsets = col.offsets.to_numpy().astype(np.int64)
    return np.diff(offsets)


def list_column_tiebreak(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic content tie-break per list: len(list) * 2**32 +
    sum(values), exact in int64 for token ids < VOCAB and len <= MAX_TOKENS
    (max sum ~1e8 < 2**32).  The corpus injects duplicate rows that share
    doc_id but carry independently generated payloads (synth.py DUP_P), so
    'keep first by id' alone is ambiguous; ordering by this value makes the
    dedup survivor bit-deterministic AND SQL-reproducible
    (len(tokens)*4294967296 + list_sum(tokens) in DuckDB)."""
    lens, sums = list_column_sums(col)
    return lens * np.int64(2**32) + sums


def list_column_content_hash(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Order-SENSITIVE per-row polynomial hash of a list column (uint64
    wraparound Horner: Σ (v_i + 1) · P^i): the engine-internal FINAL dedup
    tie-break.  ``_tb`` (len·2³²+sum) can tie across genuinely different
    payloads; every SQL-checked aggregate is then identical whichever row
    survives, but bit-determinism of the CARRIED payload needs a content
    total order — this supplies it (not part of the SQL contract)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    arr: pa.ListArray = col  # type: ignore[assignment]
    values = arr.values.to_numpy(zero_copy_only=False).astype(np.uint64)
    offsets = arr.offsets.to_numpy().astype(np.int64)
    lens = np.diff(offsets)
    if not len(lens):
        return np.zeros(0, np.int64)
    P = np.uint64(1099511628211)
    maxlen = int(lens.max()) if len(lens) else 0
    pows = np.ones(max(maxlen, 1), np.uint64)
    np.cumprod(np.full(max(maxlen, 1), P, np.uint64), out=pows)
    pows = np.concatenate([np.ones(1, np.uint64), pows[:-1]]) if maxlen else pows
    # restrict to this (possibly sliced) array's element span
    vals = values[offsets[0]:offsets[-1]]
    rel = offsets - offsets[0]
    pos = (np.arange(len(vals), dtype=np.int64)
           - np.repeat(rel[:-1], lens)) if len(vals) else np.zeros(0, np.int64)
    terms = (vals + np.uint64(1)) * pows[pos] if len(vals) else vals
    cs = np.concatenate([np.zeros(1, np.uint64), np.cumsum(terms)])
    h = cs[rel[1:]] - cs[rel[:-1]]
    return h.view(np.int64)


def doc_ts_us(doc_id, cfg: StandardizeConfig = StandardizeConfig()):
    """Event time in µs since the Unix epoch from ``doc_id``: its last
    ``id_digits`` characters as the sequence index, times ``interval_s``,
    plus ``epoch_us``.  Raises ``pa.ArrowInvalid`` on an id that does not
    parse."""
    i = pc.cast(pc.utf8_slice_codeunits(doc_id, start=-cfg.id_digits), pa.int64())
    return pc.add(pc.multiply(i, pa.scalar(cfg.interval_s * 1_000_000, type=pa.int64())),
                  pa.scalar(cfg.epoch_us, type=pa.int64()))


def done_mask(source: pa.ChunkedArray, ts_us: np.ndarray, done: frozenset) -> np.ndarray:
    """Partition elimination: which rows fall in a (source, day) partition
    that ``done`` names (``source=<s>/day=<d>``).  Matches (source
    dictionary code, day index) pairs against the few done pairs whose
    source occurs in the rows, never a per-row string."""
    d = source.combine_chunks().dictionary_encode()
    code_of = {s: i for i, s in enumerate(d.dictionary.to_pylist())}
    drop = np.array([(code_of[s] << 32) | (np.datetime64(day, "D").astype(np.int64) & 0xFFFFFFFF)
                     for s, day in map(Manifest.parse_partition, done) if s in code_of], np.int64)
    key = d.indices.to_numpy(zero_copy_only=False).astype(np.int64) << np.int64(32)
    key |= (ts_us // _DAY_US) & np.int64(0xFFFFFFFF)
    return np.isin(key, drop)


def _check_monotonic(src: pa.ChunkedArray, ts_np: np.ndarray, prev, cfg) -> np.ndarray:
    """CheckMonotonic on ts per (source) run of the input file: each row
    against the row before it, ``prev`` (``(source, doc_id)``) for the
    first."""
    n = len(ts_np)
    ooo = np.zeros(n, dtype=bool)
    if n > 1:
        same_src = pc.fill_null(pc.equal(src.slice(1), src.slice(0, n - 1)), False)
        ooo[1:] = (np.diff(ts_np) <= 0) & same_src.to_numpy(zero_copy_only=False)
    if prev is not None and n:
        prev_ts = doc_ts_us(pa.array([prev[1]], pa.string()), cfg)[0].as_py()
        ooo[0] = src[0].as_py() == prev[0] and ts_np[0] <= prev_ts
    return ooo


def standardize_batch(batch: pa.Table, cfg: StandardizeConfig = StandardizeConfig(),
                      prev: tuple[str, str] | None = None,
                      done: frozenset = frozenset()) -> pa.Table:
    """``prev`` is the ``(source, doc_id)`` of the input row just before
    ``batch`` in its file (None when the batch starts the file); the first
    row's CheckMonotonic compares against it.

    ``done`` names (source, day) partitions (``source=<s>/day=<d>``) whose
    rows are dropped (``done_mask``) right after ``ts`` and CheckMonotonic,
    the two steps that read each row's predecessor in the file; so a kept
    row's ``qc_ts`` is the one a run that keeps every row gives it.  Every
    later step reads only the row itself, and the token stats, the QC masks
    and the table build run on the kept rows alone."""
    # --- derive ts from the per-source sequence index encoded in doc_id
    ts_us = doc_ts_us(batch["doc_id"], cfg)
    ts_np = ts_us.to_numpy(zero_copy_only=False)
    ooo = _check_monotonic(batch["source"], ts_np, prev, cfg)
    if done:
        keep = ~done_mask(batch["source"], ts_np, done)
        if not keep.all():
            mask = pa.array(keep)
            batch, ts_us, ooo = batch.filter(mask), ts_us.filter(mask), ooo[keep]
    n = batch.num_rows
    ts = pc.cast(ts_us, pa.timestamp("us"))

    # --- token stats (numpy over Arrow list buffers, no per-row Python):
    #     one combined list array, one exact int64 reduceat
    tokens = batch["tokens"].combine_chunks()
    actual_len, tok_sum = list_column_sums(tokens)
    tok_mean = _means(actual_len, tok_sum)

    n_tok = batch["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)
    null_in = pc.is_null(batch["n_tok"]).to_numpy(zero_copy_only=False)

    # --- manager 1: CheckMissing (fill value or null)  → record bit, remove
    missing = null_in | (n_tok == cfg.fill_int)
    # --- manager 2: fail-range/consistency: n_tok must equal len(tokens) and
    #     lie in [1, max_tokens]; evaluated on non-missing values only
    #     (_FillValue masked out first, as in check_max.py:27-31)
    bad_range = ~missing & ((n_tok != actual_len) | (n_tok < 1) | (n_tok > cfg.max_tokens))

    qc_n_tok = (missing * QC_BIT_MISSING + bad_range * QC_BIT_RANGE).astype(np.int32)
    n_tok_clean = pa.array(
        np.where(missing | bad_range, 0, n_tok).astype(np.int32),
        mask=(missing | bad_range),
    )

    qc_ts = (ooo * QC_BIT_MONOTONIC).astype(np.int32)

    qc_tok_mean = np.zeros(n, dtype=np.int32)

    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "tokens": batch["tokens"],
            "n_tok": n_tok_clean,
            "source": batch["source"],
            "ts": ts,
            "tok_mean": pa.array(tok_mean, type=pa.float64()),
            "qc_n_tok": pa.array(qc_n_tok),
            "qc_tok_mean": pa.array(qc_tok_mean),
            "qc_ts": pa.array(qc_ts),
            # dedup tie-break for duplicate doc_ids (dropped after dedup):
            # _tb = (len, sum) — SQL-reproducible; the engine-only final
            # key, the content hash, is computed by rollup.dedup_order for
            # the few rows it can decide
            "_tb": pa.array(actual_len * np.int64(2**32) + tok_sum),
        }
    )

