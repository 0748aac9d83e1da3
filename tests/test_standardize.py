"""Standardize token statistics: the exact int64 prefix sum behind
``tok_mean`` and ``_tb`` against the float64 prefix-sum formula it
replaced, bit for bit."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from tsdat_ray.schema import VOCAB
from tsdat_ray.stages.standardize import (
    list_column_means,
    list_column_sums,
    list_column_tiebreak,
    standardize_batch,
)
from tsdat_ray.synth import generate_sequences_table


def _float_prefix_means(arr: pa.ListArray) -> np.ndarray:
    """The previous ``list_column_means``: float64 prefix-sum differences."""
    values = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    offsets = arr.offsets.to_numpy().astype(np.int64)
    lens = np.diff(offsets)
    cs = np.concatenate([[0.0], np.cumsum(values)])
    sums = cs[offsets[1:]] - cs[offsets[:-1]]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(lens > 0, sums / np.maximum(lens, 1), np.nan)


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


_lists = st.lists(st.lists(st.integers(0, VOCAB - 1), max_size=40), max_size=60)


@settings(max_examples=150, deadline=None)
@given(_lists, st.integers(0, 60), st.integers(0, 60))
def test_means_bit_equal_to_float_prefix_sum(rows, start, length):
    arr = pa.array(rows, pa.list_(pa.int32()))
    for a in (arr, arr.slice(min(start, len(arr)), length)):
        assert np.array_equal(_bits(list_column_means(a)), _bits(_float_prefix_means(a)))
        lens, sums = list_column_sums(a)
        assert lens.tolist() == [len(r) for r in a.to_pylist()]
        assert sums.tolist() == [sum(r) for r in a.to_pylist()]
        assert np.array_equal(list_column_tiebreak(a), lens * 2**32 + sums)


def test_means_of_empty_and_chunked_columns():
    empty = pa.array([], pa.list_(pa.int32()))
    assert list_column_means(empty).shape == (0,)
    chunked = pa.chunked_array([pa.array([[1, 2], []], pa.list_(pa.int32())),
                                pa.array([[], [7]], pa.list_(pa.int32()))])
    got = list_column_means(chunked)
    assert np.array_equal(_bits(got), _bits(_float_prefix_means(chunked.combine_chunks())))
    assert got[0] == 1.5 and np.isnan(got[1]) and np.isnan(got[2]) and got[3] == 7.0


def test_standardize_tok_mean_and_tiebreak_unchanged():
    tbl = generate_sequences_table(3000, seed=5)
    # two chunks, so the batch's token column is chunked as a Ray block can be
    tbl = pa.concat_tables([tbl.slice(0, 1100), tbl.slice(1100)])
    out = standardize_batch(tbl)
    tokens = tbl["tokens"].combine_chunks()
    assert np.array_equal(_bits(out["tok_mean"].to_numpy()), _bits(_float_prefix_means(tokens)))
    assert np.array_equal(out["_tb"].to_numpy(), list_column_tiebreak(tokens))


def test_check_monotonic_carries_prev_across_batches():
    """qc_ts of a table standardized in pieces, each given the row before
    it as ``prev``, equals qc_ts of the whole table; the first row is
    flagged only against a row of its own source at or after its ts."""
    from tsdat_ray.schema import QC_BIT_MONOTONIC

    tbl = generate_sequences_table(3000, seed=5)
    whole = standardize_batch(tbl)["qc_ts"].to_numpy()
    assert whole.any()
    cuts = [0, 1, 700, 701, 1900, 3000]
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        prev = None if a == 0 else (tbl["source"][a - 1].as_py(), tbl["doc_id"][a - 1].as_py())
        pieces.append(standardize_batch(tbl.slice(a, b - a), prev=prev)["qc_ts"].to_numpy())
    assert np.array_equal(np.concatenate(pieces), whole)

    row = tbl.slice(0, 1)
    src, doc = row["source"][0].as_py(), row["doc_id"][0].as_py()
    for prev, flagged in (((src, doc), True), (("other", doc), False),
                          ((src, doc[:-8] + "99999999"), True), ((src, doc[:-8] + "00000000"),
                                                                 doc[-8:] == "00000000")):
        got = standardize_batch(row, prev=prev)["qc_ts"][0].as_py()
        assert got == (QC_BIT_MONOTONIC if flagged else 0), prev
