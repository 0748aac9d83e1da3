"""Core schema, constants and QC bit conventions for the engine.

The governing input table (BASELINE.json input_hint) is a Parquet table of
pre-tokenized training sequences:

    doc_id : string      -- "{source}-{i:08d}", i = per-source sequence index
    tokens : list<int32> -- token ids in [0, VOCAB)
    n_tok  : int32       -- len(tokens), except injected corruption for QC
    source : string      -- producing datastream (categorical, Zipf-skewed)

Standardization derives a deterministic event-time view (FIXTURES.md §A):

    ts       : timestamp[us]  = EPOCH + i * NOMINAL_INTERVAL_S seconds
    tok_mean : float64        = mean(tokens)
    qc_n_tok, qc_tok_mean, qc_ts : int32 bit-packed QC columns

QC bit packing follows the reference convention (checker bits are assigned in
manager order, bit k = k-th recorded test; see
/root/reference/tsdat/qc/handlers/record_quality_results.py:74-83).

Transform QC flags are fixed constants with the same values as the reference
(/root/reference/tsdat/transform_v2/utils/add_empty_transform_qc_var.py:26-44).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------- input table
EPOCH = np.datetime64("2022-04-05T00:00:00", "us")
EPOCH_US = EPOCH.astype("int64")  # microseconds since unix epoch
NOMINAL_INTERVAL_S = 10
SOURCES = ("web", "code", "books", "wiki")
SOURCE_WEIGHTS = (0.70, 0.15, 0.10, 0.05)
FILL_INT = -9999
FILL_FLOAT = -9999.0
VOCAB = 50257
MAX_TOKENS = 2048

SEQUENCES_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("tokens", pa.list_(pa.int32())),
        pa.field("n_tok", pa.int32()),
        pa.field("source", pa.string()),
    ]
)

STANDARDIZED_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("tokens", pa.list_(pa.int32())),
        pa.field("n_tok", pa.int32()),
        pa.field("source", pa.string()),
        pa.field("ts", pa.timestamp("us")),
        pa.field("tok_mean", pa.float64()),
        pa.field("qc_n_tok", pa.int32()),
        pa.field("qc_tok_mean", pa.int32()),
        pa.field("qc_ts", pa.int32()),
    ]
)

# ------------------------------------------------------- engine QC bit layout
# Checker bits for the flagship sequences pipeline, in manager order (the bit
# number is the 1-based position of the manager in the config, mirroring
# record_quality_results.py bit assignment).
QC_BIT_MISSING = 1  # manager 1: CheckMissing
QC_BIT_RANGE = 2  # manager 2: CheckFailRange (n_tok mismatch / out of range)
QC_BIT_MONOTONIC = 1  # on qc_ts: out-of-order arrival detected

# Assessment of each engine-QC bit; bits whose assessment is "Bad" feed the
# bad-mask used by rollups (parity: flag_assessments in the reference).
BAD_ASSESSMENT_BITS = QC_BIT_MISSING | QC_BIT_RANGE

# ------------------------------------------------- transform QC flags (fixed)
QC_BAD = 1
QC_INDETERMINATE = 2
QC_INTERPOLATE = 4
QC_EXTRAPOLATE = 8
QC_NOT_USING_CLOSEST = 16
QC_SOME_BAD_INPUTS = 32
QC_ZERO_WEIGHT = 64
QC_OUTSIDE_RANGE = 128
QC_ALL_BAD_INPUTS = 256
QC_BAD_STD = 512
QC_INDETERMINATE_STD = 1024
QC_BAD_GOODFRAC = 2048
QC_INDETERMINATE_GOODFRAC = 4096

GOODFRAC_IND_MIN = 0.15
GOODFRAC_BAD_MIN = 0.05

# ------------------------------------------------------------------ tiers
#: tier name -> bucket width in seconds (raw has no bucketing)
TIERS = {"1m": 60, "1h": 3600, "1d": 86400}
TIER_ORDER = ("raw", "1m", "1h", "1d")

#: default retention horizon per tier in seconds (relative to a supplied
#: "now"); None = keep forever.  raw 7d, 1m 30d, 1h 365d, 1d forever.
DEFAULT_RETENTION_S = {
    "raw": 7 * 86400,
    "1m": 30 * 86400,
    "1h": 365 * 86400,
    "1d": None,
}

