"""Seeded input tables for the benchmark workloads.

The flagship and late-data workloads use the engine's own sequences
synthesizer (``tsdat_ray.synth``).  The query mix reads ``events``,
``documents`` and ``embeddings`` tables that follow the figures measured on
the driver's sf0.01 tables (``perfbench/README.md``, "Query tables"): the
same schemas, row counts, distinct counts and value distributions.  They
are generated here because the benchmark reads only its own checkout.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

EVENT_TYPES = ("click", "view", "purchase", "signup", "error")
LANGS = ("en", "zh", "de", "fr", "es")
LANG_P = (0.40, 0.15, 0.15, 0.15, 0.15)
WORDS = ("a the data value key group query agg join scan filter batch sort "
         "order window vector hash stream merge table column row part line "
         "spark fast slow small big customer").split()
NEAR_DUP_P = 0.05
MONTH_US = 30 * 86400 * 1_000_000
T0_US = int(np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64))


def events_table(n: int, rng: np.random.Generator) -> pa.Table:
    ts = np.sort(rng.integers(T0_US, T0_US + MONTH_US, n))
    value = np.round(rng.exponential(50.0, n), 2)
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
        # 150 users per 10k events, ~67 events each
        "user_id": pa.array(rng.integers(0, n * 3 // 200, n)),
        "event_type": pa.array(np.array(EVENT_TYPES)[rng.integers(0, 5, n)]),
        "value": pa.array(value),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n)]),
    })


def documents_table(n: int, rng: np.random.Generator) -> pa.Table:
    lens = rng.integers(10, 100, n)
    words = np.array(WORDS)
    texts = [" ".join(words[rng.integers(0, len(words), k)]) for k in lens]
    # ~5% near-duplicates: another document's text (earlier or later, maybe
    # itself a near-duplicate) with " dup" appended.  No exact copies are
    # planted; two near-duplicates of one text are the only way to get one
    for i in np.flatnonzero(rng.random(n) < NEAR_DUP_P):
        texts[i] = texts[int(rng.integers(0, n))] + " dup"
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts),
        "lang": pa.array(np.array(LANGS)[rng.choice(5, n, p=LANG_P)]),
        "source": pa.array([f"src{i % 20}" for i in range(n)]),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def embeddings_table(n: int, rng: np.random.Generator, dim: int = 64) -> pa.Table:
    v = rng.standard_normal((n, dim))
    v = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    emb = pa.ListArray.from_arrays(
        pa.array(np.arange(0, n * dim + 1, dim, dtype=np.int32)),
        pa.array(v.ravel()))
    return pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": emb,
        "label": pa.array(rng.integers(0, 10, n).astype(np.int32)),
    })


#: row counts per table at the driver's sf0.01 correctness scale
SF001_ROWS = {"events": 10_000, "documents": 500, "embeddings": 500}


def write_query_tables(sf_dir: str, seed: int) -> dict:
    """Write events/documents/embeddings Parquet under ``sf_dir``; returns
    {table: rows}."""
    os.makedirs(sf_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 0x51])
    makers = {"events": events_table, "documents": documents_table,
              "embeddings": embeddings_table}
    for name, n in SF001_ROWS.items():
        pq.write_table(makers[name](n, rng), os.path.join(sf_dir, f"{name}.parquet"))
    return dict(SF001_ROWS)
