"""The two benchmark workloads, and the query mix that the traced run of
``late_reprocess`` measures by layer.

Each workload has a set-up, an untimed ``prepare`` before every op, the
timed ``op``, an untimed ``check`` of the op's output, and a ``traced``
run that reports per-layer numbers.  Ops call the engine through its
public functions and the driver surface (``__ray_entry__``).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import common
from .common import Tracer, median

US = 1_000_000
DAY_US = 86400 * US
#: rows of the flagship / late-data corpus
CORPUS_ROWS = 160_000
#: rows of the corpus whose pipeline run warms the flagship's session
WARMUP_ROWS = 5_000


class CheckError(AssertionError):
    """An op's output differs from what it must be."""


def _timed(fn, *a, **kw):
    t0 = time.perf_counter()
    out = fn(*a, **kw)
    return out, time.perf_counter() - t0


def floor_probe(path: str) -> float:
    """Wall of a trivial real Ray job: tiny Parquet → map_batches →
    materialize (a footer-only ``count()`` would not run any task)."""
    import ray.data as rd

    t0 = time.perf_counter()
    ds = rd.read_parquet(path).map_batches(lambda b: b, batch_format="pyarrow").materialize()
    wall = time.perf_counter() - t0
    del ds
    return wall


class Workload:
    name = ""
    #: ops a run makes even when they outlast --seconds; the best is
    #: reported.  Ops of 8-12 s make three in 24 s; on a slower host two
    #: must do, or forty-eight runs would not fit in an hour
    min_ops = 2
    #: whether the traced run also runs the query mix (``query_layers``)
    with_queries = False

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.rng = np.random.default_rng(seed)
        self.setup_parts: dict[str, float] = {}
        self.floor_path = os.path.join(work, "floor.parquet")

    def setup(self) -> None:
        pq.write_table(pa.table({"x": np.arange(1000)}), self.floor_path)

    def prepare(self) -> None:
        pass

    def op(self):
        raise NotImplementedError

    def check(self, out) -> None:
        pass

    def store_bytes_ratio(self) -> float:
        raise NotImplementedError

    def summary(self, walls: list[float]) -> dict:
        """{name: (value, unit)} of the workload's own end-to-end metrics."""
        return {}

    def traced(self, tr: Tracer, run_op) -> dict:
        raise NotImplementedError

    def floor(self) -> float:
        return median([floor_probe(self.floor_path) for _ in range(3)])


# ----------------------------------------------------------- sequences corpus

class _CorpusWorkload(Workload):
    """Shared by the flagship and late-data workloads: a seeded sequences
    corpus of CORPUS_ROWS rows and one tier store."""

    def __init__(self, work: str, seed: int):
        super().__init__(work, seed)
        self.corpus = os.path.join(work, "corpus")
        self.store = os.path.join(work, "store")

    def setup(self) -> None:
        from tsdat_ray.synth import generate_sequences_parquet

        super().setup()
        _, self.setup_parts["generate_corpus"] = _timed(
            generate_sequences_parquet, self.corpus, n_rows=CORPUS_ROWS, seed=self.seed)
        files = sorted(os.path.join(self.corpus, f) for f in os.listdir(self.corpus)
                       if f.endswith(".parquet"))
        self.corpus_bytes = sum(os.path.getsize(f) for f in files)
        tbl = pa.concat_tables(pq.read_table(f, columns=["doc_id", "tokens", "n_tok", "source"])
                               for f in files)
        self.corpus_rows = tbl.num_rows
        self.corpus_tokens = int(pc.sum(pc.list_value_length(tbl["tokens"])).as_py())
        self.corpus_table = tbl
        # (source, day) of every input row, as standardize derives it
        from tsdat_ray.schema import EPOCH_US, NOMINAL_INTERVAL_S

        idx = pc.cast(pc.utf8_slice_codeunits(tbl["doc_id"], -8, 100), pa.int64())
        self.row_ts = EPOCH_US + idx.to_numpy() * NOMINAL_INTERVAL_S * US
        self.row_source = tbl["source"].to_numpy(zero_copy_only=False)

    def config(self, root: str, **kw):
        from tsdat_ray.pipelines.rollup_pipeline import PipelineConfig

        return PipelineConfig(out_root=root, **kw)

    def store_bytes_ratio(self) -> float:
        sizes = common.store_sizes(self.store)
        return sum(b for b, _ in sizes.values()) / self.corpus_bytes

    def input_rows(self, partitions) -> int:
        """Input corpus rows whose (source, day) is one of ``partitions``."""
        days = np.datetime_as_string((self.row_ts // DAY_US).astype("datetime64[D]"))
        keys = pd.Series(self.row_source).radd("source=") + "/day=" + days
        return int(keys.isin(set(partitions)).sum())

    def store_layers(self, out: dict, root: str) -> None:
        for tier, (nbytes, files) in common.store_sizes(root).items():
            out[f"store.{tier}.bytes"] = nbytes
            out[f"store.{tier}.files"] = files


# ------------------------------------------------------------ flagship fresh

def _oracle_partition(corpus: pa.Table, row_ts, source: str, day_us: int) -> dict:
    """Oracle 1m/1h/1d tiers for the input rows of one (source, day)."""
    from tsdat_ray.oracle import oracle_rollup_cascade, oracle_rollup_raw, oracle_standardize

    m = (corpus["source"].to_numpy(zero_copy_only=False) == source) & \
        (row_ts >= day_us) & (row_ts < day_us + DAY_US)
    o1m = oracle_rollup_raw(oracle_standardize(corpus.filter(pa.array(m))), 60)
    o1h = oracle_rollup_cascade(o1m, 3600)
    o1d = oracle_rollup_cascade(o1h, 86400)
    return {"t1m": o1m, "t1h": o1h, "t1d": o1d}


def _engine_partition(root: str, tier: str, part: str) -> pd.DataFrame:
    df = common.read_files(common.tier_files(root, tier, part)).to_pandas()
    for c in ("bucket", "sel_ts"):
        df[c] = df[c].astype("int64")
    return df.sort_values("bucket").reset_index(drop=True)


def _compare_tier(eng: pd.DataFrame, orc: pd.DataFrame, what: str) -> None:
    orc = orc.sort_values("bucket").reset_index(drop=True)
    if len(eng) != len(orc):
        raise CheckError(f"{what}: {len(eng)} rows, oracle {len(orc)}")
    for c in ("bucket", "n_rows", "sel_doc_id", "sel_ts"):
        if not (eng[c].to_numpy() == orc[c].to_numpy()).all():
            raise CheckError(f"{what}: column {c} differs from the oracle")
    for v in ("n_tok", "tok_mean"):
        for c in (f"{v}_n", f"{v}_n_bad", f"{v}_n_ind", f"qc_{v}"):
            if not (eng[c].to_numpy() == orc[c].to_numpy()).all():
                raise CheckError(f"{what}: column {c} differs from the oracle")
        for c in (f"{v}_mean", f"{v}_std", f"{v}_goodfraction",
                  f"{v}_sum_w", f"{v}_sum_wx", f"{v}_sum_wx2"):
            if not np.allclose(eng[c].to_numpy(float), orc[c].to_numpy(float),
                               rtol=1e-9, atol=1e-12, equal_nan=True):
                raise CheckError(f"{what}: column {c} differs from the oracle")
    for a, b in zip(eng["tokens"], orc["tokens"]):
        if list(a) != list(b):
            raise CheckError(f"{what}: selected token arrays differ from the oracle")


class FlagshipFresh(_CorpusWorkload):
    name = "flagship_fresh"

    def setup(self) -> None:
        from tsdat_ray.pipelines.rollup_pipeline import run_pipeline
        from tsdat_ray.synth import generate_sequences_parquet

        super().setup()
        self.verified: dict | None = None
        # the first op of a fresh session ran 1.2-1.5x slower than the next;
        # a run over a small corpus warms the session as well as a full op
        warm = os.path.join(self.work, "warmup")

        def warmup():
            generate_sequences_parquet(os.path.join(warm, "corpus"),
                                       n_rows=WARMUP_ROWS, seed=self.seed)
            run_pipeline(os.path.join(warm, "corpus"),
                         self.config(os.path.join(warm, "store"), resume=False))

        _, self.setup_parts["warmup"] = _timed(warmup)
        shutil.rmtree(warm)

    def prepare(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)

    def op(self):
        from tsdat_ray.pipelines.rollup_pipeline import run_pipeline

        return run_pipeline(self.corpus, self.config(self.store, resume=False))

    def check(self, out) -> None:
        digest = common.store_digest(self.store)
        if self.verified is None:
            self.oracle_check(self.store)
            self.verified = digest
        elif digest != self.verified:
            bad = sorted(t for t in digest if digest[t] != self.verified[t])
            raise CheckError(f"tier hash differs from the verified run: {bad}")

    def oracle_check(self, root: str) -> None:
        """The 1m/1h/1d tiers of one seed-chosen (source, day) partition
        against ``tsdat_ray/oracle.py``.  One partition, not one source:
        the pandas oracle needs ~3 s for one day of the web source."""
        parts = list(common.partition_files(root, "t1d"))
        part = parts[int(self.rng.integers(len(parts)))]
        source = part.split("/")[0].split("=", 1)[1]
        day_us = int(np.datetime64(part.split("day=")[1], "us").astype(np.int64))
        orc = _oracle_partition(self.corpus_table, self.row_ts, source, day_us)
        for tier, odf in orc.items():
            _compare_tier(_engine_partition(root, tier, part), odf, f"{tier} {part}")

    def summary(self, walls: list[float]) -> dict:
        return {"tokens_per_s": (self.corpus_tokens / min(walls), "1/s"),
                "corpus_rows": (self.corpus_rows, "count"),
                "corpus_tokens": (self.corpus_tokens, "count")}

    def traced(self, tr: Tracer, run_op) -> dict:
        import ray.data as rd

        from tsdat_ray.pipelines import rollup_pipeline as rp
        from tsdat_ray.stages.standardize import standardize_batch
        from tsdat_ray.state.manifest import Manifest

        out: dict = {}
        # fused op, traced: spans around the pipeline and its manifest calls
        tr.wrap(rp, "run_pipeline", "run_pipeline")
        tr.wrap(rp, "encode_tier_store", "encode_tier_store")
        tr.wrap(Manifest, "completed", "manifest.completed")
        tr.wrap(Manifest, "commit_partitions", "manifest.commit_partitions")
        try:
            out["traced_wall_s"] = run_op()
        finally:
            tr.unwrap_all()
        out["state.manifest.records"] = len(Manifest(self.store).records())
        out["state.manifest.completed_s"] = tr.total("manifest.completed")
        self.store_layers(out, self.store)

        # the staged equivalent of the fused graph, one public call at a time
        staged = os.path.join(self.work, "staged_store")
        shutil.rmtree(staged, ignore_errors=True)
        cfg = self.config(staged, resume=False)
        n_blocks = rp._num_blocks(cfg)

        def count(ds) -> int:
            return int(ds.map_batches(lambda b: pa.table({"n": [b.num_rows]}),
                                      batch_format="pyarrow").sum("n"))

        with tr.span("probe.read"):
            count(rd.read_parquet(self.corpus, override_num_blocks=n_blocks))
        with tr.span("probe.read_standardize"):
            count(rd.read_parquet(self.corpus, override_num_blocks=n_blocks)
                  .map_batches(standardize_batch, batch_format="pyarrow"))
        with tr.span("ingest_raw"):
            ing = rp.ingest_raw(self.corpus, cfg)
        man = Manifest(staged)
        tiers = {}
        for tier in ("1m", "1h", "1d"):
            with tr.span(f"rollup_tier.{tier}"):
                tiers[tier] = rp.rollup_tier(tier, cfg)
        with tr.span("encode_tier_store.1m"):
            enc = rp.encode_tier_store("1m", cfg)
        if common.store_digest(staged, ("raw", "t1m", "t1h", "t1d")) != \
                {t: self.verified[t] for t in ("raw", "t1m", "t1h", "t1d")}:
            raise CheckError("staged tiers differ from the fused run's tiers")

        read_s = tr.total("probe.read")
        rows_out = sum(r["rows"] for r in man.records() if r["tier"] == "raw")
        out.update({
            "sources.read_s": read_s,
            "stages.standardize.self_s": tr.total("probe.read_standardize") - read_s,
            "pipelines.ingest_raw.wall_s": tr.total("ingest_raw"),
            "pipelines.ingest_raw.rows_in": self.corpus_rows,
            "pipelines.ingest_raw.rows_out": rows_out,
            "pipelines.ingest_raw.dup_rows_dropped": self.corpus_rows - rows_out,
            "pipelines.ingest_raw.partitions": ing["new_partitions"],
            "stages.encode.1m.wall_s": tr.total("encode_tier_store.1m"),
            "stages.encode.1m.bytes_enc": enc["bytes_enc"],
            "stages.encode.1m.compression_ratio": enc["compression_ratio"] or 0.0,
        })
        for tier, st in tiers.items():
            out[f"stages.rollup.{tier}.wall_s"] = tr.total(f"rollup_tier.{tier}")
            out[f"stages.rollup.{tier}.rows_out"] = sum(
                r["rows"] for r in man.records() if r["tier"] == f"t{tier}")
            out[f"stages.rollup.{tier}.partitions"] = st["new_partitions"]
        out["staged_sum_s"] = (out["pipelines.ingest_raw.wall_s"]
                               + sum(out[f"stages.rollup.{t}.wall_s"] for t in tiers)
                               + out["stages.encode.1m.wall_s"])
        shutil.rmtree(staged, ignore_errors=True)
        return out


# ---------------------------------------------------------- late reprocess

class LateReprocess(_CorpusWorkload):
    """Restore a pristine store, reprocess the last 2 days, prune."""

    name = "late_reprocess"
    with_queries = True

    def setup(self) -> None:
        from tsdat_ray.pipelines.rollup_pipeline import run_pipeline
        from tsdat_ray.state.manifest import Manifest

        super().setup()
        self.pristine = os.path.join(self.work, "pristine")
        _, self.setup_parts["build_store"] = _timed(
            run_pipeline, self.corpus, self.config(self.pristine, resume=False))
        self.fresh_digests = {t: common.partition_digests(self.pristine, t)
                              for t in ("t1m", "t1h", "t1d")}
        # late data lands in the most recent days: the window is the seeded
        # corpus's last two days.  A seed-drawn start day made the op's work
        # bimodal: a window that ends on the partial last day ran 1.2-1.4x
        # slower than one of two full days, though it holds half the rows
        first, last = self.row_ts.min() // DAY_US, self.row_ts.max() // DAY_US
        start_day = int(last) - 1
        self.start_us, self.end_us = start_day * DAY_US, (start_day + 2) * DAY_US
        from tsdat_ray.schema import DEFAULT_RETENTION_S

        # "now" puts the raw horizon at the middle of the corpus span, so
        # retention prunes the older half of the raw partitions
        lo = first + (last - first) // 2
        self.now_us = int(lo) * DAY_US + DEFAULT_RETENTION_S["raw"] * US
        days = {str(np.datetime64(d, "D")) for d in (start_day, start_day + 1)}
        self.window = {t: sorted(p for p in self.fresh_digests[t]
                                 if p.split("day=")[1] in days)
                       for t in self.fresh_digests}
        raw = common.partition_files(self.pristine, "raw")
        self.window_raw = sorted(p for p in raw if p.split("day=")[1] in days)
        self.rows_recomputed = self.input_rows(self.window_raw)
        cutoff = np.datetime64(((self.now_us - DEFAULT_RETENTION_S["raw"] * US)
                                // DAY_US), "D")
        self.raw_after = sorted(p for p in raw
                                if np.datetime64(p.split("day=")[1], "D") >= cutoff)
        self.n_fresh_records = len(Manifest(self.pristine).records())

    def prepare(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.pristine, self.store)

    def op(self):
        from tsdat_ray.pipelines.rollup_pipeline import prune_retention, reprocess_range

        cfg = self.config(self.store)
        stats = reprocess_range(self.corpus, cfg, self.start_us, self.end_us)
        stats["retention"] = prune_retention(cfg, self.now_us)
        return stats

    def check(self, out) -> None:
        n_inv = sum(out["invalidated"].values())
        want = len(self.window_raw) + sum(len(v) for v in self.window.values()) + \
            len(self.window["t1m"])  # t1m_enc partitions mirror t1m's
        if n_inv != want:
            raise CheckError(f"invalidated {n_inv} partitions, expected {want}")
        for tier, parts in self.window.items():
            files = common.partition_files(self.store, tier)
            for p in parts:
                if p not in files or common.table_digest(common.read_files(files[p])) \
                        != self.fresh_digests[tier][p]:
                    raise CheckError(f"{tier} {p}: hash differs from the fresh store")
        raw_now = list(common.partition_files(self.store, "raw"))
        if raw_now != self.raw_after:
            raise CheckError("raw partitions after retention differ from the horizon")

    def traced(self, tr: Tracer, run_op) -> dict:
        import ray.data

        from tsdat_ray.pipelines import rollup_pipeline as rp
        from tsdat_ray.state.manifest import Manifest

        def count_read(span, args, kwargs, _ds):
            paths = args[0] if args else kwargs.get("paths")
            paths = [paths] if isinstance(paths, str) else list(paths)
            files = [f for p in paths for f in
                     ([p] if os.path.isfile(p) else
                      [os.path.join(d, n) for d, _, ns in os.walk(p)
                       for n in ns if n.endswith(".parquet")])]
            span["attrs"]["rows"] = sum(pq.ParquetFile(f).metadata.num_rows for f in files)

        for mod, attr in ((rp, "reprocess_range"), (rp, "prune_retention"),
                          (rp, "run_pipeline"), (rp, "ingest_raw"),
                          (rp, "encode_tier_store")):
            tr.wrap(mod, attr, attr)
        tr.wrap(rp, "rollup_tier", "rollup_tier",
                on_result=lambda s, a, kw, o: s["attrs"].update(tier=a[0], out=o))
        for m in ("completed", "invalidate", "commit_partitions"):
            tr.wrap(Manifest, m, f"manifest.{m}")
        tr.wrap(ray.data, "read_parquet", "read_parquet", on_result=count_read)
        box = {}
        try:
            box["wall"] = run_op(on_out=lambda o: box.update(out=o))
        finally:
            tr.unwrap_all()
        stats = box["out"]

        ingest = tr.named("ingest_raw")
        ingest_ids = {s["id"] for s in ingest}
        rows_read = sum(s["attrs"].get("rows", 0) for s in tr.named("read_parquet")
                        if s["parent"] in ingest_ids)
        recs = Manifest(self.store).records()
        n_recomputed = sum(st.get("new_partitions", 0) for k, st in stats.items()
                           if isinstance(st, dict) and "new_partitions" in st)
        out = {
            "traced_wall_s": box["wall"],
            "state.manifest.records": len(recs),
            "state.manifest.completed_s": tr.total("manifest.completed"),
            "state.manifest.invalidate_s": tr.total("manifest.invalidate"),
            "state.retention.prune_s": tr.total("prune_retention"),
            "state.retention.partitions_pruned": sum(stats["retention"]["pruned"].values()),
            "state.resume.partitions_invalidated": sum(stats["invalidated"].values()),
            "state.resume.partitions_recomputed": n_recomputed,
            "state.resume.rows_read": rows_read,
            "state.resume.rows_recomputed": self.rows_recomputed,
            "state.resume.read_amplification": rows_read / self.rows_recomputed,
            "pipelines.ingest_raw.wall_s": tr.total("ingest_raw"),
            "pipelines.ingest_raw.rows_in": rows_read,
            "pipelines.ingest_raw.partitions": stats["raw"]["new_partitions"],
            "stages.encode.1m.wall_s": tr.total("encode_tier_store"),
            "stages.encode.1m.bytes_enc": stats["1m_enc"]["bytes_enc"],
            "stages.encode.1m.compression_ratio": stats["1m_enc"]["compression_ratio"] or 0.0,
        }
        # records the op appended for recomputed partitions
        new = [r for r in recs[self.n_fresh_records:] if r.get("action") != "pruned"]

        def rows_of(tier: str) -> int:
            return sum(r["rows"] for r in new if r["tier"] == tier)

        out["pipelines.ingest_raw.rows_out"] = rows_of("raw")
        out["pipelines.ingest_raw.dup_rows_dropped"] = self.rows_recomputed - rows_of("raw")
        for s in tr.named("rollup_tier"):
            tier = s["attrs"]["tier"]
            out[f"stages.rollup.{tier}.wall_s"] = s["end"] - s["start"]
            out[f"stages.rollup.{tier}.partitions"] = s["attrs"]["out"]["new_partitions"]
            out[f"stages.rollup.{tier}.rows_out"] = rows_of(f"t{tier}")
        self.store_layers(out, self.store)
        return out


# --------------------------------------------------------------- query mix

QUERIES = ("percent_rank_events", "knn_multi_embeddings", "ks_2samp_docs",
           "dedup_incremental_bloom_docs", "lag_events", "rolling_median_events",
           "gapfill_1m_events", "encode_roundtrip_1m_events", "seq_rollup_1h",
           "rollup_1h_events")
ORACLE_TABLES = ("events", "documents", "embeddings")


def _to_df(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    tabs = list(res.iter_batches(batch_format="pyarrow", batch_size=None))
    if not tabs:
        return res.to_pandas()
    return pa.concat_tables(tabs).to_pandas()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    """The driver's compare rule: columns sorted by name, rows sorted by
    every column."""
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


class QueryMix:
    """The oracled driver queries, one at a time, in a seeded order: the
    read side, with small shuffles where the fixed Ray job floor shows.

    Not a gated workload: a mix of sub-second Ray jobs is bound by the
    latency of hops between processes, and one busy CPU of the four made
    it 1.5x slower (``perfbench/README.md``, "Noise").  The traced run of
    ``late_reprocess`` runs it once and reports each query as a layer."""

    SF = 0.01

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        import __ray_entry__ as entry

        from tsdat_ray.synth import generate_sequences_parquet

        from . import inputs

        self.entry = entry
        self.sf_dir = os.path.join(self.work, "data", f"sf{self.SF}")
        if entry._sf_of(self.sf_dir) != self.SF:
            raise RuntimeError(f"checkout path confuses the scale parser: {self.sf_dir}")
        entry._CACHE = os.path.join(self.work, "cache")
        inputs.write_query_tables(self.sf_dir, self.seed)
        # the sequences corpus the seq_* queries read, from this seed
        n_seq = int(6_000_000 * self.SF)
        generate_sequences_parquet(os.path.join(entry._CACHE, f"sequences_n{n_seq}"),
                                   n_rows=n_seq, seed=self.seed)
        # the tier stores the mix reads (the sequences and events cascades of
        # prewarm_stores; its VAP and media stores are not read by the mix)
        entry._seq_tiers(self.sf_dir)
        entry._events_rollup(self.sf_dir, "1d")
        self.order = [QUERIES[i] for i in self.rng.permutation(len(QUERIES))]
        self.queries = entry.queries()

    def run(self, tr: Tracer) -> dict:
        out = {}
        for q in self.order:
            with tr.span(f"query.{q}"):
                out[q] = _to_df(self.queries[q](self.sf_dir))
        from tsdat_ray.stages.spill import release_all

        release_all()
        return out

    def check(self, out) -> None:
        import duckdb

        con = duckdb.connect(config={"threads": common.NUM_CPUS})
        for t in ORACLE_TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{self.sf_dir}/{t}.parquet')")
        sql = self.entry.oracle_sql()
        bad = []
        for q, df in out.items():
            mine, orc = _norm(df), _norm(con.execute(sql[q]).fetchdf())
            try:
                if list(mine.columns) != list(orc.columns) or len(mine) != len(orc):
                    raise AssertionError("shape")
                pd.testing.assert_frame_equal(mine, orc, check_dtype=False, check_exact=True)
            except AssertionError:
                bad.append(q)
        con.close()
        if bad:
            raise CheckError(f"results differ from oracle_sql(): {bad}")


def query_layers(work: str, seed: int, tr: Tracer) -> dict:
    """Set up the query mix, run it once traced, check every result against
    its oracle; {layer: value} of the per-query latencies and their median."""
    qm = QueryMix(work, seed)
    qm.setup()
    out = qm.run(tr)
    qm.check(out)
    lat = {q: tr.total(f"query.{q}") for q in QUERIES}
    return {**{f"query.{q}.s": s for q, s in lat.items()},
            "query.p50_s": median(list(lat.values()))}


WORKLOADS = {w.name: w for w in (FlagshipFresh, LateReprocess)}
