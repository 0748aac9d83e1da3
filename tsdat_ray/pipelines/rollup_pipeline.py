"""The flagship pipeline: sequences Parquet → raw tier → 1m → 1h → 1d,
partitioned by (source, day), resumable from the lineage manifest, with
retention pruning per tier.

Recasts the reference's ingest + transformation pipeline lifecycle
(/root/reference/tsdat/pipeline/pipelines/ingest_pipeline.py:34-49,
transformation_pipeline.py:29-75) as one streaming Ray Data graph in which
the full token payload crosses the cluster exactly ONCE:

    read_parquet(inputs)                                   # pruned columns
      → map_batches(standardize)                           # stateless
      → [skip done(raw) partitions]                        # resume filter
      → groupby(_pkey).map_groups(clean + write raw/)      # THE shuffle:
        _pkey = crc32(source)<<32 | day — one int64 key    #   sort+dedup+QC
      → for t in 1m, 1h, 1d (src = the tier before t):
          [in-memory rows of src, minus done(t)]           # partition
          ∪ [disk read of done(src) minus done(t)]         #   elimination
          → partial → barrier → groupby(key, window)       # combiner push-
            .map_groups(combine + write t<t>/)             #   down
    retention: prune day partitions older than the per-tier horizon

Fresh, resumed and reprocess runs all build this one graph (``_cascade``).
Before it starts, every tier's committed set done(t) is read from the
manifest and its uncommitted partition dirs are wiped; committed partitions
are then eliminated ahead of each tier instead of being recomputed, and a
tier re-reads from disk only the source partitions it is missing (e.g. t1m
when a crash lost t1h).  Every tier commits after the graph completes, so a
killed run leaves only uncommitted dirs and resumes idempotently.  With an
empty manifest there is no skip filter and no disk read: the fresh graph.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import DEFAULT_RETENTION_S, TIERS
from ..stages.qc import QCConfig, QCStage
from ..stages.rollup import RollupConfig, _add_window, _key_change, dedup_order, rollup_batch
from ..stages.standardize import StandardizeConfig, standardize_batch
from ..stages.writers import write_batch_partitioned, write_partitioned
from ..state.manifest import Manifest

US = 1_000_000
DAY_US = 86400 * US


def _day_str_from_us(ts_us: np.ndarray) -> pa.Array:
    days = (ts_us // DAY_US) * DAY_US
    return pc.strftime(pa.array(days, type=pa.int64()).cast(pa.timestamp("us")), format="%Y-%m-%d")


def _add_day(batch: pa.Table, ts_col: str) -> pa.Table:
    ts_us = batch[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    return batch.append_column("day", _day_str_from_us(ts_us))


def _add_pkey(batch: pa.Table, ts_col: str) -> pa.Table:
    """Single int64 partition key (crc32(source) << 32 | day index): sorting
    one int column shuffles ~3× faster than sorting (string, string) keys.
    A crc collision merges two sources into one group — harmless, because
    every group consumer segments by source again."""
    ts_us = batch[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    day = ts_us // DAY_US
    d = batch["source"].combine_chunks().dictionary_encode()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    h = np.array([zlib.crc32(s.encode()) for s in d.dictionary.to_pylist()], dtype=np.int64)
    pkey = (h[codes] << np.int64(32)) | (day & np.int64(0xFFFFFFFF))
    return batch.append_column("_pkey", pa.array(pkey))


def _skip_completed(batch: pa.Table, ts_col: str, done: frozenset) -> pa.Table:
    """Partition elimination: drop rows whose (source, day) partition is in
    ``done``.  Exact for every tier, because a row's day is the day of its
    1m, 1h and 1d buckets alike."""
    ts_us = batch[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    day = _day_str_from_us(ts_us).to_numpy(zero_copy_only=False)
    src = batch["source"].to_numpy(zero_copy_only=False)
    parts = np.char.add(np.char.add(np.char.add("source=", src.astype(str)), "/day="), day.astype(str))
    keep = ~np.isin(parts, list(done))
    return batch.filter(pa.array(keep))


def clean_group(g: pa.Table) -> pa.Table:
    """Per (source, day) group: sort by (ts, doc_id) and drop duplicate
    (source, ts) rows keeping the smallest doc_id, so the caller can run the
    order-dependent QC managers on the sorted slice.  Segments by source so a
    _pkey hash collision can never merge rows across sources."""
    if "_pkey" in g.column_names:
        g = g.drop_columns(["_pkey"])
    ts_us = g["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    doc_id = g["doc_id"].to_numpy(zero_copy_only=False)
    codes = g["source"].combine_chunks().dictionary_encode().indices.to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    order = dedup_order(g, doc_id, ts_us, codes)
    ts_s, code_s = ts_us[order], codes[order]
    keep = _key_change(ts_s, code_s)
    t = g.take(pa.array(order[keep], type=pa.int64()))
    drop = [c for c in ("_tb", "_tb2") if c in t.column_names]
    if drop:
        t = t.drop_columns(drop)
    return t


@dataclass
class PipelineConfig:
    out_root: str
    std: StandardizeConfig = field(default_factory=StandardizeConfig)
    qc: Optional[QCConfig] = None
    values: tuple[str, ...] = ("n_tok", "tok_mean")
    carry_tokens: bool = True
    tiers: tuple[str, ...] = ("1m", "1h", "1d")
    window_s: dict = field(default_factory=lambda: {"1m": 3600 * 6, "1h": 86400, "1d": 86400 * 16})
    retention_s: dict = field(default_factory=lambda: dict(DEFAULT_RETENTION_S))
    resume: bool = True
    run_id: str = ""
    # Input block count. None → 2×cluster CPUs.  Block count propagates through
    # the whole chain (shuffle partition count follows input blocks), so
    # over-blocking small inputs multiplies fixed per-task cost ~4× (measured:
    # 26s → 12s at sf0.1 going from 200 to 64 blocks on 32 CPUs).  At real
    # scale leave None — blocks are then bounded by target_max_block_size.
    parallelism: Optional[int] = None
    # Tiers additionally stored as delta-of-delta timestamp + Gorilla-XOR
    # value blobs (one blob row per (source, window)) under t<tier>_enc/.
    encode_tiers: tuple[str, ...] = ("1m",)
    # fail_pipeline tolerance breaches: False → raise (job aborts, reference
    # FailPipeline semantics); True → divert the partition's pre-QC rows to
    # quarantine/ and continue (SURVEY §7.4-4).
    qc_quarantine: bool = False
    # user hooks (reference ingest_pipeline.py:51-87): "customize" runs after
    # standardize (before the clean shuffle), "finalize" after QC before the
    # raw write; each is a picklable callable (pa.Table) -> pa.Table
    hooks: dict = field(default_factory=dict)
    # persist the per-stage stats dict as <root>/_reports/run_<id>.json
    save_report: bool = True


def _num_blocks(cfg: PipelineConfig) -> int:
    if cfg.parallelism:
        return cfg.parallelism
    import ray

    return max(8, 2 * int(ray.cluster_resources().get("CPU", 8)))


def _tier_rcfg(tier: str, cfg: PipelineConfig) -> RollupConfig:
    return RollupConfig(
        interval_s=TIERS[tier],
        values=cfg.values,
        window_s=cfg.window_s.get(tier, 86400),
        carry_tokens=cfg.carry_tokens,
    )


def _qc_file_metadata(qc_stage, run_id: str = "") -> dict:
    """Parquet footer attrs for raw-tier files: QC bit tables per variable
    (flag_masks / flag_meanings / flag_assessments — the ACT convention the
    reference records per qc_ variable, record_quality_results.py:56-83)."""
    import json

    meta = {"engine": "tsdat_ray", "run_id": run_id}
    if qc_stage is not None:
        for var, lst in qc_stage.meanings.items():
            meta[f"qc_{var}_flag_masks"] = json.dumps([b for b, _, _ in lst])
            meta[f"qc_{var}_flag_meanings"] = json.dumps([m for _, m, _ in lst])
            meta[f"qc_{var}_flag_assessments"] = json.dumps([a for _, _, a in lst])
    return meta


def _clean_write_group(g: pa.Table, qc_stage, raw_root: str,
                       quarantine_root: str | None, metadata: dict | None = None,
                       finalize_hook=None) -> pa.Table:
    """Clean one (source, day) group, run QC with per-partition counters,
    write the partition + a ``_qc.json`` lineage sidecar (QC counts land in
    the manifest record at commit), and return the cleaned rows onward.

    ``fail_pipeline`` tolerance breaches either abort the job (reference
    FailPipeline semantics, quarantine_root=None) or divert the partition's
    pre-QC rows to ``quarantine/`` and keep the job going (SURVEY §7.4-4)."""
    import json

    from ..stages.qc import DataQualityError, QCReport
    from ..state.uri import StorageFS

    t = clean_group(g)
    report = QCReport()
    if qc_stage is not None:
        try:
            t_qc = qc_stage(t, report)
        except DataQualityError as e:
            if quarantine_root is None:
                raise
            res = write_batch_partitioned(t, quarantine_root, ts_col="ts")
            qfs = StorageFS(quarantine_root)
            for p in {os.path.dirname(x) for x in res["path"].to_pylist()}:
                qfs.write_text(f"{p}/_qc_error.txt", str(e))
            empty = qc_stage(t.slice(0, 0))
            return empty.drop_columns(["day"])
        t = t_qc
    if finalize_hook is not None:
        t = finalize_hook(t)
    res = write_batch_partitioned(t, raw_root, ts_col="ts", metadata=metadata)
    if report:
        counts = {f"{m}:{v}": int(n) for (m, v), n in report.items()}
        rfs = StorageFS(raw_root)
        for p in {os.path.dirname(x) for x in res["path"].to_pylist()}:
            rfs.write_text(f"{p}/_qc.json", json.dumps(counts))
    return t.drop_columns(["day"])


def _clean_dataset(input_paths, cfg: PipelineConfig, done: frozenset, write_root: str):
    """read → standardize → resume-skip → ONE groupby(_pkey) clean shuffle,
    with the raw partition write (+ QC sidecars/quarantine) fused into the
    shuffle's reduce tasks."""
    import ray.data as rd

    qc_stage = QCStage(cfg.qc) if cfg.qc else None
    std_cfg = cfg.std
    ds = rd.read_parquet(input_paths, override_num_blocks=_num_blocks(cfg))
    tomb = _tombstone_values(cfg)
    if tomb is not None and len(tomb):
        # permanent exclusion set (purge_keys): applied on the raw input so
        # no run — fresh, resume, or reprocess — can resurrect purged rows.
        # Broadcast once via ray.put (bounded by purge-history size; a purge
        # list beyond broadcast budget should move to an anti-join stage).
        import ray

        tref = ray.put(tomb)

        def _drop_tombstoned(b: pa.Table) -> pa.Table:
            import ray as _r

            return b.filter(pc.invert(pc.is_in(b["doc_id"],
                                               value_set=_r.get(tref))))

        ds = ds.map_batches(_drop_tombstoned, batch_format="pyarrow")
    ds = ds.map_batches(lambda b: standardize_batch(b, std_cfg), batch_format="pyarrow")
    if cfg.hooks.get("customize") is not None:
        ds = ds.map_batches(cfg.hooks["customize"], batch_format="pyarrow")
    if done:
        ds = ds.map_batches(lambda b: _skip_completed(b, "ts", done), batch_format="pyarrow")
    ds = ds.map_batches(lambda b: _add_day(b, "ts"), batch_format="pyarrow")
    ds = ds.map_batches(lambda b: _add_pkey(b, "ts"), batch_format="pyarrow")
    qroot = os.path.join(cfg.out_root, "quarantine") if cfg.qc_quarantine else None
    meta = _qc_file_metadata(qc_stage, cfg.run_id)
    fin = cfg.hooks.get("finalize")
    return ds.groupby("_pkey").map_groups(
        lambda g: _clean_write_group(g, qc_stage, write_root, qroot, meta, fin),
        batch_format="pyarrow",
    )


def _tname(tier: str) -> str:
    """Store dir / manifest name of a tier: "raw", "t1m", "t1h", ..."""
    return tier if tier == "raw" else f"t{tier}"


def _done(man: Manifest, tname: str, cfg: PipelineConfig) -> frozenset:
    """A tier's committed partitions, after wiping its uncommitted partition
    dirs (partial output of a killed run).  Without resume nothing counts as
    done and nothing is wiped."""
    if not cfg.resume:
        return frozenset()
    man.wipe_uncommitted(tname)
    return frozenset(man.completed(tname))


def _read_partitions(man: Manifest, tname: str, parts, cfg: PipelineConfig, **kw):
    """Read only the given (source, day) partitions of a tier; ``source`` and
    ``day`` come back as hive columns.

    At most one block per file: asked for more blocks than files, Ray splits
    each file's block, and a bucket whose rows straddle two partial blocks
    sums its floats in another grouping than the fresh graph does."""
    import ray.data as rd

    fs = man.sfs
    files = [fs.join(tname, p, fn) for p in parts
             for fn in fs.listdir(fs.join(tname, p)) if fn.endswith(".parquet")]
    return rd.read_parquet(files, filesystem=fs.fs,
                           override_num_blocks=min(len(files), _num_blocks(cfg)), **kw)


def _cascade(input_paths, cfg: PipelineConfig, tiers: tuple[str, ...]) -> dict:
    """Build and run ONE streaming Ray Data graph over ``tiers`` (a
    contiguous run of ``("raw",) + cfg.tiers``), then commit every tier in
    order.  Returns per-tier stats.

    Each tier step reads the in-memory output of the step before it, minus
    the partitions already committed to this tier, plus a disk read of only
    the source tier's committed partitions this tier lacks.  Every tier's
    write happens inside the task that finalizes it (``write_batch_partitioned``
    fused into the shuffle's map_groups), so the heavy data never takes an
    extra trip through the object store.  A crash mid-graph leaves only
    uncommitted partition dirs, which the next resume wipes."""
    man = Manifest(cfg.out_root)
    order = ("raw",) + cfg.tiers
    done = {t: _done(man, _tname(t), cfg) for t in tiers}
    t0 = time.time()
    prev = None
    if tiers[0] == "raw":
        prev = _clean_dataset(input_paths, cfg, done["raw"], man.tier_dir("raw"))
    for src, tier in zip(order, order[1:]):
        if tier not in tiers:
            continue
        rcfg = _tier_rcfg(tier, cfg)
        tier_root = man.tier_dir(_tname(tier))
        from_tier = src != "raw"
        ts_col = "bucket" if from_tier else "ts"

        def partial(b: pa.Table, rcfg=rcfg, from_tier=from_tier) -> pa.Table:
            return rollup_batch(b, rcfg, from_tier)

        def combine_write(g: pa.Table, rcfg=rcfg, root=tier_root) -> pa.Table:
            t = rollup_batch(g.drop_columns(["_window"]), rcfg, from_tier=True)
            write_batch_partitioned(_add_day(t, "bucket"), root, ts_col="bucket")
            return t

        feeds = []
        if prev is not None:
            if done[tier]:
                prev = prev.map_batches(
                    lambda b, d=done[tier], c=ts_col: _skip_completed(b, c, d),
                    batch_format="pyarrow", batch_size=None)
            feeds.append(prev)
        src_done = done[src] if src in done else frozenset(man.completed(_tname(src)))
        reread = sorted(src_done - done[tier])
        if reread:
            feeds.append(_read_partitions(man, _tname(src), reread, cfg).drop_columns(["day"]))
        if not feeds:  # nothing of this tier to (re)compute
            prev = None
            continue
        parts = [d.map_batches(partial, batch_format="pyarrow", batch_size=None) for d in feeds]
        p = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
        # barrier on each tier's PARTIALS, never on full-payload rows: each
        # Ray job then holds exactly one shuffle ([tier-t combine → tier-t+1
        # partial] fused), the raw clean+write reduce tasks pipeline straight
        # into the 1m partial aggregation, and only tier-shaped partials sit
        # at barriers.  One fully-fused graph interleaves all four shuffles,
        # which thrash at low parallelism (measured 2x slower at 8 CPUs); a
        # barrier after every combine plus one on the cleaned corpus held the
        # full token payload in the object store and ran 2 extra jobs
        # (measured 70.9→61 s at 4 CPUs, 22.7→19.8 s at 16).
        p = _add_window(p.materialize(), "bucket", rcfg.window_s, from_tier=True)
        prev = p.groupby([rcfg.key, "_window"]).map_groups(combine_write, batch_format="pyarrow")
    if prev is not None:
        prev.count()  # drives the whole fused graph
    wall = time.time() - t0

    corpus = list(input_paths) if isinstance(input_paths, (list, tuple)) else [input_paths]
    stats = {}
    for src, tier in zip((None,) + order, order):
        if tier in tiers:  # lineage: the corpus for raw, else the source tier dir
            lineage = [man.tier_dir(_tname(src))] if src else corpus
            recs = man.commit_partitions(_tname(tier), lineage, cfg.run_id, wall)
            stats[tier] = {"tier": tier, "new_partitions": len(recs), "skipped": len(done[tier]),
                           "rows": sum(r.rows for r in recs), "wall_s": wall}
    return stats


def ingest_raw(input_paths, cfg: PipelineConfig) -> dict:
    """sequences Parquet → standardized, deduped, QC'd raw tier on disk."""
    return _cascade(input_paths, cfg, ("raw",))["raw"]


def rollup_tier(tier: str, cfg: PipelineConfig) -> dict:
    """Aggregate the previous tier into ``tier`` (raw→1m, 1m→1h, 1h→1d),
    reading the source tier's committed partitions that ``tier`` lacks."""
    return _cascade(None, cfg, (tier,))[tier]


def encode_tier_store(tier: str, cfg: PipelineConfig) -> dict:
    """Store the Gorilla/DoD-encoded representation of tier ``t<tier>``
    (pruned columns: bucket + the value means) under ``t<tier>_enc/``, one
    blob row per (source, window), partitioned like the tiers.  The encoded
    store is the long-retention format (north star: compressed continuous
    aggregates); compression ratio lands in the returned stats + manifest.

    Only tier partitions not yet committed to ``t<tier>_enc`` are read and
    encoded, after the uncommitted enc dirs of a killed run are wiped; the
    encode window is one day, so each enc partition depends on its own tier
    partition alone.  Byte totals cover the whole encoded store."""
    import ray.data as rd

    from ..stages.encode import EncodeConfig, encode_tier

    t0 = time.time()
    man = Manifest(cfg.out_root)
    src, enc_name = f"t{tier}", f"t{tier}_enc"
    todo = sorted(man.completed(src) - _done(man, enc_name, cfg))
    if todo:
        ecfg = EncodeConfig(values=tuple(f"{v}_mean" for v in cfg.values))
        ds = _read_partitions(man, src, todo, cfg, columns=["source", "bucket", *ecfg.values])
        enc = encode_tier(ds, ecfg)
        enc = enc.map_batches(lambda b: _add_day(b, "window"), batch_format="pyarrow")
        write_partitioned(enc, man.tier_dir(enc_name), ts_col="window")
    recs = man.commit_partitions(enc_name, [man.tier_dir(src)], cfg.run_id, time.time() - t0)
    braw = benc = 0
    if man.list_partition_dirs(enc_name):
        # a projection-pruned distributed read of the two int64 counters
        # (~16 B per blob row), not a driver drain of the blobs
        totals = rd.read_parquet(man.tier_dir(enc_name), columns=["bytes_raw", "bytes_enc"]).sum(
            ["bytes_raw", "bytes_enc"]) or {}
        braw = int(totals.get("sum(bytes_raw)") or 0)
        benc = int(totals.get("sum(bytes_enc)") or 0)
    ratio = round(braw / benc, 3) if benc else None
    return {"tier": f"{tier}_enc", "new_partitions": len(recs), "bytes_raw": braw,
            "bytes_enc": benc, "compression_ratio": ratio, "wall_s": time.time() - t0}


def reprocess_range(input_paths, cfg: PipelineConfig, start_us: int, end_us: int,
                    sources: tuple[str, ...] | None = None) -> dict:
    """Late-data handling: invalidate every (source, day) partition whose day
    overlaps [start_us, end_us) across raw + all tiers (+ encoded stores),
    then resume-run the pipeline — ONLY the invalidated partitions recompute,
    everything else is skipped by the manifest (parity with the reference's
    recovery story of re-running a date range,
    transformation_pipeline.py:29-53, made partition-exact)."""
    man = Manifest(cfg.out_root)
    day_lo = (start_us // DAY_US) * DAY_US
    day_hi = ((end_us - 1) // DAY_US) * DAY_US
    tiers = ["raw"] + [f"t{t}" for t in cfg.tiers] + [
        f"t{t}_enc" for t in cfg.encode_tiers if t in cfg.tiers]
    invalidated: dict = {}
    for tier in tiers:
        hit = []
        for part in man.list_partition_dirs(tier):
            src, day = part.split("/")
            d_us = int(np.datetime64(day.split("=", 1)[1], "us").astype(np.int64))
            if day_lo <= d_us <= day_hi and (sources is None or src.split("=", 1)[1] in sources):
                hit.append(part)
        invalidated[tier] = man.invalidate(tier, hit)
    cfg2 = PipelineConfig(**{**cfg.__dict__, "resume": True})
    stats = run_pipeline(input_paths, cfg2)
    stats["invalidated"] = invalidated
    return stats


def _tombstone_values(cfg: PipelineConfig, id_col: str = "doc_id"):
    """Union of every persisted tombstone file under <root>/_tombstones/ —
    the permanent purge exclusion set (see :func:`purge_keys`).  Returns a
    ``pa.Array`` of ids, or None when no purge has ever run.  Driver-side
    read bounded by the purge history, not the corpus; fresh-run store wipes
    deliberately do NOT touch _tombstones/."""
    import pyarrow.parquet as pq

    man = Manifest(cfg.out_root)
    tdir = man.sfs.join("_tombstones")
    if not man.sfs.isdir(tdir):
        return None
    tabs = [pq.read_table(man.sfs.join("_tombstones", f), columns=[id_col])
            for f in sorted(man.sfs.listdir(tdir)) if f.endswith(".parquet")]
    if not tabs:
        return None
    return pa.concat_tables(tabs)[id_col].combine_chunks()


def purge_keys(input_paths, cfg: PipelineConfig, ids,
               id_col: str = "doc_id") -> dict:
    """GDPR purge (right-to-be-forgotten): remove every row of ``ids`` from
    the store and rebuild exactly the rollups they contributed to —
    partition-exact, resumable, and permanent:

    1. the ids append to an immutable tombstone file under
       ``<root>/_tombstones/`` (content-named, atomic write); every future
       run — fresh, resume, or reprocess — excludes tombstoned ids at the
       input, so purged rows can never be resurrected from the raw inputs;
    2. a column-pruned scan of the raw tier locates the (source, day)
       partitions that actually contain the ids (only batch-distinct
       partition keys leave each task — bounded by |ids|, not the corpus);
    3. those partitions invalidate across raw + every tier + encoded
       stores (the reprocess machinery: every other partition stays
       committed and untouched);
    4. one resume run recomputes only the invalidated partitions, now
       without the purged rows.

    Returns run stats + ``purged`` ({ids, partitions, invalidated})."""
    import hashlib

    import ray.data as rd

    man = Manifest(cfg.out_root)
    ids = sorted(set(str(i) for i in ids))
    man.sfs.makedirs(man.sfs.join("_tombstones"))
    digest = hashlib.md5("\n".join(ids).encode()).hexdigest()[:12]
    man.sfs.write_table_atomic(
        pa.table({id_col: pa.array(ids, pa.string())}),
        man.sfs.join("_tombstones", f"tomb-{digest}.parquet"))

    hits: set[str] = set()
    if man.completed("raw"):
        idset = pa.array(ids, pa.string())

        def find_parts(b: pa.Table) -> pa.Table:
            t = b.filter(pc.is_in(b[id_col], value_set=idset))
            return t.select(["source", "day"]).group_by(
                ["source", "day"]).aggregate([])

        parts = rd.read_parquet(
            man.tier_dir("raw"), columns=[id_col, "source", "day"]
        ).map_batches(find_parts, batch_format="pyarrow")
        for b in parts.iter_batches(batch_format="pyarrow", batch_size=None):
            for s, d in zip(b["source"].to_pylist(), b["day"].to_pylist()):
                hits.add(f"source={s}/day={d}")

    tiers = ["raw"] + [f"t{t}" for t in cfg.tiers] + [
        f"t{t}_enc" for t in cfg.encode_tiers if t in cfg.tiers]
    invalidated = {
        t: man.invalidate(
            t, [p for p in man.list_partition_dirs(t) if p in hits],
            reason="purge")
        for t in tiers
    }
    cfg2 = PipelineConfig(**{**cfg.__dict__, "resume": True})
    stats = run_pipeline(input_paths, cfg2)
    stats["purged"] = {"ids": len(ids), "partitions": sorted(hits),
                       "invalidated": invalidated}
    return stats


def prune_retention(cfg: PipelineConfig, now_us: int) -> dict:
    """Delete day partitions older than each tier's retention horizon; every
    prune is recorded in the manifest (so `completed` drops the partition and
    a later backfill run could legitimately recreate it)."""
    import shutil

    man = Manifest(cfg.out_root)
    pruned: dict[str, list[str]] = {}
    tier_names = ["raw"] + [f"t{t}" for t in cfg.tiers]
    for tname in tier_names:
        horizon = cfg.retention_s.get(tname.lstrip("t") if tname != "raw" else "raw")
        if horizon is None:
            continue
        cutoff_day = ((now_us - horizon * US) // DAY_US) * DAY_US
        cutoff = np.datetime64(cutoff_day // US, "s").astype("datetime64[D]")
        for part in man.list_partition_dirs(tname):
            day = np.datetime64(part.split("day=")[1], "D")
            if day < cutoff:
                shutil.rmtree(man.partition_dir(tname, part))
                man.append({"tier": tname, "partition": part, "action": "pruned", "run_id": cfg.run_id})
                pruned.setdefault(tname, []).append(part)
    return {"pruned": {k: len(v) for k, v in pruned.items()}}


def run_pipeline(input_paths, cfg: PipelineConfig, now_us: Optional[int] = None) -> dict:
    """Full cascade: ingest + every tier + retention. Returns per-stage stats.

    One graph for fresh and resumed runs: partitions already committed to a
    tier are skipped ahead of it, and only the source partitions a tier is
    missing are re-read from disk."""
    man = Manifest(cfg.out_root)
    if not cfg.resume and man.records():
        # fresh-run semantics over an existing store: clear it — part file
        # names follow the session's block layout, so writing over a
        # previous run at different parallelism would leave stale part
        # files next to new ones
        for tier in ["raw"] + [f"t{t}" for t in cfg.tiers] + [
            f"t{t}_enc" for t in cfg.encode_tiers
        ]:
            man.sfs.rmtree(man.tier_dir(tier))
        man.sfs.rmtree(man.sfs.join_root("quarantine"))
        man.sfs.remove_file(man.path)
    stats = _cascade(input_paths, cfg, ("raw",) + cfg.tiers)
    for tier in cfg.encode_tiers:
        if tier in cfg.tiers:
            stats[f"{tier}_enc"] = encode_tier_store(tier, cfg)
    if cfg.save_report:
        # observability twin of the manifest's lineage: one JSON report per
        # run under <root>/_reports/ with the per-stage wall/partition
        # stats this function returns (what an operator greps after a
        # 100 TB run, next to the data it produced)
        import json as _json

        man.sfs.makedirs(man.sfs.join("_reports"))
        man.sfs.write_text(
            man.sfs.join("_reports", f"run_{cfg.run_id or 'anon'}.json"),
            _json.dumps(stats, default=str, indent=1),
        )
    if cfg.hooks.get("plot") is not None:
        # plot hook runs AFTER the dataset is saved (reference
        # ingest_pipeline.py:79-87 hook_plot_dataset): the hook reads tiers
        # via the manifest and drops files into the uploadable dir, which
        # publishes them under <root>/ancillary/ on exit
        with man.uploadable_dir() as tmp:
            cfg.hooks["plot"](man, tmp)
    if now_us is not None:
        stats["retention"] = prune_retention(cfg, now_us)
    return stats
