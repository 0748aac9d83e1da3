"""The flagship pipeline: sequences Parquet → raw tier → 1m → 1h → 1d (+ the
Gorilla-encoded 1m store), partitioned by (source, day), resumable from the
lineage manifest, with retention pruning per tier.

Recasts the reference's ingest + transformation pipeline lifecycle
(/root/reference/tsdat/pipeline/pipelines/ingest_pipeline.py:34-49,
transformation_pipeline.py:29-75) as one streaming Ray Data graph with ONE
shuffle.  Every 1m, 1h and 1d bucket lies inside one day, so the task the
clean shuffle hands a whole (source, day) rolls every tier of it up itself
(*Partition, Don't Sort!*, VLDB 2024):

    plan (calling process, footers only): one unit per input row group that
      may touch a (source, day) outside done(raw)   # none → no clean feed
    from_items(units) → map_batches(one task per unit: read its row group
          → tombstone → standardize → customize → [skip done(raw)]
          → day → _pkey)
      → sort(_pkey, fixed boundaries)         # THE shuffle, one int64 key:
                                              #   mix64(crc32(source)<<32 | day)
      → map_batches(per _pkey run of a block: # one task per reducer block
          clean + QC + write raw/
          → _roll_partition)                  # t1m, t1m_enc, t1h, t1d
    ∪ from_items(partitions raw holds that a later dir lacks)
      → map_batches(read the tier below the lowest missing dir
                    → _roll_partition)        # no shuffle
    → commit raw, t1m, t1h, t1d, t1m_enc; prune by retention horizon

The mixed key is uniform over int64, so the sort splits it at p−1 evenly
spaced points into p = ``_num_blocks(cfg)`` reducer blocks: no sampling
pass, and the reducer of a (source, day) does not depend on how the files
split into row groups.

The unit plan maps each row group to the (source, day) set its rows can
fall in, from the ``source`` and ``doc_id`` min/max of its footer (the
row-group pruner of ``sources/declared.py``); a reprocess of two days reads
only the row groups that hold them, and a resume over a complete raw dir
reads none.  The read runs inside the unit's task with the whole
standardize chain: no separate read operator whose output crosses the
object store before standardize, and no plan-time sampling task.

Fresh, resumed and reprocess runs and the staged entry points all build
this graph (``_cascade``), told which store dirs to write.  Every dir
commits after the graph completes, so a killed run leaves only uncommitted
dirs, which the next resume wipes.  With an empty manifest there is no skip
filter and no disk feed: the fresh graph.

The graph runs without Ray Data's per-operator resource reservation
(``op_resource_reservation_enabled = False`` on its own Dataset context,
never on ``DataContext.get_current()``).  Ray Data 2.49 reserves, for
each unfinished operator in graph order, max(0.5 × CPUs / #operators, one
task's CPU), and only what is left forms the shared pool.  On C CPUs and
k ≥ C operators the first C operators take one CPU each and the pool is
0, so every operator runs one task at a time and the first clean tasks
wait on CPUs that upstream operators hold (on 2 CPUs: one CPU idle while
the largest input file is read, and again as the clean phase starts).
The reservation bounds the memory a streaming graph holds in flight;
here the clean sort is the only all-to-all and holds every block before
any clean task starts, so dropping it bounds nothing less.
"""

from __future__ import annotations

import itertools
import os
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import DEFAULT_RETENTION_S, TIERS
from ..sources.declared import parquet_files, parquet_row_groups
from ..stages.encode import EncodeConfig, encode_group
from ..stages.qc import QCConfig, QCStage
from ..stages.rollup import RollupConfig, _key_change, _key_codes, dedup_order, roll_tiers
from ..stages.standardize import StandardizeConfig, doc_ts_us, standardize_batch
from ..stages.writers import write_batch_partitioned
from ..state.manifest import Manifest

US = 1_000_000
DAY_US = 86400 * US


def _add_day(batch: pa.Table, ts_col: str) -> pa.Table:
    """Append ``day`` (``%Y-%m-%d``); strftime runs once per distinct day."""
    ts_us = batch[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    days, inv = np.unique(ts_us // DAY_US, return_inverse=True)
    names = pc.strftime(pa.array(days * DAY_US).cast(pa.timestamp("us")), format="%Y-%m-%d")
    return batch.append_column("day", names.take(pa.array(inv.reshape(-1))))


def _mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: a bijection of 64-bit ints that spreads any
    set of distinct keys evenly over int64."""
    z = np.asarray(x, np.int64).view(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))).view(np.int64)


def _add_pkey(batch: pa.Table, ts_col: str) -> pa.Table:
    """Single int64 partition key, ``_mix64(crc32(source) << 32 | day
    index)``: sorting one int column shuffles ~3× faster than sorting
    (string, string) keys, and the mix makes the key uniform over int64, so
    the clean shuffle splits it at fixed, evenly spaced boundaries
    (``_pkey_boundaries``) instead of sampling them.  The mix is a
    bijection, so a key still names one (crc, day) pair; a crc collision
    merges two sources into one key, which the clean task splits again."""
    ts_us = batch[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    day = ts_us // DAY_US
    d = batch["source"].combine_chunks().dictionary_encode()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    h = np.array([zlib.crc32(s.encode()) for s in d.dictionary.to_pylist()], dtype=np.int64)
    pkey = (h[codes] << np.int64(32)) | (day & np.int64(0xFFFFFFFF))
    return batch.append_column("_pkey", pa.array(_mix64(pkey)))


def _pkey_boundaries(p: int) -> list[int]:
    """The p−1 evenly spaced int64 points that split the uniform ``_pkey``
    into p reducer blocks.  For p = 1 one point at the int64 minimum (Ray
    samples boundaries when given none), so the second of two blocks holds
    every key and the first is empty."""
    return [-(1 << 63) + (i << 64) // p for i in range(1, p)] or [-(1 << 63)]


def _skip_completed(batch: pa.Table, ts_col: str, done: frozenset) -> pa.Table:
    """Partition elimination: drop rows whose (source, day) partition is in
    ``done``.  Matches (source dictionary code, day index) pairs against the
    few done pairs whose source occurs in the batch, never a per-row
    string."""
    d = batch["source"].combine_chunks().dictionary_encode()
    code_of = {s: i for i, s in enumerate(d.dictionary.to_pylist())}
    pairs = [(code_of[s], np.datetime64(day, "D").astype(np.int64))
             for s, day in map(Manifest.parse_partition, done) if s in code_of]
    ts_us = batch[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    key = d.indices.to_numpy(zero_copy_only=False).astype(np.int64) << np.int64(32)
    key |= (ts_us // DAY_US) & np.int64(0xFFFFFFFF)
    drop = np.array([(c << 32) | (day & 0xFFFFFFFF) for c, day in pairs], np.int64)
    return batch.filter(pa.array(~np.isin(key, drop)))


def clean_group(g: pa.Table) -> pa.Table:
    """Per (source, day) group: sort by (ts, doc_id) and drop duplicate
    (source, ts) rows keeping the smallest doc_id, so the caller can run the
    order-dependent QC managers on the sorted slice.  Segments by source so a
    _pkey hash collision can never merge rows across sources."""
    ts_us = g["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    doc_id = g["doc_id"].to_numpy(zero_copy_only=False)
    codes = _key_codes(g["source"])[0]
    order = dedup_order(g, doc_id, ts_us, codes)
    ts_s, code_s = ts_us[order], codes[order]
    keep = _key_change(ts_s, code_s)
    t = g.take(pa.array(order[keep], type=pa.int64()))
    return t.drop_columns([c for c in ("_pkey", "_tb") if c in t.column_names])


@dataclass
class PipelineConfig:
    out_root: str
    std: StandardizeConfig = field(default_factory=StandardizeConfig)
    qc: Optional[QCConfig] = None
    values: tuple[str, ...] = ("n_tok", "tok_mean")
    carry_tokens: bool = True
    tiers: tuple[str, ...] = ("1m", "1h", "1d")
    retention_s: dict = field(default_factory=lambda: dict(DEFAULT_RETENTION_S))
    resume: bool = True
    run_id: str = ""
    # The clean shuffle's reducer count (the read is one task per input row
    # group, whatever this is). None → max(8, 2× cluster CPUs): 2 CPUs
    # still get 8.  Over-blocking small inputs multiplies fixed per-task
    # cost ~4× (measured: 26s → 12s at sf0.1 going from 200 to 64 blocks
    # on 32 CPUs).
    parallelism: Optional[int] = None
    # Tiers additionally stored as delta-of-delta timestamp + Gorilla-XOR
    # value blobs (one blob row per (source, day)) under t<tier>_enc/.
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


def _src_level(name: str, chain: list) -> int:
    """Index in ``chain`` of the tier dir ``name`` is made from: the tier
    before it, or the tier itself for ``t<tier>_enc``."""
    return chain.index(name[:-4]) if name.endswith("_enc") else chain.index(name) - 1


def _stats(times: list) -> pa.Table:
    """One ``(tier, task_s)`` row per store dir write."""
    return pa.Table.from_pylist([{"tier": n, "task_s": s} for n, s in times],
                                schema=pa.schema([("tier", pa.string()), ("task_s", pa.float64())]))


def _roll_partition(cur: pa.Table, level: int, day: str, write: set, cfg: PipelineConfig) -> list:
    """The per-partition kernel: from the rows of one (source, day) of tier
    ``chain[level]``, roll each later tier up (``roll_tiers``) and write
    each dir of ``write``, an encoded dir right after its tier, until all
    are written.  Returns ``(dir, seconds of rollup + encode + write since
    the previous write)`` per dir."""
    chain, man, left = Manifest.tier_names(cfg.tiers), Manifest(cfg.out_root), set(write)
    times, t0 = [], time.perf_counter()

    def put(name: str, t: pa.Table, ts_col: str) -> None:
        nonlocal t0
        write_batch_partitioned(t.append_column("day", pa.repeat(day, t.num_rows)),
                                man.tier_dir(name), ts_col=ts_col)
        left.discard(name)
        times.append((name, time.perf_counter() - t0))
        t0 = time.perf_counter()

    rcfgs = [RollupConfig(interval_s=TIERS[n[1:]], values=cfg.values, carry_tokens=cfg.carry_tokens)
             for n in chain[level + 1:]]
    tiers = itertools.chain([cur], roll_tiers(cur, rcfgs, from_tier=level > 0))
    for name, t in zip(chain[level:], tiers):
        if name in left:
            put(name, t, "bucket")
        if f"{name}_enc" in left:  # one blob row per (source, day)
            ecfg = EncodeConfig(values=tuple(f"{v}_mean" for v in cfg.values))
            put(f"{name}_enc", encode_group(t, ecfg), "window")
        if not left:
            break
    return times


def _clean_write_group(g: pa.Table, qc_stage, raw_root: str,
                       quarantine_root: str | None, metadata: dict | None = None,
                       finalize_hook=None) -> pa.Table | None:
    """Clean one (source, day) group, run QC with per-partition counters,
    write the partition + a ``_qc.json`` lineage sidecar (QC counts land in
    the manifest record at commit), and return the cleaned rows onward.

    ``fail_pipeline`` tolerance breaches either abort the job (reference
    FailPipeline semantics, quarantine_root=None) or divert the partition's
    pre-QC rows to ``quarantine/`` and keep the job going (SURVEY §7.4-4);
    a diverted partition returns None."""
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
            return None
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


def _unit_span(g: dict, std: StandardizeConfig):
    """``(source, first day, last day)`` that the rows of input row group
    ``g`` (a ``parquet_row_groups`` entry) fall in, from its footer: one
    ``source`` value, and ``doc_id`` min/max parsed by standardize's own
    rule (``doc_ts_us``).  doc_ids are fixed-width (``StandardizeConfig``),
    so min and max of one source share the part before the index digits and
    their lexicographic order is the index order.  None — the row group may
    touch every partition — when stats are missing, it spans sources, or
    min and max are not one prefix and ``id_digits`` ASCII digits."""
    src, ids = g["stats"]["source"], g["stats"]["doc_id"]
    if src is None or ids is None or src[0] != src[1]:
        return None
    lo, hi = (v.decode() if isinstance(v, bytes) else v for v in ids)
    d = std.id_digits
    if len(lo) != len(hi) or lo[:-d] != hi[:-d] or not all(
            x[-d:].isascii() and x[-d:].isdigit() for x in (lo, hi)):
        return None
    t = doc_ts_us(pa.array([lo, hi], pa.string()), std).to_numpy()
    return src[0], int(t[0] // DAY_US), int(t[1] // DAY_US)


def _plan_units(input_paths, cfg: PipelineConfig, done_raw: frozenset) -> tuple[list, int]:
    """The input units the clean feed reads, one ``{path, row_group, rows}``
    per row group that may touch a partition outside ``done_raw``, planned
    from Parquet footers alone; and the inputs' row group count.  Skipping
    is an optimisation, never a filter: a row group whose span is unknown,
    or any row group when a ``customize`` hook may rewrite source or ts, is
    read, and ``_skip_completed`` still drops done rows."""
    groups = parquet_row_groups(parquet_files(input_paths), ["source", "doc_id"])
    have: dict[str, set] = {}
    for s, day in map(Manifest.parse_partition, done_raw):
        have.setdefault(s, set()).add(int(np.datetime64(day, "D").astype(np.int64)))
    blind = cfg.hooks.get("customize") is not None

    def needed(g: dict) -> bool:
        span = None if blind else _unit_span(g, cfg.std)
        if span is None:
            return True
        done_days = have.get(span[0], ())
        return any(d not in done_days for d in range(span[1], span[2] + 1))

    units = [{"path": g["path"], "row_group": g["row_group"], "rows": g["rows"]}
             for g in groups if g["rows"] and needed(g)]
    return units, len(groups)


def _drop_tombstoned(b: pa.Table, tomb) -> pa.Table:
    """``b`` without the rows whose doc_id is in ``tomb`` (None: none)."""
    return b if tomb is None else b.filter(pc.invert(pc.is_in(b["doc_id"], value_set=tomb)))


def _clean_feed(units: list, cfg: PipelineConfig, done: dict, later: tuple, p: int):
    """One task per input unit (``_plan_units``) reads its row group and
    runs tombstone → standardize → customize → resume-skip → day → pkey;
    then ONE clean shuffle: a sort on ``_pkey`` into p reducer blocks at
    fixed boundaries.  Each block's task walks its contiguous ``_pkey``
    runs, splits each run by source (a crc collision can merge two), cleans
    and writes each raw partition (+ QC sidecars/quarantine), then rolls it
    into the dirs of ``later`` it lacks.  Emits ``_stats`` rows."""
    import ray
    import ray.data as rd

    qc_stage = QCStage(cfg.qc) if cfg.qc else None
    std_cfg, customize = cfg.std, cfg.hooks.get("customize")
    tomb = _tombstone_values(cfg)
    # permanent exclusion set (purge_keys): applied on the raw input so no
    # run — fresh, resume, or reprocess — can resurrect purged rows.
    # Broadcast once via ray.put (bounded by purge-history size; a purge
    # list beyond broadcast budget should move to an anti-join stage).
    tref = ray.put(tomb) if tomb is not None and len(tomb) else None

    def read_unit(item: pa.Table) -> pa.Table:
        """One row group through the standardize chain.  CheckMonotonic runs
        per input file: the row group's first row is compared with the last
        surviving (source, doc_id) before it in the file."""
        import pyarrow.parquet as pq
        import ray as _r

        from ..state.uri import StorageFS

        path, rg = item["path"][0].as_py(), item["row_group"][0].as_py()
        tset = _r.get(tref) if tref is not None else None
        sfs, prev = StorageFS(path), None
        with sfs.fs.open_input_file(sfs.path) as fh:
            pf = pq.ParquetFile(fh)
            b = _drop_tombstoned(pf.read_row_group(rg), tset)
            for k in range(rg - 1, -1, -1):
                t = _drop_tombstoned(pf.read_row_group(k, columns=["source", "doc_id"]), tset)
                if t.num_rows:
                    prev = (t["source"][-1].as_py(), t["doc_id"][-1].as_py())
                    break
        b = standardize_batch(b, std_cfg, prev)
        if customize is not None:
            b = customize(b)
        if done["raw"]:
            b = _skip_completed(b, "ts", done["raw"])
        return _add_pkey(_add_day(b, "ts"), "ts")

    ds = rd.from_items(units, override_num_blocks=len(units)).map_batches(
        read_unit, batch_format="pyarrow", batch_size=1)
    raw_root = Manifest(cfg.out_root).tier_dir("raw")
    qroot = os.path.join(cfg.out_root, "quarantine") if cfg.qc_quarantine else None
    meta = _qc_file_metadata(qc_stage, cfg.run_id)
    fin = cfg.hooks.get("finalize")

    def clean_roll(g: pa.Table) -> list:
        times, day = [], g["day"][0].as_py()
        src = g["source"].combine_chunks().dictionary_encode()
        for code, source in enumerate(src.dictionary.to_pylist()):
            t0 = time.perf_counter()
            part = g.filter(pc.equal(src.indices, code)) if len(src.dictionary) > 1 else g
            t = _clean_write_group(part, qc_stage, raw_root, qroot, meta, fin)
            times.append(("raw", time.perf_counter() - t0))
            write = {n for n in later if f"source={source}/day={day}" not in done[n]}
            if t is not None and t.num_rows and write:
                times += _roll_partition(t, 0, day, write, cfg)
        return times

    def clean_block(block: pa.Table) -> pa.Table:
        """One reducer block, sorted by ``_pkey``: clean_roll each key's
        rows, a zero-copy slice."""
        if not block.num_rows:  # a reducer that no key fell into
            return _stats([])
        key = block["_pkey"].to_numpy()
        edges = np.r_[0, np.flatnonzero(key[1:] != key[:-1]) + 1, len(key)]
        return _stats([r for s, e in zip(edges[:-1], edges[1:])
                       for r in clean_roll(block.slice(s, e - s))])

    return ds.sort("_pkey", boundaries=_pkey_boundaries(p)).map_batches(
        clean_block, batch_format="pyarrow", batch_size=None)


def _disk_feed(cfg: PipelineConfig, items: list):
    """One task per item ``{level, part, write}``: read the partition of
    tier ``chain[level]`` (``source`` re-added from its name, as a hive read
    would) and roll it into the dirs of ``write``.  Emits ``_stats`` rows."""
    import pyarrow.parquet as pq
    import ray.data as rd

    def roll(batch: pa.Table) -> pa.Table:
        sfs, times = Manifest(cfg.out_root).sfs, []
        for level, part, write in zip(*(batch[c].to_pylist() for c in ("level", "part", "write"))):
            name = Manifest.tier_names(cfg.tiers)[level]
            cur = pa.concat_tables(pq.read_table(f, filesystem=sfs.fs)
                                   for f in _part_files(sfs, name, part))
            source, day = Manifest.parse_partition(part)
            cur = cur.append_column("source", pa.repeat(source, cur.num_rows))
            times += _roll_partition(cur, level, day, set(write), cfg)
        return _stats(times)

    return rd.from_items(items, override_num_blocks=len(items)).map_batches(
        roll, batch_format="pyarrow", batch_size=1)


def _part_files(sfs, name: str, part: str) -> list[str]:
    """The Parquet files of one partition of store dir ``name``."""
    pdir = sfs.join(name, part)
    return [f"{pdir}/{f}" for f in sfs.listdir(pdir) if f.endswith(".parquet")]


def _cascade(input_paths, cfg: PipelineConfig, names: tuple[str, ...],
             now_us: Optional[int] = None) -> dict:
    """Build and run ONE Ray Data graph that writes the store dirs ``names``
    (some of ``Manifest.tier_names``), then commit them in that order.
    done(n) is read after n's uncommitted dirs (a killed run's output) are
    wiped; without resume nothing is done.  Given ``now_us``, done(raw) also
    holds the partitions ``_retired`` names.  The clean feed (when raw is
    written) carries every partition not in done(raw); the disk feed each
    other partition a dir lacks, read from the tier below the lowest dir it
    lacks.  The clean feed reads only the input row groups that may touch a
    partition outside done(raw) and is not built when there are none.
    Returns per-dir stats keyed "raw", "1m", ..., "1m_enc"."""
    man = Manifest(cfg.out_root)
    chain = Manifest.tier_names(cfg.tiers)
    order = [n for n in Manifest.tier_names(cfg.tiers, cfg.encode_tiers) if n in names]
    if cfg.resume:  # a killed run's partition dirs were never committed
        for n in order:
            man.wipe_uncommitted(n)
    done = {n: frozenset(man.completed(n) if cfg.resume else ()) for n in order}
    later = tuple(n for n in order if n != "raw")
    if "raw" in done and now_us is not None:
        done["raw"] |= _retired(cfg, done, later, now_us)
    t0 = time.time()

    units, n_groups = _plan_units(input_paths, cfg, done["raw"]) if "raw" in done else ([], 0)
    p = _num_blocks(cfg) if units else 0
    feeds = [_clean_feed(units, cfg, done, later, p)] if units else []
    have = {lv: man.completed(chain[lv]) for lv in {_src_level(n, chain) for n in later}}
    items = []
    for part in sorted(set().union(*have.values())):
        write = [n for n in later if part not in done[n]]
        lv = min((_src_level(n, chain) for n in write), default=0)
        if write and part in have[lv] and not ("raw" in done and part not in done["raw"]):
            items.append({"level": lv, "part": part, "write": write})
    if items:
        feeds.append(_disk_feed(cfg, items))
    task_s = dict.fromkeys(order, 0.0)
    if feeds:  # one union; take_all drives the whole graph
        ds = feeds[0].union(*feeds[1:]) if len(feeds) > 1 else feeds[0]
        # this graph's own context copy: no per-operator CPU reservation
        # (module docstring); DataContext.get_current() is left alone
        ds.context.op_resource_reservation_enabled = False
        for r in ds.take_all():
            task_s[r["tier"]] += r["task_s"]
    wall = time.time() - t0

    corpus = list(input_paths) if isinstance(input_paths, (list, tuple)) else [input_paths]
    stats = {}
    for n in order:  # lineage: the corpus for raw, else the source tier dir
        lineage = [man.tier_dir(chain[_src_level(n, chain)])] if n != "raw" else corpus
        recs = man.commit_partitions(n, lineage, cfg.run_id, wall)
        key = n if n == "raw" else n[1:]
        stats[key] = {"tier": key, "new_partitions": len(recs), "skipped": len(done[n]),
                      "rows": sum(r.rows for r in recs), "wall_s": wall, "task_s": task_s[n]}
        if n == "raw":  # the input the clean feed read, and its reducer blocks
            stats[key].update(
                input_row_groups={"read": len(units), "total": n_groups},
                input_rows_read=sum(u["rows"] for u in units),
                shuffle_partitions=len(_pkey_boundaries(p)) + 1 if units else 0)
        if n.endswith("_enc"):
            stats[key].update(_enc_totals(man, n))
    return stats


def ingest_raw(input_paths, cfg: PipelineConfig) -> dict:
    """sequences Parquet → standardized, deduped, QC'd raw tier on disk.
    Kept for perfbench's traced flagship, which spans this call."""
    return _cascade(input_paths, cfg, ("raw",))["raw"]


def rollup_tier(tier: str, cfg: PipelineConfig) -> dict:
    """Aggregate the previous tier into ``tier`` (raw→1m, 1m→1h, 1h→1d),
    reading the source tier's committed partitions that ``tier`` lacks.
    Kept for perfbench's traced flagship, which spans this call."""
    return _cascade(None, cfg, (f"t{tier}",))[tier]


def _enc_totals(man: Manifest, name: str) -> dict:
    """``bytes_raw``/``bytes_enc`` over a whole encoded store, one row per
    partition: a column-pruned read in the calling process, no Ray job."""
    import pyarrow.dataset as pads

    files = [f for p in man.list_partition_dirs(name) for f in _part_files(man.sfs, name, p)]
    sch = pa.schema([("bytes_raw", pa.int64()), ("bytes_enc", pa.int64())])
    t = pads.dataset(files, schema=sch, filesystem=man.sfs.fs).to_table()
    braw, benc = (int(pc.sum(t[c]).as_py() or 0) for c in ("bytes_raw", "bytes_enc"))
    return {"bytes_raw": braw, "bytes_enc": benc,
            "compression_ratio": round(braw / benc, 3) if benc else None}


def encode_tier_store(tier: str, cfg: PipelineConfig) -> dict:
    """Store the Gorilla/DoD-encoded bucket + value means of tier
    ``t<tier>`` under ``t<tier>_enc/``, one blob row per (source, day): the
    long-retention format (north star: compressed continuous aggregates).
    Only tier partitions the encoded store lacks are read and encoded; byte
    totals and the compression ratio cover the whole encoded store.
    Kept for perfbench's traced flagship, which spans this call."""
    return _cascade(None, cfg, (f"t{tier}_enc",))[f"{tier}_enc"]


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
    invalidated: dict = {}
    for tier in Manifest.tier_names(cfg.tiers, cfg.encode_tiers):
        hit = []
        for part in man.list_partition_dirs(tier):
            src, day = Manifest.parse_partition(part)
            d_us = int(np.datetime64(day, "us").astype(np.int64))
            if day_lo <= d_us <= day_hi and (sources is None or src in sources):
                hit.append(part)
        invalidated[tier] = man.invalidate(tier, hit)
    stats = run_pipeline(input_paths, replace(cfg, resume=True))
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
    tabs = [pq.read_table(man.sfs.join("_tombstones", f), columns=[id_col], filesystem=man.sfs.fs)
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

    invalidated = {
        t: man.invalidate(
            t, [p for p in man.list_partition_dirs(t) if p in hits],
            reason="purge")
        for t in Manifest.tier_names(cfg.tiers, cfg.encode_tiers)
    }
    stats = run_pipeline(input_paths, replace(cfg, resume=True))
    stats["purged"] = {"ids": len(ids), "partitions": sorted(hits),
                       "invalidated": invalidated}
    return stats


def _retention_cutoff(cfg: PipelineConfig, tname: str, now_us: int):
    """The first day store dir ``tname`` keeps at ``now_us`` (a
    ``datetime64[D]``), or None when it keeps every day (no retention set;
    encoded dirs are never pruned)."""
    horizon = cfg.retention_s.get(tname.lstrip("t") if tname != "raw" else "raw")
    if horizon is None:
        return None
    return np.datetime64((now_us - horizon * US) // DAY_US, "D")


def _retired(cfg: PipelineConfig, done: dict, later: tuple, now_us: int) -> frozenset:
    """Partitions a run pruning at ``now_us`` need not rebuild in raw: the
    day is before raw's cutoff, and each dir of ``later`` holds it (in
    ``done``) or would prune it too.  A rebuild would only be pruned again
    by the same run."""
    cut = {n: _retention_cutoff(cfg, n, now_us) for n in ("raw", *later)}

    def retired(q: str) -> bool:
        day = np.datetime64(Manifest.parse_partition(q)[1], "D")
        gone = {n: c is not None and day < c for n, c in cut.items()}
        return gone["raw"] and all(q in done[n] or gone[n] for n in later)

    return frozenset(filter(retired, set().union(*(done[n] for n in later))))


def prune_retention(cfg: PipelineConfig, now_us: int) -> dict:
    """Delete day partitions older than each tier's retention horizon; every
    prune is recorded in the manifest (so `completed` drops the partition and
    a later backfill run could legitimately recreate it)."""
    man = Manifest(cfg.out_root)
    pruned: dict[str, list[str]] = {}
    for tname in Manifest.tier_names(cfg.tiers):
        cutoff = _retention_cutoff(cfg, tname, now_us)
        if cutoff is None:
            continue
        for part in man.list_partition_dirs(tname):
            day = np.datetime64(Manifest.parse_partition(part)[1], "D")
            if day < cutoff:
                man.sfs.rmtree(man.partition_dir(tname, part))
                man.append({"tier": tname, "partition": part, "action": "pruned", "run_id": cfg.run_id})
                pruned.setdefault(tname, []).append(part)
    return {"pruned": {k: len(v) for k, v in pruned.items()}}


def run_pipeline(input_paths, cfg: PipelineConfig, now_us: Optional[int] = None) -> dict:
    """Full cascade: ingest + every tier + the encoded stores + retention.
    Returns per-stage stats: each written dir reports the graph ``wall_s``
    and ``task_s``, the summed seconds its tasks spent rolling up, encoding
    and writing it.

    One graph for fresh and resumed runs: partitions already committed to a
    dir are skipped, and a partition raw already holds is re-read only from
    the dir below the lowest one it lacks.  Given ``now_us``, the run prunes
    by retention at the end, and raw partitions an earlier prune removed
    are not rebuilt while every later dir holds them or prunes them too."""
    man = Manifest(cfg.out_root)
    if not cfg.resume and man.records():
        # fresh-run semantics over an existing store: clear it — part file
        # names follow the session's block layout, so writing over a
        # previous run at different parallelism would leave stale part
        # files next to new ones
        for tier in Manifest.tier_names(cfg.tiers, cfg.encode_tiers):
            man.sfs.rmtree(man.tier_dir(tier))
        man.sfs.rmtree(man.sfs.join_root("quarantine"))
        man.sfs.remove_file(man.path)
    stats = _cascade(input_paths, cfg, tuple(Manifest.tier_names(cfg.tiers, cfg.encode_tiers)),
                     now_us)
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
