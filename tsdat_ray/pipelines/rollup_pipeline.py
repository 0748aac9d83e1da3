"""The flagship pipeline: sequences Parquet → raw tier → 1m → 1h → 1d (+ the
Gorilla-encoded 1m store), partitioned by (source, day), resumable from the
lineage manifest, with retention pruning per tier.

Recasts the reference's ingest + transformation pipeline lifecycle
(/root/reference/tsdat/pipeline/pipelines/ingest_pipeline.py:34-49,
transformation_pipeline.py:29-75) as one graph of plain Ray tasks with ONE
exchange.  Every 1m, 1h and 1d bucket lies inside one day, so the task the
exchange hands a whole (source, day) rolls every tier of it up itself
(*Partition, Don't Sort!*, VLDB 2024):

    plan (calling process, footers only): one unit per input row group that
      may touch a (source, day) outside done(raw)   # none → no clean feed
      + a reducer slot per such (source, day), by its estimated rows
    one map task per unit (num_returns=p): read its row group
          → tombstone → standardize → customize → [skip done(raw)]
          → day → token ids as bytes → p tables, one per slot
      → one reducer task per slot: its tables in unit order, concatenated;
          per (source, day): clean + QC + write raw/
          → _roll_partition                   # t1m, t1m_enc, t1h, t1d
    + one task per partition raw holds that a later dir lacks:
          read the tier below the lowest missing dir → _roll_partition
    → ray.get; commit raw, t1m, t1h, t1d, t1m_enc; prune by retention horizon

The plan spreads each unit's footer row count evenly over its ``doc_id``
time span, so it knows about how many rows each (source, day) the run
rebuilds holds, and deals those keys to p = min(``_num_blocks(cfg)``,
keys) reducer slots, largest first onto the least loaded
(``_assign_slots``; FP-Hadoop, VLDB 2015).  The exchange's whole shape is
known before it starts, so it partitions instead of sorting: each map task
splits its rows by slot (``_row_slots``) and the reducer of a (source, day)
does not depend on how the files split into row groups.  A key the plan
cannot see (a row group whose span is unknown, or any key under a
``customize`` hook, which may rewrite source or ts) falls back to the mix
of (source, day) modulo p, and p stays ``_num_blocks(cfg)`` when a run has
such a row group.  Partition files are named by their first ts, so which
reducer handles a key leaves no trace in the output: the estimates steer
balance, never results.

Token ids cross the exchange as one ``large_binary`` value per row, a
zero-copy view of the list's int32 child buffer (``_ids_as_bytes``): the
map's split by slot and the clean dedup's take then copy bytes instead of
rebuilding list offsets and child indices.  ``clean_group`` turns them
back into the same list type, also zero-copy, so QC, the hooks, the raw
write and the rollups see what the input holds.

The unit plan maps each row group to the (source, day) set its rows can
fall in, from the ``source`` and ``doc_id`` min/max of its footer (the
row-group pruner of ``sources/declared.py``); a reprocess of two days reads
only the row groups that hold them, and a resume over a complete raw dir
reads none.  The read runs inside the unit's task with the whole
standardize chain: no separate read task whose output crosses the object
store before standardize, and no plan-time sampling task.

Fresh, resumed and reprocess runs and the staged entry points all build
this graph (``_cascade``), told which store dirs to write.  Every dir
commits after the graph completes, so a killed run leaves only uncommitted
dirs, which the next resume wipes.  With an empty manifest there is no skip
filter and no disk feed: the fresh graph.

The tasks run in the caller's Ray session with Ray's default retries: a
task whose worker dies runs again, and its writes (atomic, named by their
rows) leave the same files.  Ray Data has no part in this graph; it would
add a sort, operator scheduling and a per-operator CPU reservation to an
exchange whose partitioning is already fixed.
"""

from __future__ import annotations

import functools
import heapq
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


def _row_slots(batch: pa.Table, ts_col: str, slots: dict, p: int) -> np.ndarray:
    """Each row's reducer slot: a planned (source, day index) its slot in
    ``slots`` (``_assign_slots``), any other key ``_mix64(crc32(source) <<
    32 | low 32 bits of day)`` modulo p, so an unplanned key's rows all meet
    in one slot."""
    ts_us = batch[ts_col].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    day = ts_us // DAY_US
    d = batch["source"].combine_chunks().dictionary_encode()
    names = d.dictionary.to_pylist()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    h = np.array([zlib.crc32(s.encode()) for s in names], dtype=np.int64)
    mix = _mix64((h[codes] << np.int64(32)) | (day & np.int64(0xFFFFFFFF))).view(np.uint64)
    slot = (mix % np.uint64(p)).astype(np.int64)
    code_of = {s: i for i, s in enumerate(names)}
    planned = sorted(((code_of[s] << 32) | (dy & 0xFFFFFFFF), r)
                     for (s, dy), r in slots.items() if s in code_of)
    if planned:  # the planned (source code, day) pairs of this batch
        pk, ps = (np.array(v, np.int64) for v in zip(*planned))
        key = (codes << np.int64(32)) | (day & np.int64(0xFFFFFFFF))
        i = np.minimum(np.searchsorted(pk, key), len(pk) - 1)
        hit = pk[i] == key
        slot[hit] = ps[i[hit]]
    return slot


def _split_slots(t: pa.Table, slot: np.ndarray, p: int) -> list:
    """``t``'s rows by slot (``_row_slots``), as p tables in row order: one
    take, then zero-copy slices; the whole table, no take, when every row
    falls in one slot."""
    if not len(slot) or (slot == slot[0]).all():
        return [t if len(slot) and r == slot[0] else t.slice(0, 0) for r in range(p)]
    order = np.argsort(slot, kind="stable")
    cuts = np.searchsorted(slot[order], np.arange(p + 1))
    t = t.take(pa.array(order))
    return [t.slice(lo, hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])]


#: field metadata of token ids moved as bytes: their list field, as a
#: serialized one-field schema
_LIST_TYPE = b"tsdat_ray.list_type"


def _list_as_bytes(a: pa.Array) -> pa.Array:
    """A ``list<int32>`` array as ``large_binary``, one value per list: its
    bytes are the list's int32 child buffer itself (zero-copy); only the
    offsets are new.  A slice's offsets index the child from the child's
    own offset on."""
    child = a.values
    off = (a.offsets.to_numpy().astype(np.int64) + child.offset) * 4
    valid = pc.is_valid(a).buffers()[1] if a.null_count else None
    data = child.buffers()[1] or pa.py_buffer(b"")
    return pa.Array.from_buffers(pa.large_binary(), len(a), [valid, pa.py_buffer(off), data],
                                 a.null_count)


def _bytes_as_list(a: pa.Array, typ: pa.DataType) -> pa.Array:
    """Inverse of ``_list_as_bytes`` into list type ``typ``: the int32
    child is the bytes buffer itself (zero-copy)."""
    if not len(a):
        return pa.array([], typ)
    off = np.frombuffer(a.buffers()[1], np.int64)[a.offset:a.offset + len(a) + 1]
    child = pa.Array.from_buffers(pa.int32(), int(off[-1]) // 4, [None, a.buffers()[2]])
    valid = pc.is_valid(a).buffers()[1] if a.null_count else None
    return pa.Array.from_buffers(typ, len(a), [valid, pa.py_buffer((off // 4).astype(np.int32))],
                                 a.null_count, children=[child])


def _ids_as_bytes(t: pa.Table) -> pa.Table:
    """``t`` with its ``list<int32>`` token ids moved to bytes
    (``_list_as_bytes``), the list field kept in the field metadata for
    ``_ids_as_list``.  Tokens of any other type, or with null ids, stay as
    they are."""
    i = t.schema.get_field_index("tokens")
    if i < 0:
        return t
    fld = t.schema.field(i)
    if not pa.types.is_list(fld.type) or fld.type.value_type != pa.int32() or any(
            c.values.null_count for c in t["tokens"].chunks):
        return t
    meta = {_LIST_TYPE: pa.schema([fld]).serialize().to_pybytes()}
    return t.set_column(i, pa.field("tokens", pa.large_binary(), fld.nullable, meta),
                        pa.chunked_array([_list_as_bytes(c) for c in t["tokens"].chunks],
                                         pa.large_binary()))


def _ids_as_list(t: pa.Table) -> pa.Table:
    """``t`` with token ids that ``_ids_as_bytes`` moved turned back into
    their list field; any other table as it is."""
    i = t.schema.get_field_index("tokens")
    meta = t.schema.field(i).metadata if i >= 0 else None
    if not meta or _LIST_TYPE not in meta:
        return t
    fld = pa.ipc.read_schema(pa.py_buffer(meta[_LIST_TYPE])).field(0)
    return t.set_column(i, fld, pa.chunked_array([_bytes_as_list(c, fld.type)
                                                  for c in t["tokens"].chunks], fld.type))


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
    order-dependent QC managers on the sorted slice.  Segments by source, so
    rows of two sources never merge.  Token ids the clean feed moved as
    bytes are taken as bytes and come back as their list type."""
    ts_us = g["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    doc_id = pc.rank(g["doc_id"], sort_keys="ascending", tiebreaker="min").to_numpy()
    codes = _key_codes(g["source"])[0]
    order = dedup_order(_ids_as_list(g), doc_id, ts_us, codes)
    ts_s, code_s = ts_us[order], codes[order]
    keep = _key_change(ts_s, code_s)
    t = _ids_as_list(g.take(pa.array(order[keep], type=pa.int64())))
    return t.drop_columns(["_tb"]) if "_tb" in t.column_names else t


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
    # Upper bound on the clean shuffle's reducer count (the read is one task
    # per input row group, whatever this is); a run whose row groups all
    # have footer spans uses min(this, the (source, day) keys it rebuilds).
    # None → max(8, 2× cluster CPUs): 2 CPUs still get 8.  Over-blocking
    # small inputs multiplies fixed per-task cost ~4× (measured: 26s → 12s
    # at sf0.1 going from 200 to 64 blocks on 32 CPUs).
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
    """``(source, first ts, last ts)`` (µs) of the rows of input row group
    ``g`` (a ``parquet_row_groups`` entry), from its footer: one ``source``
    value, and ``doc_id`` min/max parsed by standardize's own rule
    (``doc_ts_us``).  doc_ids are fixed-width (``StandardizeConfig``), so
    min and max of one source share the part before the index digits and
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
    return src[0], int(t[0]), int(t[1])


def _plan_units(input_paths, cfg: PipelineConfig, done_raw: frozenset) -> tuple[list, int, dict]:
    """The input units the clean feed reads, one ``{path, row_group, rows}``
    per row group that may touch a partition outside ``done_raw``, planned
    from Parquet footers alone; the inputs' row group count; and the
    estimated rows of each (source, day index) outside ``done_raw``: a
    unit's footer row count spread evenly over its span, with the rows of
    units whose span is unknown under the key None.  Skipping is an
    optimisation, never a filter: a row group whose span is unknown, or any
    row group when a ``customize`` hook may rewrite source or ts, is read,
    and ``_skip_completed`` still drops done rows."""
    groups = parquet_row_groups(parquet_files(input_paths), ["source", "doc_id"])
    have: dict[str, set] = {}
    for s, day in map(Manifest.parse_partition, done_raw):
        have.setdefault(s, set()).add(int(np.datetime64(day, "D").astype(np.int64)))
    blind = cfg.hooks.get("customize") is not None
    units, est = [], {}
    for g in groups:
        span = None if blind else _unit_span(g, cfg.std)
        if span is None:
            todo = {None: 1.0}
        else:  # the share of the span each day outside done(raw) holds
            src, lo, hi = span
            done_days = have.get(src, ())
            todo = {(src, d): (min(hi, (d + 1) * DAY_US - 1) - max(lo, d * DAY_US) + 1)
                    / (hi - lo + 1) for d in range(lo // DAY_US, hi // DAY_US + 1)
                    if d not in done_days}
        if g["rows"] and todo:
            units.append({"path": g["path"], "row_group": g["row_group"], "rows": g["rows"]})
            for k, f in todo.items():
                est[k] = est.get(k, 0.0) + f * g["rows"]
    return units, len(groups), est


def _assign_slots(est: dict, nb: int) -> tuple[dict, int]:
    """The clean shuffle's reducer count p and each planned key's slot
    (``_plan_units``'s ``est``): p = min(nb, keys), or nb when some rows
    have no key (None); keys go largest first, ties by key, each onto the
    least loaded slot (longest processing time first), so the largest load
    is at most the mean plus the largest key."""
    keys = sorted((k for k in est if k is not None), key=lambda k: (-est[k], k))
    p = nb if None in est or not keys else min(nb, len(keys))
    loads, slots = [(0.0, r) for r in range(p)], {}
    for k in keys:
        load, r = heapq.heappop(loads)
        slots[k] = r
        heapq.heappush(loads, (load + est[k], r))
    return slots, p


def _drop_tombstoned(b: pa.Table, tomb) -> pa.Table:
    """``b`` without the rows whose doc_id is in ``tomb`` (None: none)."""
    return b if tomb is None else b.filter(pc.invert(pc.is_in(b["doc_id"], value_set=tomb)))


@functools.cache
def _remote(fn):
    """``fn``, a module-level task kernel, as a Ray remote function, made
    once per process: Ray is imported lazily, and a handle made on every
    run would export the kernel again on every run."""
    import ray

    return ray.remote(fn)


def _read_unit(unit: dict, cfg: PipelineConfig, done: dict, slots: dict, p: int, tomb):
    """The map task of one input unit (``_plan_units``): read its row group
    and run tombstone → standardize → customize → resume-skip → day → token
    ids as bytes, then split the rows by reducer slot (``_row_slots``).
    Returns p tables, or the one table when p = 1.  CheckMonotonic runs per
    input file: the row group's first row is compared with the last
    surviving (source, doc_id) before it in the file."""
    import pyarrow.parquet as pq

    from ..state.uri import StorageFS

    sfs, rg, prev = StorageFS(unit["path"]), unit["row_group"], None
    with sfs.fs.open_input_file(sfs.path) as fh:
        pf = pq.ParquetFile(fh)
        b = _drop_tombstoned(pf.read_row_group(rg), tomb)
        for k in range(rg - 1, -1, -1):
            t = _drop_tombstoned(pf.read_row_group(k, columns=["source", "doc_id"]), tomb)
            if t.num_rows:
                prev = (t["source"][-1].as_py(), t["doc_id"][-1].as_py())
                break
    b = standardize_batch(b, cfg.std, prev)
    if cfg.hooks.get("customize") is not None:
        b = cfg.hooks["customize"](b)
    if done["raw"]:
        b = _skip_completed(b, "ts", done["raw"])
    b = _ids_as_bytes(_add_day(b, "ts"))
    parts = _split_slots(b, _row_slots(b, "ts", slots, p), p)
    return parts if p > 1 else parts[0]


def _clean_slot(cfg: PipelineConfig, done: dict, later: tuple, *parts: pa.Table) -> list:
    """The reducer task of one slot: its map outputs, in unit order, as one
    table; each (source, day) of it is cleaned, QC'd and written to raw
    (+ QC sidecars/quarantine), then rolled into the dirs of ``later`` it
    lacks.  Returns ``(dir, task seconds)`` per dir write."""
    parts = [t for t in parts if t.num_rows]
    if not parts:  # a slot no key fell into
        return []
    g = pa.concat_tables(parts)
    qc_stage = QCStage(cfg.qc) if cfg.qc else None
    raw_root = Manifest(cfg.out_root).tier_dir("raw")
    qroot = os.path.join(cfg.out_root, "quarantine") if cfg.qc_quarantine else None
    meta = _qc_file_metadata(qc_stage, cfg.run_id)
    times = []
    src, dd = (g[c].combine_chunks().dictionary_encode() for c in ("source", "day"))
    key = (src.indices.to_numpy().astype(np.int64) << 32) | dd.indices.to_numpy()
    keys = np.unique(key)
    for k in keys:
        t0 = time.perf_counter()
        source, day = src.dictionary[k >> 32].as_py(), dd.dictionary[k & 0xFFFFFFFF].as_py()
        part = g.filter(pa.array(key == k)) if len(keys) > 1 else g
        t = _clean_write_group(part, qc_stage, raw_root, qroot, meta, cfg.hooks.get("finalize"))
        times.append(("raw", time.perf_counter() - t0))
        write = {n for n in later if f"source={source}/day={day}" not in done[n]}
        if t is not None and t.num_rows and write:
            times += _roll_partition(t, 0, day, write, cfg)
    return times


def _roll_item(cfg: PipelineConfig, item: dict) -> list:
    """The disk feed's task for one item ``{level, part, files, write}``:
    read ``files``, the committed partition ``part`` of tier
    ``chain[level]`` (``source`` re-added from its name, as a hive read
    would), and roll it into the dirs of ``write``.  Returns ``(dir, task
    seconds)`` per dir write."""
    sfs = Manifest(cfg.out_root).sfs
    cur = pa.concat_tables(sfs.read_table(f) for f in item["files"])
    source, day = Manifest.parse_partition(item["part"])
    cur = cur.append_column("source", pa.repeat(source, cur.num_rows))
    return _roll_partition(cur, item["level"], day, set(item["write"]), cfg)


def _cascade(input_paths, cfg: PipelineConfig, names: tuple[str, ...],
             now_us: Optional[int] = None) -> dict:
    """Build and run ONE graph of Ray tasks that writes the store dirs
    ``names`` (some of ``Manifest.tier_names``), then commit them in that
    order.  done(n) is read after n's uncommitted dirs (a killed run's
    output) are wiped; without resume nothing is done.  Given ``now_us``,
    done(raw) also holds the partitions ``_retired`` names.  The clean feed
    (when raw is written) carries every partition not in done(raw); the
    disk feed each other partition a dir lacks, read from the tier below
    the lowest dir it lacks.  The clean feed reads only the input row
    groups that may touch a partition outside done(raw) and is not built
    when there are none.  Returns per-dir stats keyed "raw", "1m", ...,
    "1m_enc"."""
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

    units, n_groups, est = _plan_units(input_paths, cfg, done["raw"]) if "raw" in done \
        else ([], 0, {})
    slots, p = _assign_slots(est, _num_blocks(cfg)) if units else ({}, 0)
    have = {lv: man.latest(chain[lv]) for lv in {_src_level(n, chain) for n in later}}
    items = []
    for part in sorted(set().union(*have.values())):
        write = [n for n in later if part not in done[n]]
        lv = min((_src_level(n, chain) for n in write), default=0)
        if write and part in have[lv] and not ("raw" in done and part not in done["raw"]):
            files = [man.partition_dir(chain[lv], part) + f"/{f}" for f in have[lv][part]["files"]]
            items.append({"level": lv, "part": part, "files": files, "write": write})
    task_s = dict.fromkeys(order, 0.0)
    if units or items:
        import ray

        run_cfg, run_done, refs = ray.put(cfg), ray.put(done), []
        if units:  # p outputs per map task, one reducer task per slot
            tomb = _tombstone_values(cfg)
            # the permanent purge exclusion set (purge_keys), applied to the
            # raw input, so no run can resurrect purged rows
            tref = ray.put(tomb) if tomb is not None and len(tomb) else None
            run_slots, read = ray.put(slots), _remote(_read_unit).options(num_returns=p)
            outs = [read.remote(u, run_cfg, run_done, run_slots, p, tref) for u in units]
            outs = outs if p > 1 else [[o] for o in outs]
            refs = [_remote(_clean_slot).remote(run_cfg, run_done, later, *(o[r] for o in outs))
                    for r in range(p)]
        refs += [_remote(_roll_item).remote(run_cfg, it) for it in items]
        try:
            for times in ray.get(refs):
                for name, s in times:
                    task_s[name] += s
        except BaseException:  # stop the run's other tasks writing
            for r in refs:
                ray.cancel(r)
            raise
    wall = time.time() - t0

    corpus = list(input_paths) if isinstance(input_paths, (list, tuple)) else [input_paths]
    stats = {}
    for n in order:  # lineage: the corpus for raw, else the source tier dir
        lineage = [man.tier_dir(chain[_src_level(n, chain)])] if n != "raw" else corpus
        recs = man.commit_partitions(n, lineage, cfg.run_id, wall)
        key = n if n == "raw" else n[1:]
        stats[key] = {"tier": key, "new_partitions": len(recs), "skipped": len(done[n]),
                      "rows": sum(r.rows for r in recs), "wall_s": wall, "task_s": task_s[n]}
        if n == "raw":  # the input the clean feed read, and its reducer count
            stats[key].update(
                input_row_groups={"read": len(units), "total": n_groups},
                input_rows_read=sum(u["rows"] for u in units),
                shuffle_partitions=p)
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
    partition: a column-pruned read of its committed files in the calling
    process, no Ray job."""
    files, braw, benc = man.tier_files(name), 0, 0
    if files:
        t = man.sfs.read_table(files, columns=["bytes_raw", "bytes_enc"])
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
        for part in sorted(man.completed(tier)):
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

        parts = man.read_tier("raw", columns=[id_col, "source", "day"]).map_batches(
            find_parts, batch_format="pyarrow")
        for b in parts.iter_batches(batch_format="pyarrow", batch_size=None):
            for s, d in zip(b["source"].to_pylist(), b["day"].to_pylist()):
                hits.add(f"source={s}/day={d}")

    invalidated = {t: man.invalidate(t, sorted(hits), reason="purge")
                   for t in Manifest.tier_names(cfg.tiers, cfg.encode_tiers)}
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
    """Delete committed day partitions older than each tier's retention
    horizon; every prune is recorded in the manifest (so `completed` drops
    the partition and a later backfill run could legitimately recreate it)."""
    man = Manifest(cfg.out_root)
    pruned: dict[str, list[str]] = {}
    for tname in Manifest.tier_names(cfg.tiers):
        cutoff = _retention_cutoff(cfg, tname, now_us)
        if cutoff is None:
            continue
        for part in sorted(man.completed(tname)):
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
