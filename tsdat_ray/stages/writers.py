"""Hive-partitioned writers: Parquet (the tier store), CSV and ORC.

``Dataset.write_parquet(partition_cols=...)`` costs ~4× a plain write at the
same byte count (per-file and per-slice overhead in the generic partitioned
sink).  These writers do the same hive layout — ``root/source=<s>/day=<d>/
part-<ts>.<ext>``, partition columns dropped from file contents — as one
vectorized pass over each batch.  One segmenter, ``_write_hive``, serves all
three formats: it segments the batch by the partition key (dictionary-encode
+ stable argsort, zero-copy slices), names each slice's directory and part
file, and hands the slice to the format's encoder, which is all that differs
between Parquet, CSV and ORC.  One stream driver, ``_write_stream``, runs
any of the three per-batch writers over a Dataset.

File names are deterministic (min timestamp of the slice), so re-running a
partition — whether a whole-pipeline rerun or a Ray task retry — overwrites
the same file rather than duplicating it (idempotent resume, matching the
reference's overwrite-on-rerun storage —
/root/reference/tsdat/io/storage/file_system.py:161-179).

``root`` may be a plain path or any ``pyarrow.fs`` URI (``file://``,
``s3://``, ``gs://`` — parity with the reference's FileSystemS3,
io/storage/file_system_s3.py:24+).  Every file is published through
state/uri.StorageFS, whose one publish rule makes each write atomic.

``write_batch_partitioned`` is the per-batch Parquet core; calling it inside
a ``map_groups``/``map_batches`` stage fuses the write into that stage — the
flagship pipeline writes each tier from the same task that finalizes it, so
no extra materialization pass (and no second trip through the object store)
is spent on writing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _write_hive(batch: pa.Table, root: str, partition_cols: tuple[str, ...],
                ts_col: str | None, ext: str, put) -> pa.Table:
    """Segment ONE batch by partition key and publish each slice as
    ``<root>/<c>=<v>/.../part-<min_ts>.<ext>`` via ``put(sfs, path, slice)``.
    Returns a (path, rows) manifest table.  Deterministic file names → safe
    under Ray task retries (a re-run overwrites the same file)."""
    from ..state.uri import StorageFS

    n = batch.num_rows
    if n == 0:
        return pa.table({"path": pa.array([], pa.string()), "rows": pa.array([], pa.int64())})
    sfs = StorageFS(root)
    codes = np.zeros(n, dtype=np.int64)
    uniques: list[list] = []
    per_col_idx: list[np.ndarray] = []
    for c in partition_cols:
        d = batch[c].combine_chunks().dictionary_encode()
        idx = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniques.append(d.dictionary.to_pylist())
        per_col_idx.append(idx)
        codes = codes * (idx.max() + 1) + idx

    order = np.argsort(codes, kind="stable")
    cs = codes[order]
    starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
    ends = np.r_[starts[1:], n]

    if len(starts) > 1:  # one partition is already in order: no copy
        batch = batch.take(pa.array(order, type=pa.int64()))
    body = batch.drop_columns(list(partition_cols))
    tcol = ts_col if ts_col and ts_col in body.column_names else None
    paths, rows = [], []
    for s, e in zip(starts, ends):
        sub = body.slice(s, e - s)
        row0 = order[s]
        dirname = sfs.join(
            *(f"{c}={uniques[k][per_col_idx[k][row0]]}" for k, c in enumerate(partition_cols)),
        )
        sfs.makedirs(dirname)
        tmin = int(pc.min(sub[tcol].combine_chunks().cast(pa.int64())).as_py()) if tcol else int(s)
        path = f"{dirname}/part-{tmin}.{ext}"
        put(sfs, path, sub)
        paths.append(path)
        rows.append(sub.num_rows)
    return pa.table({"path": pa.array(paths, pa.string()), "rows": pa.array(rows, pa.int64())})


def _write_stream(ds, write_batch, *args) -> int:
    """Stream ``ds`` through ``write_batch(batch, *args)`` (one of the
    per-batch writers); returns rows written.  Consumes the dataset (one
    streaming pass)."""
    res = ds.map_batches(write_batch, fn_args=args, batch_format="pyarrow").materialize()
    total = 0
    for b in res.iter_batches(batch_format="pyarrow"):
        total += int(pc.sum(b["rows"]).as_py() or 0)
    return total


def _leaf_paths(name: str, ty: pa.DataType) -> list[str]:
    """The Parquet leaf column paths of one Arrow field, as pyarrow names
    them (``tokens.list.element``, ``m.key_value.key``, ``s.a``)."""
    if pa.types.is_struct(ty):
        return [p for c in ty for p in _leaf_paths(f"{name}.{c.name}", c.type)]
    if pa.types.is_map(ty):
        return (_leaf_paths(f"{name}.key_value.key", ty.key_type)
                + _leaf_paths(f"{name}.key_value.value", ty.item_type))
    if pa.types.is_list(ty) or pa.types.is_large_list(ty) or pa.types.is_fixed_size_list(ty):
        return _leaf_paths(f"{name}.list.element", ty.value_type)
    return [name]


def _parquet_options(schema: pa.Schema) -> dict:
    """``pq.write_table`` options for ``schema``: the element column of each
    top-level ``list<integer>`` column is DELTA_BINARY_PACKED with no
    dictionary; every other leaf keeps Parquet's default dictionary."""
    delta = {f"{f.name}.list.element" for f in schema
             if (pa.types.is_list(f.type) or pa.types.is_large_list(f.type))
             and pa.types.is_integer(f.type.value_type)}
    if not delta:
        return {}
    return {"use_dictionary": [p for f in schema for p in _leaf_paths(f.name, f.type)
                               if p not in delta],
            "column_encoding": dict.fromkeys(delta, "DELTA_BINARY_PACKED")}


def write_batch_partitioned(
    batch: pa.Table,
    root: str,
    partition_cols: tuple[str, ...] = ("source", "day"),
    ts_col: str | None = None,
    compression: str = "snappy",
    metadata: dict | None = None,
) -> pa.Table:
    """Write ONE batch's rows as hive-partitioned Parquet under ``root``;
    returns a (path, rows) manifest table.

    Integer-list columns (the token ids) are written DELTA_BINARY_PACKED
    instead of dictionary-encoded: for ids spread over a 50k vocabulary a
    dictionary page saves nothing over bit-packed deltas, and the delta pass
    takes ~0.55× the write CPU of building it (``_parquet_options``).  Every
    other column keeps the default encoding, and the Arrow contents read
    back equal under pyarrow and DuckDB."""
    if metadata:
        # global attrs / QC flag meanings land in every file footer (the
        # engine's xr attrs equivalent; reference: NetCDFWriter attrs)
        md = {str(k).encode(): str(v).encode() for k, v in metadata.items()}
        batch = batch.replace_schema_metadata({**(batch.schema.metadata or {}), **md})
    options = _parquet_options(batch.schema)

    def put(sfs, path: str, sub: pa.Table) -> None:
        sfs.write_table_atomic(sub, path, compression=compression, **options)

    return _write_hive(batch, root, partition_cols, ts_col, "parquet", put)


def write_batch_csv(
    batch: pa.Table,
    root: str,
    partition_cols: tuple[str, ...] = ("source", "day"),
    ts_col: str | None = None,
    metadata: dict | None = None,
    preamble: bool = False,
) -> pa.Table:
    """CSV twin of ``write_batch_partitioned`` (reference parity: CSVWriter,
    /root/reference/tsdat/io/writers/csv_writer.py:14-91 — debug/export
    format).  Same hive layout and deterministic ``part-<min_ts>.csv`` names;
    global attrs land in a ``_header.hdr.csv`` sidecar per partition (the
    reference's ``.hdr.csv`` convention) since CSV has no footer metadata.

    ``preamble=True`` writes A2e-standard files instead (parity:
    A2eCSVWriter, io/writers/a2e_csv_writer.py): ``key,value`` metadata
    lines + a ``header=N`` marker precede the csv body in the SAME file —
    round-trippable with ``sources.csv_source.read_preamble_csv``."""
    import io

    import pyarrow.csv as pacsv

    # CSV can't hold nested columns; drop them (csv_writer.py warns the same)
    batch = batch.select([f.name for f in batch.schema if not pa.types.is_nested(f.type)])

    def put(sfs, path: str, sub: pa.Table) -> None:
        buf = io.BytesIO()
        pacsv.write_csv(sub, buf)
        text = buf.getvalue().decode()
        if preamble:
            lines = [f"{k},{v}" for k, v in (metadata or {}).items()]
            # marker value = first body row index (preamble lines + marker)
            lines.append(f"header={len(lines) + 1}")
            sfs.write_text(path, "\n".join(lines) + "\n" + text)
            return
        sfs.write_text(path, text)
        if metadata:
            hdr = "".join(f"{k},{v}\n" for k, v in metadata.items())
            sfs.write_text(f"{path.rsplit('/', 1)[0]}/_header.hdr.csv", hdr)

    return _write_hive(batch, root, partition_cols, ts_col, "csv", put)


def write_batch_orc(
    batch: pa.Table,
    root: str,
    partition_cols: tuple[str, ...] = ("source", "day"),
    ts_col: str | None = None,
) -> pa.Table:
    """ORC twin of ``write_batch_partitioned``: same hive layout and
    deterministic ``part-<min_ts>.orc`` names, columnar + compressed like
    the Parquet tier but readable by Hive/Trino-side consumers.  Nested
    columns are kept — ORC supports lists/structs natively."""
    import io

    from pyarrow import orc as paorc

    def put(sfs, path: str, sub: pa.Table) -> None:
        buf = io.BytesIO()
        paorc.write_table(sub, buf)
        sfs.write_bytes(path, buf.getvalue())

    return _write_hive(batch, root, partition_cols, ts_col, "orc", put)


def write_partitioned(
    ds,
    root: str,
    partition_cols: tuple[str, ...] = ("source", "day"),
    ts_col: str | None = None,
    compression: str = "snappy",
    metadata: dict | None = None,
) -> int:
    """Write ``ds`` under ``root`` in hive layout; returns rows written."""
    return _write_stream(ds, write_batch_partitioned, root, partition_cols, ts_col,
                         compression, metadata)


def write_csv(ds, root: str, partition_cols: tuple[str, ...] = ("source", "day"),
              ts_col: str | None = None, metadata: dict | None = None) -> int:
    """Stream ``ds`` to hive-partitioned CSV under ``root``; returns rows."""
    return _write_stream(ds, write_batch_csv, root, partition_cols, ts_col, metadata)


def write_orc(ds, root: str, partition_cols: tuple[str, ...] = ("source", "day"),
              ts_col: str | None = None) -> int:
    """Stream ``ds`` to hive-partitioned ORC under ``root``; returns rows."""
    return _write_stream(ds, write_batch_orc, root, partition_cols, ts_col)

def compact_tier(root: str, tier: str, run_id: str = "compact") -> dict:
    """Small-file compaction for a tier store: every committed partition
    with more than one part file is rewritten as ONE ts-sorted part — the
    lakehouse OPTIMIZE/compact operation (each pipeline run adds a part per
    block per partition; reads degrade as parts accumulate).

    Crash-safe against the manifest's recovery invariant (committed
    partitions are never half-rewritten): per partition, (1) the merged
    sorted table is written under a non-``.parquet`` temp name (invisible
    to store readers), (2) the partition's manifest record is pruned
    (reason=compact), (3) old parts are deleted, (4) the temp renames to
    ``part-<min_ts>.parquet`` atomically, (5) the partition re-commits.  A
    crash at ANY point leaves either the fully-committed old state or an
    uncommitted dir that ``wipe_uncommitted`` + resume recomputes — never
    duplicated and never silently missing rows.  One Ray task per
    partition (the file list is the Dataset)."""
    import ray
    import ray.data as rd

    from ..state.manifest import Manifest

    man = Manifest(root)
    todo = [{"part": p} for p, r in sorted(man.latest(tier).items()) if len(r["files"]) > 1]
    if not todo:
        return {"tier": tier, "compacted": 0}

    # step 2 first for ALL partitions (driver-side, manifest is driver-owned)
    for t in todo:
        man.append({"tier": tier, "partition": t["part"], "action": "pruned",
                    "reason": "compact"})

    root_ref = ray.put((root, tier))

    def compact_one(b: pa.Table) -> pa.Table:
        import io as _io

        import pyarrow.parquet as pq

        from ..state.manifest import Manifest as _M

        root_, tier_ = ray.get(root_ref)
        m = _M(root_)
        outs = []
        for part in b["part"].to_pylist():
            pdir = m.partition_dir(tier_, part)
            # recover a previous crash: a lingering .merged temp holds the
            # full merge of the input set recorded in ITS parquet metadata —
            # finish the original operation exactly: delete those inputs
            # (any still present), then publish.  Publishing without the
            # input delete would re-merge the merge with its own inputs and
            # duplicate every surviving row (review r3 finding).
            for f in m.sfs.listdir(pdir):
                if f.endswith(".merged"):
                    tmp_path = f"{pdir}/{f}"
                    meta = pq.read_schema(
                        _io.BytesIO(m.sfs.read_bytes(tmp_path))).metadata or {}
                    for old in (meta.get(b"compact_inputs", b"").decode()
                                .split("\n")):
                        if old and m.sfs.exists(f"{pdir}/{old}"):
                            m.sfs.remove_file(f"{pdir}/{old}")
                    m.sfs.rename(tmp_path, f"{pdir}/{f[:-len('.merged')]}")
            files = sorted(f for f in m.sfs.listdir(pdir) if f.endswith(".parquet"))
            tabs = [pq.read_table(_io.BytesIO(m.sfs.read_bytes(f"{pdir}/{f}")))
                    for f in files]
            merged = pa.concat_tables(tabs)
            if "ts" in merged.column_names:
                merged = merged.sort_by("ts")
                tmin = int(merged["ts"][0].cast(pa.int64()).as_py())
            else:
                tmin = 0
            # step 3: write the full merge (carrying its input list) to a
            # non-.parquet temp name FIRST so a crash at any later point
            # leaves at least one complete copy plus the recovery recipe
            final = f"{pdir}/part-{tmin}.parquet"
            tmp = f"{final}.merged"
            merged = merged.replace_schema_metadata(
                {**(merged.schema.metadata or {}),
                 b"compact_inputs": "\n".join(files).encode()})
            m.sfs.write_table_atomic(merged, tmp, **_parquet_options(merged.schema))
            for f in files:                       # step 4: clear old parts
                m.sfs.remove_file(f"{pdir}/{f}")
            # step 5: publish under the deterministic name
            m.sfs.rename(tmp, final)
            outs.append((part, len(files), merged.num_rows))
        return pa.table({
            "part": pa.array([o[0] for o in outs]),
            "n_files_before": pa.array([o[1] for o in outs], pa.int64()),
            "rows": pa.array([o[2] for o in outs], pa.int64()),
        })

    res = rd.from_items(todo, override_num_blocks=max(len(todo), 1)).map_batches(
        compact_one, batch_format="pyarrow").materialize()
    n = res.count()
    man.commit_partitions(tier, inputs=["compact"], run_id=run_id)  # step 5
    return {"tier": tier, "compacted": n}


# --------------------------------------------------------------------------- #
# A2e-standard CSV (dim-group split files + attribute preamble)
# --------------------------------------------------------------------------- #

def a2e_filepath(base: str, dims: tuple[str, ...]) -> str:
    """``.{dims}.{len}d.a2e.csv`` suffix naming (parity: A2eCSVWriter.
    get_filepath, io/writers/a2e_csv_writer.py:17-38)."""
    dims_str = ".".join(dims)
    new_suffix = f".{dims_str}.{len(dims)}d.a2e.csv"
    if base.endswith(".a2e.csv"):
        return base[: -len(".a2e.csv")] + new_suffix
    if base.endswith(".csv"):
        return base[: -len(".csv")] + new_suffix
    return base + new_suffix


def a2e_metadata_header(
    tbl: pa.Table,
    coord_cols: tuple[str, ...],
    attrs: dict | None = None,
    var_attrs: dict[str, dict] | None = None,
) -> str:
    """The A2e metadata preamble (parity: A2eCSVWriter.
    get_metadata_header_str, a2e_csv_writer.py:40-79): a ``header=N`` count
    line, global ``name="value"`` lines, then per-variable ``var:dtype=…``
    (non-string vars, coords first) and ``var:attr="value"`` lines."""
    glines: list[str] = []
    vlines: list[str] = []

    def _val(v) -> str:
        return f'"{v}"' if isinstance(v, str) else f"{v}"

    for k, v in (attrs or {}).items():
        glines.append(f"{k}={_val(v)}")
    df_dtypes = {f.name: tbl[f.name].combine_chunks().to_pandas().dtype
                 for f in tbl.schema}
    ordered = [c for c in coord_cols if c in tbl.column_names] + [
        c for c in tbl.column_names if c not in coord_cols
    ]
    import pandas.api.types as ptypes

    for name in ordered:
        if not ptypes.is_string_dtype(df_dtypes[name]):
            vlines.append(f"{name}:dtype={df_dtypes[name]}")
        for k, v in (var_attrs or {}).get(name, {}).items():
            vlines.append(f"{name}:{k}={_val(v)}")
    header = f"header={len(glines) + len(vlines) + 1}"
    return "\n".join(filter(None, [header, "\n".join(glines), "\n".join(vlines)]))


def write_batch_a2e_csv(
    batch: pa.Table,
    base_path: str,
    dims_of: dict[str, tuple[str, ...]],
    attrs: dict | None = None,
    var_attrs: dict[str, dict] | None = None,
    ts_col: str = "ts",
) -> pa.Table:
    """A2e-standard CSV write of one (long-format) table: variables split by
    their declared dim groups — one ``.{dims}.{len}d.a2e.csv`` file per
    group, each with the metadata preamble + csv body (time format
    ``%Y-%m-%d %H:%M:%S.%f`` — parity: A2eCSVWriter.write +
    get_data_as_str, a2e_csv_writer.py:81-105).  Dimensionless variables
    join the (time,) group as in the reference.  For a 1-D group the rows
    dedupe to one per coord tuple; 2-D groups keep the long layout (the
    dataframe the reference's ``to_dataframe().reset_index()`` produces)."""
    from ..state.uri import StorageFS

    groups: dict[tuple[str, ...], list[str]] = {}
    for var, dims in dims_of.items():
        key = dims if dims else (ts_col,)
        groups.setdefault(key, []).append(var)

    parent = base_path.rsplit("/", 1)[0] if "/" in base_path else "."
    fname = base_path.rsplit("/", 1)[-1]
    sfs = StorageFS(parent)
    sfs.makedirs(".")
    paths, rows = [], []
    for dims, vars_ in sorted(groups.items()):
        cols = [d for d in dims] + vars_
        sub = batch.select([c for c in cols if c in batch.column_names])
        df = sub.to_pandas()
        df = df.drop_duplicates(subset=list(dims)).reset_index(drop=True)
        out_name = a2e_filepath(fname, dims)
        header = a2e_metadata_header(sub, dims, attrs, var_attrs)
        body = df.to_csv(date_format="%Y-%m-%d %H:%M:%S.%f", header=True,
                         index=False)
        sfs.write_text(sfs.join(out_name), header + "\n" + body)
        paths.append(sfs.join_root(out_name))
        rows.append(len(df))
    return pa.table({"path": pa.array(paths, pa.string()),
                     "rows": pa.array(rows, pa.int64())})
