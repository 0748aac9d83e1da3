"""Declared-schema standardization: the engine's equivalent of tsdat's
DatasetConfig + retrieval rules.

The reference declares every output variable (name, dtype, attrs) in yaml and
standardizes retrieved data against it — rename by rule, drop undeclared
variables, create declared-but-missing ones filled with ``_FillValue``, cast
dtypes, inject static values (/root/reference/tsdat/pipeline/base/
pipeline.py:59-148, io/retrievers/_rename_variables.py:16-91,
perform_data_retrieval.py:36-92 first-match-wins).  Here the same contract is
a small dataclass plus ONE vectorized ``map_batches`` stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

FILL_DEFAULT = -9999  # reference default _FillValue (config/variables/variable.py:64-81)


@dataclass(frozen=True)
class DeclaredVar:
    name: str
    dtype: str  # pyarrow type name: int32/int64/float32/float64/string/timestamp[us]
    # input column candidates, first present wins (perform_data_retrieval.py:36-92);
    # defaults to [name]
    retrieve_from: tuple[str, ...] = ()
    fill_value: object = None  # used when no candidate is present
    static: object = None  # constant-valued variable ("data:" in tsdat configs)
    converter: object = None  # optional callable(pa.ChunkedArray) -> pa.Array


@dataclass(frozen=True)
class DeclaredSchema:
    variables: tuple[DeclaredVar, ...]
    attrs: dict = field(default_factory=dict)

    def arrow_schema(self) -> pa.Schema:
        return pa.schema([(v.name, _pa_type(v.dtype)) for v in self.variables])


def _pa_type(name: str) -> pa.DataType:
    if name.startswith("timestamp"):
        unit = name[name.index("[") + 1 : name.index("]")] if "[" in name else "us"
        return pa.timestamp(unit)
    return pa.type_for_alias(name)


def _fill_for(v: DeclaredVar, typ: pa.DataType):
    if v.fill_value is not None:
        return v.fill_value
    if pa.types.is_integer(typ):
        return FILL_DEFAULT
    if pa.types.is_floating(typ):
        return float("nan")
    return None


def standardize_declared(batch: pa.Table, schema: DeclaredSchema) -> pa.Table:
    """Vectorized standardize: rename/select/cast/fill/inject per the declared
    schema.  Undeclared input columns are dropped; declared-but-missing ones
    are created filled; dtypes are cast (safe=False, like the reference's
    astype — pipeline.py:112-122)."""
    n = batch.num_rows
    out: dict[str, pa.Array | pa.ChunkedArray] = {}
    for v in schema.variables:
        typ = _pa_type(v.dtype)
        if v.static is not None:
            out[v.name] = pa.array(np.repeat(v.static, n)).cast(typ)
            continue
        src = None
        for cand in (v.retrieve_from or (v.name,)):
            if cand in batch.column_names:
                src = batch[cand]
                break
        if src is None:
            fill = _fill_for(v, typ)
            out[v.name] = pa.nulls(n, typ) if fill is None else pa.array([fill] * n).cast(typ)
            continue
        if v.converter is not None:
            src = v.converter(src)
        col = src if isinstance(src, (pa.Array, pa.ChunkedArray)) else pa.array(src)
        if col.type != typ:
            col = pc.cast(col, typ, safe=False)
        out[v.name] = col
    return pa.table(out)


def schema_drift(paths, schema: "DeclaredSchema"):
    """Schema-evolution / drift report over a parquet file set: one row per
    (file, column, issue) where issue ∈ {missing, unexpected,
    type_changed}.  The production pre-flight for declared-schema ingest
    (the reference fails at retrieval time deep inside a run — reference
    io/retrievers/storage_retriever.py:213 raises mid-pipeline; this
    surfaces every divergence up front instead).

    Metadata-only and distributed: the FILE LIST is the Dataset, each task
    reads only parquet FOOTERS (`pq.read_schema`) — no row data moves."""
    import ray.data as rd

    declared = {}
    for v in schema.variables:
        cands = v.retrieve_from or (v.name,)
        for c in cands:
            declared[c] = v.dtype

    def check(b: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        files, cols, issues, details = [], [], [], []
        for p in b["path"].to_pylist():
            s = pq.read_schema(p)
            actual = {f.name: str(f.type) for f in s}
            for name, want in declared.items():
                if name not in actual:
                    files.append(p); cols.append(name)
                    issues.append("missing"); details.append(want)
                elif actual[name] != want:
                    files.append(p); cols.append(name)
                    issues.append("type_changed")
                    details.append(f"{want} -> {actual[name]}")
            for name in actual:
                if name not in declared:
                    files.append(p); cols.append(name)
                    issues.append("unexpected"); details.append(actual[name])
        return pa.table({"path": pa.array(files, pa.string()),
                         "column": pa.array(cols, pa.string()),
                         "issue": pa.array(issues, pa.string()),
                         "detail": pa.array(details, pa.string())})

    if isinstance(paths, str):
        import glob as _glob

        paths = sorted(_glob.glob(f"{paths}/**/*.parquet", recursive=True)) \
            if not paths.endswith(".parquet") else [paths]
    items = [{"path": p} for p in paths]
    return rd.from_items(items, override_num_blocks=max(len(items), 1)).map_batches(
        check, batch_format="pyarrow")


def parquet_files(paths, suffix: str = "") -> list[str]:
    """The files ``ray.data.read_parquet(paths)`` reads: a file path names
    itself; a directory is walked recursively, in sorted order, skipping
    every file whose path below it has a part that starts with ``.`` or
    ``_`` (``_SUCCESS``, hidden files, ``_tmp/`` subtrees).  A URI opens
    through ``pyarrow.fs`` (``StorageFS``) and its files keep the scheme.
    Files found in a directory must also end with ``suffix``."""
    from pyarrow import fs as pafs

    from ..state.uri import StorageFS

    out: list[str] = []
    for p in [paths] if isinstance(paths, str) else paths:
        sfs = StorageFS(p)
        if not sfs.isdir(sfs.path):
            out.append(p)
            continue
        base = sfs.path.rstrip("/") + "/"
        infos = sfs.fs.get_file_info(pafs.FileSelector(sfs.path, recursive=True))
        out += sorted(sfs.prefix + i.path for i in infos
                      if i.is_file and i.path.endswith(suffix)
                      and not any(part.startswith((".", "_"))
                                  for part in i.path[len(base):].split("/")))
    return out


def parquet_row_groups(files, columns) -> list[dict]:
    """Footer statistics of every row group of ``files`` (see
    :func:`parquet_files`), one ``{"path", "row_group", "rows", "stats"}``
    per row group in file order.  ``stats[c]`` is the ``(min, max)`` of the
    leaf column named ``c``, looked up by its Parquet path (a struct or list
    column before it shifts the leaf index), or None when the file has no
    such leaf or the chunk has no min/max or may hold nulls: a caller that
    prunes on it must keep that row group."""
    import pyarrow.parquet as pq

    from ..state.uri import StorageFS

    out = []
    for f in files:
        sfs = StorageFS(f)
        with sfs.fs.open_input_file(sfs.path) as fh:
            md = pq.read_metadata(fh)
        leaf = {md.schema.column(i).path: i for i in range(md.num_columns)}
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            stats = {}
            for c in columns:
                st = g.column(leaf[c]).statistics if c in leaf else None
                ok = st is not None and st.has_min_max and st.has_null_count and not st.null_count
                stats[c] = (st.min, st.max) if ok else None
            out.append({"path": f, "row_group": rg, "rows": g.num_rows, "stats": stats})
    return out


def _stat_us(v) -> int:
    """A timestamp statistic as µs since the epoch."""
    return int(v) if isinstance(v, (int, float)) else int(np.datetime64(v, "us").astype(np.int64))


def prune_parquet_files(paths, ts_col: str, lo_us: int, hi_us: int) -> list[str]:
    """File-level data skipping from parquet FOOTER statistics: keep only
    the ``.parquet`` files with a row group whose ``ts_col`` min/max range
    overlaps [lo_us, hi_us).  Complements hive-partition pruning — inside a
    partition (or for unpartitioned drops) the footers carry per-row-group
    min/max, so a time-range fetch skips whole files without reading a row.
    A row group without statistics (or without a ``ts_col`` leaf) keeps its
    file (skipping is an optimization, never a filter)."""
    keep: dict[str, None] = {}
    for g in parquet_row_groups(parquet_files(paths, suffix=".parquet"), [ts_col]):
        mm = g["stats"][ts_col]
        if mm is None or (_stat_us(mm[1]) >= lo_us and _stat_us(mm[0]) < hi_us):
            keep[g["path"]] = None
    return list(keep)
