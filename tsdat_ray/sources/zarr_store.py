"""Minimal Zarr v2 store (pure numpy + zlib — no ``zarr`` package needed).

Reference parity: ``ZarrReader`` (/root/reference/tsdat/io/readers/
zarr_reader.py:9-18), ``ZarrWriter`` (io/writers/zarr_writer.py) and
``ZarrLocalStorage`` (io/storage/zarr_local_storage.py:14-97) — the
cloud-native chunked columnar companion to the Parquet tier store.

Implements the public Zarr v2 spec directly (one ``.zarray`` JSON per array,
C-order chunk files named ``0``, ``1`` …, ``.zgroup``/``.zattrs`` for
groups): https://zarr.readthedocs.io/en/stable/spec/v2.html.  Compressors:
``null`` (raw) and ``zlib`` — both spec-valid and readable by the real zarr
package (blosc isn't in this container).  Arrays are 1-D columns; a dataset
partition maps to one group with same-length column arrays, mirroring the
long/tall tier schema.

All I/O goes through state/uri.StorageFS, so stores work behind ``file://``
(and s3://-style) roots like the Parquet writer.
"""

from __future__ import annotations

import json
import zlib as _zlib

import numpy as np
import pyarrow as pa

from ..state.uri import StorageFS

_FILL = {"f": float("nan"), "i": 0, "u": 0, "U": "", "S": "", "b": False, "M": 0}


def _dtype_str(dt: np.dtype) -> str:
    s = dt.str
    if dt.kind == "M":  # datetime64 → int64 on disk + units attr
        return "<i8"
    return s


def write_array(root: str, arr: np.ndarray, chunks: int | None = None,
                compressor: str = "zlib", level: int = 5,
                attrs: dict | None = None) -> None:
    """Write one 1-D array as a Zarr v2 array directory at ``root``."""
    sfs = StorageFS(root)
    sfs.makedirs(sfs.path)
    n = len(arr)
    chunks = chunks or max(1, n)
    is_dt = arr.dtype.kind == "M"
    data = arr.astype("datetime64[us]").astype(np.int64) if is_dt else arr
    if data.dtype.kind == "O":  # strings → fixed-width unicode (spec dtype)
        data = data.astype("U")
    meta = {
        "zarr_format": 2,
        "shape": [n],
        "chunks": [chunks],
        "dtype": _dtype_str(data.dtype),
        "compressor": ({"id": "zlib", "level": level} if compressor == "zlib" else None),
        "fill_value": _FILL.get(data.dtype.kind, 0),
        "order": "C",
        "filters": None,
    }
    sfs.write_bytes(sfs.join(".zarray"), json.dumps(meta).encode())
    a = attrs or {}
    if is_dt:
        a = {**a, "units": "us since 1970-01-01"}
    if a:
        sfs.write_bytes(sfs.join(".zattrs"), json.dumps(a).encode())
    for ci, lo in enumerate(range(0, max(n, 1), chunks)):
        chunk = data[lo: lo + chunks]
        if len(chunk) < chunks:  # zarr pads the final chunk to full size
            pad = np.full(chunks - len(chunk), meta["fill_value"], dtype=data.dtype)
            chunk = np.concatenate([chunk, pad])
        raw = np.ascontiguousarray(chunk).tobytes()
        if compressor == "zlib":
            raw = _zlib.compress(raw, level)
        sfs.write_bytes(sfs.join(str(ci)), raw)


def read_array(root: str) -> tuple[np.ndarray, dict]:
    """Read a Zarr v2 1-D array directory → (array, attrs)."""
    sfs = StorageFS(root)
    meta = json.loads(sfs.read_bytes(sfs.join(".zarray")))
    attrs = {}
    if sfs.exists(sfs.join(".zattrs")):
        attrs = json.loads(sfs.read_bytes(sfs.join(".zattrs")))
    (n,), (chunks,) = meta["shape"], meta["chunks"]
    dt = np.dtype(meta["dtype"])
    out = np.empty(n, dtype=dt)
    comp = (meta.get("compressor") or {}).get("id")
    for ci in range((n + chunks - 1) // chunks):
        raw = sfs.read_bytes(sfs.join(str(ci)))
        if comp == "zlib":
            raw = _zlib.decompress(raw)
        chunk = np.frombuffer(raw, dtype=dt)
        lo = ci * chunks
        out[lo: min(lo + chunks, n)] = chunk[: min(chunks, n - lo)]
    if attrs.get("units", "").startswith("us since 1970"):
        out = out.view("datetime64[us]") if out.dtype == np.int64 else out
    return out, attrs


def write_group(root: str, table: pa.Table, chunks: int | None = None,
                compressor: str = "zlib", attrs: dict | None = None) -> None:
    """Write an Arrow table as a Zarr v2 group: one 1-D array per column."""
    sfs = StorageFS(root)
    sfs.makedirs(sfs.path)
    sfs.write_bytes(sfs.join(".zgroup"), json.dumps({"zarr_format": 2}).encode())
    if attrs:
        sfs.write_bytes(sfs.join(".zattrs"), json.dumps(attrs).encode())
    for name in table.column_names:
        col = table[name].combine_chunks()
        if pa.types.is_nested(col.type):
            continue  # nested columns stay in the parquet tier
        arr = col.to_numpy(zero_copy_only=False)
        write_array(sfs.join_root(name), arr, chunks=chunks, compressor=compressor)


def read_group(root: str) -> pa.Table:
    """Read a Zarr v2 group of same-length 1-D arrays → Arrow table."""
    sfs = StorageFS(root)
    cols = {}
    for name in sfs.listdir(sfs.path):
        if name.startswith("."):
            continue
        if not sfs.exists(sfs.join(name, ".zarray")):
            continue
        arr, _ = read_array(sfs.join_root(name))
        cols[name] = pa.array(arr)
    return pa.table(cols)


def write_zarr_partitioned(ds, root: str,
                           partition_cols: tuple[str, ...] = ("source", "day"),
                           ts_col: str | None = None, chunks: int | None = None,
                           compressor: str = "zlib") -> int:
    """Partitioned Zarr tier store: same hive layout + deterministic
    ``part-<min_ts>.zarr`` group names as the Parquet writer (idempotent
    reruns), one group per batch-slice per partition.  Returns rows."""
    import pyarrow.compute as pc

    def write_batch(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        sfs = StorageFS(root)
        codes = np.zeros(n, dtype=np.int64)
        uniques, per_idx = [], []
        for c in partition_cols:
            d = batch[c].combine_chunks().dictionary_encode()
            idx = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            uniques.append(d.dictionary.to_pylist())
            per_idx.append(idx)
            codes = codes * (idx.max() + 1) + idx
        order = np.argsort(codes, kind="stable")
        cs = codes[order]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        ends = np.r_[starts[1:], n]
        sb = batch.take(pa.array(order, type=pa.int64()))
        body = sb.drop_columns(list(partition_cols))
        tcol = ts_col if ts_col and ts_col in body.column_names else None
        paths, rows = [], []
        for s, e in zip(starts, ends):
            sub = body.slice(s, e - s)
            row0 = order[s]
            pdir = sfs.join_root(
                *(f"{c}={uniques[k][per_idx[k][row0]]}" for k, c in enumerate(partition_cols)))
            tmin = int(pc.min(sub[tcol].combine_chunks().cast(pa.int64())).as_py()) if tcol else int(s)
            gdir = f"{pdir}/part-{tmin}.zarr"
            write_group(gdir, sub, chunks=chunks, compressor=compressor)
            paths.append(gdir)
            rows.append(sub.num_rows)
        return pa.table({"path": pa.array(paths, pa.string()),
                         "rows": pa.array(rows, pa.int64())})

    res = ds.map_batches(write_batch, batch_format="pyarrow").materialize()
    total = 0
    import pyarrow.compute as pc

    for b in res.iter_batches(batch_format="pyarrow"):
        total += int(pc.sum(b["rows"]).as_py() or 0)
    return total


def read_zarr_partitioned(root: str):
    """Read a partitioned Zarr tier store back as a Ray Dataset: the group
    list fans out over tasks, each task decodes its groups (chunk reads are
    independent, so parallelism scales with group count)."""
    import ray.data as rd

    sfs = StorageFS(root)
    groups = []
    partitions: list[tuple[str, str]] = []

    def walk(prefix: str, parts: list[str]):
        for name in sfs.listdir(sfs.join(*parts) if parts else sfs.path):
            if name.endswith(".zarr"):
                groups.append(("/".join(parts + [name]), parts.copy()))
            elif "=" in name:
                walk(prefix, parts + [name])

    walk(sfs.path, [])

    def decode(row: dict) -> pa.Table:
        rel, parts = row["rel"], row["parts"]
        t = read_group(sfs.join_root(rel))
        for p in parts:  # re-attach hive partition columns
            k, v = p.split("=", 1)
            t = t.append_column(k, pa.array(np.repeat(v, t.num_rows)))
        return t

    items = [{"rel": rel, "parts": parts} for rel, parts in groups]
    return rd.from_items(items).map_batches(
        lambda b: pa.concat_tables([decode(r) for r in b.to_pylist()]),
        batch_format="pyarrow", batch_size=1,
    )
