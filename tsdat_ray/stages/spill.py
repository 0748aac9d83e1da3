"""Disk checkpoint for intermediate Datasets read more than once.

:func:`checkpoint` streams a Dataset to a fresh Parquet scratch dir with
``write_parquet`` (backpressured: each block is freed once it is on disk)
and returns a lazy ``read_parquet`` over it, so every consumer re-streams
the same rows instead of pinning the whole intermediate in the object
store.  The Arrow→Parquet→Arrow round trip keeps types and values.
:func:`checkpoint_with_summary` is the form ``carry.window_scan`` uses: the
same pass also writes each group's summary rows to a small sidecar.

On a cluster, point ``TSDAT_RAY_SCRATCH`` at shared storage.  Dirs are
uniquely named, so concurrent queries never collide; they are removed by
:func:`release_all` or at process exit.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import uuid

import pyarrow as pa

_TRACKED: list[str] = []


def _root() -> str:
    return os.environ.get("TSDAT_RAY_SCRATCH") or os.path.join(
        tempfile.gettempdir(), "tsdat_ray_ckpt")


def _cleanup() -> None:
    for p in _TRACKED:
        shutil.rmtree(p, ignore_errors=True)
    _TRACKED.clear()


atexit.register(_cleanup)


def checkpoint(ds, tag: str = "wf"):
    """Stream ``ds`` to a fresh Parquet scratch dir and return a lazy
    reader over it.  Use for any intermediate consumed more than once
    downstream: unlike ``.materialize()`` it never holds the whole
    intermediate in the object store — write and reads are all streaming."""
    import ray.data as rd

    path = os.path.join(_root(), f"{tag}-{uuid.uuid4().hex}")
    os.makedirs(path, exist_ok=True)
    _TRACKED.append(path)
    ds.write_parquet(path)
    files = [os.path.join(path, f) for f in sorted(os.listdir(path))
             if f.endswith(".parquet")]
    if not files:
        sch = ds.schema()
        if sch is None:
            # zero blocks, schema unknowable — a zero-row materialize pins
            # nothing and downstream consumers see the same empty Dataset
            # the pre-checkpoint code produced
            return ds.materialize()
        # Listing empty but the pipeline HAS a schema: either the input was
        # genuinely empty (fine — preserve schema via a zero-row file) or
        # write_parquet landed on worker-local disks because
        # TSDAT_RAY_SCRATCH is not shared storage on this cluster — which
        # would silently corrupt every two-phase operator.  Distinguish by
        # probing for one row and fail LOUDLY in the misconfigured case.
        # Cost note (r5 review): the probe re-executes the phase-1
        # pipeline, but it runs ONLY when the listing is empty — i.e. the
        # misconfigured-cluster case (about to raise anyway) or a
        # genuinely empty result, where the re-executed pipeline shuffles
        # ~nothing; a non-empty phase 1 never reaches this branch.
        if ds.limit(1).count() > 0:
            raise RuntimeError(
                f"checkpoint wrote blocks but {path!r} is empty on the "
                "driver: TSDAT_RAY_SCRATCH must point at storage shared "
                "by every node (worker-local writes are invisible here)")
        import pyarrow.parquet as pq

        empty = pa.table({n: pa.nulls(0, t)
                          for n, t in zip(sch.names, sch.types)})
        f = os.path.join(path, "empty.parquet")
        pq.write_table(empty, f)
        files = [f]
    return rd.read_parquet(files)


def release_all() -> None:
    """Free every live checkpoint dir now (end-of-query sweep for REPL /
    bench sessions); the atexit hook covers anything created later."""
    _cleanup()


def checkpoint_with_summary(ds, key: str, summary_cols: list[str]):
    """Checkpoint ``ds`` and, in the same streaming pass, its per-(key,
    ``_window``) summary rows; returns ``(main_reader, summary_reader)``.

    The map task that feeds the main write also dedups its batch's
    summary rows (<= one per group per block fragment) and writes them to
    a sidecar Parquet dir, so the fold reads ~|groups| rows instead of
    rescanning the checkpoint.  Duplicates across fragments, or from a
    retried task, are exact copies, and the fold dedups them."""
    import ray.data as rd

    from ..state.uri import StorageFS
    from .carry import _dedup_first

    window_col = "_window"
    spath = os.path.join(_root(), f"wf-summ-{uuid.uuid4().hex}")
    os.makedirs(spath, exist_ok=True)
    _TRACKED.append(spath)
    cols = [key, window_col, *summary_cols]

    def side_write(b: pa.Table) -> pa.Table:
        s = _dedup_first(b, key, window_col).select(cols)
        # atomic publish: a task killed mid-write leaves only a temp name,
        # which the ``.parquet`` filter below never lists
        StorageFS(spath).write_table_atomic(
            s, os.path.join(spath, f"s-{uuid.uuid4().hex}.parquet"))
        return b

    main = checkpoint(ds.map_batches(side_write, batch_format="pyarrow"))
    sfiles = [os.path.join(spath, f) for f in sorted(os.listdir(spath))
              if f.endswith(".parquet")]
    if not sfiles:
        # zero input blocks: fall back to deriving the (empty) summary from
        # the main reader so downstream sees the right columns
        from .carry import summary_from_part

        return main, summary_from_part(main, key, window_col, summary_cols)
    return main, rd.read_parquet(sfiles)
