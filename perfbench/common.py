"""Shared pieces of the benchmark: the Ray session, span tracing, store
digests and sizes, and the host's CPU steal."""

from __future__ import annotations

import contextlib
import functools
import glob
import hashlib
import logging
import os
import shutil
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: Ray CPUs of every workload's session (recorded in the output)
NUM_CPUS = 2
OBJECT_STORE_BYTES = 1_000_000_000
TIERS = ("raw", "t1m", "t1h", "t1d", "t1m_enc")


class RaySession:
    """The workload's own Ray session, its files in a private temp dir
    (a path in the checkout may be too long for Ray's AF_UNIX sockets)."""

    def __init__(self):
        self.tmp: str | None = None

    def start(self) -> None:
        self.tmp = tempfile.mkdtemp(prefix="perfbench_ray_", dir="/tmp")
        import ray

        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=self.tmp)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        # ray.init(logging_level=...) does not reach Ray Data's own logger, and
        # importing ray.data (re)configures it, so this must come after that
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def stop(self) -> None:
        """Shut the session down and remove its temp dir."""
        import ray

        if ray.is_initialized():
            ray.shutdown()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


class Tracer:
    """In-memory spans: name, start, end, parent.  ``wrap`` patches a
    callable attribute so every call runs inside a span; ``unwrap_all``
    restores the originals."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "attrs": {},
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*a, **kw):
            with self.span(name) as s:
                out = orig(*a, **kw)
                if on_result is not None:
                    on_result(s, a, kw, out)
                return out

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]


# --------------------------------------------------------------- digests

def _digest_array(h, a) -> None:
    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    t = a.type
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        h.update(pc.list_value_length(a).fill_null(-1).to_numpy(zero_copy_only=False).tobytes())
        _digest_array(h, a.flatten())
    elif pa.types.is_string(t) or pa.types.is_binary(t) or pa.types.is_large_string(t):
        h.update(repr(a.to_pylist()).encode())
    else:
        if pa.types.is_timestamp(t) or pa.types.is_date(t):
            a = a.cast(pa.int64())
        h.update(a.is_null().to_numpy(zero_copy_only=False).tobytes())
        h.update(a.fill_null(0).to_numpy(zero_copy_only=False).tobytes())


def table_digest(tbl: pa.Table) -> str:
    """Row-order-independent content hash: rows sorted by every flat
    column, columns taken in name order, schema metadata ignored."""
    keys = [c for c in sorted(tbl.column_names)
            if not pa.types.is_nested(tbl.schema.field(c).type)
            and not pa.types.is_binary(tbl.schema.field(c).type)]
    if keys and tbl.num_rows:
        tbl = tbl.sort_by([(k, "ascending") for k in keys])
    h = hashlib.sha256()
    for c in sorted(tbl.column_names):
        h.update(c.encode())
        _digest_array(h, tbl[c])
    return h.hexdigest()[:16]


def read_files(files: list[str]) -> pa.Table:
    tabs = [pq.ParquetFile(f).read().replace_schema_metadata(None) for f in files]
    return pa.concat_tables(tabs, promote_options="default")


def tier_files(root: str, tier: str, partition: str = "*/*") -> list[str]:
    return sorted(glob.glob(os.path.join(root, tier, partition, "*.parquet")))


def partition_files(root: str, tier: str) -> dict[str, list[str]]:
    """{'source=s/day=d': Parquet files} for every partition of one tier."""
    by_part: dict[str, list[str]] = {}
    for f in tier_files(root, tier):
        by_part.setdefault(os.path.relpath(os.path.dirname(f), os.path.join(root, tier)), []).append(f)
    return dict(sorted(by_part.items()))


def partition_digests(root: str, tier: str) -> dict[str, str]:
    """{'source=s/day=d': digest} for every partition of one tier."""
    return {p: table_digest(read_files(fs)) for p, fs in partition_files(root, tier).items()}


def store_digest(root: str, tiers=TIERS) -> dict[str, str]:
    """One digest per tier over its partitions' digests (the partition key
    is part of the hashed text, since tier files omit it)."""
    out = {}
    for t in tiers:
        parts = partition_digests(root, t)
        out[t] = hashlib.sha256(repr(sorted(parts.items())).encode()).hexdigest()[:16]
    return out


def store_sizes(root: str, tiers=TIERS) -> dict[str, tuple[int, int]]:
    """{tier: (bytes, files)} of the Parquet files under each tier."""
    out = {}
    for t in tiers:
        fs = tier_files(root, t)
        out[t] = (sum(os.path.getsize(f) for f in fs), len(fs))
    return out


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) CPU time of the host since boot, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return v[7], sum(v)


def steal_pct(j0, j1) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    ``cpu_jiffies`` readings, in %."""
    if j0 is None or j1 is None or j1[1] == j0[1]:
        return None
    return 100 * (j1[0] - j0[0]) / (j1[1] - j0[1])


def median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=float)))
