"""VAP / transformation pipeline: stored tier datastreams → regridded product.

The engine's re-expression of the reference's TransformationPipeline +
StorageRetriever flow (/root/reference/tsdat/pipeline/pipelines/
transformation_pipeline.py:29-75, io/retrievers/storage_retriever.py:40-171):

1. **Fetch** — read the source tier's committed files for
   [start - pad, end + pad], pruned by partition (only `day=` partitions
   inside the padded range are read — the Ray analog of the reference's
   filename-date filtering, file_system.py:206-226).  Padding comes from
   `time_padding_s` or the transform width, exactly like retrieval padding
   (storage_retriever.py:182-195).
2. **Transform** — regrid each value column onto the declared output grid
   (`bin_average` | `nearest` | `interpolate`; the §2.6 kernels), emitting
   `*_mean`/`*_std`/`*_goodfraction`/`qc_*` per the transform-QC bit table.
3. **Trim** — slice to [start, end] (storage_retriever.py:146-161).
4. **Store** — partitioned product tier + manifest commit (same layout and
   idempotent-rerun guarantees as the ingest tiers).

One groupby((key, window)) shuffle end-to-end; reads are column-pruned and
partition-pruned at the source.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pyarrow as pa

from ..stages.transforms import GridSpec
from ..state.manifest import Manifest

US = 1_000_000
DAY_US = 86400 * US


@dataclass
class VapConfig:
    store_root: str
    start_us: int
    end_us: int
    interval_s: int
    source_tier: str = "t1m"
    values: tuple[str, ...] = ("n_tok_mean",)
    key: str = "source"
    ts_col: str = "bucket"
    transform: str = "bin_average"  # "bin_average" | "nearest" | "interpolate"
    time_padding_s: Optional[int] = None  # default: one output interval
    alignment: str = "left"
    out_tier: str = "vap"
    window_s: int = 86400
    run_id: str = ""
    extra: dict = field(default_factory=dict)  # transform kwargs passthrough


def _padded_days(cfg: VapConfig) -> tuple[int, int]:
    pad = (cfg.time_padding_s if cfg.time_padding_s is not None else cfg.interval_s) * US
    return cfg.start_us - pad, cfg.end_us + pad


def fetch_tier(cfg: VapConfig):
    """Read the source tier's committed files, pruned to the padded range
    (Storage.fetch_data parity — the glob+date-filter step): partitions
    whose ``day`` lies outside it are never read, nor are those whose files'
    footer ``ts_col`` min/max all miss it.  ``source`` comes from the hive
    column of the manifest read (``Manifest.read_tier``).  None when no
    partition survives."""
    from ..sources.declared import prune_parquet_files

    man = Manifest(cfg.store_root)
    lo, hi = _padded_days(cfg)
    lo_day = (lo // DAY_US) * DAY_US
    in_range = [p for p in man.completed(cfg.source_tier)
                if lo_day <= np.datetime64(Manifest.parse_partition(p)[1], "us").astype(np.int64) <= hi]
    files = prune_parquet_files(man.tier_files(cfg.source_tier, in_range), cfg.ts_col, lo, hi)
    parts = {"/".join(f.split("/")[-3:-1]) for f in files}  # ".../source=s/day=d/<file>"
    if not parts:
        return None
    cols = [cfg.ts_col, "source",
            *{v.rsplit("_mean", 1)[0] + "_mean" if v.endswith("_mean") else v for v in cfg.values}]

    def trim(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.rename_columns([cfg.key if c == "source" else c for c in b.column_names])
        ts = b[cfg.ts_col].combine_chunks().cast(pa.int64())
        m = pc.and_(pc.greater_equal(ts, pa.scalar(lo)), pc.less(ts, pa.scalar(hi)))
        return b.filter(m)

    return man.read_tier(cfg.source_tier, parts, columns=cols).map_batches(
        trim, batch_format="pyarrow")


def run_vap(cfg: VapConfig) -> dict:
    """Fetch → regrid → trim → store + manifest.  Returns stage stats."""
    from ..stages.transforms import bin_average_grid, nearest_neighbor_grid
    from ..stages.writers import write_partitioned

    t0 = time.time()
    man = Manifest(cfg.store_root)
    ds = fetch_tier(cfg)
    if ds is None:
        return {"tier": cfg.out_tier, "new_partitions": 0, "rows": 0,
                "wall_s": time.time() - t0}
    grid = GridSpec(cfg.start_us, cfg.end_us, cfg.interval_s * US,
                    alignment=cfg.alignment)
    values = tuple(v[:-5] if v.endswith("_mean") else v for v in cfg.values)

    def rename_means(b: pa.Table) -> pa.Table:
        # tier columns are <v>_mean; the grid kernels take bare value names
        for v in values:
            if f"{v}_mean" in b.column_names and v not in b.column_names:
                b = b.append_column(v, b[f"{v}_mean"])
        return b

    src = ds.map_batches(rename_means, batch_format="pyarrow")
    if cfg.transform == "bin_average":
        out = bin_average_grid(src, grid, key=cfg.key, ts_col=cfg.ts_col,
                               values=values, window_s=cfg.window_s, **cfg.extra)
    elif cfg.transform == "nearest":
        out = nearest_neighbor_grid(
            src, cfg.interval_s,
            tolerance_s=cfg.extra.get("tolerance_s", cfg.interval_s),
            key=cfg.key, ts_col=cfg.ts_col,
            carry=cfg.extra.get("carry", values),
            grid_start_us=cfg.start_us, grid_stop_us=cfg.end_us,
        )
    elif cfg.transform in ("interpolate", "auto"):
        from ..stages.transforms import auto_grid

        out = auto_grid(src, grid, key=cfg.key, ts_col=cfg.ts_col,
                        values=values, window_s=cfg.window_s, mode=cfg.transform)
        out = out.map_batches(
            lambda b: b.rename_columns(
                ["bucket" if c == "grid_ts" else c for c in b.column_names]),
            batch_format="pyarrow")
    else:
        raise ValueError(f"unknown transform {cfg.transform!r}")

    def add_day(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if "grid_ts" in b.column_names:  # nearest path → uniform naming
            b = b.rename_columns(
                ["bucket" if c == "grid_ts" else c for c in b.column_names])
        ts = b["bucket"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = pc.strftime(pa.array((ts // DAY_US) * DAY_US).cast(pa.timestamp("us")),
                          format="%Y-%m-%d")
        return b.append_column("day", day)

    out = out.map_batches(add_day, batch_format="pyarrow")
    # regenerate the product tier cleanly: part file names follow batch
    # slicing, which follows the session's block layout — stale files from a
    # differently-parallelized earlier run must not linger
    man.invalidate(cfg.out_tier, sorted(man.completed(cfg.out_tier)),
                   reason="vap-regenerate")
    man.wipe_uncommitted(cfg.out_tier)
    rows = write_partitioned(out, man.tier_dir(cfg.out_tier), ts_col="bucket")
    recs = man.commit_partitions(cfg.out_tier, [man.tier_dir(cfg.source_tier)],
                                 cfg.run_id, time.time() - t0)
    return {"tier": cfg.out_tier, "new_partitions": len(recs), "rows": rows,
            "wall_s": time.time() - t0}
