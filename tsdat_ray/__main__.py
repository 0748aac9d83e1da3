"""CLI: run the flagship pipeline / prune retention / inspect the manifest.

The reference ships a single-command CLI (tsdat generate-schema —
/root/reference/tsdat/cli/cli.py:1-18) with pipeline execution living in
template repos; this engine's CLI IS the pipeline runner, shaped for
``ray job submit``:

    ray job submit -- python -m tsdat_ray run \
        --input /data/sequences --out /data/store --resume
    python -m tsdat_ray prune --out /data/store
    python -m tsdat_ray manifest --out /data/store --tier raw

Owns its Ray session (scripts may init; the library never does)."""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="tsdat_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run the rollup pipeline (ingest + tiers + encode)")
    runp.add_argument("--input", required=True, help="input Parquet path(s), comma-separated")
    runp.add_argument("--out", required=True, help="output store root")
    runp.add_argument("--resume", action="store_true", help="skip manifest-completed partitions")
    runp.add_argument("--run-id", default="", help="lineage run id")
    runp.add_argument("--num-cpus", type=int, default=None)
    runp.add_argument("--quarantine", action="store_true",
                      help="divert fail_pipeline breaches instead of aborting")
    runp.add_argument("--config", default=None,
                      help="yaml pipeline config (cli flags override it)")
    runp.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                      help="dotted-path config override, e.g. qc.attrs.n_tok.warn_max=50")

    prunep = sub.add_parser("prune", help="apply per-tier retention pruning")
    prunep.add_argument("--out", required=True)
    prunep.add_argument("--now-us", type=int, default=None,
                        help="'now' in epoch µs (default: wall clock)")

    manp = sub.add_parser("manifest", help="summarize the lineage manifest")
    manp.add_argument("--out", required=True)
    manp.add_argument("--tier", default=None)

    compp = sub.add_parser("compact", help="merge small part files per partition (OPTIMIZE)")
    compp.add_argument("--out", required=True)
    compp.add_argument("--tier", default="raw")

    rep = sub.add_parser("reprocess", help="late data: invalidate + recompute a day range")
    rep.add_argument("--input", required=True, help="input Parquet path(s), comma-separated")
    rep.add_argument("--out", required=True)
    rep.add_argument("--start", required=True, help="range start, ISO date")
    rep.add_argument("--end", required=True, help="range end (exclusive)")
    rep.add_argument("--sources", default=None, help="comma-separated source filter")
    rep.add_argument("--run-id", default="")

    vapp = sub.add_parser("vap", help="transformation pipeline: stored tiers → regridded product")
    vapp.add_argument("--out", required=True, help="store root (tiers + manifest)")
    vapp.add_argument("--start", required=True, help="range start, ISO date/datetime")
    vapp.add_argument("--end", required=True, help="range end (exclusive)")
    vapp.add_argument("--interval-s", type=int, required=True, help="output grid interval")
    vapp.add_argument("--source-tier", default="t1m")
    vapp.add_argument("--values", default="n_tok_mean", help="comma-separated tier columns")
    vapp.add_argument("--transform", default="bin_average",
                      choices=["bin_average", "nearest", "interpolate", "auto"])
    vapp.add_argument("--out-tier", default="vap")
    vapp.add_argument("--run-id", default="")

    purgep = sub.add_parser(
        "purge", help="GDPR purge: tombstone ids + rebuild their partitions")
    purgep.add_argument("--input", required=True,
                        help="input Parquet path(s), comma-separated")
    purgep.add_argument("--out", required=True)
    purgep.add_argument("--ids", required=True,
                        help="comma-separated doc ids (or @file with one id per line)")
    purgep.add_argument("--run-id", default="")

    repp = sub.add_parser(
        "report", help="data-availability report over a stored tier "
                       "(present/span/missing buckets + uptime per source-day)")
    repp.add_argument("--out", required=True, help="store root")
    repp.add_argument("--tier", default="t1m")
    repp.add_argument("--interval-s", type=int, default=60,
                      help="expected cadence of the tier (60 for t1m)")

    verp = sub.add_parser(
        "verify", help="audit tier-store files against the lineage manifest "
        "(missing / extra / size-drifted parts; r4 integrity check)")
    verp.add_argument("--out", required=True)
    verp.add_argument("--tier", default=None)

    sub.add_parser("schema", help="print the yaml config schema (fields, checkers, handlers)")

    args = p.parse_args(argv)

    if args.cmd == "schema":
        # parity: the reference CLI's single command emits config schemas
        # (tsdat generate-schema — cli/generate_schema/generate_schema.py)
        from tsdat_ray.pipelines.rollup_pipeline import PipelineConfig
        from tsdat_ray.stages.qc import CHECKERS

        fields = {
            name: str(f.type)
            for name, f in PipelineConfig.__dataclass_fields__.items()
        }
        print(json.dumps(
            {
                "pipeline_fields": fields,
                "qc_checkers": sorted(CHECKERS),
                "qc_handlers": ["record_quality_results", "remove_failed_values",
                                 "sort_dataset_by_coordinate", "fail_pipeline"],
                "manager_fields": ["name", "checker", "apply_to", "exclude",
                                    "parameters", "handlers", "assessment"],
                "apply_to_keywords": ["COORDS", "DATA_VARS"],
            },
            indent=2,
        ))
        return 0

    if args.cmd == "verify":
        # integrity audit: recompute each committed partition's fn:size
        # crc in the RECORD's file order (the same fold order commit used)
        # and diff the live listing — catches lost, truncated and orphan
        # part files without reading data.  Pure filesystem, no Ray.
        import zlib

        from tsdat_ray.state.manifest import Manifest

        man = Manifest(args.out)
        tiers = [args.tier] if args.tier else sorted({r["tier"] for r in man.records()})
        report: dict = {"partitions_ok": 0, "problems": []}
        for tier in tiers:
            for part, r in sorted(man.latest(tier).items()):
                pdir = man.partition_dir(tier, part)
                live = {f for f in man.sfs.listdir(pdir) if f.endswith(".parquet")}
                rec_files = r.get("files", [])
                missing = [f for f in rec_files if f not in live]
                extra = sorted(live - set(rec_files))
                crc = 0
                for fn in rec_files:
                    if fn in live:
                        crc = zlib.crc32(f"{fn}:{man.sfs.getsize(f'{pdir}/{fn}')}".encode(), crc)
                drifted = not missing and f"{crc:08x}" != r.get("checksum", "")
                if missing or extra or drifted:
                    report["problems"].append({"tier": tier, "partition": part, "missing": missing,
                                               "extra": extra, "size_drift": bool(drifted)})
                else:
                    report["partitions_ok"] += 1
        print(json.dumps(report, indent=2))
        return 0 if not report["problems"] else 3

    if args.cmd == "manifest":
        from tsdat_ray.state.manifest import Manifest

        man = Manifest(args.out)
        recs = man.records()
        if args.tier:
            recs = [r for r in recs if r.get("tier") == args.tier]
        summary: dict = {}
        for r in recs:
            t = r.get("tier", "?")
            s = summary.setdefault(t, {"partitions": 0, "rows": 0, "bytes": 0, "pruned": 0})
            if r.get("action") == "pruned":
                s["pruned"] += 1
            else:
                s["partitions"] += 1
                s["rows"] += r.get("rows", 0)
                s["bytes"] += r.get("bytes", 0)
        print(json.dumps(summary, indent=2))
        return 0

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        kw = dict(address="local", include_dashboard=False, logging_level="ERROR")
        if args.cmd == "run" and args.num_cpus:
            kw["num_cpus"] = args.num_cpus
        ray.init(**kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from tsdat_ray.pipelines.rollup_pipeline import (
        PipelineConfig,
        prune_retention,
        run_pipeline,
    )

    try:
        if args.cmd == "run":
            if args.config:
                from tsdat_ray.config import load_pipeline_config

                overrides = {}
                for item in args.set:
                    path, _, value = item.partition("=")
                    try:
                        value = json.loads(value)
                    except json.JSONDecodeError:
                        pass
                    overrides[path] = value
                overrides.setdefault("out_root", args.out)
                cfg = load_pipeline_config(args.config, overrides)
                cfg.resume = args.resume or cfg.resume
                cfg.run_id = args.run_id or cfg.run_id or f"cli-{int(time.time())}"
                cfg.qc_quarantine = args.quarantine or cfg.qc_quarantine
            else:
                cfg = PipelineConfig(
                    out_root=args.out,
                    resume=args.resume,
                    run_id=args.run_id or f"cli-{int(time.time())}",
                    qc_quarantine=args.quarantine,
                )
            inputs = args.input.split(",")
            stats = run_pipeline(inputs if len(inputs) > 1 else inputs[0], cfg)
            print(json.dumps(stats, default=str))
        elif args.cmd == "reprocess":
            import numpy as np

            from tsdat_ray.pipelines.rollup_pipeline import reprocess_range

            cfg = PipelineConfig(out_root=args.out, resume=True,
                                 run_id=args.run_id or f"reproc-{int(time.time())}")
            inputs = args.input.split(",")
            stats = reprocess_range(
                inputs if len(inputs) > 1 else inputs[0], cfg,
                int(np.datetime64(args.start, "us").astype(np.int64)),
                int(np.datetime64(args.end, "us").astype(np.int64)),
                sources=tuple(args.sources.split(",")) if args.sources else None,
            )
            print(json.dumps(stats, default=str))
        elif args.cmd == "vap":
            import numpy as np

            from tsdat_ray.pipelines.vap_pipeline import VapConfig, run_vap

            vcfg = VapConfig(
                store_root=args.out,
                start_us=int(np.datetime64(args.start, "us").astype(np.int64)),
                end_us=int(np.datetime64(args.end, "us").astype(np.int64)),
                interval_s=args.interval_s,
                source_tier=args.source_tier,
                values=tuple(args.values.split(",")),
                transform=args.transform,
                out_tier=args.out_tier,
                run_id=args.run_id or f"vap-{int(time.time())}",
            )
            print(json.dumps(run_vap(vcfg), default=str))
        elif args.cmd == "purge":
            from tsdat_ray.pipelines.rollup_pipeline import purge_keys

            if args.ids.startswith("@"):
                with open(args.ids[1:]) as f:
                    ids = [ln.strip() for ln in f if ln.strip()]
            else:
                ids = args.ids.split(",")
            cfg = PipelineConfig(out_root=args.out, resume=True,
                                 run_id=args.run_id or f"purge-{int(time.time())}")
            inputs = args.input.split(",")
            stats = purge_keys(inputs if len(inputs) > 1 else inputs[0], cfg, ids)
            print(json.dumps(stats, default=str))
        elif args.cmd == "prune":
            cfg = PipelineConfig(out_root=args.out, run_id="prune")
            now_us = args.now_us if args.now_us is not None else int(time.time() * 1_000_000)
            print(json.dumps(prune_retention(cfg, now_us)))
        elif args.cmd == "compact":
            from tsdat_ray.stages.writers import compact_tier

            print(json.dumps(compact_tier(args.out, args.tier)))
        elif args.cmd == "report":
            from tsdat_ray.stages.stats import availability_report
            from tsdat_ray.state.manifest import Manifest

            ds = Manifest(args.out).read_tier(args.tier)
            rep = availability_report(ds, key="source", ts_col="bucket",
                                      interval_s=args.interval_s)
            rows = sorted(
                ({**r, "day": str(r["day"]), "uptime": round(r["uptime"], 4)}
                 for r in rep.take_all()),
                key=lambda r: (r["source"], r["day"]))
            worst = sorted(rows, key=lambda r: r["uptime"])[:5]
            print(json.dumps({"tier": args.tier, "partitions": len(rows),
                              "worst_uptime": worst, "rows": rows},
                             indent=2))
    finally:
        # only tear down a session this process created — an embedding
        # caller's (or the test suite's) session is not ours to kill
        if owns_session:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
