"""Single-process CPU of the flagship's kernels: no Ray session.

Usage:
    python scripts/kernel_cpu.py [--rows 160000] [--seed 11] [--late]

Writes a seeded sequences corpus laid out as the benchmark's: one Parquet
file per ``synth.plan_chunks`` chunk, generated as
``synth.generate_sequences_table`` generates it, in row groups of 32,768
rows (``pq.write_table``).  Then, under ``pa.set_cpu_count(1)``, it runs the
flagship graph's kernels one after another in this process:
``_plan_units`` → ``_read_unit`` per unit (the map phase) → ``_clean_slot``
per reducer slot (the reduce phase), with p planned as a 2-CPU session
plans it (at most 8 slots), and commits every store dir.  With ``--late``
it then invalidates the last two days in every dir, as ``reprocess_range``
does, and runs the kernels again over that window.

Prints one JSON line per run: the process CPU seconds of the map and
reduce phases, the units and rows read, p, and each dir's ``task_s``.
The corpus and store live in a temporary dir removed at exit.
"""
import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa
import pyarrow.parquet as pq

from tsdat_ray.pipelines.rollup_pipeline import (
    PipelineConfig,
    _assign_slots,
    _clean_slot,
    _plan_units,
    _read_unit,
)
from tsdat_ray.state.manifest import Manifest
from tsdat_ray.synth import generate_chunk, plan_chunks


def write_corpus(path: str, rows: int, seed: int) -> str:
    os.makedirs(path)
    for i, c in enumerate(plan_chunks(rows)):
        t = generate_chunk(c["source"], c["i_start"], c["i_stop"], seed)
        pq.write_table(t, os.path.join(path, f"part-{i}.parquet"), row_group_size=32768)
    return path


def run_kernels(corpus: str, cfg: PipelineConfig) -> dict:
    """One resume run's clean feed, kernel by kernel, then its commits."""
    man = Manifest(cfg.out_root)
    order = Manifest.tier_names(cfg.tiers, cfg.encode_tiers)
    done = {n: frozenset(man.completed(n)) for n in order}
    later = tuple(n for n in order if n != "raw")
    units, _, est = _plan_units(corpus, cfg, done["raw"])
    slots, p = _assign_slots(est, cfg.parallelism)
    c0 = time.process_time()
    outs = [_read_unit(u, cfg, done, slots, p, None) for u in units]
    outs = outs if p > 1 else [[o] for o in outs]
    c1 = time.process_time()
    task_s = dict.fromkeys(order, 0.0)
    for r in range(p):
        for name, s in _clean_slot(cfg, done, later, *(o[r] for o in outs)):
            task_s[name] += s
    c2 = time.process_time()
    for n in order:
        man.commit_partitions(n, [corpus])
    return {"map_cpu_s": round(c1 - c0, 3), "reduce_cpu_s": round(c2 - c1, 3),
            "units": len(units), "rows_read": sum(u["rows"] for u in units), "p": p,
            "task_s": {n: round(s, 3) for n, s in task_s.items()}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", type=int, default=160_000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--late", action="store_true",
                    help="then invalidate the last two days and rebuild them")
    args = ap.parse_args()
    pa.set_cpu_count(1)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = write_corpus(os.path.join(tmp, "corpus"), args.rows, args.seed)
        cfg = PipelineConfig(out_root=os.path.join(tmp, "store"), parallelism=8,
                             save_report=False)
        print(json.dumps({"run": "fresh", **run_kernels(corpus, cfg)}))
        if args.late:
            man = Manifest(cfg.out_root)
            days = sorted({Manifest.parse_partition(q)[1] for q in man.completed("raw")})[-2:]
            for tier in Manifest.tier_names(cfg.tiers, cfg.encode_tiers):
                man.invalidate(tier, sorted(q for q in man.completed(tier)
                                            if Manifest.parse_partition(q)[1] in days))
            print(json.dumps({"run": "late", "days": days, **run_kernels(corpus, cfg)}))


if __name__ == "__main__":
    main()
