"""Benchmark of the tsdat_ray rollup engine: one workload per invocation.

    python3 perfbench/run.py --workload flagship_fresh --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``flagship_fresh`` and ``late_reprocess``.  Each invocation owns
one Ray session with a fixed CPU count and a work dir under the checkout
(``.pbw/``) that is wiped at start and at exit.  Ops run in a
closed loop (one outstanding op) until ``--seconds`` have passed; every
op's output is checked outside the timed span.  ``--trace 1`` runs the
traced variant and reports per-layer metrics instead.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Lines before it start with ``#`` and summarize the run for a reader.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import signal
import sys
import time
import traceback

T_START = time.monotonic()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench.workloads import WORKLOADS, query_layers  # noqa: E402

#: an op running longer than this counts as failed (the slowest op seen,
#: a query mix while the host stole 25% of the CPU, took 20 s)
OP_TIMEOUT_S = 60
#: no measured op starts after this many seconds of the run, so that a run
#: on a slow host still ends well within 180 s
LAST_OP_START_S = 110


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def _with_timeout(fn, **kw):
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(OP_TIMEOUT_S)
    try:
        return fn(**kw)
    finally:
        signal.alarm(0)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, work: str, session, init_s: float) -> tuple[dict, list[str]]:
    from perfbench import common

    wl = WORKLOADS[args.workload](work, args.seed)
    attempted, failed, walls, errors = 0, 0, [], []

    def run_op(on_out=None, **kw) -> float:
        wl.prepare()
        # no writeback of the previous op's files and no collection of its
        # garbage inside the timed span
        os.sync()
        gc.collect()
        t = time.perf_counter()
        out = _with_timeout(wl.op, **kw)
        wall = time.perf_counter() - t
        wl.check(out)
        if on_out is not None:
            on_out(out)
        return wall

    def attempt(fn, *a):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn(*a)
        except Exception as e:  # a failed op is recorded, not fatal
            failed += 1
            errors.append(f"{type(e).__name__}: {e}")
            traceback.print_exc()
            return None

    wl.setup()
    setup_s = init_s + sum(wl.setup_parts.values())
    if args.trace:
        # one op before the compared ones, so that the untraced op is warm
        attempt(run_op)

    spec = _spec()
    notes = [f"# {args.workload} seed={args.seed} ray_cpus={common.NUM_CPUS} "
             f"trace={args.trace}",
             "# setup_s parts: " + json.dumps({"ray_init": init_s, **wl.setup_parts})]
    if not args.trace:
        # closed loop: the next op starts when the previous one is checked;
        # ops run until their timed walls add up to --seconds
        timed, n = 0.0, 0
        jiffies = common.cpu_jiffies()
        while (n < wl.min_ops or timed < args.seconds) and \
                (n == 0 or time.monotonic() - T_START < LAST_OP_START_S):
            n += 1
            wall = attempt(run_op)
            if wall is not None:
                walls.append(wall)
            timed += wall or OP_TIMEOUT_S
        if not walls:
            raise RuntimeError("every op failed: " + "; ".join(errors))
        # best of the run's ops, as bench.py's best-of-2 headline: the host
        # only ever adds time, and its slow phases often outlast one op
        measured = {"wall_s": min(walls), "setup_s": setup_s,
                    "store_bytes_ratio": wl.store_bytes_ratio()}
        # workload-specific end-to-end metrics: not in BENCHMARK.json, which
        # asks every metric of every workload and no metric that reads 0
        extra = {**wl.summary(walls), "failed_frac": (failed / attempted, "1")}
        steal = common.steal_pct(jiffies, common.cpu_jiffies())
        notes.append("# op walls (s): " + " ".join(f"{w:.3f}" for w in walls))
        if steal is not None:
            # op walls on a shared VM follow the host's CPU steal
            notes.append(f"# host CPU steal during the measured ops: {steal:.1f} %")
        notes.append("# also: " + " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in extra.items()))
        names = spec["end_to_end"]
    else:
        wall_u = attempt(run_op)
        tr = common.Tracer()
        layers = attempt(wl.traced, tr, run_op) or {}
        if wl.with_queries:
            # set-up, one traced mix and its oracle check, as one more op, in
            # a session of its own, as every workload has one
            session.stop()
            session.start()
            layers.update(attempt(lambda: _with_timeout(
                query_layers, work=os.path.join(work, "queries"),
                seed=args.seed, tr=tr)) or {})
        measured = {k: v for k, v in layers.items() if k != "traced_wall_s"}
        if wall_u is not None and "traced_wall_s" in layers:
            measured["trace.untraced_wall_s"] = wall_u
            measured["trace.overhead_s"] = layers["traced_wall_s"] - wall_u
        measured["floor.wall_s"] = wl.floor()
        names = spec["per_layer"]
        missing = [m["name"] for m in names if m["name"] not in measured]
        notes.append("# layers not exercised by this workload (reported as 0): "
                     + (" ".join(missing) or "none"))
        notes.append("# spans " + json.dumps(
            [{k: s[k] for k in ("id", "name", "parent", "start", "end")} for s in tr.spans]))
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in names}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "tsdat_ray", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "__ray_entry__.py"))):
        print(f"perfbench: no tsdat_ray checkout at {ROOT}", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".pbw")
    work = os.path.join(base, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    # Ray workers inherit the driver's environment: import path + scratch dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    import tempfile

    tempfile.tempdir = None
    from perfbench import common

    # a terminated run still shuts its Ray session down (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = sys.stdout
    session = common.RaySession()
    try:
        # library and Ray chatter goes to stderr; stdout carries our lines only
        with contextlib.redirect_stdout(sys.stderr):
            t0 = time.perf_counter()
            session.start()
            result, notes = run(args, work, session, time.perf_counter() - t0)
    finally:
        with contextlib.redirect_stdout(sys.stderr):
            session.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)
    for line in notes:
        print(line, file=out)
    print(json.dumps(result), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
