"""End-to-end pipeline: ingest → tiers → manifest → resume → retention."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from tsdat_ray.pipelines.rollup_pipeline import (
    PipelineConfig,
    ingest_raw,
    prune_retention,
    rollup_tier,
    run_pipeline,
)
from tsdat_ray.schema import EPOCH_US
from tsdat_ray.state.manifest import Manifest
from tsdat_ray.synth import generate_sequences_parquet

US = 1_000_000


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("corpus")
    # big enough that the hot source spans >1 day (0.7*20000 rows * 10s ≈ 1.6d)
    return generate_sequences_parquet(str(d), n_rows=20000, seed=42)


def test_full_pipeline_and_resume(ray_session, corpus, tmp_path):
    out = str(tmp_path / "store")
    cfg = PipelineConfig(out_root=out, run_id="r1")
    stats = run_pipeline(corpus, cfg)
    assert stats["raw"]["new_partitions"] > 0
    assert stats["1m"]["new_partitions"] > 0
    man = Manifest(out)
    n_raw = len(man.completed("raw"))
    n_1m = len(man.completed("t1m"))
    assert n_raw == len(man.list_partition_dirs("raw"))

    # tier read-back sanity: 1h tier aggregates 1m tier exactly
    import ray.data as rd

    t1m = rd.read_parquet(man.tier_dir("t1m")).to_pandas()
    t1h = rd.read_parquet(man.tier_dir("t1h")).to_pandas()
    assert np.isclose(t1m["n_tok_sum_wx"].sum(), t1h["n_tok_sum_wx"].sum())
    assert t1m["n_tok_n"].sum() == t1h["n_tok_n"].sum()

    # resume: delete one raw partition + its manifest record -> only that one
    # partition is recomputed; everything else skipped
    victim = sorted(man.completed("raw"))[0]
    shutil.rmtree(man.partition_dir("raw", victim))
    recs = [r for r in man.records() if not (r["tier"] == "raw" and r["partition"] == victim)]
    with open(man.path, "w") as f:
        for r in recs:
            f.write(json.dumps(r) + "\n")

    stats2 = ingest_raw(corpus, cfg)
    assert stats2["new_partitions"] == 1
    assert stats2["skipped"] == n_raw - 1
    assert os.path.isdir(man.partition_dir("raw", victim))
    # and the recomputed partition is identical to the original write
    back = rd.read_parquet(man.partition_dir("raw", victim)).to_pandas()
    assert len(back) > 0

    # second run with nothing missing: all partitions skipped, none rewritten
    stats3 = rollup_tier("1m", cfg)
    assert stats3["new_partitions"] == 0
    assert stats3["skipped"] == n_1m


def test_uncommitted_partition_wiped(ray_session, corpus, tmp_path):
    out = str(tmp_path / "store")
    cfg = PipelineConfig(out_root=out)
    ingest_raw(corpus, cfg)
    man = Manifest(out)
    victim = sorted(man.completed("raw"))[0]
    # simulate a crash: partition dir exists but its manifest record is gone
    recs = [r for r in man.records() if not (r["tier"] == "raw" and r["partition"] == victim)]
    with open(man.path, "w") as f:
        for r in recs:
            f.write(json.dumps(r) + "\n")
    wiped = man.wipe_uncommitted("raw")
    assert victim in wiped
    assert not os.path.isdir(man.partition_dir("raw", victim))


def test_retention_pruning(ray_session, corpus, tmp_path):
    out = str(tmp_path / "store")
    cfg = PipelineConfig(out_root=out, retention_s={"raw": 86400, "1m": 2 * 86400, "1h": None, "1d": None})
    run_pipeline(corpus, cfg)
    man = Manifest(out)
    days = sorted({p.split("day=")[1] for p in man.list_partition_dirs("raw")})
    assert len(days) >= 2
    # "now" = 1 day + a bit after the last day present -> oldest raw days pruned
    now_us = int(np.datetime64(days[-1] + "T00:00:00", "us").astype("int64")) + 2 * 86400 * US
    res = prune_retention(cfg, now_us)
    assert res["pruned"].get("raw", 0) >= 1
    # pruned partitions drop out of completed() so a backfill could rerun them
    remaining = man.completed("raw")
    for p in man.list_partition_dirs("raw"):
        assert p in remaining


def test_manifest_modified_since(ray_session, corpus, tmp_path):
    """Incremental-processing hook: recommitted partitions (and only they)
    surface via modified_since; pruned ones drop out."""
    import time

    out = str(tmp_path / "ms_store")
    cfg = PipelineConfig(out_root=out, run_id="m1")
    run_pipeline(corpus, cfg)
    man = Manifest(out)
    t_mid = time.time()
    assert man.modified_since("raw", t_mid) == []
    assert man.last_modified("raw") is not None and man.last_modified("raw") <= t_mid

    # recommit one partition → it (alone) shows up after t_mid
    victim = sorted(man.completed("raw"))[0]
    recs = [r for r in man.records() if not (r["tier"] == "raw" and r["partition"] == victim)]
    os.remove(man.path)
    for r in recs:
        man.append({k: v for k, v in r.items()})
    shutil.rmtree(man.partition_dir("raw", victim))
    run_pipeline(corpus, PipelineConfig(out_root=out, run_id="m2"))
    changed = man.modified_since("raw", t_mid)
    assert changed == [victim], changed


def _qc_cfg(fail_tolerance=None):
    from tsdat_ray.stages.qc import Manager, QCConfig

    handlers = [{"name": "record_quality_results"}]
    managers = [
        Manager(name="n_tok_high", checker="warn_max", apply_to=("n_tok",),
                handlers=tuple(handlers), assessment="Indeterminate"),
    ]
    if fail_tolerance is not None:
        managers.append(
            Manager(name="too_many_high", checker="warn_max", apply_to=("n_tok",),
                    handlers=({"name": "fail_pipeline", "tolerance": fail_tolerance},))
        )
    return QCConfig(managers=tuple(managers), attrs={"n_tok": {"warn_max": 100}})


def test_qc_counts_in_manifest(ray_session, corpus, tmp_path):
    out = str(tmp_path / "qcstore")
    cfg = PipelineConfig(out_root=out, run_id="q1", qc=_qc_cfg())
    run_pipeline(corpus, cfg)
    man = Manifest(out)
    recs = [r for r in man.records() if r["tier"] == "raw" and r.get("qc_counts")]
    assert recs, "no raw records carry qc_counts"
    total = sum(r["qc_counts"].get("n_tok_high:n_tok", 0) for r in recs)
    assert total > 0


def test_qc_quarantine_diverts_partition(ray_session, corpus, tmp_path):
    import glob

    out = str(tmp_path / "qstore")
    # tolerance 0 + plenty of >100 n_tok values → every partition breaches
    cfg = PipelineConfig(out_root=out, run_id="q2", qc=_qc_cfg(fail_tolerance=0.0),
                         qc_quarantine=True)
    stats = run_pipeline(corpus, cfg)
    qfiles = glob.glob(f"{out}/quarantine/**/*.parquet", recursive=True)
    assert qfiles, "no quarantined partitions written"
    assert glob.glob(f"{out}/quarantine/**/_qc_error.txt", recursive=True)
    # and without quarantine the same run aborts
    from tsdat_ray.stages.qc import DataQualityError
    import ray.exceptions

    out2 = str(tmp_path / "qstore2")
    with pytest.raises((DataQualityError, ray.exceptions.RayTaskError)):
        run_pipeline(corpus, PipelineConfig(out_root=out2, run_id="q3",
                                            qc=_qc_cfg(fail_tolerance=0.0)))


def test_cli_manifest_summary(tmp_path, corpus, ray_session):
    """CLI manifest summary over a real store (run/prune own their Ray
    session, so only the sessionless subcommand runs inside the suite)."""
    import json

    from tsdat_ray.__main__ import main

    out = str(tmp_path / "cli_m")
    run_pipeline(corpus, PipelineConfig(out_root=out, run_id="c1"))
    import contextlib, io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["manifest", "--out", out]) == 0
    summary = json.loads(buf.getvalue())
    assert summary["raw"]["partitions"] > 0
    assert summary["t1m"]["rows"] > 0


def test_qc_flag_metadata_in_raw_files(ray_session, corpus, tmp_path):
    """Raw-tier parquet footers carry the QC bit tables (flag_masks /
    meanings / assessments, ACT-convention parity)."""
    import glob
    import json

    import pyarrow.parquet as pq

    from tests.test_pipeline import _qc_cfg  # self-import safe under pytest

    out = str(tmp_path / "metastore")
    run_pipeline(corpus, PipelineConfig(out_root=out, run_id="meta1", qc=_qc_cfg()))
    f = sorted(glob.glob(f"{out}/raw/**/*.parquet", recursive=True))[0]
    md = pq.read_schema(f).metadata
    md = {k.decode(): v.decode() for k, v in md.items()}
    assert md.get("engine") == "tsdat_ray"
    assert json.loads(md["qc_n_tok_flag_masks"]) == [1]
    assert json.loads(md["qc_n_tok_flag_meanings"]) == ["n_tok_high"]
    assert json.loads(md["qc_n_tok_flag_assessments"]) == ["Indeterminate"]


def test_task_retry_with_idempotent_writes(ray_session, corpus, tmp_path):
    """North-rule fault tolerance: a transient task failure mid-pipeline is
    retried by Ray, and the deterministic atomic partition writes make the
    retried run's output identical to a clean run (no duplicate/torn files)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    clean_out = str(tmp_path / "clean")
    run_pipeline(corpus, PipelineConfig(out_root=clean_out, resume=False, run_id="c"))

    flag = str(tmp_path / "kill-once")

    def killer_once(batch, flag=flag):
        # exactly ONE task dies mid-flight (worker process exit = the crash
        # class Ray's lineage-based retry handles); every retry/other task
        # proceeds because the flag file already exists
        try:
            fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(1)
        except FileExistsError:
            return batch

    faulty_out = str(tmp_path / "faulty")
    cfg = PipelineConfig(out_root=faulty_out, resume=False, run_id="f",
                         hooks={"customize": killer_once})
    run_pipeline(corpus, cfg)  # must complete despite the injected crash
    assert os.path.exists(flag), "fault was never injected"

    a = rd.read_parquet(f"{clean_out}/t1m").to_pandas()
    b = rd.read_parquet(f"{faulty_out}/t1m").to_pandas()
    key = ["source", "bucket"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    np.testing.assert_allclose(a["n_tok_mean"], b["n_tok_mean"], rtol=0, atol=0)
    np.testing.assert_array_equal(a["n_rows"], b["n_rows"])
    # every partition has exactly the expected file set (no dup part files)
    import glob

    fa = sorted(p.split("clean/")[-1] for p in glob.glob(f"{clean_out}/raw/**/*.parquet", recursive=True))
    fb = sorted(p.split("faulty/")[-1] for p in glob.glob(f"{faulty_out}/raw/**/*.parquet", recursive=True))
    assert fa == fb


def test_reducer_killed_after_earlier_keys_retries_to_the_clean_store(ray_session, tmp_path):
    """A reducer task holding several (source, day) keys dies (worker exit)
    on a later key's ``finalize`` hook, after the earlier keys' raw and tier
    files are written.  Ray reruns the task, and every store dir ends with
    the clean run's digest and file set, with no temp file left."""
    import glob
    import re

    from perfbench.common import store_digest

    corpus = generate_sequences_parquet(str(tmp_path / "c"), n_rows=6000, seed=42)
    clean = str(tmp_path / "clean")
    st = run_pipeline(corpus, PipelineConfig(out_root=clean, resume=False, parallelism=2))
    assert st["raw"]["shuffle_partitions"] == 2 and st["raw"]["new_partitions"] > 2

    faulty, flag = str(tmp_path / "faulty"), str(tmp_path / "kill-once")

    def kill_on_later_key(t, faulty=faulty, flag=flag, seen=str(tmp_path / "seen-")):
        import ray

        try:  # the first key of this task passes
            os.close(os.open(seen + ray.get_runtime_context().get_task_id(),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return t
        except FileExistsError:
            pass
        try:  # one later key, once: record what is written, then die
            fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return t
        os.write(fd, json.dumps({d: len(glob.glob(f"{faulty}/{d}/*/*/*.parquet"))
                                 for d in ("raw", "t1m", "t1h", "t1d", "t1m_enc")}).encode())
        os.close(fd)
        os._exit(1)

    cfg = PipelineConfig(out_root=faulty, resume=False, parallelism=2,
                         hooks={"finalize": kill_on_later_key})
    run_pipeline(corpus, cfg)  # completes through Ray's task retry
    with open(flag) as f:
        written = json.load(f)
    assert all(written.values()), written  # earlier keys wrote every dir

    def files(root, d):
        return sorted(os.path.relpath(os.path.join(p, n), root)
                      for p, _, ns in os.walk(os.path.join(root, d)) for n in ns)

    assert store_digest(faulty) == store_digest(clean)
    for d in STORE_DIRS:
        assert files(faulty, d) == files(clean, d), d
    assert not [n for _, _, ns in os.walk(faulty) for n in ns if re.fullmatch(r"\..*\.tmp\d+", n)]


def test_failed_reducer_reraises_and_resume_gives_the_clean_store(ray_session, tmp_path):
    """A ``finalize`` hook that raises in one reducer fails the run with
    that error; the driver stays alive (the other tasks are cancelled only
    while still running), and a resume without the hook gives the clean
    store."""
    import ray

    from perfbench.common import store_digest

    corpus = generate_sequences_parquet(str(tmp_path / "c"), n_rows=6000, seed=42)
    clean = str(tmp_path / "clean")
    run_pipeline(corpus, PipelineConfig(out_root=clean, resume=False, parallelism=2))
    victim = sorted(Manifest(clean).completed("raw"))[-1]

    def fail_one(t, victim=victim):
        if f"source={t['source'][0].as_py()}/day={t['day'][0].as_py()}" == victim:
            raise ValueError(f"finalize failed on {victim}")
        return t

    out = str(tmp_path / "s")
    with pytest.raises(ValueError, match="finalize failed on"):
        run_pipeline(corpus, PipelineConfig(out_root=out, resume=False, parallelism=2,
                                            hooks={"finalize": fail_one}))
    assert ray.get(ray.remote(lambda: 41).remote()) == 41  # the driver is alive
    assert Manifest(out).records() == []  # the failed run committed nothing
    run_pipeline(corpus, PipelineConfig(out_root=out, parallelism=2))
    assert store_digest(out) == store_digest(clean)
    _assert_same_store(Manifest(clean), Manifest(out))


def test_resume_rebuilds_missing_tier_only(ray_session, corpus, tmp_path):
    """Crash between tiers: raw + t1m committed, t1h/t1d lost → resume
    rebuilds the lost tiers from the t1m on disk without touching raw
    (commit timestamps prove what was and wasn't recomputed)."""
    import ray.data as rd

    out = str(tmp_path / "midstore")
    run_pipeline(corpus, PipelineConfig(out_root=out, run_id="m1"))
    man = Manifest(out)
    before_raw = man.last_modified("raw")
    before_1m = man.last_modified("t1m")
    t1h_before = rd.read_parquet(f"{out}/t1h").to_pandas().sort_values(
        ["source", "bucket"]).reset_index(drop=True)

    # simulate the crash: drop t1h/t1d dirs and their manifest records
    for tier in ("t1h", "t1d"):
        shutil.rmtree(os.path.join(out, tier))
    recs = [r for r in man.records() if r["tier"] not in ("t1h", "t1d")]
    os.remove(man.path)
    for r in recs:
        man.append(dict(r))

    stats = run_pipeline(corpus, PipelineConfig(out_root=out, run_id="m2"))
    assert stats["raw"]["new_partitions"] == 0, "raw should be fully skipped"
    assert stats["1m"]["new_partitions"] == 0, "t1m should be fully skipped"
    assert stats["1h"]["new_partitions"] > 0
    assert stats["1d"]["new_partitions"] > 0
    # raw/t1m commits untouched; rebuilt t1h identical to the original
    assert man.last_modified("raw") == before_raw
    assert man.last_modified("t1m") == before_1m
    t1h_after = rd.read_parquet(f"{out}/t1h").to_pandas().sort_values(
        ["source", "bucket"]).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(
        t1h_before.drop(columns=["tokens"]), t1h_after.drop(columns=["tokens"])
    )


def _forget_partition(man, tier, part):
    """Drop one partition's manifest records, as a crash before its commit
    would have left them."""
    recs = [r for r in man.records() if not (r["tier"] == tier and r["partition"] == part)]
    os.remove(man.path)
    for r in recs:
        man.append(dict(r))


def _assert_same_partition(man_a, man_b, tier, part, drop=()):
    """Bit-equal rows (NaN equal to NaN) of one partition in two stores,
    leaving out the columns in ``drop``."""
    key = "ts" if tier == "raw" else "window" if tier.endswith("_enc") else "bucket"
    a, b = (pq.read_table(m.partition_dir(tier, part)).sort_by(key).drop_columns(list(drop))
            for m in (man_a, man_b))
    assert a.schema == b.schema and a.num_rows == b.num_rows, (tier, part)
    for c in a.column_names:
        if pa.types.is_floating(a[c].type):
            assert np.array_equal(a[c].to_numpy(), b[c].to_numpy(), equal_nan=True), (tier, part, c)
        else:
            assert a[c].equals(b[c]), (tier, part, c)


def test_resume_recomputes_missing_raw_partition_only(ray_session, corpus, tmp_path):
    """One raw partition lost while its 1m/1h/1d partitions stay committed:
    the resume run recomputes that raw partition alone; the rows it feeds
    forward are skipped ahead of every tier, which keeps its commit times."""
    out = str(tmp_path / "rawstore")
    run_pipeline(corpus, PipelineConfig(out_root=out, run_id="r1"))
    man = Manifest(out)
    victim = sorted(man.completed("raw"))[0]
    before = {t: man.last_modified(t) for t in ("t1m", "t1h", "t1d", "t1m_enc")}
    shutil.copytree(out, str(tmp_path / "before"))
    shutil.rmtree(man.partition_dir("raw", victim))
    _forget_partition(man, "raw", victim)

    stats = run_pipeline(corpus, PipelineConfig(out_root=out, run_id="r2"))
    assert stats["raw"]["new_partitions"] == 1
    for tier in ("1m", "1h", "1d", "1m_enc"):
        assert stats[tier]["new_partitions"] == 0, tier
    assert {t: man.last_modified(t) for t in before} == before
    _assert_same_partition(man, Manifest(str(tmp_path / "before")), "raw", victim)


def test_pipeline_with_file_uri_root(ray_session, corpus, tmp_path):
    """The whole store (tiers + manifest + sidecars) behind a ``file://`` URI
    root — exercises the pyarrow.fs write path (VERDICT r1 item 3: parity
    with the reference's FileSystemS3 object-store output capability)."""
    import ray.data as rd

    plain = str(tmp_path / "plain")
    uri_dir = tmp_path / "via_uri"
    uri_dir.mkdir()
    from tsdat_ray.pipelines.vap_pipeline import VapConfig, fetch_tier

    uri = f"file://{uri_dir}/store"
    run_pipeline(corpus, PipelineConfig(out_root=plain, run_id="u1"))
    stats = run_pipeline(corpus, PipelineConfig(out_root=uri, run_id="u1"))
    assert stats["raw"]["new_partitions"] > 0

    man_p, man_u = Manifest(plain), Manifest(uri)
    assert man_u.completed("raw") == man_p.completed("raw")
    assert man_u.completed("t1m") == man_p.completed("t1m")
    # byte-identical tier contents under both roots, read by dir and by manifest
    import pandas as pd

    for tier in ("raw", "t1m", "t1h", "t1d"):
        a = _sorted_frame(rd.read_parquet(man_p.tier_dir(tier)).to_pandas())
        pd.testing.assert_frame_equal(a, _sorted_frame(rd.read_parquet(man_u.tier_dir(tier)).to_pandas()))
        pd.testing.assert_frame_equal(a, _sorted_frame(man_p.read_tier(tier).to_pandas()))
        pd.testing.assert_frame_equal(a, _sorted_frame(man_u.read_tier(tier).to_pandas()))
        fp, fu = man_p.tier_files(tier), man_u.tier_files(tier)
        assert fu[0].startswith(uri) and fp
        assert [f[len(plain):] for f in fp] == [f[len(uri):] for f in fu]
    lo = int(man_p.read_tier("t1m").to_pandas()["bucket"].astype("int64").min())
    vap = dict(start_us=lo, end_us=lo + 86400 * US, interval_s=3600, source_tier="t1m")
    a = fetch_tier(VapConfig(store_root=plain, **vap)).to_pandas()
    pd.testing.assert_frame_equal(
        _sorted_frame(a), _sorted_frame(fetch_tier(VapConfig(store_root=uri, **vap)).to_pandas()))
    # an empty tier, and a range that holds no partition
    assert man_u.tier_files("t1w") == [] and man_u.read_tier("t1w").count() == 0
    assert fetch_tier(VapConfig(store_root=uri, start_us=0, end_us=3600 * US,
                                interval_s=3600)) is None
    # resume through the URI root: everything already committed -> no-op
    stats2 = ingest_raw(corpus, PipelineConfig(out_root=uri, run_id="u2"))
    assert stats2["new_partitions"] == 0
    assert stats2["skipped"] == len(man_u.completed("raw"))
    # retention prunes the same partitions under both roots
    days = sorted(Manifest.parse_partition(p)[1] for p in man_p.completed("raw"))
    now_us = int(np.datetime64(days[-1] + "T00:00:00", "us").astype("int64")) + 2 * 86400 * US
    horizons = {"raw": 86400, "1m": 2 * 86400, "1h": None, "1d": None}
    res_p = prune_retention(PipelineConfig(out_root=plain, retention_s=horizons), now_us)
    res_u = prune_retention(PipelineConfig(out_root=uri, retention_s=horizons), now_us)
    assert res_p["pruned"]["raw"] >= 1 and res_p["pruned"]["t1m"] >= 1
    assert res_u == res_p
    for tier in ("raw", "t1m", "t1h", "t1d"):
        assert man_u.completed(tier) == man_p.completed(tier)
        assert sorted(man_u.list_partition_dirs(tier)) == sorted(man_p.list_partition_dirs(tier))


def test_plot_hook_publishes_ancillary_files(ray_session, corpus, tmp_path):
    """hook_plot_dataset parity: the plot hook runs after tiers are saved,
    writes files into the uploadable dir, and they publish under
    <root>/ancillary/ with a manifest record (storage.py:252-302)."""
    out = str(tmp_path / "store")

    def plot_hook(man, tmp_dir):
        import ray.data as rd

        t1h = rd.read_parquet(man.tier_dir("t1h")).to_pandas()
        (tmp_path / "marker").write_text("hook ran")  # proof of invocation
        with open(os.path.join(tmp_dir, "summary.csv"), "w") as f:
            f.write(f"rows,{len(t1h)}\n")
        os.makedirs(os.path.join(tmp_dir, "plots"), exist_ok=True)
        with open(os.path.join(tmp_dir, "plots", "tiers.svg"), "w") as f:
            f.write("<svg/>")

    run_pipeline(corpus, PipelineConfig(out_root=out, run_id="p1",
                                        hooks={"plot": plot_hook}))
    assert (tmp_path / "marker").exists()
    assert os.path.exists(os.path.join(out, "ancillary", "summary.csv"))
    assert os.path.exists(os.path.join(out, "ancillary", "plots", "tiers.svg"))
    recs = [r for r in Manifest(out).records() if r["tier"] == "ancillary"]
    assert len(recs) == 1
    assert sorted(recs[0]["files"]) == ["plots/tiers.svg", "summary.csv"]


def test_reprocess_range_late_data(ray_session, tmp_path):
    """Late-data story (§2.11): new raw rows for an already-committed day →
    invalidate + resume recomputes exactly that day's partitions, leaving
    every other partition file untouched."""
    import pyarrow as pa
    import pyarrow.parquet as pqt
    import ray.data as rd

    from tsdat_ray.pipelines.rollup_pipeline import reprocess_range

    corpus = str(tmp_path / "corpus")
    generate_sequences_parquet(corpus, n_rows=20000, seed=42)
    out = str(tmp_path / "store")
    cfg = PipelineConfig(out_root=out, run_id="r1")
    run_pipeline(corpus, cfg)
    man = Manifest(out)
    parts = sorted(man.completed("raw"))
    victim = parts[0]
    src = victim.split("/")[0].split("=")[1]
    day = victim.split("day=")[1]
    day_us = int(np.datetime64(day, "us").astype(np.int64))

    before = rd.read_parquet(man.partition_dir("raw", victim)).count()
    other = next(p for p in parts if p.split("day=")[1] != day)  # different day
    other_dir = man.partition_dir("raw", other)
    other_files = {f: os.path.getmtime(os.path.join(other_dir, f))
                   for f in os.listdir(other_dir)}

    # late rows: 50 docs from a brand-new source whose derived ts (epoch +
    # idx*interval) lands inside the victim day
    from tsdat_ray.schema import EPOCH_US, NOMINAL_INTERVAL_S

    iv_us = NOMINAL_INTERVAL_S * US
    base_idx = (day_us - EPOCH_US) // iv_us + 10
    ids = [f"w9-{base_idx + j:08d}" for j in range(50)]
    late = pa.table(
        {
            "doc_id": pa.array(ids),
            "tokens": pa.array([[1, 2, 3]] * 50, pa.list_(pa.int32())),
            "n_tok": pa.array([3] * 50, pa.int32()),
            "source": pa.array(["w9"] * 50),
        }
    )
    pqt.write_table(late, os.path.join(corpus, "late.parquet"))
    stats = reprocess_range(corpus, cfg, day_us, day_us + 86400 * US)
    assert stats["invalidated"]["raw"] >= 1
    after = rd.read_parquet(man.partition_dir("raw", victim)).count()
    # the recomputed partition exists and is committed again
    assert victim in man.completed("raw")
    assert after == before  # same inputs for the victim partition
    # the late source materialized as a NEW partition in the victim's day
    late_part = f"source=w9/day={day}"
    assert late_part in man.completed("raw")
    assert rd.read_parquet(man.partition_dir("raw", late_part)).count() == 50
    # untouched partition files were not rewritten
    for f, mt in other_files.items():
        assert os.path.getmtime(os.path.join(other_dir, f)) == mt
    # recomputed = the invalidated day's partitions + the brand-new w9 one
    assert stats["raw"]["new_partitions"] == stats["invalidated"]["raw"] + 1
    # the reprocessed day's tiers equal a fresh run over the same corpus
    fresh = Manifest(str(tmp_path / "fresh"))
    run_pipeline(corpus, PipelineConfig(out_root=fresh.root, resume=False, run_id="f"))
    for tier in ("t1m", "t1h", "t1d"):
        parts = sorted(p for p in man.completed(tier) if p.endswith(f"day={day}"))
        assert late_part in parts
        assert parts == sorted(p for p in fresh.completed(tier) if p.endswith(f"day={day}"))
        for part in parts:
            _assert_same_partition(man, fresh, tier, part)


def test_fresh_run_clears_existing_store(ray_session, corpus, tmp_path):
    """resume=False over an existing store must keep no partition, part
    file or manifest record of the previous run."""
    import ray.data as rd

    out = str(tmp_path / "store")
    run_pipeline(corpus, PipelineConfig(out_root=out, resume=False, run_id="f1",
                                        parallelism=7))
    man = Manifest(out)
    n1 = rd.read_parquet(man.tier_dir("raw")).count()
    # the second fresh run wipes the store before it writes
    run_pipeline(corpus, PipelineConfig(out_root=out, resume=False, run_id="f2",
                                        parallelism=13))
    n2 = rd.read_parquet(man.tier_dir("raw")).count()
    assert n1 == n2  # no duplicated rows from stale files
    # manifest restarted: only f2 records remain
    assert {r.get("run_id") for r in man.records() if r.get("tier") == "raw"} == {"f2"}


def test_compact_tier_merges_parts_and_preserves_data(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from tsdat_ray.stages.writers import compact_tier, write_partitioned
    from tsdat_ray.state.manifest import Manifest

    root = str(tmp_path / "store")
    US_ = 1_000_000
    n = 600
    rng = np.random.default_rng(7)
    ts = np.sort(rng.integers(0, 3 * 86400, n)).astype(np.int64) * US_
    tbl = pa.table({
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "source": pa.array(rng.choice(["a", "b"], n)),
        "v": pa.array(rng.random(n)),
    })

    def add_day(b: pa.Table) -> pa.Table:
        t = b["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ((t // (86400 * US_)) * (86400 * US_)).astype("datetime64[us]")
        import pyarrow.compute as pc_
        return b.append_column("day", pc_.strftime(pa.array(day), format="%Y-%m-%d"))

    # many blocks => many part files per partition
    ds = rd.from_arrow(add_day(tbl)).repartition(8)
    write_partitioned(ds, root + "/raw", ts_col="ts")
    man = Manifest(root)
    man.commit_partitions("raw", inputs=["synthetic"])

    def total_rows():
        import glob
        files = glob.glob(root + "/raw/**/*.parquet", recursive=True)
        return sum(pq.read_table(f).num_rows for f in files), len(files)

    before_rows, before_files = total_rows()
    res = compact_tier(root, "raw")
    after_rows, after_files = total_rows()
    assert res["compacted"] >= 1
    assert after_rows == before_rows == n
    assert after_files < before_files
    # every partition has exactly one part and is committed again
    for part in man.list_partition_dirs("raw"):
        pdir = man.partition_dir("raw", part)
        parts = [f for f in man.sfs.listdir(pdir) if f.endswith(".parquet")]
        assert len(parts) == 1
    assert man.completed("raw") == set(man.list_partition_dirs("raw"))
    # idempotent: nothing left to compact
    assert compact_tier(root, "raw")["compacted"] == 0


def test_run_report_persisted(ray_session, tmp_path):
    import json
    import os

    from tsdat_ray.pipelines.rollup_pipeline import PipelineConfig, run_pipeline
    from tsdat_ray.synth import generate_sequences_parquet

    corpus = str(tmp_path / "c")
    generate_sequences_parquet(corpus, n_rows=3000, seed=42)
    store = str(tmp_path / "s")
    run_pipeline(corpus, PipelineConfig(out_root=store, run_id="rpt"))
    path = os.path.join(store, "_reports", "run_rpt.json")
    rep = json.load(open(path))
    assert {"raw", "1m", "1h", "1d"} <= set(rep)
    assert rep["raw"]["new_partitions"] > 0
    # the clean shuffle's reducer count, one per planned slot: the
    # (source, day) keys the run rebuilt, at most _num_blocks; and the input
    # it read: every row group of a fresh run, by the footers' row counts
    from tsdat_ray.pipelines.rollup_pipeline import _num_blocks
    from tsdat_ray.sources.declared import parquet_files

    nb = _num_blocks(PipelineConfig(out_root=store))
    assert rep["raw"]["shuffle_partitions"] == min(nb, rep["raw"]["new_partitions"]) > 1
    mds = [pq.read_metadata(f) for f in parquet_files(corpus)]
    n_groups = sum(md.num_row_groups for md in mds)
    assert rep["raw"]["input_row_groups"] == {"read": n_groups, "total": n_groups} and n_groups
    assert rep["raw"]["input_rows_read"] == sum(md.num_rows for md in mds) > 0
    assert "shuffle_partitions" not in rep["1m"]
    # every tier of the one graph reports the graph wall, plus the seconds
    # its own tasks spent rolling up, encoding and writing it
    walls = {rep[t]["wall_s"] for t in ("raw", "1m", "1h", "1d", "1m_enc")}
    assert len(walls) == 1 and walls.pop() > 0
    for t in ("raw", "1m", "1h", "1d", "1m_enc"):
        assert rep[t]["task_s"] > 0, t
    man = Manifest(store)
    for tier in ("raw", "1m", "1h", "1d"):
        name = "raw" if tier == "raw" else f"t{tier}"
        recs = [r for r in man.records() if r["tier"] == name]
        assert rep[tier]["rows"] == sum(r["rows"] for r in recs) > 0
    # lineage: each tier's inputs are its source tier dir
    src = {"t1m": "raw", "t1h": "t1m", "t1d": "t1h", "t1m_enc": "t1m"}
    for r in man.records():
        if r["tier"] == "raw":
            assert r["inputs"] == [corpus]
        elif r["tier"] in src:
            assert r["inputs"] == [man.tier_dir(src[r["tier"]])], r
    # a resume over the complete store reads no input row group
    again = run_pipeline(corpus, PipelineConfig(out_root=store, run_id="rpt2"))
    rep2 = json.load(open(os.path.join(store, "_reports", "run_rpt2.json")))
    assert rep2["raw"] == again["raw"]
    assert rep2["raw"]["input_row_groups"] == {"read": 0, "total": n_groups}
    assert (rep2["raw"]["input_rows_read"], rep2["raw"]["shuffle_partitions"]) == (0, 0)


def test_compact_tier_crash_recovery_no_duplication(ray_session, tmp_path):
    """Crash between the .merged publish and the old-part deletion: the
    recovery path must finish the ORIGINAL operation (delete exactly the
    recorded inputs, then publish) — re-merging the merge with its own
    surviving inputs would duplicate every row (review r3 finding)."""
    import glob
    import io

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from tsdat_ray.stages.writers import compact_tier, write_partitioned
    from tsdat_ray.state.manifest import Manifest

    root = str(tmp_path / "store")
    US_ = 1_000_000
    n = 200
    rng = np.random.default_rng(11)
    ts = np.sort(rng.integers(0, 86400, n)).astype(np.int64) * US_
    tbl = pa.table({
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "source": pa.array(["a"] * n),
        "day": pa.array(["1970-01-01"] * n),
        "v": pa.array(rng.random(n)),
    })
    write_partitioned(rd.from_arrow(tbl).repartition(4), root + "/raw", ts_col="ts")
    man = Manifest(root)
    man.commit_partitions("raw", inputs=["synthetic"])
    part = man.list_partition_dirs("raw")[0]
    pdir = man.partition_dir("raw", part)
    files = sorted(f for f in man.sfs.listdir(pdir) if f.endswith(".parquet"))
    assert len(files) > 1

    # simulate the crash state: full merge written as .merged (with its
    # input list), old parts STILL present
    merged = pa.concat_tables(
        [pq.read_table(f"{pdir}/{f}") for f in files]).sort_by("ts")
    tmin = int(merged["ts"][0].cast(pa.int64()).as_py())
    merged = merged.replace_schema_metadata(
        {b"compact_inputs": "\n".join(files).encode()})
    man.sfs.write_table_atomic(merged, f"{pdir}/part-{tmin}.parquet.merged")
    # the partition still has >1 parts and is committed → compaction reruns

    compact_tier(root, "raw")
    got = sum(pq.read_table(f).num_rows
              for f in glob.glob(root + "/raw/**/*.parquet", recursive=True))
    assert got == n, f"rows duplicated or lost: {got} != {n}"


def test_purge_keys_right_to_be_forgotten(ray_session, corpus, tmp_path):
    """GDPR purge: purged ids vanish from raw + every tier equals a
    from-scratch build on the filtered input (bit-deterministic contract);
    untouched partitions are not rewritten; a later fresh rebuild cannot
    resurrect the ids."""
    import ray.data as rd

    from tsdat_ray.pipelines.rollup_pipeline import purge_keys

    out = str(tmp_path / "store")
    cfg = PipelineConfig(out_root=out, run_id="p1")
    run_pipeline(corpus, cfg)
    man = Manifest(out)

    raw = rd.read_parquet(man.tier_dir("raw")).to_pandas()
    victims = sorted(raw["doc_id"].unique())[:25]
    before_parts = {r["partition"]: r["run_id"] for r in man.records()
                    if r["tier"] == "t1m" and r.get("action") != "pruned"}

    stats = purge_keys(corpus, PipelineConfig(out_root=out, run_id="p2"),
                       victims)
    assert stats["purged"]["ids"] == len(victims)
    assert stats["purged"]["partitions"]  # something was actually rebuilt

    # purged ids gone from raw
    man = Manifest(out)
    raw2 = rd.read_parquet(man.tier_dir("raw")).to_pandas()
    assert not set(victims) & set(raw2["doc_id"])

    # untouched t1m partitions keep their original run_id (not rewritten)
    touched = set(stats["purged"]["partitions"])
    after_parts = {r["partition"]: r["run_id"] for r in man.records()
                   if r["tier"] == "t1m" and r.get("action") != "pruned"}
    for part, rid in before_parts.items():
        if part not in touched:
            assert after_parts[part] == rid

    # tiers now equal a from-scratch build over the filtered input
    clean_out = str(tmp_path / "clean")
    victims_set = set(victims)

    def drop_victims(b):
        import pyarrow.compute as _pc
        import pyarrow as _pa
        keep = [i not in victims_set for i in b["doc_id"].to_pylist()]
        return b.filter(_pa.array(keep))

    import pyarrow.parquet as pq
    filt_dir = tmp_path / "filtered_corpus"
    filt_dir.mkdir()
    for i, f in enumerate(sorted(os.listdir(corpus))):
        t = pq.read_table(os.path.join(corpus, f))
        pq.write_table(drop_victims(t), str(filt_dir / f))
    run_pipeline(str(filt_dir), PipelineConfig(out_root=clean_out,
                                               resume=False, run_id="ref"))
    got = rd.read_parquet(man.tier_dir("t1m")).to_pandas()
    ref = rd.read_parquet(Manifest(clean_out).tier_dir("t1m")).to_pandas()
    key = ["source", "bucket"]
    got = got.sort_values(key).reset_index(drop=True)
    ref = ref.sort_values(key).reset_index(drop=True)
    assert len(got) == len(ref)
    for c in ("n_tok_sum_wx", "n_tok_n", "n_rows"):
        if c in got.columns:
            assert (got[c].values == ref[c].values).all(), c

    # fresh rebuild over the ORIGINAL corpus: tombstones still exclude
    run_pipeline(corpus, PipelineConfig(out_root=out, resume=False,
                                        run_id="p3"))
    raw3 = rd.read_parquet(Manifest(out).tier_dir("raw")).to_pandas()
    assert not set(victims) & set(raw3["doc_id"])


def test_encode_store_drops_stale_parts_of_aborted_run(ray_session, corpus, tmp_path):
    """An aborted run left an uncommitted enc partition holding a stale part
    file: the next encode wipes it, re-encodes only that partition, and
    counts none of the stale bytes."""
    from tsdat_ray.pipelines.rollup_pipeline import encode_tier_store

    empty = PipelineConfig(out_root=str(tmp_path / "empty"))
    assert encode_tier_store("1m", empty)["bytes_enc"] == 0  # no tier yet

    out = str(tmp_path / "encstore")
    cfg = PipelineConfig(out_root=out, run_id="e1")
    first = run_pipeline(corpus, cfg)["1m_enc"]
    man = Manifest(out)
    victim, other = sorted(man.completed("t1m_enc"))[:2]
    vdir = man.partition_dir("t1m_enc", victim)
    files = sorted(os.listdir(vdir))
    odir = man.partition_dir("t1m_enc", other)
    shutil.copy(os.path.join(odir, sorted(os.listdir(odir))[0]),
                os.path.join(vdir, "part-1.parquet"))
    _forget_partition(man, "t1m_enc", victim)

    again = encode_tier_store("1m", PipelineConfig(out_root=out, run_id="e2"))
    assert again["new_partitions"] == 1
    assert sorted(os.listdir(vdir)) == files
    assert (again["bytes_raw"], again["bytes_enc"]) == (first["bytes_raw"], first["bytes_enc"])


STORE_DIRS = ("raw", "t1m", "t1h", "t1d", "t1m_enc")


def _assert_same_store(man_a, man_b):
    for tier in STORE_DIRS:
        parts = sorted(man_a.completed(tier))
        assert parts and parts == sorted(man_b.completed(tier)), tier
        for part in parts:
            _assert_same_partition(man_a, man_b, tier, part)


def _rewrite_corpus(src, dst, row_group_size):
    """A copy of corpus ``src`` under ``dst``: the same files and rows, in
    row groups of ``row_group_size`` rows."""
    from tsdat_ray.sources.declared import parquet_files

    os.makedirs(dst)
    for f in parquet_files(src):
        pq.write_table(pq.read_table(f), os.path.join(dst, os.path.basename(f)),
                       row_group_size=row_group_size)
    return dst


def test_skip_completed_matches_partition_string_rule():
    """The (source code, day index) match drops exactly the rows whose
    ``source=<s>/day=<d>`` name is done, for an empty done set and for done
    partitions of sources the batch lacks."""
    from tsdat_ray.pipelines.rollup_pipeline import _skip_completed

    rng = np.random.default_rng(3)
    n = 500
    ts = EPOCH_US + rng.integers(-2, 5 * 86400, n) * US  # one row before the epoch day
    src = rng.choice(["web", "news", "code"], n)
    batch = pa.table({"source": pa.array(src), "ts": pa.array(ts).cast(pa.timestamp("us"))})
    days = (ts // (86400 * US)).astype("datetime64[D]").astype(str)
    names = np.char.add(np.char.add("source=", src), np.char.add("/day=", days))
    some = sorted(set(names))[::3]
    for done in (frozenset(), frozenset(some), frozenset(some + ["source=gone/day=2022-04-05"]),
                 frozenset(["source=gone/day=2022-04-05"]), frozenset(names)):
        want = batch.filter(pa.array(~np.isin(names, list(done))))
        assert _skip_completed(batch, "ts", done).equals(want), sorted(done)[:3]


def test_fresh_graph_has_one_shuffle_and_no_encode_job(ray_session, corpus, tmp_path, monkeypatch):
    """A fresh run submits one map task per input row group and one reducer
    task per slot, and nothing else: the tiers and the encoded store are
    written inside the reducer tasks, with no disk feed, no Ray Data
    Dataset and no other Ray job."""
    import ray.data as rd

    from tsdat_ray.pipelines import rollup_pipeline as rp

    runs, submitted, remote = [], [], rp._remote
    for method in ("take_all", "count", "materialize", "sum", "iter_batches", "to_pandas"):
        monkeypatch.setattr(rd.Dataset, method, lambda self, *a, **kw: runs.append(self))

    class Counted:
        def __init__(self, fn, handle):
            self.fn, self.handle = fn, handle

        def options(self, **kw):
            return Counted(self.fn, self.handle.options(**kw))

        def remote(self, *a, **kw):
            submitted.append(self.fn.__name__)
            return self.handle.remote(*a, **kw)

    monkeypatch.setattr(rp, "_remote", lambda fn: Counted(fn, remote(fn)))
    stats = run_pipeline(corpus, PipelineConfig(out_root=str(tmp_path / "s"), resume=False))
    assert stats["1m_enc"]["new_partitions"] == stats["1m"]["new_partitions"] > 0
    n_units, p = stats["raw"]["input_row_groups"]["read"], stats["raw"]["shuffle_partitions"]
    assert sorted(submitted) == ["_clean_slot"] * p + ["_read_unit"] * n_units and p > 1
    assert runs == []


def test_tiers_independent_of_layout(ray_session, corpus, tmp_path):
    """Fresh runs at 1, 4 and 16 clean shuffle reducers (at 1 one reducer
    block holds every key), over copies of the corpus rewritten in row
    groups of 1,000 and 50,000 rows, and the staged entry points
    (ingest_raw → rollup_tier ×3 → encode_tier_store), give bit-equal
    raw/t1m/t1h/t1d/t1m_enc partitions, raw's qc_ts included."""
    from tsdat_ray.pipelines.rollup_pipeline import encode_tier_store

    mans = []
    for par in (1, 4, 16):
        out = str(tmp_path / f"p{par}")
        run_pipeline(corpus, PipelineConfig(out_root=out, resume=False, parallelism=par))
        mans.append(Manifest(out))
    for rgs in (1_000, 50_000):
        copy = _rewrite_corpus(corpus, str(tmp_path / f"rg{rgs}"), rgs)
        out = str(tmp_path / f"s{rgs}")
        run_pipeline(copy, PipelineConfig(out_root=out, resume=False))
        mans.append(Manifest(out))
    for a, b in zip(mans, mans[1:]):
        _assert_same_store(a, b)

    staged = PipelineConfig(out_root=str(tmp_path / "staged"), resume=False, parallelism=16)
    assert ingest_raw(corpus, staged)["new_partitions"] > 0
    for tier in ("1m", "1h", "1d"):
        assert rollup_tier(tier, staged)["new_partitions"] > 0
    enc = encode_tier_store("1m", staged)
    assert enc["new_partitions"] > 0 and enc["compression_ratio"] > 1
    _assert_same_store(mans[0], Manifest(staged.out_root))


def test_slot_mix_is_injective_and_slots_split_evenly():
    """10⁶ distinct (crc, day) keys map to 10⁶ distinct mixed keys.  The
    plan deals keys to p = min(blocks, keys) slots (all ``blocks`` when some
    rows have no key) so that no slot carries more than the mean plus the
    largest key; a map task puts a planned key's rows in its slot, any
    other key's in slot ``mix % p``, and splits its table by slot in row
    order."""
    import zlib

    from tsdat_ray.pipelines.rollup_pipeline import (
        _assign_slots,
        _mix64,
        _row_slots,
        _split_slots,
    )

    rng = np.random.default_rng(7)
    crcs = np.unique(rng.integers(0, 2**32, 1100, dtype=np.int64))[:1000]
    assert len(crcs) == 1000
    days = np.arange(-500, 500, dtype=np.int64)
    keys = ((crcs[:, None] << np.int64(32)) | (days[None, :] & np.int64(0xFFFFFFFF))).ravel()
    assert len(np.unique(keys)) == 10**6
    assert len(np.unique(_mix64(keys))) == 10**6

    for n_keys, nb in ((1, 8), (2, 8), (19, 8), (40, 16), (300, 7)):
        est = {("web", d): float(r) for d, r in enumerate(rng.pareto(1.5, n_keys) * 1000 + 1)}
        slots, p = _assign_slots(est, nb)
        assert p == min(nb, n_keys) and set(slots) == set(est)
        loads = np.bincount(list(slots.values()), weights=[est[k] for k in slots], minlength=p)
        assert len(loads) == p and loads.min() > 0
        assert loads.max() <= sum(est.values()) / p + max(est.values()) + 1e-9
        assert _assign_slots(dict(reversed(est.items())), nb) == (slots, p)  # ties by key
    slots, p = _assign_slots({("web", 0): 5.0, ("web", 1): 3.0, None: 9.0}, 8)
    assert p == 8 and set(slots) == {("web", 0), ("web", 1)}
    assert _assign_slots({None: 9.0}, 8) == ({}, 8)

    # _row_slots: a planned key in its slot, any other by its mix
    ts = EPOCH_US + np.array([0, 86400, 3 * 86400, 3 * 86400], np.int64) * US
    src = ["web", "web", "news", "web"]
    b = pa.table({"source": src, "ts": pa.array(ts).cast(pa.timestamp("us"))})
    day = [int(t // (86400 * US)) for t in ts]
    raw = np.array([(zlib.crc32(s.encode()) << 32) | d for s, d in zip(src, day)],
                   np.uint64).view(np.int64)
    mix = _mix64(raw).view(np.uint64)
    p = 5
    slots = {("web", day[1]): 3, ("news", day[2]): 0, ("blog", day[0]): 1}
    slot = _row_slots(b, "ts", slots, p)
    assert slot.tolist() == [int(mix[0] % np.uint64(p)), 3, 0, int(mix[3] % np.uint64(p))]
    assert _row_slots(b, "ts", {}, 1).tolist() == [0, 0, 0, 0]

    # _split_slots: p tables of each slot's rows in row order; one slot → no take
    parts = _split_slots(b, np.array([2, 0, 2, 0]), 3)
    assert [t["ts"].to_pylist() for t in parts] == \
        [b["ts"].to_pylist()[1::2], [], b["ts"].to_pylist()[0::2]]
    assert all(t.schema == b.schema for t in parts)
    whole = _split_slots(b, np.full(4, 1), 3)
    assert whole[1] is b and [t.num_rows for t in whole] == [0, 4, 0]
    assert [t.num_rows for t in _split_slots(b.slice(0, 0), np.array([], np.int64), 2)] == [0, 0]


def test_token_ids_round_trip_as_bytes():
    """list<int32> → bytes → take → list gives the taken lists back, type
    and nulls included: over chunks, a slice whose list and child both have
    non-zero offsets, null and empty lists, and 0 rows; the bytes are the
    child buffer itself."""
    from tsdat_ray.pipelines.rollup_pipeline import _ids_as_bytes, _ids_as_list

    typ = pa.list_(pa.field("element", pa.int32()))
    child = pa.array(np.arange(100, dtype=np.int32)).slice(3)
    lists = pa.ListArray.from_arrays(pa.array([0, 2, 2, 5, 9, 9, 20], pa.int32()), child,
                                     type=typ, mask=pa.array([False, False, True, False, False, False]))
    part = lists.slice(1, 4)
    assert part.offset == 1 and part.values.offset == 3
    tbl = pa.table({"tokens": pa.chunked_array([part, lists, lists.slice(0, 0)], typ),
                    "x": pa.array(range(10))})
    moved = _ids_as_bytes(tbl)
    assert moved["tokens"].type == pa.large_binary() and moved["x"].equals(tbl["x"])
    assert moved["tokens"].chunk(1).buffers()[2].address == child.buffers()[1].address
    assert _ids_as_list(tbl) is tbl  # nothing moved, nothing to undo
    for idx in ([4, 0, 1, 3, 2, 9, 2], list(range(10)), []):
        want = tbl.take(pa.array(idx, pa.int64()))
        got = _ids_as_list(moved.take(pa.array(idx, pa.int64())))
        assert got.schema == want.schema and got.schema.field(0).type.value_field.name == "element"
        assert got.equals(want) and got["tokens"].null_count == want["tokens"].null_count
        for c in got["tokens"].chunks:
            c.validate(full=True)
    empty = tbl.slice(0, 0)
    assert _ids_as_list(_ids_as_bytes(empty)).equals(empty)
    # ids that are not list<int32> without nulls stay as they are
    other = pa.table({"tokens": pa.array([[1, None]], pa.list_(pa.int32()))})
    assert _ids_as_bytes(other) is other


def test_reducer_plan_follows_the_rebuilt_keys(ray_session, tmp_path):
    """A reprocess of the last two days of a benchmark-shaped corpus (160k
    rows, seed 11: both days hold only ``web``) shuffles into 2 reducers
    and rebuilds them equal to the fresh store; a reprocess of one web day
    runs 1 reducer and its store is bit-equal to the fresh one; a run with
    a ``customize`` hook, whose keys the plan cannot see, hashes into every
    slot, and its store is bit-equal to the planned run's; so is the store
    of the hooked run's two-day reprocess, which drops done rows after the
    hook rather than inside standardize."""
    from tsdat_ray.pipelines.rollup_pipeline import reprocess_range

    corpus = generate_sequences_parquet(str(tmp_path / "c"), n_rows=160_000, seed=11)
    out = str(tmp_path / "fresh")
    planned = run_pipeline(corpus, PipelineConfig(out_root=out, resume=False, parallelism=32))
    n_keys = planned["raw"]["new_partitions"]
    assert planned["raw"]["shuffle_partitions"] == n_keys < 32
    man = Manifest(out)
    days = sorted({Manifest.parse_partition(q)[1] for q in man.completed("raw")})
    shutil.copytree(out, str(tmp_path / "late"))
    late = str(tmp_path / "late")
    lo = int(np.datetime64(days[-2], "us").astype(np.int64))
    st = reprocess_range(corpus, PipelineConfig(out_root=late), lo, lo + 2 * 86400 * US)
    rebuilt = [q for q in man.completed("raw") if q.split("day=")[1] in days[-2:]]
    assert sorted(rebuilt) == [f"source=web/day={d}" for d in days[-2:]]
    assert st["raw"]["new_partitions"] == st["raw"]["shuffle_partitions"] == 2
    for tier in STORE_DIRS:
        for part in rebuilt:
            _assert_same_partition(man, Manifest(late), tier, part)
    one = str(tmp_path / "one")
    shutil.copytree(out, one)
    st = reprocess_range(corpus, PipelineConfig(out_root=one), lo, lo + 86400 * US)
    assert st["raw"]["new_partitions"] == st["raw"]["shuffle_partitions"] == 1
    _assert_same_store(man, Manifest(one))

    hooked = PipelineConfig(out_root=str(tmp_path / "hooked"), resume=False, parallelism=32,
                            hooks={"customize": lambda b: b})
    assert run_pipeline(corpus, hooked)["raw"]["shuffle_partitions"] == 32
    _assert_same_store(man, Manifest(hooked.out_root))
    st = reprocess_range(corpus, hooked, lo, lo + 2 * 86400 * US)
    assert st["raw"]["new_partitions"] == 2 and st["raw"]["shuffle_partitions"] == 32
    groups = st["raw"]["input_row_groups"]  # blind to the hook: reads every row group
    assert groups["read"] == groups["total"] > 2
    _assert_same_store(man, Manifest(hooked.out_root))


def test_mixed_resume_rebuilds_each_lost_partition_from_its_own_source(
        ray_session, corpus, tmp_path):
    """Raw partition p and t1h partition q≠p are lost with their records:
    the resume recomputes raw p from the input and t1h q from the t1m on
    disk, and nothing else; both equal the fresh store, and the tiers it
    did not write keep their commit times."""
    out = str(tmp_path / "store")
    run_pipeline(corpus, PipelineConfig(out_root=out, run_id="r1"))
    fresh = Manifest(str(tmp_path / "fresh"))
    shutil.copytree(out, fresh.root)
    man = Manifest(out)
    p = sorted(man.completed("raw"))[0]
    q = next(x for x in sorted(man.completed("t1h")) if x != p)
    for tier, part in (("raw", p), ("t1h", q)):
        shutil.rmtree(man.partition_dir(tier, part))
        _forget_partition(man, tier, part)
    n_recs = len(man.records())
    before = {t: man.last_modified(t) for t in ("t1m", "t1d", "t1m_enc")}

    stats = run_pipeline(corpus, PipelineConfig(out_root=out, run_id="r2"))
    assert {k: v["new_partitions"] for k, v in stats.items()} == {
        "raw": 1, "1m": 0, "1h": 1, "1d": 0, "1m_enc": 0}
    assert [(r["tier"], r["partition"]) for r in man.records()[n_recs:]] == [("raw", p), ("t1h", q)]
    assert {t: man.last_modified(t) for t in before} == before
    _assert_same_partition(man, fresh, "raw", p)
    _assert_same_partition(man, fresh, "t1h", q)


def _chunks(path):
    """``{column path: (encodings, has dictionary page)}`` of a Parquet file's
    first row group."""
    rg = pq.read_metadata(path).row_group(0)
    return {rg.column(i).path_in_schema: (rg.column(i).encodings, rg.column(i).has_dictionary_page)
            for i in range(rg.num_columns)}


def test_int_lists_delta_packed_and_roundtrip(tmp_path):
    """Token ids are written DELTA_BINARY_PACKED with no dictionary; an
    empty list, a null list and ids 0 and 50256 read back equal under
    pyarrow and DuckDB, and the other columns keep the default encoding."""
    import duckdb

    from tsdat_ray.stages.writers import write_batch_partitioned

    t = pa.table({
        "source": ["w"] * 4, "day": ["2024-01-01"] * 4,
        "ts": pa.array(np.arange(4) * 1_000_000).cast(pa.timestamp("us")),
        "doc_id": ["a", "b", "c", "d"],
        "tokens": pa.array([[0, 50256, 7], [], None, [50256, 0]], pa.list_(pa.int32())),
        "sel": pa.array([{"i": [1, 2]}, None, {"i": []}, {"i": [3]}],
                        pa.struct([("i", pa.list_(pa.int64()))])),
        "m": pa.array([[("k", 1)], [], None, [("k", 2), ("j", 3)]], pa.map_(pa.string(), pa.int32())),
    })
    path = write_batch_partitioned(t, str(tmp_path), ts_col="ts")["path"][0].as_py()
    body = t.drop_columns(["source", "day"])
    assert pq.read_table(path).equals(body)
    con = duckdb.connect()
    got = con.execute(f"SELECT * FROM read_parquet('{path}') ORDER BY ts").arrow()
    assert got["tokens"].to_pylist() == body["tokens"].to_pylist()
    assert got["sel"].to_pylist() == body["sel"].to_pylist()
    assert got["m"].to_pylist() == body["m"].to_pylist()

    enc = _chunks(path)
    assert enc.pop("tokens.list.element") == (("RLE", "DELTA_BINARY_PACKED"), False)
    pq.write_table(body, str(tmp_path / "default.parquet"))
    default = _chunks(str(tmp_path / "default.parquet"))
    default.pop("tokens.list.element")
    assert enc == default  # nested int lists and map leaves keep their dictionary


def test_store_token_ids_delta_packed(ray_session, corpus, tmp_path):
    """In every raw/t1m/t1h/t1d file of a run the token ids are
    DELTA_BINARY_PACKED with no dictionary page; every other column is
    encoded as a default write of the same rows encodes it."""
    import glob

    out = str(tmp_path / "s")
    run_pipeline(corpus, PipelineConfig(out_root=out, resume=False))
    for tier in ("raw", "t1m", "t1h", "t1d"):
        files = glob.glob(f"{out}/{tier}/*/*/*.parquet")
        assert files, tier
        for f in files:
            enc = _chunks(f)
            assert enc.pop("tokens.list.element") == (("RLE", "DELTA_BINARY_PACKED"), False), f
            pq.write_table(pq.read_table(f), str(tmp_path / "default.parquet"))
            default = _chunks(str(tmp_path / "default.parquet"))
            assert default.pop("tokens.list.element")[1]  # the old dictionary page
            assert enc == default, f


def test_cascade_builds_no_dataset(ray_session, corpus, tmp_path, monkeypatch):
    """``_cascade`` runs plain Ray tasks and builds no Ray Data Dataset, on a
    fresh run and on a resume whose disk feed rebuilds one t1h partition
    (equal to the fresh one); the global DataContext is left as it was."""
    import ray.data as rd
    from ray.data import DataContext

    ctx = DataContext.get_current()
    before = vars(ctx).copy()

    def refuse(*a, **kw):
        raise AssertionError("the flagship graph built a Ray Data Dataset")

    for owner, name in ((rd, "from_items"), (rd.Dataset, "take_all"), (rd.Dataset, "__init__")):
        monkeypatch.setattr(owner, name, refuse)
    out = str(tmp_path / "s")
    run_pipeline(corpus, PipelineConfig(out_root=out, resume=False))
    man = Manifest(out)
    fresh = Manifest(str(tmp_path / "fresh"))
    shutil.copytree(out, fresh.root)
    part = sorted(man.completed("t1h"))[0]
    man.invalidate("t1h", [part])
    stats = run_pipeline(corpus, PipelineConfig(out_root=out))
    assert (stats["raw"]["new_partitions"], stats["1h"]["new_partitions"]) == (0, 1)
    _assert_same_partition(man, fresh, "t1h", part)
    assert DataContext.get_current() is ctx and vars(ctx) == before


def test_retention_pruned_raw_not_rebuilt(ray_session, corpus, tmp_path):
    """A run given ``now_us`` does not re-ingest the raw partitions an
    earlier prune removed while every later dir holds them (or prunes them
    too): it writes and prunes none.  A t1m partition of such a day that
    was invalidated is still rebuilt, equal to the fresh store's."""
    out = str(tmp_path / "store")
    cfg = PipelineConfig(out_root=out, retention_s={"raw": 86400, "1m": None, "1h": None, "1d": None})
    run_pipeline(corpus, cfg)
    fresh = Manifest(str(tmp_path / "fresh"))
    shutil.copytree(out, fresh.root)
    man = Manifest(out)
    days = sorted({Manifest.parse_partition(p)[1] for p in man.completed("raw")})
    now_us = int(np.datetime64(days[-1], "us").astype("int64")) + 86400 * US
    first = run_pipeline(corpus, cfg, now_us=now_us)["retention"]["pruned"]["raw"]
    assert first == len([p for p in fresh.completed("raw") if not p.endswith(days[-1])]) > 0

    again = run_pipeline(corpus, cfg, now_us=now_us)
    assert again["raw"]["new_partitions"] == 0
    assert again["retention"]["pruned"].get("raw", 0) == 0

    old = sorted(p for p in man.completed("t1m") if not p.endswith(days[-1]))[0]
    assert man.invalidate("t1m", [old]) == 1
    stats = run_pipeline(corpus, cfg, now_us=now_us)
    assert (stats["1m"]["new_partitions"], stats["retention"]["pruned"]["raw"]) == (1, 1)
    _assert_same_partition(man, fresh, "t1m", old)

    # days t1m prunes as well: neither raw nor t1m is rebuilt for them
    both = PipelineConfig(out_root=out, retention_s={**cfg.retention_s, "1m": 86400})
    assert run_pipeline(corpus, both, now_us=now_us)["retention"]["pruned"]["t1m"] > 0
    again = run_pipeline(corpus, both, now_us=now_us)
    assert (again["raw"]["new_partitions"], again["1m"]["new_partitions"]) == (0, 0)
    assert again["retention"]["pruned"] == {}


def test_footer_plan_keeps_row_groups_it_cannot_place(tmp_path):
    """The unit plan skips a row group only when its footer places every
    row in a done (source, day): it keeps one without statistics, one
    holding two sources, one whose doc_ids do not parse as fixed-width
    indexes, one that reaches a day not done, and every row group when a
    customize hook may move rows."""
    from tsdat_ray.pipelines.rollup_pipeline import _plan_units
    from tsdat_ray.schema import NOMINAL_INTERVAL_S

    per_day = 86400 // NOMINAL_INTERVAL_S
    day0 = str(np.datetime64(int(EPOCH_US) // (86400 * US), "D"))
    day1 = str(np.datetime64(int(EPOCH_US) // (86400 * US) + 1, "D"))

    def write(name, sources, ids, **kw):
        pq.write_table(pa.table({"doc_id": ids, "tokens": pa.array([[1]] * len(ids), pa.list_(pa.int32())),
                                 "n_tok": pa.array([1] * len(ids), pa.int32()), "source": sources}),
                       str(tmp_path / "in" / name), **kw)

    os.makedirs(tmp_path / "in")
    first = [f"web-{i:08d}" for i in range(4)]           # day 0
    write("a_done.parquet", ["web"] * 4, first)
    write("b_nostats.parquet", ["web"] * 4, first, write_statistics=False)
    write("c_two_sources.parquet", ["web", "web", "news", "news"], first)
    write("d_unparsed.parquet", ["web"] * 4, ["web-0000000x", *first[1:]])
    write("e_widths.parquet", ["web"] * 4, [*first[:3], "web-100000000"])
    write("f_next_day.parquet", ["web"] * 2, [first[0], f"web-{per_day:08d}"])
    write("g_groups.parquet", ["web"] * 4, [*first[:2], f"web-{per_day:08d}", f"web-{per_day + 1:08d}"],
          row_group_size=2)
    cfg = PipelineConfig(out_root=str(tmp_path / "s"))
    done = frozenset([f"source=web/day={day0}", f"source=news/day={day0}"])
    units, total, est = _plan_units(str(tmp_path / "in"), cfg, done)
    assert total == 8
    assert [(os.path.basename(u["path"]), u["row_group"], u["rows"]) for u in units] == [
        ("b_nostats.parquet", 0, 4), ("c_two_sources.parquet", 0, 4),
        ("d_unparsed.parquet", 0, 4), ("e_widths.parquet", 0, 4),
        ("f_next_day.parquet", 0, 2), ("g_groups.parquet", 1, 2)]
    # rows a unit of known span holds are spread over the days not done;
    # the rest have no key
    d1 = int(EPOCH_US) // (86400 * US) + 1
    assert est == {None: 16.0, ("web", d1): pytest.approx(2.0)}
    assert len(_plan_units(str(tmp_path / "in"), cfg, done | {f"source=web/day={day1}"})[0]) == 4
    hooked = PipelineConfig(out_root=cfg.out_root, hooks={"customize": lambda b: b})
    assert len(_plan_units(str(tmp_path / "in"), hooked, done)[0]) == 8


def test_resume_over_complete_store_reads_no_input(ray_session, corpus, tmp_path, monkeypatch):
    """A resume over a store where every dir is complete plans no input
    unit, builds no clean feed and drains no Dataset."""
    import ray.data as rd

    out = str(tmp_path / "s")
    run_pipeline(corpus, PipelineConfig(out_root=out, resume=False))
    calls = []
    for fn in ("from_items", "read_parquet"):
        monkeypatch.setattr(rd, fn, lambda *a, _fn=fn, **kw: calls.append(_fn))
    stats = run_pipeline(corpus, PipelineConfig(out_root=out))
    assert calls == []
    assert {k: v["new_partitions"] for k, v in stats.items()} == dict.fromkeys(
        ("raw", "1m", "1h", "1d", "1m_enc"), 0)
    assert stats["raw"]["input_row_groups"]["read"] == stats["raw"]["input_rows_read"] == 0
    assert stats["raw"]["input_row_groups"]["total"] > 0


def test_reprocess_reads_only_row_groups_of_its_days(ray_session, tmp_path):
    """``reprocess_range`` over the corpus's last two days reads exactly the
    input row groups holding rows of those days, and the partitions it
    rebuilds in raw, t1m, t1h, t1d and t1m_enc are bit-equal to a fresh
    run's, raw's qc_ts included."""
    from tsdat_ray.pipelines.rollup_pipeline import reprocess_range
    from tsdat_ray.sources.declared import parquet_files
    from tsdat_ray.stages.standardize import doc_ts_us

    # 40k rows: the web source spans four days, the others fewer
    corpus = generate_sequences_parquet(str(tmp_path / "gen"), n_rows=40_000, seed=42)
    src = _rewrite_corpus(corpus, str(tmp_path / "c"), 2_000)
    fresh = Manifest(str(tmp_path / "fresh"))
    run_pipeline(src, PipelineConfig(out_root=fresh.root, resume=False))
    out = str(tmp_path / "s")
    shutil.copytree(fresh.root, out)
    days = sorted({Manifest.parse_partition(p)[1] for p in fresh.completed("raw")})[-2:]
    lo = int(np.datetime64(days[0], "us").astype(np.int64))
    touching, rows, total = 0, 0, 0
    for f in parquet_files(src):
        pf = pq.ParquetFile(f)
        for k in range(pf.num_row_groups):
            ts = doc_ts_us(pf.read_row_group(k, columns=["doc_id"])["doc_id"]).to_numpy()
            total += 1
            if (ts >= lo).any():
                touching, rows = touching + 1, rows + pf.metadata.row_group(k).num_rows
    assert 0 < touching < total

    stats = reprocess_range(src, PipelineConfig(out_root=out, run_id="late"), lo, lo + 2 * 86400 * US)
    assert stats["raw"]["input_row_groups"] == {"read": touching, "total": total}
    assert stats["raw"]["input_rows_read"] == rows
    man = Manifest(out)
    for tier in STORE_DIRS:
        rebuilt = sorted(p for p in man.completed(tier) if Manifest.parse_partition(p)[1] in days)
        assert rebuilt and rebuilt == sorted(p for p in fresh.completed(tier)
                                             if Manifest.parse_partition(p)[1] in days), tier
        for part in rebuilt:
            _assert_same_partition(man, fresh, tier, part)


def _day_jump_corpus(path):
    """One ``web`` file, one row group, 144 rows on each of three days, in
    the order day 0, 40 rows of day 2, day 1, the rest of day 2: day 1's
    first row follows a day-2 row and is out of order.  Returns the three
    days and that row's sequence index."""
    from tsdat_ray.schema import NOMINAL_INTERVAL_S

    rng = np.random.default_rng(5)
    per_day = 86400 // NOMINAL_INTERVAL_S
    idx = [[k * per_day + j * 60 for j in range(144)] for k in range(3)]
    order = idx[0] + idx[2][:40] + idx[1] + idx[2][40:]
    toks = [rng.integers(0, 1000, rng.integers(1, 20)).tolist() for _ in order]
    os.makedirs(path)
    pq.write_table(pa.table({"doc_id": [f"web-{i:08d}" for i in order],
                             "tokens": pa.array(toks, pa.list_(pa.int32())),
                             "n_tok": pa.array([len(t) for t in toks], pa.int32()),
                             "source": ["web"] * len(order)}), os.path.join(path, "web.parquet"))
    epoch_day = int(EPOCH_US // (86400 * US))
    return [str(np.datetime64(epoch_day + k, "D")) for k in range(3)], order[184]


def test_early_skip_keeps_check_monotonic_of_rows_after_dropped_ones(ray_session, tmp_path):
    """The map task drops done rows inside standardize, after CheckMonotonic:
    reprocessing day 1 of a row group whose day-1 rows follow rows of done
    days, the first of them out of order against a dropped day-2 row,
    rebuilds raw (``qc_ts`` included) and every tier equal to a fresh run's,
    and that row keeps its flag.  A unit whose rows are all done yields
    empty tables of the same schema."""
    from tsdat_ray.pipelines.rollup_pipeline import _read_unit, reprocess_range
    from tsdat_ray.schema import QC_BIT_MONOTONIC

    corpus = str(tmp_path / "c")
    days, first = _day_jump_corpus(corpus)
    fresh = Manifest(str(tmp_path / "fresh"))
    run_pipeline(corpus, PipelineConfig(out_root=fresh.root, resume=False))
    assert sorted(fresh.completed("raw")) == [f"source=web/day={d}" for d in days]
    out = str(tmp_path / "late")
    shutil.copytree(fresh.root, out)
    lo = int(np.datetime64(days[1], "us").astype(np.int64))
    st = reprocess_range(corpus, PipelineConfig(out_root=out), lo, lo + 86400 * US)
    assert st["raw"]["new_partitions"] == 1 and st["raw"]["input_rows_read"] == 432
    part = f"source=web/day={days[1]}"
    raw = pq.read_table(Manifest(out).partition_dir("raw", part))
    assert raw.filter(pc.equal(raw["doc_id"], f"web-{first:08d}"))["qc_ts"].to_pylist() == \
        [QC_BIT_MONOTONIC]
    for tier in STORE_DIRS:
        _assert_same_partition(fresh, Manifest(out), tier, part)

    unit = {"path": os.path.join(corpus, "web.parquet"), "row_group": 0, "rows": 432}
    cfg = PipelineConfig(out_root=out)
    every = _read_unit(unit, cfg, {"raw": frozenset()}, {}, 1, None)
    parts = _read_unit(unit, cfg, {"raw": fresh.completed("raw")}, {}, 2, None)
    assert every.num_rows == 432 and [t.num_rows for t in parts] == [0, 0]
    assert all(t.schema == every.schema for t in parts)


def test_compact_tier_keeps_token_ids_delta_packed(ray_session, tmp_path):
    """The merge ``compact_tier`` writes keeps the token ids
    DELTA_BINARY_PACKED with no dictionary page, and the same rows."""
    import ray.data as rd

    from tsdat_ray.stages.writers import compact_tier, write_partitioned

    root = str(tmp_path / "store")
    n = 300
    rng = np.random.default_rng(5)
    tbl = pa.table({
        "ts": pa.array(np.sort(rng.integers(0, 86400, n)) * US).cast(pa.timestamp("us")),
        "source": ["a"] * n, "day": ["1970-01-01"] * n,
        "tokens": pa.array([list(rng.integers(0, 50257, int(k))) for k in rng.integers(0, 9, n)],
                           pa.list_(pa.int32())),
    })
    write_partitioned(rd.from_arrow(tbl).repartition(4), root + "/raw", ts_col="ts")
    man = Manifest(root)
    man.commit_partitions("raw", inputs=["synthetic"])
    pdir = man.partition_dir("raw", man.list_partition_dirs("raw")[0])
    before = pa.concat_tables(pq.read_table(os.path.join(pdir, f)) for f in sorted(os.listdir(pdir))
                              if f.endswith(".parquet"))
    assert compact_tier(root, "raw")["compacted"] == 1
    [merged] = [os.path.join(pdir, f) for f in os.listdir(pdir) if f.endswith(".parquet")]
    assert _chunks(merged)["tokens.list.element"] == (("RLE", "DELTA_BINARY_PACKED"), False)
    after = pq.read_table(merged).replace_schema_metadata(None)
    key = [("ts", "ascending")]
    assert after.sort_by(key).equals(before.replace_schema_metadata(None).sort_by(key))


def _sorted_frame(df):
    cols = sorted(c for c in df.columns if c != "tokens")
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_store_readers_see_only_committed_files(ray_session, tmp_path):
    """Every store reader returns the committed store's rows when the store
    dirs also hold what a killed run leaves behind: a complete and a torn
    temp copy of a part file, under the old (``<name>.tmp<pid>``) and the
    hidden (``.<name>.tmp<pid>``) naming, in every committed partition, and
    an uncommitted partition dir."""
    import contextlib
    import io

    import pandas as pd

    from tsdat_ray.__main__ import main
    from tsdat_ray.pipelines.rollup_pipeline import _enc_totals
    from tsdat_ray.pipelines.vap_pipeline import VapConfig, fetch_tier

    corpus = generate_sequences_parquet(str(tmp_path / "corpus"), n_rows=6000, seed=42)
    clean, dirty = str(tmp_path / "clean"), str(tmp_path / "dirty")
    run_pipeline(corpus, PipelineConfig(out_root=clean, run_id="c"))
    shutil.copytree(clean, dirty)
    man, ref = Manifest(dirty), Manifest(clean)
    tiers = Manifest.tier_names(("1m", "1h", "1d"), ("1m",))
    for tier in tiers:
        recs = man.latest(tier)
        for part, rec in recs.items():
            pdir = man.partition_dir(tier, part)
            f = rec["files"][0]
            data = open(os.path.join(pdir, f), "rb").read()
            for name in (f"{f}.tmp999", f".{f}.tmp999"):
                open(os.path.join(pdir, name), "wb").write(data)
                open(os.path.join(pdir, name + "1"), "wb").write(data[: len(data) // 2])
        part = min(recs)  # its rows again, as an uncommitted partition
        _, day = Manifest.parse_partition(part)
        shutil.copytree(man.partition_dir(tier, part),
                        man.partition_dir(tier, f"source=zz/day={day}"))

    for tier in tiers:
        a = ref.read_tier(tier).to_pandas()
        b = man.read_tier(tier).to_pandas()
        assert len(a) and len(b) == len(a), tier
        pd.testing.assert_frame_equal(_sorted_frame(a), _sorted_frame(b))
    assert _enc_totals(man, "t1m_enc") == _enc_totals(ref, "t1m_enc")

    lo = int(ref.read_tier("t1m").to_pandas()["bucket"].astype("int64").min())
    vap = dict(start_us=lo, end_us=lo + 2 * 86400 * US, interval_s=3600, source_tier="t1m",
               values=("n_tok_mean",))
    a = fetch_tier(VapConfig(store_root=clean, **vap)).to_pandas()
    b = fetch_tier(VapConfig(store_root=dirty, **vap)).to_pandas()
    assert len(a) and "zz" not in set(b["source"])
    pd.testing.assert_frame_equal(_sorted_frame(a), _sorted_frame(b))

    def report(root):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["report", "--out", root, "--tier", "t1m"]) == 0
        return json.loads(buf.getvalue())

    assert report(dirty) == report(clean)

    # the disk feed: a resume that rebuilds t1h reads t1m's committed files
    for m in (ref, man):
        m.invalidate("t1h", sorted(m.completed("t1h")))
        stats = run_pipeline(corpus, PipelineConfig(out_root=m.root, run_id="r"))
        assert stats["1h"]["new_partitions"] == len(m.completed("t1h")) > 0
        assert stats["raw"]["input_row_groups"]["read"] == 0
    pd.testing.assert_frame_equal(_sorted_frame(ref.read_tier("t1h").to_pandas()),
                                  _sorted_frame(man.read_tier("t1h").to_pandas()))


def test_commit_sweeps_hidden_temp_leftovers(tmp_path):
    """A commit deletes a committed partition's hidden temp leftovers
    (``.<name>.tmp<pid>``) and keeps every other file (an old-style temp
    name, sidecars); the record names only the part file."""
    root = str(tmp_path / "store")
    man = Manifest(root)
    pdir = man.partition_dir("raw", "source=a/day=2022-01-01")
    os.makedirs(pdir)
    pq.write_table(pa.table({"x": [1, 2]}), os.path.join(pdir, "part-1.parquet"))
    names = [".part-1.parquet.tmp123", "part-1.parquet.tmp123", ".part-1.parquet.merged",
             "_qc.json"]
    for n in names:
        open(os.path.join(pdir, n), "w").write("{}")
    [rec] = man.commit_partitions("raw", ["in"])
    assert rec.files == ["part-1.parquet"] and rec.rows == 2
    assert sorted(os.listdir(pdir)) == sorted(["part-1.parquet"] + names[1:])
    assert man.tier_files("raw") == [os.path.join(pdir, "part-1.parquet")]


def test_read_tier_hive_columns_only_below_tier_dir(ray_session, tmp_path):
    """A ``k=v`` dir above the store root is not a partition column: the
    tier read adds only ``source`` and ``day``, under a plain and a
    ``file://`` root."""
    root = str(tmp_path / "env=x" / "store")
    man = Manifest(root)
    pdir = man.partition_dir("t1m", "source=a/day=2022-01-01")
    os.makedirs(pdir)
    pq.write_table(pa.table({"x": [1, 2]}), os.path.join(pdir, "part-1.parquet"))
    man.commit_partitions("t1m", ["in"])
    for m in (man, Manifest(f"file://{root}")):
        got = m.read_tier("t1m").to_pandas()
        assert list(got.columns) == ["x", "source", "day"]
        assert got["source"].tolist() == ["a", "a"] and got["x"].tolist() == [1, 2]


def test_manifest_parses_each_appended_line_once(tmp_path, monkeypatch):
    """``records`` parses each appended line once across calls and appends;
    a log rewritten in place, shorter or at the same length, reads back
    exactly; a removed log reads as ``[]``."""
    from tsdat_ray.state import manifest as mf

    parsed = []
    loads = json.loads
    monkeypatch.setattr(mf.json, "loads", lambda s, **kw: parsed.append(s) or loads(s, **kw))
    man = Manifest(str(tmp_path / "store"))
    assert man.records() == [] and parsed == []
    want = []
    for i in range(6):
        rec = {"tier": "raw", "partition": f"source=a/day=2022-01-0{i + 1}", "rows": i,
               "committed_at": 1.0}
        man.append(rec)
        want.append(rec)
        assert man.records() == want and man.latest("raw").keys() == {r["partition"] for r in want}
    assert len(parsed) == len(want)  # one parse per line, over 12 reads
    assert Manifest(man.root).records() == want and len(parsed) == len(want)

    with open(man.path) as f:
        lines = f.readlines()
    with open(man.path, "w") as f:  # shorter: a resume test's forgotten record
        f.writelines(lines[:2] + lines[3:])
    assert man.records() == want[:2] + want[3:]
    same = lines[:-1] + [lines[-1].replace('"rows": 5', '"rows": 7')]
    assert len("".join(same)) == len("".join(lines))
    with open(man.path, "w") as f:  # same length, other bytes
        f.writelines(same)
    assert man.records() == want[:-1] + [dict(want[-1], rows=7)]
    with open(man.path, "a") as f:  # a torn last line is read, then completed
        f.write('{"tier": "t1m", "partition": "p"')
    with pytest.raises(json.JSONDecodeError):
        man.records()
    with open(man.path, "a") as f:
        f.write(', "rows": 1}\n')
    assert man.records()[-1] == {"tier": "t1m", "partition": "p", "rows": 1}
    os.remove(man.path)
    assert man.records() == [] and man.latest("raw") == {}
