"""StorageFS: URI normalization, atomic publishes, append semantics."""

import numpy as np
import pyarrow as pa
import pytest

from tsdat_ray.state.uri import StorageFS, is_uri


def test_is_uri():
    assert is_uri("file:///tmp/x")
    assert is_uri("s3://bucket/key")
    assert not is_uri("/tmp/x")
    assert not is_uri("relative/path")


def test_plain_path_roundtrip(tmp_path):
    s = StorageFS(str(tmp_path))
    s.makedirs(s.join("a/b"))
    assert s.isdir(s.join("a")) and s.isdir(s.join("a/b"))
    s.write_text(s.join("a/t.txt"), "hello")
    assert s.read_text(s.join("a/t.txt")) == "hello"
    s.write_bytes(s.join("a/raw.bin"), b"\x00\x01")
    assert s.read_bytes(s.join("a/raw.bin")) == b"\x00\x01"
    assert s.getsize(s.join("a/raw.bin")) == 2
    assert s.listdir(s.join("a")) == ["b", "raw.bin", "t.txt"]
    s.append_line(s.join("log"), "one\n")
    s.append_line(s.join("log"), "two\n")
    assert s.read_text(s.join("log")) == "one\ntwo\n"


def test_file_uri_accepts_both_forms(tmp_path):
    root = f"file://{tmp_path}/store"
    s = StorageFS(root)
    s.makedirs(s.join("tier"))
    t = pa.table({"x": pa.array([1, 2, 3], pa.int32())})
    # root-form and fs-form paths both work on every method
    s.write_table_atomic(t, f"{root}/tier/p.parquet")
    assert s.exists(s.join("tier/p.parquet"))
    assert s.exists(f"{root}/tier/p.parquet")
    assert s.parquet_num_rows(f"{root}/tier/p.parquet") == 3
    assert s.join_root("tier") == f"{root}/tier"
    # read back through ray-style plain parquet open
    import pyarrow.parquet as pq

    back = pq.read_table(str(tmp_path / "store" / "tier" / "p.parquet"))
    assert back["x"].to_pylist() == [1, 2, 3]


def test_no_torn_files_on_local(tmp_path, monkeypatch):
    """Every publish on a local filesystem — plain path or ``file://`` —
    writes a temp name and moves it over the final name: an existing file is
    replaced (new inode), never truncated and rewritten in place, and only
    the final name remains."""
    import os

    import pyarrow.parquet as pq

    written = []
    real_write_table = pq.write_table

    def spy(table, where, *a, **kw):
        written.append(str(where))
        return real_write_table(table, where, *a, **kw)

    monkeypatch.setattr(pq, "write_table", spy)
    t = pa.table({"x": pa.array(np.arange(1000))})
    for root_kind in ("plain", "file_uri"):
        for kind in ("table", "text", "bytes"):
            d = tmp_path / root_kind / kind
            d.mkdir(parents=True)
            s = StorageFS(f"file://{d}" if root_kind == "file_uri" else str(d))
            final = d / "f.out"
            final.write_bytes(b"old")
            ino = os.stat(final).st_ino
            target = s.join_root("f.out")
            if kind == "table":
                written.clear()
                s.write_table_atomic(t, target)
                # the temp name is hidden, next to the target
                assert [os.path.basename(w) for w in written] == [f".f.out.tmp{os.getpid()}"]
                assert pq.read_table(str(final))["x"].to_pylist() == list(range(1000))
            elif kind == "text":
                s.write_text(target, "new")
                assert final.read_text() == "new"
            else:
                s.write_bytes(target, b"\x00new")
                assert final.read_bytes() == b"\x00new"
            assert os.stat(final).st_ino != ino, (root_kind, kind)
            # tmp file cleaned up; only the final name remains
            assert s.listdir(s.path) == ["f.out"]


def test_rmtree_and_rmdir(tmp_path):
    s = StorageFS(f"file://{tmp_path}")
    s.makedirs(s.join("d/e"))
    s.write_text(s.join("d/e/x"), "1")
    s.rmtree(s.join("d/e"))
    assert not s.exists(s.join("d/e"))
    s.rmdir_if_empty(s.join("d"))
    assert not s.exists(s.join("d"))


def test_csv_writer_hive_and_preamble(ray_session, tmp_path):
    import ray.data as rd

    from tsdat_ray.sources.csv_source import parse_preamble
    from tsdat_ray.stages.writers import write_csv

    t = pa.table(
        {
            "source": pa.array(["w", "w", "a"]),
            "day": pa.array(["2024-01-01"] * 3),
            "ts": pa.array(np.array([1, 2, 3], dtype=np.int64) * 1_000_000).cast(
                pa.timestamp("us")),
            "v": pa.array([1.5, 2.5, 3.5]),
        }
    )
    root = str(tmp_path / "csv")
    rows = write_csv(rd.from_arrow(t), root, ts_col="ts",
                     metadata={"datastream": "x.y", "level": "a1"})
    assert rows == 3
    import os

    part = os.path.join(root, "source=w", "day=2024-01-01")
    files = sorted(os.listdir(part))
    assert any(f.endswith(".csv") for f in files)
    assert "_header.hdr.csv" in files
    # A2e preamble variant roundtrips through the preamble reader
    from tsdat_ray.stages.writers import write_batch_csv

    root2 = str(tmp_path / "a2e")
    res = write_batch_csv(t, root2, ts_col="ts", preamble=True,
                          metadata={"datastream": "x.y", "level": "a1"})
    path = res["path"][0].as_py()
    attrs, skip = parse_preamble(path)
    assert attrs == {"datastream": "x.y", "level": "a1"}
    import pandas as pd

    body = pd.read_csv(path, skiprows=skip)
    assert list(body.columns) == ["ts", "v"]
    assert len(body) == 2  # source=w partition rows


def test_tombstones_read_through_store_filesystem(tmp_path, monkeypatch):
    """On an object-store root the tombstone files are read through the
    store's filesystem, not as local paths."""
    import types

    from pyarrow import fs as pafs

    from tsdat_ray.pipelines.rollup_pipeline import PipelineConfig, _tombstone_values
    from tsdat_ray.state import uri
    from tsdat_ray.state.manifest import Manifest

    mock = pafs._MockFileSystem()
    fake = types.SimpleNamespace(
        FileSystem=types.SimpleNamespace(from_uri=lambda u: (mock, u.split("://", 1)[1])),
        LocalFileSystem=pafs.LocalFileSystem, FileSelector=pafs.FileSelector,
        FileType=pafs.FileType)
    monkeypatch.setattr(uri, "pafs", fake)
    cfg = PipelineConfig(out_root="mock://bucket/store")
    sfs = Manifest(cfg.out_root).sfs
    sfs.makedirs(sfs.join("_tombstones"))
    sfs.write_table_atomic(pa.table({"doc_id": ["x1", "x2"]}), sfs.join("_tombstones", "tomb-a.parquet"))
    assert _tombstone_values(cfg).to_pylist() == ["x1", "x2"]
