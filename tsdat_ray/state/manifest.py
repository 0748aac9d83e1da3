"""Per-partition lineage + checkpoint manifest.

The engine's resume story (north rule): every completed output partition
(tier, source, day) gets one JSONL record with its input fragments, row/byte
counts, QC counters and a content checksum.  On restart, completed partitions
are skipped and un-manifested partition directories are wiped before rewrite,
making the whole pipeline idempotently re-runnable mid-rollup.

This generalizes the reference's two incremental-processing mechanisms —
deterministic overwrite-on-rerun output paths
(/root/reference/tsdat/io/storage/file_system.py:161-179) and
``last_modified``/``modified_since`` mtime scans (file_system.py:85-141) —
into an explicit commit log, which is what a distributed, partially-failing
job needs.

Appends are atomic at the record level (single JSON line, O_APPEND write from
the driver only — workers never touch the manifest)."""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, field
from typing import Iterable


@dataclass
class PartitionRecord:
    tier: str
    partition: str  # "source=web/day=2022-04-05"
    inputs: list[str] = field(default_factory=list)
    rows: int = 0
    bytes: int = 0
    files: list[str] = field(default_factory=list)
    checksum: str = ""
    qc_counts: dict = field(default_factory=dict)
    run_id: str = ""
    wall_s: float = 0.0


class Manifest:
    """``root`` may be a plain path or a ``pyarrow.fs`` URI (file://, s3://);
    all filesystem access goes through state/uri.StorageFS."""

    def __init__(self, root: str):
        from .uri import StorageFS

        self.root = root
        self.sfs = StorageFS(root)
        self.path = self.sfs.join("_manifest.jsonl")

    def records(self) -> list[dict]:
        if not self.sfs.exists(self.path):
            return []
        out = []
        for line in self.sfs.read_text(self.path).splitlines():
            line = line.strip()
            if line:
                out.append(json.loads(line))
        return out

    def completed(self, tier: str) -> set[str]:
        done = set()
        for r in self.records():
            if r["tier"] == tier:
                if r.get("action") == "pruned":
                    done.discard(r["partition"])
                else:
                    done.add(r["partition"])
        return done

    def append(self, record: PartitionRecord | dict) -> None:
        import time as _time

        self.sfs.makedirs(self.sfs.path)
        rec = asdict(record) if isinstance(record, PartitionRecord) else dict(record)
        rec.setdefault("committed_at", _time.time())
        self.sfs.append_line(self.path, json.dumps(rec, default=str) + "\n")

    # ------------------------------------------------------------------ utils
    @staticmethod
    def tier_names(tiers: tuple[str, ...], encode_tiers: tuple[str, ...] = ()) -> list[str]:
        """The store's tier dirs: ``raw``, ``t<t>`` per rollup tier, then
        ``t<t>_enc`` per encoded tier that is also a rollup tier."""
        return (["raw"] + [f"t{t}" for t in tiers]
                + [f"t{t}_enc" for t in encode_tiers if t in tiers])

    @staticmethod
    def parse_partition(part: str) -> tuple[str, str]:
        """``"source=<s>/day=<d>"`` → ``(s, d)``."""
        src, day = part.split("/")
        return src.split("=", 1)[1], day.split("=", 1)[1]

    def tier_dir(self, tier: str) -> str:
        """Root-form (URI-preserving) tier directory — valid as a
        ``read_parquet`` source and as a writer root."""
        return self.sfs.join_root(tier)

    def partition_dir(self, tier: str, partition: str) -> str:
        return self.sfs.join_root(tier, partition)

    def list_partition_dirs(self, tier: str) -> list[str]:
        """Existing 'source=<s>/day=<d>' partition dirs under a tier."""
        base = self.tier_dir(tier)
        out = []
        for s in self.sfs.listdir(base):
            sdir = f"{base}/{s}"
            if not (s.startswith("source=") and self.sfs.isdir(sdir)):
                continue
            for d in self.sfs.listdir(sdir):
                if d.startswith("day=") and self.sfs.isdir(f"{sdir}/{d}"):
                    out.append(f"{s}/{d}")
        return out

    def wipe_uncommitted(self, tier: str) -> list[str]:
        """Delete partition dirs that exist on disk but have no manifest record
        (partial output from an interrupted run)."""
        done = self.completed(tier)
        wiped = []
        for part in self.list_partition_dirs(tier):
            if part not in done:
                self.sfs.rmtree(self.partition_dir(tier, part))
                wiped.append(part)
        # clean up empty source dirs
        base = self.tier_dir(tier)
        for s in self.sfs.listdir(base):
            self.sfs.rmdir_if_empty(f"{base}/{s}")
        return wiped

    def commit_partitions(
        self, tier: str, inputs: Iterable[str], run_id: str = "", wall_s: float = 0.0
    ) -> list[PartitionRecord]:
        """Scan newly-written partition dirs and append one record each.

        Row/byte counts come from parquet footers (no data read, scanned by
        a driver-side thread pool — the serial footer loop was ~1s of flat
        per-run cost on the scaling bench); the checksum is a crc32 over
        (file name, size) pairs — enough to detect partial or clobbered
        partitions on the next resume."""
        from concurrent.futures import ThreadPoolExecutor

        done = self.completed(tier)
        new = []
        todo = [p for p in self.list_partition_dirs(tier) if p not in done]
        listing = {p: self.sfs.listdir(self.partition_dir(tier, p)) for p in todo}

        def stat_file(arg):
            pdir, fn = arg
            fp = f"{pdir}/{fn}"
            return fn, self.sfs.getsize(fp), self.sfs.parquet_num_rows(fp)

        jobs = [(self.partition_dir(tier, p), fn)
                for p in todo for fn in listing[p] if fn.endswith(".parquet")]
        with ThreadPoolExecutor(max_workers=16) as ex:
            stats = dict(zip([j for j in jobs], ex.map(stat_file, jobs)))

        for part in todo:
            pdir = self.partition_dir(tier, part)
            files, rows, nbytes, crc = [], 0, 0, 0
            qc_counts: dict = {}
            for fn in listing[part]:
                if fn == "_qc.json":  # QC counter sidecar → lineage record
                    qc_counts = json.loads(self.sfs.read_text(f"{pdir}/{fn}"))
                    continue
                if not fn.endswith(".parquet"):
                    continue
                _, size, nrows = stats[(pdir, fn)]
                rows += nrows
                nbytes += size
                crc = zlib.crc32(f"{fn}:{size}".encode(), crc)
                files.append(fn)
            rec = PartitionRecord(
                tier=tier,
                partition=part,
                inputs=sorted(inputs),
                qc_counts=qc_counts,
                rows=rows,
                bytes=nbytes,
                files=files,
                checksum=f"{crc:08x}",
                run_id=run_id,
                wall_s=wall_s,
            )
            self.append(rec)
            new.append(rec)
        return new


    def invalidate(self, tier: str, partitions: list[str], reason: str = "reprocess") -> int:
        """Mark partitions stale (action=pruned record) and wipe their dirs so
        the next resume run recomputes exactly these — the engine's late-data
        story (§2.11): the reference reprocesses a date range by re-running
        it; here that becomes invalidate + resume, and every other partition
        stays committed and untouched."""
        done = self.completed(tier)
        n = 0
        for part in partitions:
            if part not in done:
                continue
            self.append({"tier": tier, "partition": part, "action": "pruned",
                         "reason": reason})
            self.sfs.rmtree(self.partition_dir(tier, part))
            n += 1
        return n

    # ------------------------------------------------------- ancillary files
    def save_ancillary_file(self, src_path: str, rel_target: str) -> str:
        """Publish one local file into ``<root>/ancillary/<rel_target>`` (any
        bytes: plots, reports, logs).  Parity: Storage.save_ancillary_file,
        /root/reference/tsdat/io/base/storage.py:230-250."""
        import posixpath

        with open(src_path, "rb") as f:
            data = f.read()
        target = self.sfs.join("ancillary", rel_target)
        self.sfs.makedirs(posixpath.dirname(target.replace("\\", "/")))
        self.sfs.write_bytes(target, data)
        return self.sfs.join_root("ancillary", rel_target)

    def uploadable_dir(self):
        """Context manager yielding a temp dir; on exit every file written
        under it is published to ``<root>/ancillary/`` (relative paths kept)
        and one manifest record lists the uploads.  Parity:
        Storage.uploadable_dir, io/base/storage.py:252-302."""
        import contextlib
        import os as _os
        import tempfile

        @contextlib.contextmanager
        def ctx():
            with tempfile.TemporaryDirectory() as tmp:
                yield tmp
                uploaded = []
                for dirpath, _dirs, files in _os.walk(tmp):
                    for fn in sorted(files):
                        full = _os.path.join(dirpath, fn)
                        rel = _os.path.relpath(full, tmp)
                        self.save_ancillary_file(full, rel.replace(_os.sep, "/"))
                        uploaded.append(rel.replace(_os.sep, "/"))
                if uploaded:
                    self.append({"tier": "ancillary", "partition": "",
                                 "files": uploaded, "rows": 0, "bytes": 0})

        return ctx()

    def last_modified(self, tier: str) -> float | None:
        """Latest commit wall-clock for a tier (parity: Storage.last_modified,
        /root/reference/tsdat/io/storage/file_system.py:85-141 — but from the
        commit log, not an mtime scan over every file)."""
        times = [
            r["committed_at"]
            for r in self.records()
            if r["tier"] == tier and r.get("action") != "pruned" and "committed_at" in r
        ]
        return max(times) if times else None

    def modified_since(self, tier: str, since: float) -> list[str]:
        """Partitions (re)committed after ``since`` — the incremental-
        processing hook (parity: Storage.modified_since): a downstream
        consumer re-processes exactly these."""
        out: dict[str, float] = {}
        for r in self.records():
            if r["tier"] != tier:
                continue
            if r.get("action") == "pruned":
                out.pop(r["partition"], None)
            elif "committed_at" in r:
                out[r["partition"]] = r["committed_at"]
        return sorted(p for p, t in out.items() if t > since)
