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

The log is also the store's file catalogue: each commit records its
partition's files, and every reader of a store dir goes through ``latest``,
``tier_files`` or ``read_tier``, so an uncommitted partition, a temp file or
a sidecar is never read.  Only the code that looks for what the log does not
know lists directories: ``wipe_uncommitted``, ``commit_partitions``, the
CLI's ``verify`` audit and ``compact_tier``'s crash recovery.

Appends are atomic at the record level (single JSON line, O_APPEND write from
the driver only — workers never touch the manifest).  The log is
append-only, so a reader parses each appended byte once per process:
``records`` keeps the lines it parsed and, while the file still starts with
them, parses only what was appended since (a run's graph plan and commits
call ``latest`` dozens of times)."""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import asdict, dataclass, field
from typing import Iterable

#: a temp file of ``StorageFS._publish`` that its writer never renamed
_LEFTOVER = re.compile(r"\..+\.tmp\d+")

#: per log path: the complete lines ``Manifest.records`` last parsed, and
#: their records; for the ``_PARSED_LOGS`` logs parsed last
_PARSED: dict[str, tuple[bytes, list[dict]]] = {}
_PARSED_LOGS = 16


def _parse_lines(data: bytes) -> list[dict]:
    return [json.loads(ln) for ln in data.splitlines() if ln.strip()]


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
        """Every record of the log, in append order.  The log only grows, so
        the process keeps, per log path, the complete lines it last parsed
        and their records, and parses only what follows them when the file
        still starts with those bytes; any other content (a shrunk or
        rewritten log) is parsed whole, and a missing log reads as ``[]``.
        The records are shared between calls: read them, do not mutate."""
        if not self.sfs.exists(self.path):
            _PARSED.pop(self.path, None)
            return []
        data = self.sfs.read_bytes(self.path)
        seen, recs = _PARSED.get(self.path, (b"", []))
        if not data.startswith(seen):
            seen, recs = b"", []
        cut = data.rfind(b"\n") + 1  # a torn last line is parsed, never kept
        if cut > len(seen):
            recs = recs + _parse_lines(data[len(seen):cut])
            _PARSED.pop(self.path, None)
            _PARSED[self.path] = (data[:cut], recs)
            if len(_PARSED) > _PARSED_LOGS:  # forget the least recently parsed log
                del _PARSED[next(iter(_PARSED))]
        return recs + _parse_lines(data[cut:])

    def latest(self, tier: str) -> dict[str, dict]:
        """``{partition: its latest record}`` of every committed partition of
        ``tier``: a ``pruned`` record drops its partition until a later
        commit records it again.  The one fold of the log every reader uses."""
        out: dict[str, dict] = {}
        for r in self.records():
            if r["tier"] != tier:
                continue
            if r.get("action") == "pruned":
                out.pop(r["partition"], None)
            else:
                out[r["partition"]] = r
        return out

    def completed(self, tier: str) -> set[str]:
        return set(self.latest(tier))

    def tier_files(self, tier: str, parts=None) -> list[str]:
        """Root-form paths of the files the manifest records for each
        committed partition of ``tier`` (all of them, or those of ``parts``),
        by partition name.  What a directory also holds — an uncommitted
        partition, a temp file, a sidecar — is not listed."""
        recs = self.latest(tier)
        keep = sorted(recs if parts is None else set(parts) & recs.keys())
        return [self.sfs.join_root(tier, p, f) for p in keep for f in recs[p]["files"]]

    def read_tier(self, tier: str, parts=None, columns=None):
        """The committed files of ``tier`` (``tier_files``) as one lazy Ray
        Dataset, at most one block per file; the hive ``source``/``day``
        string columns come from the paths below the tier dir (a ``k=v`` dir
        above the root adds no column).  An empty tier reads as an empty
        Dataset."""
        import ray.data as rd
        from ray.data.datasource import Partitioning

        files = self.tier_files(tier, parts)
        if not files:
            return rd.from_items([])
        hive = Partitioning("hive", base_dir=self.sfs._n(self.tier_dir(tier)))
        return rd.read_parquet([self.sfs._n(f) for f in files], filesystem=self.sfs.fs,
                               columns=columns, partitioning=hive,
                               override_num_blocks=len(files))

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
        """Root-form (URI-preserving) tier directory: a writer root.  Read
        a tier through ``read_tier``/``tier_files``, never by listing it."""
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
        partitions on the next resume.  A partition's leftover temp files
        (``.<name>.tmp<pid>``, ``StorageFS._publish``) of killed writers
        are deleted."""
        from concurrent.futures import ThreadPoolExecutor

        done = self.completed(tier)
        todo = [p for p in self.list_partition_dirs(tier) if p not in done]
        pdirs = {p: self.partition_dir(tier, p) for p in todo}
        listing = {p: self.sfs.listdir(pdirs[p]) for p in todo}
        for p in todo:
            for fn in listing[p]:
                if _LEFTOVER.fullmatch(fn):
                    self.sfs.remove_file(f"{pdirs[p]}/{fn}")
        files = {p: [fn for fn in listing[p] if fn.endswith(".parquet")] for p in todo}

        def stat_file(fp):
            return self.sfs.getsize(fp), self.sfs.parquet_num_rows(fp)

        paths = [f"{pdirs[p]}/{fn}" for p in todo for fn in files[p]]
        with ThreadPoolExecutor(max_workers=16) as ex:
            stats = dict(zip(paths, ex.map(stat_file, paths)))

        new = []
        for part in todo:
            st = [stats[f"{pdirs[part]}/{fn}"] for fn in files[part]]
            crc = 0
            for fn, (size, _) in zip(files[part], st):
                crc = zlib.crc32(f"{fn}:{size}".encode(), crc)
            qc = f"{pdirs[part]}/_qc.json"  # QC counter sidecar → lineage record
            rec = PartitionRecord(
                tier=tier,
                partition=part,
                inputs=sorted(inputs),
                qc_counts=json.loads(self.sfs.read_text(qc)) if "_qc.json" in listing[part] else {},
                rows=sum(n for _, n in st),
                bytes=sum(size for size, _ in st),
                files=files[part],
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
        """Latest commit wall-clock of a committed partition of ``tier``
        (parity: Storage.last_modified,
        /root/reference/tsdat/io/storage/file_system.py:85-141 — but from the
        commit log, not an mtime scan over every file)."""
        return max((r["committed_at"] for r in self.latest(tier).values()), default=None)

    def modified_since(self, tier: str, since: float) -> list[str]:
        """Partitions (re)committed after ``since`` — the incremental-
        processing hook (parity: Storage.modified_since): a downstream
        consumer re-processes exactly these."""
        return sorted(p for p, r in self.latest(tier).items() if r["committed_at"] > since)
