"""URI-addressable storage layer for writers + manifest.

Every root — a plain path, ``file://``, ``s3://``, ``gs://`` — resolves to
one ``pyarrow.fs`` filesystem (a plain path opens a ``LocalFileSystem``), so
each method has one body for every root (parity with the reference's
FileSystemS3 — tsdat/io/storage/file_system_s3.py:24+).  On
a multi-node cluster without shared NFS, an object-store root keeps tier
partitions off worker-local disks.

One publish rule for every write (``write_table_atomic``, ``write_bytes``,
``write_text``), chosen by the filesystem the root resolves to, not by how
the root is spelled: a local filesystem writes a hidden temp name
(``.<name>.tmp<pid>``) in the target directory and then moves it over the
final name, so a torn file can never be observed under a final name; an
object store gets a single PUT, which is already atomic at the object level.  Manifest appends on a local filesystem
are ``O_APPEND`` + ``fsync`` writes (durable at the record level).
"""

from __future__ import annotations

import os
import posixpath
import re

from pyarrow import fs as pafs

_URI_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*://")


def is_uri(root: str) -> bool:
    return bool(_URI_RE.match(root))


class StorageFS:
    """Minimal filesystem facade over ``pyarrow.fs``.  Every method accepts
    either fs-form paths (``self.join``) or root-form URIs
    (``self.join_root``) — URIs are normalized to fs-form on entry."""

    def __init__(self, root: str):
        if is_uri(root):
            self.root = root.rstrip("/")
            self.fs, self.path = pafs.FileSystem.from_uri(root)
        else:
            self.root = root
            self.fs, self.path = pafs.LocalFileSystem(), root
        self.local = isinstance(self.fs, pafs.LocalFileSystem)
        # "file:///tmp/x" → fs path "/tmp/x", prefix "file://"; plain → ""
        self.prefix = self.root[: len(self.root) - len(self.path)]

    def _n(self, p: str) -> str:
        """Normalize a root-form (URI) path to the fs-form this FS expects."""
        return p[len(self.prefix):] if p.startswith(self.prefix) else p

    # -------------------------------------------------------------- paths
    def join(self, *parts: str) -> str:
        """fs-form join (for use with this object's own methods)."""
        return posixpath.join(self.path, *parts)

    def join_root(self, *parts: str) -> str:
        """Root-form join: keeps the URI scheme, so the result works with
        ``ray.data.read_parquet`` / ``StorageFS(...)`` round-trips."""
        return posixpath.join(self.root, *parts)

    # ---------------------------------------------------------- directories
    def makedirs(self, path: str) -> None:
        self.fs.create_dir(self._n(path), recursive=True)

    def listdir(self, path: str) -> list[str]:
        """Names of immediate children (files and dirs); [] if absent."""
        try:
            infos = self.fs.get_file_info(pafs.FileSelector(self._n(path)))
        except OSError:
            return []
        return sorted(posixpath.basename(i.path) for i in infos)

    def isdir(self, path: str) -> bool:
        return self.fs.get_file_info(self._n(path)).type == pafs.FileType.Directory

    def rmtree(self, path: str) -> None:
        try:
            self.fs.delete_dir(self._n(path))
        except FileNotFoundError:
            pass

    def rmdir_if_empty(self, path: str) -> None:
        if self.isdir(path) and not self.listdir(path):
            self.fs.delete_dir(self._n(path))

    # --------------------------------------------------------------- files
    def exists(self, path: str) -> bool:
        return self.fs.get_file_info(self._n(path)).type != pafs.FileType.NotFound

    def remove_file(self, path: str) -> None:
        if self.exists(path):
            self.fs.delete_file(self._n(path))

    def rename(self, src: str, dst: str) -> None:
        """Replace ``dst`` with ``src`` (an atomic rename on local FS)."""
        self.fs.move(self._n(src), self._n(dst))

    def getsize(self, path: str) -> int:
        return self.fs.get_file_info(self._n(path)).size

    def _publish(self, path: str, write) -> None:
        """The one publish rule: ``write(fs_path)`` creates the file; local
        → the hidden temp name ``.<name>.tmp<pid>`` in the same directory,
        then ``move`` over the final name; object store → the final name
        directly (a single PUT is atomic).  Readers that skip names starting
        with ``.`` (Ray, pyarrow datasets, Spark) never see a temp file."""
        path = self._n(path)
        if not self.local:
            write(path)
            return
        head, name = posixpath.split(path)
        tmp = posixpath.join(head, f".{name}.tmp{os.getpid()}")
        write(tmp)
        self.fs.move(tmp, path)

    def write_table_atomic(self, table, path: str, compression: str = "snappy",
                           **options) -> None:
        """Publish ``table`` as one Parquet file under the publish rule;
        ``options`` go to ``pq.write_table`` (e.g. ``use_dictionary``,
        ``column_encoding``)."""
        import pyarrow.parquet as pq

        self._publish(path, lambda p: pq.write_table(
            table, p, compression=compression, filesystem=self.fs, **options))

    def write_bytes(self, path: str, data: bytes) -> None:
        """Publish raw bytes under the publish rule."""

        def put(p: str) -> None:
            with self.fs.open_output_stream(p, compression=None) as f:
                f.write(data)

        self._publish(path, put)

    def write_text(self, path: str, text: str) -> None:
        self.write_bytes(path, text.encode())

    def read_bytes(self, path: str) -> bytes:
        with self.fs.open_input_stream(self._n(path), compression=None) as f:
            return f.read()

    def read_text(self, path: str) -> str:
        return self.read_bytes(path).decode()

    def append_line(self, path: str, line: str) -> None:
        """Append one record line.  Local: O_APPEND + fsync (atomic at the
        record level).  Object store: pyarrow's append stream when the FS
        supports it, else read-modify-write (manifest appends happen only on
        the driver, serially, so RMW has no concurrent writers)."""
        path = self._n(path)
        if self.local:
            with open(path, "a") as f:
                f.write(line)
                f.flush()
                os.fsync(f.fileno())
            return
        try:
            with self.fs.open_append_stream(path, compression=None) as f:
                f.write(line.encode())
        except (NotImplementedError, OSError):
            prev = self.read_text(path) if self.exists(path) else ""
            with self.fs.open_output_stream(path, compression=None) as f:
                f.write((prev + line).encode())

    def read_table(self, paths, columns=None):
        """One Parquet file, or a non-empty list of files as one table (the
        ``k=v`` parts of their paths then add hive columns)."""
        import pyarrow.parquet as pq

        paths = self._n(paths) if isinstance(paths, str) else [self._n(p) for p in paths]
        return pq.read_table(paths, columns=columns, filesystem=self.fs)

    def parquet_num_rows(self, path: str) -> int:
        import pyarrow.parquet as pq

        with self.fs.open_input_file(self._n(path)) as f:
            return pq.ParquetFile(f).metadata.num_rows
