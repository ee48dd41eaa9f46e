"""Pluggable storage backends for the durable tier.

Both backends expose the same tiny interface — content-addressed blobs,
one manifest slot, and a single append-only WAL byte stream:

* :class:`FileBackend` — a directory: one file per blob, ``MANIFEST.json``,
  and ``wal.log`` appended with ``O_APPEND`` semantics.  The WAL is a
  plain file on purpose: the crash-matrix suite truncates it at arbitrary
  byte offsets to model torn writes.
* :class:`SQLiteBackend` — everything in one stdlib ``sqlite3`` database
  (blobs and WAL segments as BLOB rows).  ``wal_truncate`` rebuilds the
  segment rows from the truncated byte stream so the same torn-write
  tests run against it.

Backends store bytes; framing, checksums and replay semantics live in
:mod:`repro.store.wal` and :mod:`repro.store.snapshot`.
"""

from __future__ import annotations

import os
import sqlite3
from itertools import filterfalse
from operator import methodcaller
from pathlib import Path

__all__ = ["FileBackend", "SQLiteBackend", "open_backend"]

_IS_TMP = methodcaller("endswith", ".tmp")


class FileBackend:
    """Directory-of-files backend (the default)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.blob_dir = self.root / "blobs"
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.root / "MANIFEST.json"
        self.wal_path = self.root / "wal.log"

    # -- blobs ----------------------------------------------------------
    def put_blob(self, key: str, data: bytes) -> None:
        # Write-then-rename so a crash mid-write never leaves a partial
        # blob under its final (content-addressed) name.
        tmp = self.blob_dir / (key + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, self.blob_dir / key)

    def get_blob(self, key: str) -> bytes:
        return (self.blob_dir / key).read_bytes()

    def delete_blob(self, key: str) -> None:
        try:
            os.unlink(self.blob_dir / key)
        except FileNotFoundError:
            pass

    def list_blobs(self) -> list[str]:
        return sorted(filterfalse(_IS_TMP, os.listdir(self.blob_dir)))

    # -- manifest -------------------------------------------------------
    def put_manifest(self, data: bytes) -> None:
        tmp = self.root / "MANIFEST.json.tmp"
        tmp.write_bytes(data)
        os.replace(tmp, self.manifest_path)

    def get_manifest(self) -> bytes | None:
        try:
            return self.manifest_path.read_bytes()
        except FileNotFoundError:
            return None

    # -- WAL ------------------------------------------------------------
    def wal_append(self, data: bytes) -> None:
        with open(self.wal_path, "ab") as f:
            f.write(data)

    def wal_read(self) -> bytes:
        try:
            return self.wal_path.read_bytes()
        except FileNotFoundError:
            return b""

    def wal_reset(self, data: bytes = b"") -> None:
        tmp = self.root / "wal.log.tmp"
        tmp.write_bytes(data)
        os.replace(tmp, self.wal_path)

    def wal_truncate(self, n_bytes: int) -> None:
        """Keep only the first ``n_bytes`` of the WAL (torn-write tests)."""
        self.wal_reset(self.wal_read()[: int(n_bytes)])

    def close(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileBackend({str(self.root)!r})"


class SQLiteBackend:
    """Single-file stdlib ``sqlite3`` backend."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)
        self._db = sqlite3.connect(self.path)
        self._db.executescript(
            """
            CREATE TABLE IF NOT EXISTS blobs (
                key TEXT PRIMARY KEY, data BLOB NOT NULL);
            CREATE TABLE IF NOT EXISTS manifest (
                id INTEGER PRIMARY KEY CHECK (id = 0), data BLOB NOT NULL);
            CREATE TABLE IF NOT EXISTS wal (
                idx INTEGER PRIMARY KEY AUTOINCREMENT, data BLOB NOT NULL);
            """
        )
        self._db.commit()

    # -- blobs ----------------------------------------------------------
    def put_blob(self, key: str, data: bytes) -> None:
        self._db.execute(
            "INSERT OR REPLACE INTO blobs (key, data) VALUES (?, ?)",
            (key, sqlite3.Binary(data)),
        )
        self._db.commit()

    def get_blob(self, key: str) -> bytes:
        row = self._db.execute(
            "SELECT data FROM blobs WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            raise KeyError(key)
        return bytes(row[0])

    def delete_blob(self, key: str) -> None:
        self._db.execute("DELETE FROM blobs WHERE key = ?", (key,))
        self._db.commit()

    def list_blobs(self) -> list[str]:
        return sorted(
            r[0] for r in self._db.execute("SELECT key FROM blobs")
        )

    # -- manifest -------------------------------------------------------
    def put_manifest(self, data: bytes) -> None:
        self._db.execute(
            "INSERT OR REPLACE INTO manifest (id, data) VALUES (0, ?)",
            (sqlite3.Binary(data),),
        )
        self._db.commit()

    def get_manifest(self) -> bytes | None:
        row = self._db.execute(
            "SELECT data FROM manifest WHERE id = 0"
        ).fetchone()
        return None if row is None else bytes(row[0])

    # -- WAL ------------------------------------------------------------
    def wal_append(self, data: bytes) -> None:
        self._db.execute(
            "INSERT INTO wal (data) VALUES (?)", (sqlite3.Binary(data),)
        )
        self._db.commit()

    def wal_read(self) -> bytes:
        return b"".join(
            bytes(r[0])
            for r in self._db.execute("SELECT data FROM wal ORDER BY idx")
        )

    def wal_reset(self, data: bytes = b"") -> None:
        self._db.execute("DELETE FROM wal")
        if data:
            self._db.execute(
                "INSERT INTO wal (data) VALUES (?)", (sqlite3.Binary(data),)
            )
        self._db.commit()

    def wal_truncate(self, n_bytes: int) -> None:
        self.wal_reset(self.wal_read()[: int(n_bytes)])

    def close(self) -> None:
        self._db.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SQLiteBackend({self.path!r})"


def open_backend(kind: str, path: str | os.PathLike):
    """Factory: ``kind`` ∈ {"file", "sqlite"}."""
    if kind == "file":
        return FileBackend(path)
    if kind == "sqlite":
        return SQLiteBackend(path)
    raise ValueError(f"unknown backend kind {kind!r}")
