"""Append-only, checksummed update journal (the WAL).

Record framing (little-endian, see DESIGN.md):

    +--------+----------+----------+------------------------+
    | b"WALR"| u32 len  | u32 crc  | body (len bytes)       |
    +--------+----------+----------+------------------------+
    body = u64 seq | u8 kind | payload

``crc`` is ``zlib.crc32`` over the body.  Record kinds:

====== ========= ==========================================================
kind   name      payload
====== ========= ==========================================================
1      INSERT    u32 n, u32 dims, n*dims f64 points
2      DELETE    u32 n, u32 dims, n*dims f64 points
3      COMMIT    u64 target_seq — the batch with that seq completed
4      FAILOVER  u32 mid — module failed over (self-committed)
5      MIGRATE   u32 n, n × (u64 meta_root_nid, u32 dst) (self-committed)
6      REPLICATE u32 n, n × (u64 meta_root_nid, u32 dst) (self-committed)
====== ========= ==========================================================

MIGRATE and REPLICATE are the two *move-list* records, written by
:func:`repro.core.relocate.relocate` and replayed through it: a MIGRATE
pair is a ``"migrate"`` move (mastership goes to ``dst``), a REPLICATE
pair is a ``"clone"`` move (``dst`` gains a *secondary copy*, mastership
unchanged — the rebalancer cloning a hot chunk, or a ReplicaSet
installing its initial copies).

**Write-ahead + commit markers.**  ``insert_batch``/``delete_batch``
append their data record *before* mutating the tree and append the
COMMIT marker only after the batch fully applied.  Replay applies a
batch record only if its COMMIT marker is in the valid prefix — so a
machine kill mid-batch leaves an uncommitted tail that replay skips, and
the serving layer's retry on the recovered machine never double-applies.
Control records (FAILOVER, MIGRATE, REPLICATE) are appended after the
operation completed and are self-committed.

**Torn-tail vs. corruption.**  A crash can tear only the *last* append:
a short header, a body extending past end-of-file, or a checksum
mismatch on the final record are reported as a torn tail and the valid
prefix replays.  A checksum/framing failure with valid bytes *after* it
cannot be a torn append — :func:`scan_wal` raises
:class:`~repro.store.errors.WALCorruption` and recovery refuses to load.
(A corrupted length field that claims past end-of-file is indistinguishable
from a torn write without a resync scan; it is treated as a torn tail,
which can only drop records — never misapply them.)
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import WALCorruption

__all__ = [
    "INSERT", "DELETE", "COMMIT", "FAILOVER", "MIGRATE", "REPLICATE",
    "WALRecord", "TornTail", "encode_record", "scan_wal", "UpdateJournal",
]

_MAGIC = b"WALR"
_HEADER = struct.Struct("<4sII")   # magic, body length, crc32(body)
_BODY_HEAD = struct.Struct("<QB")  # seq, kind

INSERT = 1
DELETE = 2
COMMIT = 3
FAILOVER = 4
MIGRATE = 5
REPLICATE = 6

_KIND_NAMES = {INSERT: "insert", DELETE: "delete", COMMIT: "commit",
               FAILOVER: "failover", MIGRATE: "migrate",
               REPLICATE: "replicate"}
# Move-list record <-> the relocate() move kind it journals.
_MOVE_KINDS = {MIGRATE: "migrate", REPLICATE: "clone"}
_MOVE_RECORDS = {kind: rec for rec, kind in _MOVE_KINDS.items()}
_PAIR = struct.Struct("<QI")       # meta root nid, destination module


@dataclass(slots=True)
class WALRecord:
    """One decoded journal record."""

    seq: int
    kind: int
    payload: bytes
    offset: int  # byte offset of the frame start in the stream
    end: int     # byte offset one past the frame

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES.get(self.kind, f"kind{self.kind}")

    # -- payload decoders ----------------------------------------------
    def points(self) -> np.ndarray:
        """Decode an INSERT/DELETE payload into an (n, dims) array."""
        n, dims = struct.unpack_from("<II", self.payload, 0)
        pts = np.frombuffer(self.payload, dtype="<f8", count=n * dims,
                            offset=8)
        return pts.reshape(n, dims).copy()

    def commit_target(self) -> int:
        return struct.unpack_from("<Q", self.payload, 0)[0]

    def failover_mid(self) -> int:
        return struct.unpack_from("<I", self.payload, 0)[0]

    def moves(self) -> tuple[str, list[tuple[int, int]]]:
        """Decode a MIGRATE/REPLICATE payload: the ``relocate`` move kind
        and its ``(meta root nid, dst)`` pairs."""
        (n,) = struct.unpack_from("<I", self.payload, 0)
        pairs = [_PAIR.unpack_from(self.payload, 4 + i * _PAIR.size)
                 for i in range(n)]
        return _MOVE_KINDS[self.kind], pairs


@dataclass(slots=True)
class TornTail:
    """Report of an incomplete final append dropped by :func:`scan_wal`."""

    offset: int       # where the torn frame starts
    dropped_bytes: int
    reason: str


def encode_record(seq: int, kind: int, payload: bytes) -> bytes:
    body = _BODY_HEAD.pack(int(seq), int(kind)) + payload
    return _HEADER.pack(_MAGIC, len(body), zlib.crc32(body)) + body


def _points_payload(points: np.ndarray) -> bytes:
    pts = np.ascontiguousarray(points, dtype="<f8")
    n, dims = pts.shape
    return struct.pack("<II", n, dims) + pts.tobytes()


def scan_wal(raw: bytes) -> tuple[list[WALRecord], TornTail | None]:
    """Parse the journal stream into records plus an optional torn tail.

    Raises :class:`WALCorruption` on any mid-file integrity failure; see
    the module docstring for the exact torn-vs-corrupt rules.
    """
    records: list[WALRecord] = []
    off = 0
    total = len(raw)
    while off < total:
        rest = total - off
        if rest < _HEADER.size:
            return records, TornTail(off, rest, "truncated header")
        magic, body_len, crc = _HEADER.unpack_from(raw, off)
        if magic != _MAGIC:
            raise WALCorruption(off, "bad record magic (framing broken)")
        end = off + _HEADER.size + body_len
        if end > total:
            return records, TornTail(off, rest, "truncated body")
        body = raw[off + _HEADER.size : end]
        if zlib.crc32(body) != crc:
            if end == total:
                return records, TornTail(off, rest,
                                         "checksum mismatch at tail")
            raise WALCorruption(
                off, f"checksum mismatch with {total - end} valid bytes after"
            )
        if body_len < _BODY_HEAD.size:
            raise WALCorruption(off, "record body shorter than its header")
        seq, kind = _BODY_HEAD.unpack_from(body, 0)
        records.append(
            WALRecord(int(seq), int(kind), body[_BODY_HEAD.size:], off, end)
        )
        off = end
    return records, None


def committed_seqs(records: list[WALRecord]) -> set[int]:
    """Sequence numbers whose COMMIT marker is in the valid prefix."""
    return {r.commit_target() for r in records if r.kind == COMMIT}


class UpdateJournal:
    """The write-ahead journal attached to one :class:`PIMZdTree`.

    Appends are charged to the simulator under the ``"wal"`` phase
    (host CPU for the copy+checksum plus a DRAM-stream of the record
    words — the stand-in for the stable-storage write), so journaling
    overhead is visible in SimTime and the Fig. 6-style phase breakdown
    like every other cost.
    """

    def __init__(self, backend, *, system=None, start_seq: int = 1) -> None:
        self.backend = backend
        self.system = system
        self.next_seq = int(start_seq)
        # Records appended since the last checkpoint — the snapshot-cadence
        # gate in the serve loop skips checkpoints while this is zero.
        self.pending_records = 0

    # -- internals ------------------------------------------------------
    def _append(self, kind: int, payload: bytes, *, seq: int | None = None
                ) -> int:
        if seq is None:
            seq = self.next_seq
            self.next_seq += 1
        rec = encode_record(seq, kind, payload)
        if self.system is not None:
            words = (len(rec) + 7) // 8
            with self.system.phase("wal"):
                self.system.charge_cpu(2 * words)
                self.system.dram_stream(words)
        self.backend.wal_append(rec)
        self.pending_records += 1
        return seq

    # -- batch records (write-ahead, committed separately) --------------
    def log_insert(self, points: np.ndarray) -> int:
        return self._append(INSERT, _points_payload(points))

    def log_delete(self, points: np.ndarray) -> int:
        return self._append(DELETE, _points_payload(points))

    def commit(self, seq: int) -> None:
        self._append(COMMIT, struct.pack("<Q", int(seq)), seq=seq)

    # -- control records (self-committed) --------------------------------
    def log_failover(self, mid: int) -> int:
        return self._append(FAILOVER, struct.pack("<I", int(mid)))

    def log_moves(self, kind: str, pairs: list[tuple[int, int]]) -> int:
        """One move-list record: ``kind`` is the ``relocate`` move kind
        (``"migrate"`` or ``"clone"``), ``pairs`` its ``(meta root nid,
        destination module)`` list."""
        payload = struct.pack("<I", len(pairs)) + b"".join(
            _PAIR.pack(int(nid), int(dst)) for nid, dst in pairs
        )
        return self._append(_MOVE_RECORDS[kind], payload)
