"""Crash recovery: snapshot load + WAL replay, fully charged.

The UPMEM benchmarking studies are emphatic that CPU↔PIM (re)load cost
dominates restart paths, so recovery is *booked*, never hand-waved.  The
whole path runs under a **pinned** ``"recovery"`` phase
(``system.phase("recovery", pin=True)``): the snapshot read charges host
CPU + a DRAM stream of the image, the shards go back to the modules
through the tree's normal bulk-upload entry point (``_upload`` — the
same one-call send + L0 broadcast as a cold build), and each journaled
batch replays through the ordinary ``insert``/``delete`` code so its
per-module rounds, straggler maxima and comm words are exactly what the
original batch paid.  Pinning means the inner phases those code paths
open ("insert", "delete", "wal", …) do not relabel the charges — the
entire restart cost lands in the "recovery" bucket of the Fig. 6-style
breakdown and reconciles bit-exactly in the obs timeline.

Replay applies only *committed* batches (see :mod:`repro.store.wal`):
a batch whose COMMIT marker is missing from the valid prefix was still
in flight when the machine died, so the serving layer will retry it on
the recovered machine — skipping it here is what makes the retry
exactly-once.  Control records are self-committed and re-executed in log
order by the code that wrote them — FAILOVER through ``tree.fail_over``,
MIGRATE / REPLICATE through :func:`repro.core.relocate.relocate` — which,
because placement is a pure function of (key, seed, dead set, overrides)
and ``_batch_counter`` is restored from the manifest, reproduces the
pre-crash layout and charges exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.relocate import Move, relocate
from ..replicate import ReplicaSet
from ..route import RouteFilterSet
from .errors import WALCorruption
from .snapshot import SnapshotStore, decode_tree
from .wal import (
    COMMIT,
    DELETE,
    FAILOVER,
    INSERT,
    MIGRATE,
    REPLICATE,
    TornTail,
    committed_seqs,
    scan_wal,
)

__all__ = ["RecoveryResult", "recover"]

# Every serving tier a manifest can carry, in restore order.
_TIERS = (ReplicaSet, RouteFilterSet)


@dataclass
class RecoveryResult:
    """What a :func:`recover` call rebuilt and what it cost to replay."""

    tree: object
    system: object
    snapshot_seq: int          # WAL seq the snapshot covered
    max_seq: int               # highest seq seen anywhere (snapshot or WAL)
    wal_records: int           # valid records in the journal
    replayed: int              # records re-applied to the tree
    skipped_uncommitted: int   # batch records without a COMMIT marker
    torn_tail: TornTail | None # incomplete final append, if any
    snapshot_words: int        # image size charged on load
    events: list[dict] = field(default_factory=list)


def _decode_moves(tree, record) -> list[Move]:
    """A journaled MIGRATE / REPLICATE record as ``relocate`` moves."""
    kind, pairs = record.moves()
    by_nid = {m.root.nid: m for m in tree.metas}
    moves = [Move(by_nid[nid], dst, kind) for nid, dst in pairs
             if nid in by_nid]
    if kind == "clone":
        dead = tree.system.dead_modules
        moves = [mv for mv in moves if mv.dst not in dead]
        if moves and tree.replicas is None:
            # A REPLICATE record without a manifest registry can only come
            # from clones journaled before the first checkpoint: rebuild an
            # implicit registry so the copies exist after restart too.
            ReplicaSet(tree)
    return moves


def recover(backend, *, tracer=None, cost_model=None, validate=True
            ) -> RecoveryResult:
    """Rebuild the index from ``backend``'s snapshot + journal (charged).

    Builds a *fresh* :class:`~repro.pim.model.PIMSystem` from the
    manifest's recorded parameters, so every counter on the returned
    system is restart cost — the harness converts ``stats.total``
    straight into the time-to-first-query number.

    Raises :class:`~repro.store.errors.SnapshotCorruption` /
    :class:`~repro.store.errors.WALCorruption` rather than ever loading a
    silently corrupt index; a torn final WAL append is tolerated and
    reported in the result.
    """
    from ..pim.model import PIMSystem

    image = SnapshotStore(backend).load_image()
    man = image.manifest
    sysman = man["system"]

    caps = sysman["module_capacity_words"]
    cap0 = next((c for c in caps if c is not None), None)
    system = PIMSystem(
        int(sysman["n_modules"]),
        llc_bytes=int(sysman["llc_bytes"]),
        module_capacity_words=cap0,
        seed=int(sysman["seed"]),
        tracer=tracer,
    )
    if cap0 is not None:
        # Restore per-module capacities exactly.
        for m, c in zip(system.modules, caps):
            m.capacity_words = c

    # Journal scan happens before any charge: a corrupt WAL must refuse
    # recovery outright, not after half a restart was booked.
    records, torn = scan_wal(backend.wal_read())
    snapshot_seq = int(man["wal_seq"])
    committed = committed_seqs(records)

    events: list[dict] = []
    replayed = 0
    skipped = 0
    max_seq = snapshot_seq
    with system.phase("recovery", pin=True):
        # Read the image off stable storage: scan + verify on the CPU,
        # stream the bytes through DRAM.
        snapshot_words = (image.total_bytes + 7) // 8
        system.charge_cpu(2 * snapshot_words)
        system.dram_stream(snapshot_words)
        tree = decode_tree(image, system, cost_model=cost_model)

        # Restore control-plane state recorded at snapshot time *before*
        # the upload, so shards are placed (and charged) on live modules.
        for mid in sysman["dead_modules"]:
            system.decommission(int(mid))
        for key_hex, mid in sysman["placement_overrides"].items():
            system._place_overrides[bytes.fromhex(key_hex)] = int(mid)

        # Re-upload the shards through the normal bulk entry point: the
        # same one-call fan-out + L0 broadcast a cold build pays.
        tree._upload()

        # Restore the serving tiers recorded at snapshot time *before*
        # replay, replicas first: the replica registry drops copies on
        # dead modules and re-uploads the rest (one round), the filters
        # reattach empty.  The refresh then books the restored residency
        # and builds the filters from it (a pure function of keys + seed,
        # so they match the pre-crash filters bit-for-bit); the replayed
        # batches maintain both exactly as the originals did.  Every
        # charge lands in the pinned "recovery" phase.
        for tier in _TIERS:
            if tier.MANIFEST_KEY in man:
                tier.restore(tree, man[tier.MANIFEST_KEY])
        tree.refresh_residency()

        # Replay the journal suffix in log order.
        for r in records:
            max_seq = max(max_seq, r.seq)
            if r.seq <= snapshot_seq or r.kind == COMMIT:
                continue
            if r.kind == INSERT:
                if r.seq in committed:
                    tree.insert(r.points())
                    replayed += 1
                else:
                    skipped += 1
                    events.append({"kind": "skip_uncommitted", "seq": r.seq,
                                   "record": "insert"})
            elif r.kind == DELETE:
                if r.seq in committed:
                    tree.delete(r.points())
                    replayed += 1
                else:
                    skipped += 1
                    events.append({"kind": "skip_uncommitted", "seq": r.seq,
                                   "record": "delete"})
            elif r.kind == FAILOVER:
                mid = r.failover_mid()
                if mid not in system.dead_modules:
                    tree.fail_over(mid)
                replayed += 1
            elif r.kind in (MIGRATE, REPLICATE):
                relocate(tree, _decode_moves(tree, r), phase="recovery")
                replayed += 1
            else:
                raise WALCorruption(
                    r.offset, f"unknown record kind {r.kind}"
                )

    # The node arena decode_tree gave the tree (repro.core.vexec) stays:
    # replay kept it current, and no kernel reads its row numbering.
    if validate:
        tree.check_invariants()
    return RecoveryResult(
        tree=tree,
        system=system,
        snapshot_seq=snapshot_seq,
        max_seq=max_seq,
        wal_records=len(records),
        replayed=replayed,
        skipped_uncommitted=skipped,
        torn_tail=torn,
        snapshot_words=snapshot_words,
        events=events,
    )
