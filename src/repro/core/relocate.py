"""The one door for chunk placement changes: :func:`relocate`.

The UPMEM benchmarking study's central lesson is that inter-module data
movement dominates, so changing where a chunk lives is never free.  Every
path that does it — rebalance migration and cloning (``repro.balance``),
the initial K-way install (``repro.replicate``), failover
(``repro.faults``) and the WAL replay of any of those (``repro.store``) —
plans a list of moves and hands it here, so what a move *charges*, what it
*mutates* and what it *journals* is decided in exactly one place.

A move is ``(meta, dst, kind)`` (:class:`Move`, or anything with those
three attributes, e.g. ``repro.balance.MigrationMove``):

========= ============================================ ========================
kind      charged, in this order                        mutation
========= ============================================ ========================
migrate   pack on src, ``recv`` the master copy off     ``meta.module = dst`` +
          it, unpack on dst, ``send`` master copy plus  placement override
          its L1 cache fan-out
clone     same, minus the fan-out (the master copy      ``replicas.register``
          and its caches stay put)
rebuild   host-DRAM stream of the shard, ``send``       ``meta.module = dst``
          master copy plus fan-out (src is dead)
promote   a 2-word mastership hand-off ``send`` (the    ``meta.module = dst`` +
          secondary copy is already resident)           placement override
========= ============================================ ========================

The whole list shares one BSP round, preceded by the host's re-placement
bookkeeping (``_CONTROL_CPU_OPS`` per move) and followed by one
``refresh_residency`` (each moved chunk is marked placed, so the residency
listeners re-book exactly those), all under ``phase`` with fault injection
suppressed — relocation rides the reliable control channel, so no
transfer drops.  Every move is charged, in one ``charge_sequence`` call,
before the first is applied: a move addressing a dead module raises
``ModuleFailure`` with no move applied.  With a journal attached, the
migrate moves are logged as one MIGRATE record and the clone moves as one
REPLICATE record (rebuilds and promotions are covered by the FAILOVER
record their planner writes).  Recovery replays those records by calling
this same function: the recovered tree has no journal yet, the pinned
``"recovery"`` phase overrides ``phase``, and the fresh system has no
fault plan, so no flag is needed to tell replay from live.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ..pim import CHARGE_PIM, CHARGE_RECV, CHARGE_SEND

__all__ = ["Move", "PACK_CYCLES_PER_WORD", "relocate"]

# PIM-core cycles per word to pack a shard on its source / unpack and
# re-link it on its destination (streaming copy on a weak core).
PACK_CYCLES_PER_WORD = 1
# Host-side placement hash + override/registry bookkeeping per move.
_CONTROL_CPU_OPS = 24
# Control words to repoint mastership at a promoted secondary.
_PROMOTE_WORDS = 2


class Move(NamedTuple):
    """One chunk placement change; see the module docstring for kinds."""

    meta: object  # the MetaNode
    dst: int
    kind: str  # "migrate" | "clone" | "rebuild" | "promote"


def relocate(tree, moves: Sequence, *, phase: str) -> float:
    """Execute ``moves`` against ``tree``; returns the shard words installed.

    An empty list is free: no phase is entered, no round is opened, no
    counter moves and nothing is journaled.
    """
    if not moves:
        return 0.0
    sys, cfg = tree.system, tree.config
    installed = 0.0
    charges = []  # (kind, module, amount), every move's in list order
    with sys.phase(phase), sys.faults_suppressed():
        sys.charge_cpu(len(moves) * _CONTROL_CPU_OPS)
        with sys.round():
            for mv in moves:
                meta, dst, kind = mv.meta, int(mv.dst), mv.kind
                if kind == "promote":
                    charges += ((CHARGE_SEND, dst, _PROMOTE_WORDS),)
                    continue
                words = meta.size_words(cfg)
                if kind == "rebuild":
                    sys.dram_stream(words)
                else:
                    pack = words * PACK_CYCLES_PER_WORD
                    charges += ((CHARGE_PIM, meta.module, pack),
                                (CHARGE_RECV, meta.module, words),
                                (CHARGE_PIM, dst, pack))
                total = words if kind == "clone" else meta.upload_words(cfg)
                charges += ((CHARGE_SEND, dst, total),)
                installed += total
            # Every move is charged before any is applied, so a dead
            # destination raises with the placement untouched.
            sys.charge_sequence(*zip(*charges))
            for mv in moves:
                meta, dst, kind = mv.meta, int(mv.dst), mv.kind
                tree.mark_placed(meta)
                if kind == "clone":
                    tree.replicas.register(meta.root.nid, dst)
                else:
                    meta.module = dst
                    if kind != "rebuild":
                        # Pin the chunk so re-chunking its region later
                        # keeps it here instead of snapping back to the
                        # salted hash.  (A rebuild's dst *is* the hash,
                        # unless its planner already pinned it.)
                        sys.set_placement_override(
                            ("meta", meta.root.nid), dst)
        tree.refresh_residency()
    journal = tree.journal
    if journal is not None:
        for kind in ("migrate", "clone"):
            pairs = [(mv.meta.root.nid, mv.dst) for mv in moves
                     if mv.kind == kind]
            if pairs:
                journal.log_moves(kind, pairs)
    return float(installed)
