"""Failover: rebuild a dead module's shard from the host-resident index.

The simulator is functional — the canonical tree always lives in host
memory — so a module crash loses *placement*, not data: every meta-node
mastered on the dead module must be re-placed (salted hash with the dead
set excluded, see :meth:`repro.pim.PIMSystem.place`) and its shard
re-uploaded from the host copy.  This module only *plans* that — which
chunks promote a live secondary, which are rebuilt where; the moves are
executed and charged by :func:`repro.core.relocate.relocate` under the
``"recovery"`` phase, so recovery cost is visible in SimTime and in the
Fig. 6-style phase attribution exactly like any other work.
"""

from __future__ import annotations

__all__ = ["fail_over"]


def fail_over(tree, dead_mid: int) -> dict:
    """Decommission ``dead_mid`` and rebuild its shard on live modules.

    Returns a summary dict: the dead module id, how many meta-nodes were
    re-placed and the total words re-uploaded.  Idempotent: failing over
    an already-dead module that masters nothing does nothing at all — no
    charge, no residency refresh, no journal record.
    """
    from ..balance.planner import choose_destination
    from ..core.relocate import Move, relocate

    sys = tree.system
    orphans = sorted(
        (m for m in tree.metas if m.module == dead_mid),
        key=lambda m: m.root.nid,
    )
    summary = {"module": int(dead_mid), "metas_moved": len(orphans),
               "words_moved": 0.0, "promoted": 0}
    if not orphans and dead_mid in sys.dead_modules:
        return summary
    sys.decommission(dead_mid)
    # Replica-aware fast path (repro.replicate): chunks mastered on the
    # dead module whose ReplicaSet holds a live secondary are *promoted* —
    # a control-plane pointer swap, no shard re-upload; the copy is
    # already resident.
    reps = tree.replicas
    promotions = reps.on_module_dead(dead_mid) if reps is not None else {}
    moves = []
    for meta in orphans:
        nid = meta.root.nid
        if nid in promotions:
            moves.append(Move(meta, promotions[nid], "promote"))
            continue
        # Capacity-aware re-placement: identical to the plain salted-hash
        # place() unless the hashed module's capacity budget would be
        # violated (repro.balance).
        dst = choose_destination(
            sys, ("meta", nid), words=meta.size_words(tree.config)
        )
        moves.append(Move(meta, dst, "rebuild"))
    summary["words_moved"] = relocate(tree, moves, phase="recovery")
    summary["promoted"] = len(promotions)
    if not moves:
        # Nothing was mastered here, but decommissioning dropped the
        # module's caches and secondaries: residency changed all the same.
        with sys.phase("recovery"), sys.faults_suppressed():
            tree.refresh_residency()
    # Journal the failover (self-committed control record) so a crash
    # after this point replays the same re-placement from the snapshot.
    if tree.journal is not None:
        tree.journal.log_failover(dead_mid)
    return summary
