"""The replica registry: placement, routing, fan-out, promotion.

A :class:`ReplicaSet` is attached to one :class:`~repro.core.tree.PIMZdTree`
(``tree.replicas``) and maps chunk root nids to the modules holding
*secondary* copies of that chunk.  The primary copy stays wherever
mastership says (``meta.module``); secondaries are extra read capacity
and failover cover.

**Placement** is deterministic and composes with the placement-override
machinery: secondary ``i`` of chunk ``nid`` lives at
``system.place(("replica", nid, i))``, rehashed past dead modules and
past modules already holding a copy of the same chunk (a duplicate copy
adds nothing).  Because it goes through :meth:`~repro.pim.PIMSystem.place`,
a recorded override for a replica key re-routes it like any other key,
and a dead target falls through to the deterministic rehash.

**Reads** route ``read-any``: the executor asks :meth:`read_modules` once
per round, one choice per chunk, and the least-loaded live copy answers
(deterministic tie-break by module id), using a routed-work counter the
ReplicaSet maintains itself — pure control-plane state, nothing charged.  Under
``primary-async`` a chunk with unflushed writes pins reads to the
primary (read-your-writes); ``write-all`` secondaries are always fresh.

**Writes** follow the configured policy: ``write-all`` fans each update
batch's words out to every live secondary inside the same BSP round the
primary's update messages travel in; ``primary-async`` accumulates
pending words per chunk and the serve loop flushes them (one charged
round under the ``"replicate"`` phase) whenever the oldest pending write
is older than the staleness bound — every flush records the staleness
actually incurred, surfaced in ``LatencyStats.replication``.

**Failover**: when a module dies, chunks it mastered promote their
smallest-mid live secondary to primary — a control-plane pointer swap
plus a placement override, *no* shard re-upload, which is the entire
point of keeping a live copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.relocate import PACK_CYCLES_PER_WORD, Move, relocate
from ..pim import CHARGE_PIM, CHARGE_SEND

__all__ = ["ReplicationConfig", "ReplicaSet", "WRITE_POLICIES"]

WRITE_POLICIES = ("write-all", "primary-async")


@dataclass(frozen=True)
class ReplicationConfig:
    """Replica count and write policy for one tree.

    ``k`` is the *total* number of copies including the primary; ``k=1``
    keeps single-copy semantics (the ReplicaSet becomes a no-op shell).
    ``staleness_bound_s`` only matters under ``"primary-async"``: the
    serve loop flushes pending secondary updates once the oldest pending
    write is at least this old, so no secondary ever serves data staler
    than the bound.
    """

    k: int = 2
    write_policy: str = "write-all"
    staleness_bound_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("replica count k must be >= 1")
        if self.write_policy not in WRITE_POLICIES:
            raise ValueError(
                f"unknown write policy {self.write_policy!r}; "
                f"choose from {WRITE_POLICIES}"
            )
        if self.staleness_bound_s < 0.0:
            raise ValueError("staleness_bound_s must be >= 0")


class ReplicaSet:
    """Registry + policies for K-way chunk replicas on one tree."""

    def __init__(self, tree, config: ReplicationConfig | None = None) -> None:
        self.tree = tree
        self.config = config if config is not None else ReplicationConfig()
        # chunk root nid → sorted tuple of secondary module ids.
        self._secondaries: dict[int, tuple[int, ...]] = {}
        # primary-async pending fan-out: nid → [words, oldest_write_clock].
        self._pending: dict[int, list[float]] = {}
        # Routed read work per module (control-plane load balancing state).
        self._routed: dict[int, float] = {}
        # Virtual clock (simulated seconds) — the serve loop keeps this
        # current so async writes can be aged against the staleness bound.
        self.clock = 0.0
        # Accounting surfaced through summary().
        self.writes_fanned = 0
        self.words_fanned = 0.0
        self.flushes = 0
        self.staleness_samples: list[float] = []
        self.promotions = 0
        tree.replicas = self

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def secondaries(self, meta) -> tuple[int, ...]:
        return self._secondaries.get(meta.root.nid, ())

    def live_secondaries(self, meta) -> tuple[int, ...]:
        dead = self.tree.system.dead_modules
        return tuple(m for m in self.secondaries(meta) if m not in dead)

    def copy_count(self, meta) -> int:
        """Live copies of ``meta`` including the primary."""
        return 1 + len(self.live_secondaries(meta))

    def can_clone(self, meta) -> bool:
        """May the rebalancer add another copy of ``meta``?"""
        return (self.copy_count(meta) < self.config.k
                and self.tree.system.n_live > self.copy_count(meta))

    def register(self, nid: int, dst: int) -> None:
        """Record module ``dst`` as holding a secondary copy of ``nid``."""
        cur = self._secondaries.get(int(nid), ())
        if int(dst) not in cur:
            self._secondaries[int(nid)] = tuple(sorted(cur + (int(dst),)))

    @property
    def n_replicated(self) -> int:
        return sum(1 for s in self._secondaries.values() if s)

    @property
    def total_copies(self) -> int:
        return sum(len(s) for s in self._secondaries.values())

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place_secondary(self, meta, index: int,
                        exclude: set[int] | None = None) -> int | None:
        """Deterministic module for secondary ``index`` of ``meta``.

        Goes through ``system.place`` (override- and fault-composing) and
        rehashes with an attempt counter past modules already holding a
        copy.  Returns ``None`` when no live module without a copy is
        left (k exceeds the live module count).
        """
        sys = self.tree.system
        nid = meta.root.nid
        taken = {meta.module} | set(self.secondaries(meta))
        if exclude:
            taken |= set(exclude)
        for attempt in range(4 * sys.n_modules):
            mid = sys.place(("replica", nid, index, attempt))
            if mid not in taken:
                return mid
        return None

    # ------------------------------------------------------------------
    # installation (charged)
    # ------------------------------------------------------------------
    def replicate_all(self) -> dict:
        """Bring every chunk up to ``k`` copies (charged, journaled).

        Plans one ``"clone"`` move per missing copy and installs them all
        in one :func:`~repro.core.relocate.relocate` round under the
        ``"replicate"`` phase — the same shape as a migration, minus the
        mastership change.
        """
        moves: list[Move] = []
        for meta in sorted(self.tree.metas, key=lambda m: m.root.nid):
            chosen: set[int] = set()
            while self.copy_count(meta) + len(chosen) < self.config.k:
                dst = self.place_secondary(
                    meta, len(self.secondaries(meta)) + len(chosen),
                    exclude=chosen)
                if dst is None:
                    break
                chosen.add(dst)
                moves.append(Move(meta, dst, "clone"))
        words = relocate(self.tree, moves, phase="replicate")
        return {"installed": len(moves), "words": words}

    # ------------------------------------------------------------------
    # read routing
    # ------------------------------------------------------------------
    def read_module(self, meta, weight: float = 1.0) -> int:
        """``read-any``: least-loaded live copy of ``meta`` (ties by mid).

        The load signal is the ReplicaSet's own routed-work counter —
        deterministic, host-side, charges nothing.  Under
        ``primary-async`` a chunk with unflushed writes reads from the
        primary only (read-your-writes within the staleness window).
        """
        primary = meta.module
        secs = self.live_secondaries(meta)
        if not secs or (self.config.write_policy == "primary-async"
                        and meta.root.nid in self._pending):
            return primary
        best = primary
        best_load = self._routed.get(primary, 0.0)
        for mid in secs:
            load = self._routed.get(mid, 0.0)
            if load < best_load or (load == best_load and mid < best):
                best, best_load = mid, load
        self._routed[best] = best_load + float(weight)
        return best

    def read_modules(self, groups) -> list[int]:
        """:meth:`read_module` of each ``(meta, tasks)`` group in turn,
        weighted by its task count: one loop over the round's groups, each
        choice seeing the routed load of the ones before it."""
        dead = self.tree.system.dead_modules
        secondaries = self._secondaries
        pinned = (self._pending if self.config.write_policy == "primary-async"
                  else ())
        routed = self._routed
        out = [0] * len(groups)
        for g, (meta, ts) in enumerate(groups):
            best = meta.module
            nid = meta.root.nid
            if nid in secondaries and nid not in pinned:
                best_load = routed[best] if best in routed else 0.0
                live = False
                for mid in secondaries[nid]:
                    if mid in dead:
                        continue
                    live = True
                    load = routed[mid] if mid in routed else 0.0
                    if load < best_load or (load == best_load and mid < best):
                        best, best_load = mid, load
                if live:
                    routed[best] = best_load + len(ts)
            out[g] = best
        return out

    def routing_state(self) -> dict[int, float]:
        """A copy of the routed-work counters (see :meth:`restore_routing`)."""
        return dict(self._routed)

    def restore_routing(self, state: dict[int, float]) -> None:
        """Roll the routed-work counters back to a :meth:`routing_state`
        copy: a round whose charging failed part-way replays only the
        reads it got to."""
        self._routed = dict(state)

    # ------------------------------------------------------------------
    # write fan-out
    # ------------------------------------------------------------------
    def fan_out(self, meta) -> tuple[int, ...]:
        """Where an update batch's write to ``meta`` goes besides the
        primary, in the batch's round (sharing its straggler max, like the
        L1 cache fan-out): the live secondaries under ``write-all``."""
        if self.config.write_policy != "write-all":
            return ()
        return self.live_secondaries(meta)

    def on_write(self, meta, words: float, sent: int = 0) -> None:
        """Record an update batch's ``words`` to ``meta`` once its primary
        send went through: under ``write-all``, ``sent`` of its
        :meth:`fan_out` sends went through too; under ``primary-async``
        the words pend until :meth:`flush` ships them, within the
        staleness bound."""
        secs = self.live_secondaries(meta)
        if not secs:
            return
        self.writes_fanned += 1
        if self.config.write_policy == "write-all":
            self.words_fanned += float(words) * sent
            return
        pend = self._pending.get(meta.root.nid)
        if pend is None:
            self._pending[meta.root.nid] = [float(words), self.clock]
        else:
            pend[0] += float(words)

    @property
    def pending(self) -> bool:
        """Are there unflushed ``primary-async`` writes?"""
        return bool(self._pending)

    def oldest_pending_s(self, now: float) -> float:
        """Age of the oldest unflushed async write (0.0 when clean)."""
        if not self._pending:
            return 0.0
        return max(0.0, now - min(t for _, t in self._pending.values()))

    def flush_due(self, now: float) -> bool:
        return (self._pending and
                self.oldest_pending_s(now) >= self.config.staleness_bound_s)

    def flush(self, now: float) -> dict:
        """Ship all pending async fan-out (one charged round).

        Runs under the ``"replicate"`` phase with faults suppressed.
        Each flushed chunk records the staleness its secondaries actually
        reached (``now - oldest pending write``) — the numbers behind the
        ``replication.staleness`` summary in the latency stats.
        """
        if not self._pending:
            return {"flushed": 0, "words": 0.0}
        tree = self.tree
        sys = tree.system
        by_nid = {m.root.nid: m for m in tree.metas}
        flushed = 0
        words_total = 0.0
        charges = []  # (kind, module, amount)
        with sys.phase("replicate"), sys.faults_suppressed():
            with sys.round():
                for nid in sorted(self._pending):
                    words, t0 = self._pending[nid]
                    meta = by_nid.get(nid)
                    if meta is None:
                        continue
                    for mid in self.live_secondaries(meta):
                        charges += (
                            (CHARGE_PIM, mid, words * PACK_CYCLES_PER_WORD),
                            (CHARGE_SEND, mid, words))
                        words_total += words
                    self.staleness_samples.append(max(0.0, now - t0))
                    flushed += 1
                if charges:
                    sys.charge_sequence(*zip(*charges))
        self._pending.clear()
        self.flushes += 1
        self.words_fanned += words_total
        return {"flushed": flushed, "words": float(words_total)}

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def on_module_dead(self, dead_mid: int) -> dict[int, int]:
        """React to ``dead_mid``'s decommission; returns promotions.

        For every chunk whose *primary* was on the dead module and which
        holds a live secondary, the smallest-mid live secondary is
        promoted (returned as ``{root_nid: new_primary_mid}`` — the
        caller repoints mastership and charges the control round).  Dead
        secondaries are dropped from the registry everywhere.
        """
        dead_mid = int(dead_mid)
        tree = self.tree
        by_nid = {m.root.nid: m for m in tree.metas}
        promotions: dict[int, int] = {}
        for nid in sorted(by_nid):
            meta = by_nid[nid]
            if meta.module != dead_mid:
                continue
            live = self.live_secondaries(meta)
            if live:
                promotions[nid] = live[0]
        for nid, secs in list(self._secondaries.items()):
            promoted = promotions.get(nid)
            kept = tuple(m for m in secs
                         if m != dead_mid and m != promoted)
            if kept != secs and nid in by_nid:
                tree.mark_placed(by_nid[nid])
            if kept:
                self._secondaries[nid] = kept
            else:
                del self._secondaries[nid]
        self.promotions += len(promotions)
        return promotions

    # ------------------------------------------------------------------
    # the tier protocol: residency, invariants, durability
    # ------------------------------------------------------------------
    MANIFEST_KEY = "replicas"

    def refresh(self) -> None:
        """Residency listener: drop the registry entries of the chunks the
        tree's feed retired (a chunk re-created under the same root keeps
        its copies).  The copies' words are booked by the tree's word
        ledger, from the registry, as the feed's chunks are re-read."""
        live, feed = self.tree.metas, self.tree.feed
        kept = {m.root.nid for m in feed.added if m in live}
        for meta in feed.retired:
            nid = meta.root.nid
            if meta not in live and nid not in kept:
                self._secondaries.pop(nid, None)
                self._pending.pop(nid, None)

    def check(self) -> None:
        """Assert that the registry names live chunks only, that no copy
        sits on its chunk's primary module, and that every pending write
        belongs to a registered chunk (``tree.check_invariants()``)."""
        primary = {m.root.nid: m.module for m in self.tree.metas}
        for nid, secs in self._secondaries.items():
            assert nid in primary, f"replica registry names retired chunk {nid}"
            assert primary[nid] not in secs, f"{nid} sits on its primary module"
        assert self._pending.keys() <= self._secondaries.keys(), (
            "pending replica write for an unregistered chunk")

    def to_manifest(self) -> dict:
        """Snapshot-manifest encoding (canonical: sorted keys)."""
        return {
            "k": int(self.config.k),
            "write_policy": self.config.write_policy,
            "staleness_bound_s": float(self.config.staleness_bound_s),
            "secondaries": {
                str(nid): [int(m) for m in mids]
                for nid, mids in sorted(self._secondaries.items())
            },
        }

    @classmethod
    def restore(cls, tree, doc: dict) -> "ReplicaSet":
        """Reattach the registry a snapshot manifest recorded and re-upload
        its copies (charged).  A copy on a module that died, or of a chunk
        the tree no longer has, is dropped (the rebalancer may re-clone
        it); the rest go back in one round, the primaries' bulk fan-out."""
        rs = cls(tree, ReplicationConfig(
            k=int(doc["k"]), write_policy=doc["write_policy"],
            staleness_bound_s=float(doc["staleness_bound_s"])))
        sys = tree.system
        by_nid = {m.root.nid: m for m in tree.metas}
        send_by: dict[int, float] = {}
        for nid, mids in sorted((int(nid), sorted(map(int, mids)))
                                for nid, mids in doc["secondaries"].items()):
            live = tuple(m for m in mids if m not in sys.dead_modules)
            if nid in by_nid and live:
                rs._secondaries[nid] = live
                for mid in live:
                    send_by[mid] = (send_by.get(mid, 0.0)
                                    + by_nid[nid].size_words(tree.config))
        if send_by:
            with sys.round():
                sys.charge_sequence(CHARGE_SEND, list(send_by),
                                    list(send_by.values()))
        return rs

    def summary(self) -> dict:
        """Replication accounting for ``LatencyStats.replication``."""
        stale = self.staleness_samples
        return {
            "k": int(self.config.k),
            "write_policy": self.config.write_policy,
            "staleness_bound_s": float(self.config.staleness_bound_s),
            "chunks_replicated": int(self.n_replicated),
            "total_copies": int(self.total_copies),
            "writes_fanned": int(self.writes_fanned),
            "words_fanned": float(self.words_fanned),
            "flushes": int(self.flushes),
            "promotions": int(self.promotions),
            "staleness": {
                "n": len(stale),
                "max_s": max(stale) if stale else 0.0,
                "mean_s": sum(stale) / len(stale) if stale else 0.0,
            },
        }
