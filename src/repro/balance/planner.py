"""Imbalance detection and migration planning (the control plane).

The planner turns a :class:`~repro.balance.HotnessTracker` signal into a
deterministic :class:`MigrationPlan`: which meta-nodes (the §3.2 chunks —
the unit of mastership) move off which hot modules to which cold ones,
bounded by a per-invocation word budget.  Victim selection uses the
push-pull executor's per-meta popularity counters (``MetaNode.hot_hits``)
to apportion a module's EWMA heat over its resident chunks; the hottest
chunk per module is *kept* (moving the single dominant chunk to the
coldest module would only relocate the straggler and ping-pong forever —
PIM-tree's skew argument), and the next-hottest movable chunks go to the
coldest projected destinations.

Over-capacity modules (``PIMSystem.over_capacity_modules``)
are *mandatory* sources: they are drained largest-chunk-first regardless
of heat, because Theorem 5.1's space bound is a correctness constraint,
not a performance preference.

Everything here is host-side control-plane arithmetic: planning charges
nothing, and a plan is a pure function of (tree, tracker state, config),
so two identical runs plan identical migrations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BalanceConfig",
    "MigrationMove",
    "MigrationPlan",
    "MigrationPlanner",
    "choose_destination",
    "inert_balance",
]


@dataclass(frozen=True)
class BalanceConfig:
    """Thresholds and budgets for the online rebalancer.

    The detector trips when the live modules' EWMA heat shows
    ``max/mean > ratio_threshold`` *or* ``gini > gini_threshold`` (with at
    least ``min_observed_cycles`` of total heat, so cold-start noise never
    migrates anything), or unconditionally while any module is over its
    capacity budget.  Each planner invocation moves at most ``max_moves``
    chunks and roughly ``budget_words`` words; the serve loop additionally
    caps cumulative rebalance time at ``budget_fraction`` of cumulative
    service time.
    """

    ratio_threshold: float = 1.5
    gini_threshold: float = 0.35
    min_observed_cycles: float = 1000.0
    budget_words: float = 65536.0
    budget_fraction: float = 0.05
    ewma_alpha: float = 0.3
    max_moves: int = 8
    min_keep: int = 1  # hottest chunks pinned per source module


def inert_balance() -> BalanceConfig:
    """A config whose thresholds can never trip (the do-nothing baseline).

    Used by tests to assert the acceptance property: with an inert config
    attached, every counter and golden stays byte-identical to a run with
    no balancer at all.
    """
    return BalanceConfig(
        ratio_threshold=float("inf"),
        gini_threshold=float("inf"),
        min_observed_cycles=float("inf"),
    )


@dataclass
class MigrationMove:
    """One chunk relocation (or clone): ``meta`` moves/copies ``src`` → ``dst``.

    ``kind`` is ``"migrate"`` (mastership moves, the only kind before
    replication existed) or ``"clone"`` (a *secondary copy* is installed
    on ``dst``; mastership and the master copy stay on ``src`` — only
    read heat moves, the K-way replication answer to a single mega-hot
    chunk that migration cannot split).
    """

    meta: object  # the MetaNode being relocated
    src: int
    dst: int
    words: float  # master-copy footprint (replica fan-out billed at exec)
    heat: float  # planner's heat estimate, folded back into the tracker
    mandatory: bool = False  # capacity drain (vs heat-driven)
    kind: str = "migrate"  # "migrate" | "clone"

    def to_dict(self) -> dict:
        return {
            "root_nid": int(self.meta.root.nid),
            "src": int(self.src),
            "dst": int(self.dst),
            "words": float(self.words),
            "heat": float(self.heat),
            "mandatory": bool(self.mandatory),
            "kind": self.kind,
        }


@dataclass
class MigrationPlan:
    """A deterministic, budget-bounded set of chunk relocations."""

    moves: list[MigrationMove] = field(default_factory=list)
    reason: dict = field(default_factory=dict)  # imbalance summary at plan time

    @property
    def total_words(self) -> float:
        return float(sum(mv.words for mv in self.moves))

    def to_dict(self) -> dict:
        return {
            "moves": [mv.to_dict() for mv in self.moves],
            "total_words": self.total_words,
            "reason": dict(self.reason),
        }


class MigrationPlanner:
    """Selects victims and destinations when the imbalance detector trips."""

    def __init__(self, tree, config: BalanceConfig | None = None) -> None:
        self.tree = tree
        self.config = config if config is not None else BalanceConfig()

    # ------------------------------------------------------------------
    def should_rebalance(self, tracker) -> bool:
        """Detector: capacity pressure always trips; heat needs thresholds."""
        if self.tree.system.over_capacity_modules():
            return True
        imb = tracker.imbalance()
        if imb["total"] < self.config.min_observed_cycles:
            return False
        return (imb["max_mean_ratio"] > self.config.ratio_threshold
                or imb["gini"] > self.config.gini_threshold)

    # ------------------------------------------------------------------
    def plan(self, tracker) -> MigrationPlan:
        """Build the migration plan for the current tracker state.

        Deterministic: every choice is keyed by (metric, root nid / module
        id), never by set/dict iteration order.
        """
        cfg = self.config
        sys = self.tree.system
        dead = sys.dead_modules
        live = [mid for mid in range(sys.n_modules) if mid not in dead]
        heat = tracker.hotness.astype(np.float64).copy()
        resid = sys.residency().astype(np.float64)

        by_module: dict[int, list] = defaultdict(list)
        for meta in self.tree.metas:
            by_module[meta.module].append(meta)
        for mid in by_module:
            by_module[mid].sort(key=lambda m: (-m.hot_hits, m.root.nid))

        plan = MigrationPlan(reason=tracker.imbalance())
        moved: set[int] = set()  # root nids already claimed by a move

        def capacity_of(mid: int) -> float | None:
            cap = sys.modules[mid].capacity_words
            return float(cap) if cap is not None else None

        def pick_dst(src: int, words: float,
                     exclude: set[int] | None = None) -> int | None:
            """Coldest live module with room, by (projected heat, mid).

            ``exclude`` rules out modules already holding a copy of the
            chunk (clone destinations must add a *new* copy).
            """
            best = None
            for mid in live:
                if mid == src:
                    continue
                if exclude is not None and mid in exclude:
                    continue
                cap = capacity_of(mid)
                if cap is not None and resid[mid] + words > cap:
                    continue
                key = (heat[mid], resid[mid], mid)
                if best is None or key < best[0]:
                    best = (key, mid)
            return None if best is None else best[1]

        def heat_estimate(src: int, meta) -> float:
            chunks = by_module[src]
            hits = sum(m.hot_hits for m in chunks)
            if hits > 0:
                share = meta.hot_hits / hits
            else:
                share = 1.0 / max(1, len(chunks))
            return float(heat[src]) * share

        def record(meta, src: int, dst: int, *, mandatory: bool,
                   kind: str = "migrate", heat_moved: float | None = None
                   ) -> None:
            words = float(meta.size_words(self.tree.config))
            h = heat_estimate(src, meta) if heat_moved is None else heat_moved
            plan.moves.append(
                MigrationMove(meta, src, dst, words, h,
                              mandatory=mandatory, kind=kind)
            )
            moved.add(meta.root.nid)
            heat[src] -= h
            heat[dst] += h
            if kind == "migrate":
                resid[src] -= words  # a clone's master copy stays put
            resid[dst] += words

        # -- mandatory capacity drains (largest chunks first) -------------
        for src in sys.over_capacity_modules():
            cap = capacity_of(src)
            assert cap is not None
            for meta in sorted(
                by_module[src],
                key=lambda m: (-m.size_words(self.tree.config), m.root.nid),
            ):
                if resid[src] <= cap:
                    break
                if len(plan.moves) >= cfg.max_moves:
                    break
                if plan.moves and plan.total_words >= cfg.budget_words:
                    break
                if meta.root.nid in moved:
                    continue
                words = float(meta.size_words(self.tree.config))
                dst = pick_dst(src, words)
                if dst is None:
                    break
                record(meta, src, dst, mandatory=True)

        # -- heat-driven moves (greedy makespan reduction) ----------------
        # Only the *projected-hottest* module is ever a source: moving
        # chunks off anyone else cannot lower the straggler, and doing so
        # anyway is exactly the ping-pong the min-keep rule exists to
        # prevent.  A move is emitted only when it strictly reduces the
        # src/dst pair's max — once no such move exists the plan is done,
        # so a balanced system plans (and charges) nothing.
        #
        # With a ReplicaSet attached, the pinned hottest chunk gains a
        # remedy migration never had: *clone* it.  A migration of the
        # dominant chunk would only relocate the straggler, but a clone
        # splits its read heat across one more copy (read-any routing), so
        # when the pinned chunk is still below its k copies and the split
        # strictly lowers the pair max, the planner emits a clone move.
        reps = self.tree.replicas

        def try_clone(src: int) -> bool:
            if reps is None or not by_module[src]:
                return False
            meta = by_module[src][0]  # the pinned hottest chunk
            if meta.root.nid in moved or meta.module != src:
                return False
            if not reps.can_clone(meta):
                return False
            words = float(meta.size_words(self.tree.config))
            holders = {meta.module} | set(reps.secondaries(meta))
            dst = pick_dst(src, words, exclude=holders)
            if dst is None:
                return False
            # Read-any splits the chunk's heat over copies+1 modules: the
            # source sheds the new copy's share.
            h_moved = heat_estimate(src, meta) / (reps.copy_count(meta) + 1)
            if h_moved <= 0.0 or heat[dst] + h_moved >= heat[src]:
                return False
            record(meta, src, dst, mandatory=False,
                   kind="clone", heat_moved=h_moved)
            return True

        while (len(plan.moves) < cfg.max_moves
               and (not plan.moves or plan.total_words < cfg.budget_words)):
            live_heat = np.array([heat[mid] for mid in live])
            mean = float(live_heat.mean())
            if mean <= 0.0:
                break
            if float(live_heat.max()) <= cfg.ratio_threshold * mean:
                break
            src = min(live, key=lambda m: (-heat[m], m))
            if try_clone(src):
                continue
            movable = [
                m for m in by_module[src][cfg.min_keep:]
                if m.root.nid not in moved
            ]
            if not movable:
                break
            meta = movable[0]
            words = float(meta.size_words(self.tree.config))
            dst = pick_dst(src, words)
            if dst is None:
                break
            h = heat_estimate(src, meta)
            if heat[dst] + h >= heat[src]:
                break  # no strict gain: stop instead of shuffling heat
            record(meta, src, dst, mandatory=False)
        return plan


def choose_destination(system, key, *, words: float = 0.0) -> int:
    """Capacity-aware placement for rebuild paths (failover re-placement).

    Defaults to the plain salted-hash :meth:`~repro.pim.PIMSystem.place`
    — byte-identical to the pre-balance failover layout — and only
    deviates when that module's capacity budget would be violated: then
    the least-loaded live module with room is chosen deterministically
    (ties by module id) and pinned via a placement override so later
    ``place()`` calls agree.  With ``capacity_words`` unset (the default)
    this *is* ``place()``.
    """
    mid = system.place(key)
    m = system.modules[mid]
    if m.capacity_words is None or m.used_words + words <= m.capacity_words:
        return mid
    best = None
    for cand in system.modules:
        if cand.failed:
            continue
        if (cand.capacity_words is not None
                and cand.used_words + words > cand.capacity_words):
            continue
        k = (cand.used_words, cand.mid)
        if best is None or k < best[0]:
            best = (k, cand.mid)
    if best is None:
        return mid  # everyone is over budget: keep the hash placement
    dst = best[1]
    if dst != mid:
        system.set_placement_override(key, dst)
    return dst
