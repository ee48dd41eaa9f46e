"""Push-pull batched execution over meta-nodes (§3.3, Alg. 1).

PIM-zd-tree processes a batch of queries level by level *at meta-node
granularity*: each BSP round, every active query sits at some meta-node.
Per round the executor decides, per meta-node, whether to

* **push** — forward the queries to the PIM module mastering the meta-node
  and run the per-query handler there (charging that module's core), or
* **pull** — fetch the meta-node's *master* storage to the CPU (its cached
  descendants are deliberately excluded, §3.3) and run the handler on the
  host, when the meta-node is contended enough that pushing would create a
  straggler.

Pull rules follow Alg. 1: L1 meta-nodes are pulled while the busiest
module holds more than ``pull_imbalance_factor``× the average load, taking
the meta-nodes with more than ``K = B·log_B(θ_L0/θ_L1)`` queries; L2
meta-nodes with more than ``K = B`` queries are always pulled.

Handlers receive an :class:`ExecContext` describing *where* they run and
charge through it; they traverse locally as far as the locality rules
allow (an L1 module sees every L1 descendant meta through its caches; a
pulled meta on the CPU sees only its own master nodes) and emit follow-up
:class:`Task`s for the next round when they cross a boundary.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from ..core.geometry import Metric
from .chunking import MetaNode
from .node import Layer, Node

__all__ = [
    "Task",
    "ExecContext",
    "RoundOutput",
    "PushPullExecutor",
    "QUERY_WORDS",
    "RESULT_WORDS",
]

QUERY_WORDS = 2  # morton key + query id
RESULT_WORDS = 2  # node address + flags

# PIM-core constants (weak in-order cores, MRAM-latency dominated).
PIM_TASK_DISPATCH_CYCLES = 40
PIM_LEAF_BASE_CYCLES = 16
PIM_POINT_BASE_CYCLES = 6
# CPU-side constants (match the baseline meters).
CPU_NODE_OPS = 6
CPU_POINT_BASE_OPS = 2


class Task:
    """One query's presence at one meta-node for the next round."""

    __slots__ = ("qid", "meta", "node", "payload", "send_words")

    def __init__(self, qid: int, meta: MetaNode, node: Node, payload=None,
                 send_words: float = QUERY_WORDS) -> None:
        self.qid = qid
        self.meta = meta
        self.node = node
        self.payload = payload
        self.send_words = send_words


class ExecContext:
    """Charging interface handed to handlers; binds one task execution."""

    __slots__ = ("_tree", "_sys", "meta", "on_cpu", "_module", "_emitted", "_results",
                 "qid")

    def __init__(self, tree, meta: MetaNode, on_cpu: bool, qid: int,
                 module: int | None = None) -> None:
        self._tree = tree
        self._sys = tree.system
        self.meta = meta
        self.on_cpu = on_cpu
        # Execution site: the mastering module unless read routing picked
        # a replica (repro.replicate) — then all charges land there.
        self._module = meta.module if module is None else module
        self._emitted: list[Task] = []
        self._results: list = []
        self.qid = qid

    # -- locality rules ---------------------------------------------------
    def local(self, node: Node) -> bool:
        """May the current execution site keep traversing into ``node``?"""
        if self.on_cpu:
            # Pulled execution sees only this meta-node's master nodes.
            return node.meta is self.meta
        if self.meta.layer == Layer.L1:
            # The module caches every L1 descendant meta-node (§3.1).
            return node.layer == Layer.L1
        return node.meta is self.meta

    # -- charging ---------------------------------------------------------
    def visit_node(self, node: Node) -> None:
        if self.on_cpu:
            self._sys.charge_cpu(CPU_NODE_OPS)
            self._sys.touch_cpu_block(("pimzd", "pulled", node.nid))
        else:
            cycles = node.meta.cycles_per_node(self._tree.config) if node.meta else 12
            self._sys.charge_pim(self._module, cycles)

    def scan_points(self, n_points: int, metric: Metric, dims: int) -> None:
        """Charge ``n_points`` distance evaluations under ``metric``."""
        if self.on_cpu:
            self._sys.charge_cpu(
                n_points * (CPU_POINT_BASE_OPS + metric.cpu_ops_per_dim * dims)
            )
        else:
            self._sys.charge_pim(
                self._module,
                n_points * (PIM_POINT_BASE_CYCLES + metric.pim_cycles_per_dim * dims),
            )

    def extra_work(self, cpu_ops: float, pim_cycles: float) -> None:
        """Charge handler-specific work (heap pushes, compares, …)."""
        if self.on_cpu:
            self._sys.charge_cpu(cpu_ops)
        else:
            self._sys.charge_pim(self._module, pim_cycles)

    def return_words(self, words: float) -> None:
        """Result payload shipped back to the CPU at round end."""
        if not self.on_cpu:
            self._sys.recv(self._module, words)

    # -- control flow -------------------------------------------------------
    def emit(self, task: Task) -> None:
        """Schedule ``task`` for the next round."""
        self._emitted.append(task)

    def result(self, value) -> None:
        self._results.append(value)


class RoundOutput:
    """What a *round kernel* hands back to the executor.

    A round kernel (``handler.round_kernel(groups)``, repro.core.vexec)
    processes every ``(meta, tasks)`` group pushed in one BSP round in a
    single pass and charges nothing itself.  It returns, per group in
    ``groups`` order, the PIM ``cycles`` and result ``recv`` words the
    executor then charges with one ``charge_pim``/``recv`` pair per meta
    — every scalar charge is integer-valued, so the aggregated float64
    totals are byte-identical to the per-element sums — plus the round's
    ``results`` as ``(qid, value)`` and its emitted tasks, both already
    in the scalar order: groups in ``groups`` order, tasks in group
    order, and within one task the scalar DFS emission order (emits
    happen at parent-visit time, parents in right-first pre-order, left
    child before right).
    """

    __slots__ = ("cycles", "recv", "results", "emits")

    def __init__(self, n_groups: int) -> None:
        self.cycles: list[float] = [0.0] * n_groups
        self.recv: list[float] = [0.0] * n_groups
        self.results: list[tuple[int, object]] = []
        self.emits: list[Task] = []


Handler = Callable[[Task, ExecContext], None]


class PushPullExecutor:
    """Runs a batch of tasks to completion, one meta-node level per round."""

    def __init__(self, tree) -> None:
        self.tree = tree
        self.sys = tree.system
        self.config = tree.config
        self.rounds_executed = 0
        self.pulled_metas = 0
        self.pushed_tasks = 0
        self.pulled_tasks = 0

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: list[Task],
        handler: Handler,
        *,
        round_hook: Callable[[dict[int, list]], None] | None = None,
        prune: Callable[[Task], bool] | None = None,
    ) -> dict[int, list]:
        """Execute ``tasks`` (and everything they emit) to completion.

        Returns ``{qid: [results...]}``.  ``round_hook`` runs on the CPU
        after each round with the results accumulated so far — kNN uses it
        to merge candidate sets and tighten pruning radii between rounds.

        ``prune`` is the membership-filter hook (repro.route): it runs on
        the host at frontier-formation time — before grouping, read
        routing, or any charge for the round — and returning True drops
        the task, suppressing its send entirely.  Both exec modes share
        this one site, so filter decisions are identical by construction.
        """
        results: dict[int, list] = defaultdict(list)
        # A round kernel (repro.core.vexec) processes every pushed group
        # of a round in one vectorized pass; pulled metas always take the
        # scalar per-task path (host-side execution is not the hot loop).
        round_kernel = (
            getattr(handler, "round_kernel", None)
            if self.config.exec_mode == "vectorized"
            else None
        )
        frontier = list(tasks)
        while frontier:
            by_meta: dict[MetaNode, list[Task]] = defaultdict(list)
            for t in frontier:
                by_meta[t.meta].append(t)
            # Push/pull decisions use the *offered* load — the frontier
            # before filtering.  Pruning a task then only ever removes its
            # send; it can never flip a straggler-avoidance pull into a
            # push (or vice versa), so a filtered round charges a strict
            # subset of the unfiltered round's communication and cycles.
            pulled = self._decide_pulls(by_meta)
            if prune is not None:
                by_meta = {
                    m: kept
                    for m, ts in by_meta.items()
                    if (kept := [t for t in ts if not prune(t)])
                }
                if not by_meta:
                    break
            next_frontier: list[Task] = []
            pulled_items: list[tuple[MetaNode, list[Task]]] = []

            # The kernel is pure compute and runs before any charge; the
            # loop below then charges group by group, in by_meta order.
            out = None
            if round_kernel is not None:
                pushed = [(m, ts) for m, ts in by_meta.items()
                          if m not in pulled]
                if pushed:
                    out = round_kernel(pushed)
            gi = 0

            reps = self.tree.replicas
            with self.sys.round():
                for meta, ts in by_meta.items():
                    # Read routing: with a ReplicaSet attached, this round's
                    # work for the chunk may land on a replica module; one
                    # routing decision per (chunk, round).
                    mod = (meta.module if reps is None
                           else reps.read_module(meta, len(ts)))
                    if meta in pulled:
                        # Fetch only the master storage (§3.3).
                        self.sys.recv(mod, meta.size_words(self.config))
                        # Queries stay on the CPU; execution happens below.
                        pulled_items.append((meta, ts))
                        self.pulled_tasks += len(ts)
                        continue
                    self.pushed_tasks += len(ts)
                    # Popularity signal for repro.balance victim selection:
                    # count the tasks this meta drew onto its module.
                    meta.hot_hits += len(ts)
                    self.sys.charge_pim(mod, PIM_TASK_DISPATCH_CYCLES)
                    if out is not None:
                        self.sys.send(
                            mod, sum(t.send_words for t in ts)
                        )
                        self.sys.charge_pim(mod, out.cycles[gi])
                        self.sys.recv(
                            mod, out.recv[gi] + RESULT_WORDS * len(ts)
                        )
                        gi += 1
                        continue
                    for t in ts:
                        self.sys.send(mod, t.send_words)
                        ctx = ExecContext(self.tree, meta, False, t.qid,
                                          module=mod)
                        handler(t, ctx)
                        ctx.return_words(RESULT_WORDS)
                        results[t.qid].extend(ctx._results)
                        next_frontier.extend(ctx._emitted)
                if out is not None:
                    for qid, value in out.results:
                        results[qid].append(value)
                    next_frontier.extend(out.emits)
                self.rounds_executed += 1

            # Pulled meta-nodes are searched on the host after the fetch.
            for meta, ts in pulled_items:
                self.pulled_metas += 1
                for t in ts:
                    ctx = ExecContext(self.tree, meta, True, t.qid)
                    handler(t, ctx)
                    results[t.qid].extend(ctx._results)
                    next_frontier.extend(ctx._emitted)

            if round_hook is not None:
                round_hook(results)
            frontier = next_frontier
        return results

    # ------------------------------------------------------------------
    def _decide_pulls(self, by_meta: dict[MetaNode, list[Task]]) -> set[MetaNode]:
        cfg = self.config
        if not cfg.push_pull:
            return set()
        pulled: set[MetaNode] = set()

        # L1 rule (Alg. 1 step 2): pull hot meta-nodes while the busiest
        # module gets more than `factor`× the average load.
        l1_counts = {
            m: len(ts) for m, ts in by_meta.items() if m.layer == Layer.L1
        }
        k_l1 = cfg.pull_threshold_l1
        while l1_counts:
            loads: dict[int, int] = defaultdict(int)
            for m, c in l1_counts.items():
                loads[m.module] += c
            total = sum(loads.values())
            mean = total / self.sys.n_modules
            busiest = max(loads.values())
            if busiest <= cfg.pull_imbalance_factor * max(mean, 1e-12):
                break
            hot = [m for m, c in l1_counts.items() if c > k_l1]
            if not hot:
                break
            for m in hot:
                pulled.add(m)
                del l1_counts[m]

        # L2 rule (Alg. 1 step 4): pull any meta-node with more than B
        # queries.
        k_l2 = cfg.pull_threshold_l2
        for m, ts in by_meta.items():
            if m.layer == Layer.L2 and len(ts) > k_l2:
                pulled.add(m)
        return pulled
