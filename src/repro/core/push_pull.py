"""Push-pull batched execution over meta-nodes (§3.3, Alg. 1).

PIM-zd-tree processes a batch of queries level by level *at meta-node
granularity*: each BSP round, every active query sits at some meta-node.
Per round the executor decides, per meta-node, whether to

* **push** — forward the queries to the PIM module mastering the meta-node
  and run the traversal there (charging that module's core), or
* **pull** — fetch the meta-node's *master* storage to the CPU (its cached
  descendants are deliberately excluded, §3.3) and run the traversal on
  the host, when the meta-node is contended enough that pushing would
  create a straggler.

Pull rules follow Alg. 1: L1 meta-nodes are pulled while the busiest
module holds more than ``pull_imbalance_factor``× the average load, taking
the meta-nodes with more than ``K = B·log_B(θ_L0/θ_L1)`` queries; L2
meta-nodes with more than ``K = B`` queries are always pulled.

Each task kind has one traversal, its *round kernel*
(:mod:`repro.core.vexec`), which runs at either site: once per round over
the pushed groups, and once more over the pulled groups on the host.  A
kernel traverses locally as far as the locality rules allow (an L1 module
sees every L1 descendant meta through its caches; a pulled meta on the
CPU sees only its own master nodes) and emits a follow-up :class:`Task`
for the next round when it crosses a boundary.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from typing import Callable

from .chunking import MetaNode
from .node import Layer, Node

__all__ = [
    "Task",
    "RoundOutput",
    "PushPullExecutor",
    "QUERY_WORDS",
    "RESULT_WORDS",
    "TRACE_WORDS",
]

QUERY_WORDS = 2  # morton key + query id
RESULT_WORDS = 2  # node address + flags
TRACE_WORDS = 3  # SEARCH segment start, segment end, counter-crossing node

# PIM-core constants (weak in-order cores, MRAM-latency dominated).
PIM_TASK_DISPATCH_CYCLES = 40
PIM_POINT_BASE_CYCLES = 6
PIM_BOX_TEST_CYCLES = 6
L0_PIM_CYCLES_PER_NODE = 10  # one replicated-L0 routing step
# CPU-side constants (match the baseline meters).
CPU_NODE_OPS = 6
CPU_POINT_BASE_OPS = 2
CPU_BOX_TEST_OPS = 4


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


class RoundOutput:
    """What a round kernel hands back to the executor.

    A round kernel, ``kernel(groups, on_host)``, processes every
    ``(meta, tasks)`` group that runs at one site in one BSP round in a
    single pass and charges nothing itself.  At the modules
    (``on_host=False``) it returns, per group in ``groups`` order, the PIM
    ``cycles`` and result ``recv`` words the executor then charges with
    one ``charge_pim``/``recv`` pair per meta.  On the host (the round's
    pulled groups) it returns the CPU ops of all groups, ``cpu_ops``, and
    ``touched``, the nid of every visited node in the order the host
    visits them: task by task, each task's nodes in right-first
    pre-order.  Every per-visit charge is integer-valued, so the
    aggregated float64 totals are byte-identical to per-element sums.
    Either way the round's ``results`` come as ``(qid, value)`` and its
    emitted tasks in task order, each task's emissions in DFS order
    (emits happen at parent-visit time, parents in right-first
    pre-order, left child before right).
    """

    __slots__ = ("cycles", "recv", "cpu_ops", "touched", "results", "emits")

    def __init__(self, n_groups: int) -> None:
        self.cycles: list[float] = [0.0] * n_groups
        self.recv: list[float] = [0.0] * n_groups
        self.cpu_ops = 0.0
        self.touched: list[int] = []
        self.results: list[tuple[int, object]] = []
        self.emits: list[Task] = []


Kernel = Callable[[list, bool], RoundOutput]


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
        kernel: Kernel,
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
        the task, suppressing its send entirely.
        """
        results: dict[int, list] = defaultdict(list)
        sys = self.sys
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
            pulled_items: list[tuple[MetaNode, list[Task]]] = []

            # The kernel is pure compute and runs before any charge; the
            # loop below then charges group by group, in by_meta order.
            pushed = [(m, ts) for m, ts in by_meta.items() if m not in pulled]
            outs: list[RoundOutput] = []
            if pushed:
                out = kernel(pushed, False)
                outs.append(out)
            gi = 0

            reps = self.tree.replicas
            with sys.round():
                for meta, ts in by_meta.items():
                    # Read routing: with a ReplicaSet attached, this round's
                    # work for the chunk may land on a replica module; one
                    # routing decision per (chunk, round).
                    mod = (meta.module if reps is None
                           else reps.read_module(meta, len(ts)))
                    if meta in pulled:
                        # Fetch only the master storage (§3.3); the
                        # traversal runs on the host after the round.
                        sys.recv(mod, meta.size_words(self.config))
                        pulled_items.append((meta, ts))
                        self.pulled_tasks += len(ts)
                        continue
                    self.pushed_tasks += len(ts)
                    # Popularity signal for repro.balance victim selection:
                    # count the tasks this meta drew onto its module.
                    meta.hot_hits += len(ts)
                    sys.charge_pim(mod, PIM_TASK_DISPATCH_CYCLES)
                    sys.send(mod, sum(t.send_words for t in ts))
                    sys.charge_pim(mod, out.cycles[gi])
                    sys.recv(mod, out.recv[gi] + RESULT_WORDS * len(ts))
                    gi += 1
                self.rounds_executed += 1

            # Pulled meta-nodes run through the same kernel on the host.
            if pulled_items:
                self.pulled_metas += len(pulled_items)
                host = kernel(pulled_items, True)
                sys.charge_cpu(host.cpu_ops)
                sys.touch_cpu_blocks(
                    zip(repeat("pimzd"), repeat("pulled"), host.touched))
                outs.append(host)

            frontier = []
            for o in outs:
                for qid, value in o.results:
                    results[qid].append(value)
                frontier += o.emits
            if round_hook is not None:
                round_hook(results)
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
