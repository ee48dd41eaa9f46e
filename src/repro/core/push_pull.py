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

import numpy as np

from ..faults.errors import FaultError
from ..pim.model import CHARGE_PIM, CHARGE_RECV, CHARGE_SEND
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

# The charge kinds of one pushed group in booking order, repeated for a
# round of up to 1024 groups (see PushPullExecutor._charge_round).
_GROUP_KINDS = np.tile(np.array([CHARGE_PIM, CHARGE_SEND, CHARGE_PIM,
                                 CHARGE_RECV], dtype=np.intp), 1024)


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
    (``on_host=False``) it returns three float64 arrays with one entry
    per group in ``groups`` order: the PIM ``cycles``, the ``recv`` words
    of the results (a ``RESULT_WORDS`` header per task included), and
    ``send``, the group's summed task ``send_words``.  The executor books
    them, after the dispatch cycles, in the round's one
    :meth:`~repro.pim.PIMSystem.charge_sequence` call.  On the host (the round's pulled groups) it returns the CPU ops
    of all groups, ``cpu_ops``, and ``touched``, the nid of every visited
    node in the order the host visits them: task by task, each task's
    nodes in right-first pre-order.  Every per-visit charge is
    integer-valued, so the aggregated float64 totals are byte-identical
    to per-element sums.  Either way the round's ``results`` come as
    ``(qid, value)`` and its emitted tasks in task order, each task's
    emissions in DFS order (emits happen at parent-visit time, parents in
    right-first pre-order, left child before right).
    """

    __slots__ = ("cycles", "recv", "send", "cpu_ops", "touched", "results",
                 "emits")

    def __init__(self) -> None:
        self.cycles = self.recv = self.send = None  # set at the modules
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
        prune: Callable[[list], list] | None = None,
    ) -> dict[int, list]:
        """Execute ``tasks`` (and everything they emit) to completion.

        Returns ``{qid: [results...]}``.  ``round_hook`` runs on the CPU
        after each round with the results accumulated so far — kNN uses it
        to merge candidate sets and tighten pruning radii between rounds.

        ``prune`` is the membership-filter group hook (repro.route),
        called once per round on the host after the pull decision and
        before read routing or any charge: it takes the round's
        ``(meta, tasks)`` groups and returns the kept ones, in the same
        order, with each group's kept tasks in task order and emptied
        groups dropped.  A dropped task's send is suppressed entirely.
        """
        results: dict[int, list] = defaultdict(list)
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
            groups = list(by_meta.items())
            if prune is not None:
                groups = prune(groups)
                if not groups:
                    break
            pushed = ([g for g in groups if g[0] not in pulled] if pulled
                      else groups)
            # The kernel is pure compute and runs before any charge.
            out = kernel(pushed, False) if pushed else None
            with self.sys.round():
                self._charge_round(groups, pulled, out)
            outs = [] if out is None else [out]

            # Pulled meta-nodes run through the same kernel on the host.
            pulled_items = [g for g in groups if g[0] in pulled] if pulled else []
            if pulled_items:
                self.pulled_metas += len(pulled_items)
                host = kernel(pulled_items, True)
                self.sys.charge_cpu(host.cpu_ops)
                self.sys.touch_cpu_blocks(
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

    def _charge_round(self, groups, pulled, out) -> None:
        """Book one round's groups with one charge sequence.

        Read routing comes first, one ``ReplicaSet.read_modules`` loop
        over the groups: with a ReplicaSet attached, a chunk's work may
        land on a replica module, one routing decision per (chunk,
        round), and each choice feeds the next through the routed load.
        A pushed group then books four elements — dispatch, its tasks'
        words, the kernel's cycles, the results — and a pulled group
        one, the fetch of its master storage (§3.3), padded with no-op
        zeros so element ``i`` belongs to group ``i // 4``.
        ``hot_hits`` and the task counters follow the
        booking.  When it raises at group ``j``, routing is rolled back
        and replayed for groups ``0..j``, and the counters take the
        groups before ``j`` plus ``j`` itself if pushed: what charging
        group by group leaves behind.
        """
        reps = self.tree.replicas
        if reps is None:
            mods = [m.module for m, _ in groups]
        else:
            routed = reps.routing_state()
            mods = reps.read_modules(groups)
        n = len(groups)
        amounts = np.zeros((n, 4))
        if pulled:
            is_pulled = np.fromiter((m in pulled for m, _ in groups), dtype=bool,
                                    count=n)
            cfg = self.config
            amounts[is_pulled, 3] = [m.size_words(cfg) for m, _ in groups
                                     if m in pulled]
            rows = ~is_pulled
        else:
            rows = slice(None)
        if out is not None:
            amounts[rows, 0] = PIM_TASK_DISPATCH_CYCLES
            amounts[rows, 1] = out.send
            amounts[rows, 2] = out.cycles
            amounts[rows, 3] = out.recv
        kinds = (_GROUP_KINDS[:4 * n] if 4 * n <= len(_GROUP_KINDS)
                 else np.resize(_GROUP_KINDS, 4 * n))
        try:
            self.sys.charge_sequence(
                kinds, np.array(mods, dtype=np.intp).repeat(4),
                amounts.reshape(-1))
        except FaultError as e:
            j = e.charge_index // 4
            if reps is not None:
                reps.restore_routing(routed)
                reps.read_modules(groups[:j + 1])
            done = groups[:j + (groups[j][0] not in pulled)]
            self._count(done, pulled)
            raise
        self._count(groups, pulled)
        self.rounds_executed += 1

    def _count(self, groups, pulled) -> None:
        """Book the groups' task counters and pushed ``hot_hits``."""
        n_pushed = n_pulled = 0
        for meta, ts in groups:
            k = len(ts)
            if meta in pulled:
                n_pulled += k
            else:
                n_pushed += k
                # Popularity signal for repro.balance victim selection:
                # count the tasks this meta drew onto its module.
                meta.hot_hits += k
        self.pushed_tasks += n_pushed
        self.pulled_tasks += n_pulled

    # ------------------------------------------------------------------
    def _decide_pulls(self, by_meta: dict[MetaNode, list[Task]]) -> set[MetaNode]:
        cfg = self.config
        if not cfg.push_pull:
            return set()
        # Both rules pull only a group larger than their threshold, so a
        # round with no such group pulls nothing.
        sizes = list(map(len, by_meta.values()))
        if max(sizes) <= min(cfg.pull_threshold_l1, cfg.pull_threshold_l2):
            return set()
        pulled: set[MetaNode] = set()

        # L1 rule (Alg. 1 step 2): pull hot meta-nodes while the busiest
        # module gets more than `factor`× the average load.
        l1_counts = {
            m: c for m, c in zip(by_meta, sizes) if m.layer == Layer.L1
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
        for m, c in zip(by_meta, sizes):
            if m.layer == Layer.L2 and c > k_l2:
                pulled.add(m)
        return pulled
