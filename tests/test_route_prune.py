"""The route prunes, one array pass per round ≡ the per-task references.

``RouteFilterSet.make_knn_prune`` hands the push-pull executor a group
hook that decides a whole round at once: one radius per distinct query,
one ``encode_keys`` call for every cover whose radius moved, each task's
verdict from its group's chunk summary, one probe charge.
``tests/exec_oracle.make_knn_prune`` keeps the per-task prune it
replaced (a radius read, a cover encode and a range probe per task,
charging as it goes).  On seeded Varden trees with replicas k = 2 and
route filters, L0 on the host and replicated, both kNN steps must keep
the same groups in the same order with the same tasks, count the same
probes, pruned queries and saved words, answer the same, and book
byte-identical PIMStats.

``RouteFilterSet.make_search_prune`` does the same for point lookups and
delete planning: per round one global-filter probe over the first-seen
queries and one module-filter probe over the surviving tasks in closed
chunks, one charge; with a replicated L0 one global probe over the batch
before routing.  ``tests/exec_oracle.make_search_prune`` keeps the
per-task prune, its replicated-L0 gate and the scalar Bloom probe.  On
the same trees, lookup and delete batches must keep the same groups,
gate the same queries, count the same probes, pruned queries, saved
words and false positives, answer and delete the same, and book
byte-identical PIMStats.
"""

from __future__ import annotations

import numpy as np
import pytest
from exec_oracle import make_knn_prune as per_task_knn_prune
from exec_oracle import make_search_prune as per_task_search_prune

from repro.core.config import skew_resistant
from repro.core.tree import PIMZdTree
from repro.pim.model import PIMSystem
from repro.replicate import ReplicaSet, ReplicationConfig
from repro.route import RouteFilterSet
from repro.workloads import varden_points

N_POINTS, N_MODULES = 8000, 64

one_pass_knn_prune = RouteFilterSet.make_knn_prune
one_pass_search_prune = RouteFilterSet.make_search_prune


def _build(small_llc: bool, fpr: float = 0.02
           ) -> tuple[PIMZdTree, np.ndarray]:
    data = varden_points(N_POINTS, 3, seed=7)
    # 64 KiB holds L0 on the host; 8 blocks cannot, so L0 is replicated.
    system = PIMSystem(N_MODULES, seed=1,
                       llc_bytes=512 if small_llc else 64 * 2**10)
    # Small chunks: candidate rounds run on with finite radii, so the
    # candidate step prunes too.
    tree = PIMZdTree(data, config=skew_resistant(N_MODULES), system=system)
    assert tree.l0_on_cpu is not small_llc
    ReplicaSet(tree, ReplicationConfig(k=2)).replicate_all()
    RouteFilterSet(tree, fpr=fpr, seed=3)
    return tree, data


def _queries(data: np.ndarray, seed: int) -> np.ndarray:
    """Stored points, points near them and points in the data's box."""
    rng = np.random.default_rng(seed)
    lo, hi = data.min(axis=0), data.max(axis=0)
    near = data[rng.integers(0, len(data), 24)]
    return np.vstack([
        data[rng.integers(0, len(data), 24)],
        near + rng.normal(scale=1e-3 * (hi - lo), size=near.shape),
        rng.uniform(lo, hi, size=(24, 3)),
    ])


def _serve(monkeypatch, factory, small_llc: bool):
    """kNN batches (an insert between them) with ``factory`` as the
    prune; returns the kept groups of every round, the counters, the
    answers and the PIMStats."""
    tree, data = _build(small_llc)
    log: list = []

    def recording(rf, states, bounds=None):
        prune = factory(rf, states, bounds)
        step = "candidates" if bounds is None else "fetch"

        def hook(groups):
            kept = prune(groups)
            log.append((step, sum(map(len, (ts for _, ts in groups))),
                        [(meta.root.nid, [(t.qid, t.node.nid) for t in ts])
                         for meta, ts in kept]))
            return kept

        return hook

    answers = []
    with monkeypatch.context() as mp:
        mp.setattr(RouteFilterSet, "make_knn_prune", recording)
        for i, k in enumerate((1, 8, 32)):
            answers.append(tree.knn(_queries(data, 10 + i), k))
            tree.insert(_queries(data, 20 + i)[:16])
    tree.check_invariants()
    rf = tree.route_filters
    counters = (rf.probes, rf.queries_pruned, rf.words_saved)
    return log, counters, answers, tree.system.stats.to_dict()


@pytest.mark.parametrize("small_llc", [False, True],
                         ids=["l0-host", "l0-pim"])
def test_one_pass_prune_matches_the_per_task_prune(monkeypatch, small_llc):
    log, counters, answers, stats = _serve(
        monkeypatch, one_pass_knn_prune, small_llc)
    ref_log, ref_counters, ref_answers, ref_stats = _serve(
        monkeypatch, per_task_knn_prune, small_llc)

    # The premise: both steps prune.
    for step in ("candidates", "fetch"):
        rounds = [(offered, sum(len(ts) for _, ts in kept))
                  for s, offered, kept in ref_log if s == step]
        assert any(kept < offered for offered, kept in rounds), step
    assert ref_counters[1] > 0

    assert log == ref_log
    assert counters == ref_counters
    for batch, ref_batch in zip(answers, ref_answers, strict=True):
        for (d, p), (rd, rp) in zip(batch, ref_batch, strict=True):
            assert np.array_equal(d, rd) and np.array_equal(p, rp)
    assert stats == ref_stats


def _serve_lookups(monkeypatch, factory, small_llc: bool):
    """Lookup and delete batches (an insert between them) with
    ``factory`` as the point-lookup prune; returns the queries each batch
    gated before routing and the kept groups of every round, the
    counters, the answers and deleted counts, and the PIMStats."""
    # A loose FPR: many absent keys pass the global filter, so module
    # filters prune too.
    tree, data = _build(small_llc, fpr=0.3)
    log: list = []
    charges = [0]        # charge_cpu calls so far
    per_round: list[int] = []

    def counting(ops, span=0.0, *, charge=tree.system.charge_cpu):
        charges[0] += 1
        charge(ops, span)

    def recording(rf, results):
        prune, probed = factory(rf, results)
        log.append(("gate", [res.qid for res in results if res.pruned]))
        rounds = iter(range(1 << 30))

        def hook(groups):
            before = charges[0]
            kept = prune(groups)
            per_round.append(charges[0] - before)
            log.append((next(rounds), sum(map(len, (ts for _, ts in groups))),
                        [(meta.root.nid, [(t.qid, t.node.nid) for t in ts])
                         for meta, ts in kept]))
            return kept

        return hook, probed

    answers = []
    with monkeypatch.context() as mp:
        mp.setattr(RouteFilterSet, "make_search_prune", recording)
        mp.setattr(tree.system, "charge_cpu", counting)
        for i in range(3):
            found = tree.search(_queries(data, 30 + i))
            answers.append([
                (res.pruned, None if res.leaf is None else res.leaf.nid,
                 None if res.edge is None else res.edge[1].nid)
                for res in found])
            answers.append(tree.delete(_queries(data, 40 + i)[::3]))
            tree.insert(_queries(data, 50 + i)[:16])
    tree.check_invariants()
    rf = tree.route_filters
    counters = (rf.probes, rf.queries_pruned, rf.words_saved, rf.fp_probes)
    return log, counters, answers, tree.system.stats.to_dict(), per_round


@pytest.mark.parametrize("small_llc", [False, True],
                         ids=["l0-host", "l0-pim"])
def test_one_pass_search_prune_matches_the_per_task_prune(monkeypatch,
                                                          small_llc):
    log, counters, answers, stats, charges = _serve_lookups(
        monkeypatch, one_pass_search_prune, small_llc)
    ref_log, ref_counters, ref_answers, ref_stats, _ = _serve_lookups(
        monkeypatch, per_task_search_prune, small_llc)

    # The premise: the global filter prunes (at the gate when L0 is
    # replicated, in a batch's first round otherwise), module filters
    # prune in later rounds (every query was screened in the first), and
    # false positives are counted.
    gated = sum(len(entry[1]) for entry in ref_log if entry[0] == "gate")
    dropped = [0, 0]
    for entry in ref_log:
        if entry[0] != "gate":
            i, offered, kept = entry
            dropped[i > 0] += offered - sum(len(ts) for _, ts in kept)
    assert (gated > 0) is small_llc
    assert (gated if small_llc else dropped[0]) > 0 and dropped[1] > 0
    assert ref_counters[0] > ref_counters[1] > 0 and ref_counters[3] > 0

    assert log == ref_log
    assert counters == ref_counters
    assert answers == ref_answers
    assert stats == ref_stats
    # One probe charge per round at most.
    assert max(charges) == 1
