"""The serving-tier protocol (``tree.tiers``): replicas and route filters.

The tree names its two optional tiers only to list them; everything else
goes through one duck-typed protocol — ``refresh()`` after the word
ledger in ``refresh_residency``, ``check()`` in ``check_invariants``,
``MANIFEST_KEY`` / ``to_manifest()`` / ``restore(tree, doc)`` in snapshot
encode and recovery.  Two guarantees:

* **the replica check is live** — each of the three registry invariants
  ``ReplicaSet.check`` asserts, seeded on its own, fails
  ``tree.check_invariants()``;
* **recovery is pinned** — a replicated (k = 2), filtered Varden tree with
  a failed-over module is snapshot, journaled further and recovered; the
  snapshot manifest, the recovered tree's manifest and the recovery's
  PIMStats (totals and phase table) equal values recorded before the
  protocol existed, when recovery restored each tier in its own block.
  Every tier subset is pinned the same way.
"""

from __future__ import annotations

import hashlib
import json
import tempfile

import numpy as np
import pytest

from repro.eval import make_adapter
from repro.replicate import ReplicaSet, ReplicationConfig
from repro.route import RouteFilterSet
from repro.store import DurableStore, encode_tree, open_backend, recover
from repro.workloads import varden_points

N_POINTS = 4000
N_MODULES = 16


def _tree():
    data = varden_points(N_POINTS, 3, seed=7)
    return make_adapter("pim", data, n_modules=N_MODULES, seed=7).tree


def _by_nid(tree):
    return sorted(tree.metas, key=lambda m: m.root.nid)


# ======================================================================
# ReplicaSet.check: each invariant, violated alone
# ======================================================================
def _retired_key(tree, reps) -> str:
    """The registry keeps a chunk no longer in the tree."""
    roots = {m.root.nid for m in tree.metas}
    nid = next(n for n in range(tree._next_nid) if n not in roots)
    reps._secondaries[nid] = (0,)
    return "names retired chunk"


def _copy_on_primary(tree, reps) -> str:
    """A secondary on its own chunk's primary module (booked by the
    ledger, so the word accounting still agrees)."""
    meta = _by_nid(tree)[0]
    reps._secondaries[meta.root.nid] = tuple(
        sorted({*reps.secondaries(meta), meta.module}))
    tree.mark_placed(meta)
    tree.refresh_residency()
    return "sits on its primary module"


def _pending_unregistered(tree, reps) -> str:
    """An async write pending for a chunk the registry has no copy of."""
    meta = _by_nid(tree)[0]
    del reps._secondaries[meta.root.nid]
    tree.mark_placed(meta)
    tree.refresh_residency()
    reps._pending[meta.root.nid] = [8.0, 0.0]
    return "pending replica write for an unregistered chunk"


@pytest.mark.parametrize("violate", [
    _retired_key, _copy_on_primary, _pending_unregistered])
def test_replica_check_catches_each_violation(violate):
    tree = _tree()
    reps = ReplicaSet(tree, ReplicationConfig(k=2,
                                              write_policy="primary-async"))
    reps.replicate_all()
    tree.check_invariants()
    message = violate(tree, reps)
    with pytest.raises(AssertionError, match=message):
        tree.check_invariants()


# ======================================================================
# recovery: manifests and charges pinned per tier subset
# ======================================================================
def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _manifest_bytes(manifest: dict) -> bytes:
    return json.dumps(manifest, sort_keys=True,
                      separators=(",", ":")).encode()


def _recovery_facts(replicas: bool, filters: bool) -> dict:
    """Attach the tiers, checkpoint after updates and a failover, journal
    more updates, crash and recover; returns what the pins compare."""
    tree = _tree()
    if replicas:
        ReplicaSet(tree, ReplicationConfig(k=2)).replicate_all()
    if filters:
        RouteFilterSet(tree, fpr=0.01)
    rng = np.random.default_rng(11)
    with tempfile.TemporaryDirectory() as tmp:
        backend = open_backend("file", tmp)
        store = DurableStore(backend)
        store.attach(tree)
        tree.insert(rng.random((150, 3)))
        tree.delete(tree.all_points()[::40])
        tree.fail_over(_by_nid(tree)[0].module)
        store.checkpoint(tree)
        tree.insert(rng.random((120, 3)))
        tree.delete(tree.all_points()[::55])
        res = recover(backend, cost_model=tree.cost_model)
        snapshot = backend.get_manifest()
        backend.close()
    again = _manifest_bytes(encode_tree(res.tree, wal_seq=res.max_seq).manifest)
    return {
        "snapshot": _digest(snapshot),
        "recovered": _digest(again),
        "stats": res.system.stats.to_dict(),
        "tiers": len(res.tree.tiers),
    }


def _stats_digest(stats: dict) -> str:
    return _digest(json.dumps(stats, sort_keys=True).encode())


# Recorded from the code that restored each tier in its own block.
TWO_TIER = {
    "snapshot": "c75159f15fba5e6f",
    "recovered": "6f0b97bd39c87a03",
    "stats": {
        "total": {
            "cpu_ops": 315874.0,
            "cpu_span": 26.43227911285027,
            "pim_cycles": 6848.0,
            "comm_words": 55324.0,
            "comm_max_words": 12382.533333333327,
            "rounds": 6,
            "module_rounds": 59.0,
            "dram_words": 32372.0,
        },
        "phases": {"recovery": {
            "cpu_ops": 315874.0,
            "cpu_span": 26.43227911285027,
            "pim_cycles": 6848.0,
            "comm_words": 55324.0,
            "comm_max_words": 12382.533333333327,
            "rounds": 6,
            "module_rounds": 59.0,
            "dram_words": 32372.0,
        }},
        "mux_switches": 12,
    },
}

# (replicas, filters) -> (snapshot, recovered manifest, stats digest)
SUBSETS = {
    (False, False): ("e0a66f6acd8cdb01", "6835da63ef7f189e",
                     "2d3d9a8b4b0332a6"),
    (False, True): ("6bc5b209f99271c3", "1cb872ac1c335eef",
                    "96c9bfcca32d70e2"),
    (True, False): ("4157cd601feb978e", "3b0f5f7679750840",
                    "7832d4889dfaf37b"),
}


def test_two_tier_recovery_is_pinned():
    facts = _recovery_facts(True, True)
    assert facts["stats"] == TWO_TIER["stats"]
    assert (facts["snapshot"], facts["recovered"]) == (
        TWO_TIER["snapshot"], TWO_TIER["recovered"])
    assert sorted(facts["stats"]["phases"]) == ["recovery"]


@pytest.mark.parametrize("replicas, filters", [
    (False, False), (True, False), (False, True)])
def test_each_tier_subset_recovers_as_pinned(replicas, filters):
    facts = _recovery_facts(replicas, filters)
    assert (facts["snapshot"], facts["recovered"],
            _stats_digest(facts["stats"])) == SUBSETS[(replicas, filters)]
    assert facts["tiers"] == replicas + filters
