"""Unit tests for membership-filter routing (repro.route).

The contract under test: filters may only suppress **provably-empty**
sends.  Answers (search/delete/kNN) stay byte-identical to a filters-off
run, communicated words and rounds never increase, and the no-false-
negative property of the Bloom construction holds for every resident
key.  Maintenance is charged, persisted via the snapshot manifest, and
rebuilt bit-identically on crash-restart.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from exec_oracle import bit_positions, probe

from repro.core import PIMZdTree
from repro.core.config import skew_resistant
from repro.pim import PIMSystem
from repro.route import DEFAULT_FPR, RouteFilterSet
from repro.route.filters import _HASH_OPS, _MASK64, _PROBE_BASE_OPS, _bit_index
from repro.store import DurableStore, open_backend, recover

N_MODULES = 8


def make_tree(pts, *, n_modules=N_MODULES, fpr=None, seed=0):
    cfg = skew_resistant(n_modules)
    tree = PIMZdTree(np.asarray(pts, dtype=np.float64), config=cfg,
                     system=PIMSystem(n_modules, seed=0),
                     bounds=(np.zeros(pts.shape[1]), np.ones(pts.shape[1])))
    if fpr is not None:
        RouteFilterSet(tree, fpr=fpr, seed=seed)
    return tree


def search_presence(results):
    """The observable answer of a point lookup: present or not."""
    out = []
    for r in results:
        present = False
        if r.leaf is not None and r.leaf.keys is not None:
            key = np.uint64(r.key)
            j = int(np.searchsorted(r.leaf.keys, key))
            present = j < len(r.leaf.keys) and r.leaf.keys[j] == key
        out.append(present)
    return out


def comm_words(tree) -> float:
    return tree.system.stats.to_dict()["total"]["comm_words"]


# ----------------------------------------------------------------------
# hashing + construction invariants
# ----------------------------------------------------------------------
# Seeds whose second salt (seed + 1) carries past 2^64, and plain ones.
SEEDS = (0, 17, 2**40 + 5, 2**63 - 1, 2**64 - 2, 2**64 - 1)


@pytest.mark.parametrize("k", [1, 2, 7, 16])
def test_bit_index_matches_the_scalar_reference(k):
    """The one bit-position function, keys of several filters in one
    call (each key with its filter's salt, mask and word offset), against
    the scalar reference one key and one hash at a time."""
    rng = np.random.default_rng(3)
    m_bits = [64 << i for i in range(len(SEEDS))]
    base = np.cumsum([0] + [m // 64 for m in m_bits[:-1]])
    keys = rng.integers(0, 2**64 - 1, size=300, dtype=np.uint64,
                        endpoint=True)
    of = rng.integers(0, len(SEEDS), size=len(keys))
    salt = np.array([s & _MASK64 for s in SEEDS], dtype=np.uint64)
    mask = np.array([m - 1 for m in m_bits], dtype=np.uint64)
    w, b = _bit_index(keys, salt[of], mask[of], base.astype(np.uint64)[of], k)
    assert w.shape == b.shape == (k, len(keys))
    for i, (key, f) in enumerate(zip(keys.tolist(), of.tolist())):
        want = bit_positions(key, SEEDS[f], m_bits[f], k)
        assert w[:, i].tolist() == [base[f] + (idx >> 6) for idx in want]
        assert b[:, i].tolist() == [1 << (idx & 63) for idx in want]


def _resident(tree):
    """Per chunk, its module and the keys its leaves hold."""
    for meta in tree.metas:
        keys, stack = [], [meta.root]
        while stack:
            node = stack.pop()
            if node.meta is not meta:
                continue
            if node.keys is not None:
                keys.append(node.keys)
                continue
            stack += (node.left, node.right)
        yield meta.module, np.concatenate(keys) if keys else np.empty(
            0, dtype=np.uint64)


def test_no_false_negatives_over_resident_keys():
    rng = np.random.default_rng(5)
    tree = make_tree(rng.random((3000, 3)), fpr=0.01)
    rf = tree.route_filters
    checked = 0
    for mid, keys in _resident(tree):
        if not len(keys):
            continue
        zero = np.zeros(len(keys), dtype=np.intp)
        assert not rf._absent([None], zero, keys)[0].any()
        assert not rf._absent([mid], zero, keys)[0].any()
        checked += len(keys)
    assert checked >= 3000


def test_array_probe_matches_the_scalar_probe():
    """Every filter of a set in one array probe, each key against its
    filter, equals the scalar probe: resident keys, keys next to them and
    random keys, inside and outside the filters' ranges, and a module
    with no filter (no key, no hash charged)."""
    rng = np.random.default_rng(8)
    tree = make_tree(rng.random((3000, 3)), fpr=0.2, seed=2**64 - 1)
    rf = tree.route_filters
    resident = np.concatenate([keys for _, keys in _resident(tree)])
    keys = np.concatenate([
        rng.choice(resident, 200), rng.choice(resident, 200) + np.uint64(1),
        rng.integers(0, 2**64 - 1, size=200, dtype=np.uint64,
                     endpoint=True)])
    mids = [None, *rf._filters, N_MODULES + 1]
    of = rng.integers(0, len(mids), size=len(keys))
    absent, ops = rf._absent(mids, of, keys)
    want, want_ops = [], 0
    for key, f in zip(keys.tolist(), of.tolist()):
        flt = rf._filter(mids[f])
        want.append(flt is not None and probe(flt, key, rf._seed_of(mids[f])))
        want_ops += _PROBE_BASE_OPS + (0 if flt is None else flt.k * _HASH_OPS)
    assert (~absent).tolist() == want
    assert 0 < sum(want) < len(want)
    assert ops == want_ops and rf.probes == len(keys)


def test_meta_info_closedness_is_structural():
    rng = np.random.default_rng(6)
    tree = make_tree(rng.random((4000, 3)), fpr=0.01)
    rf = tree.route_filters
    for meta in tree.metas:
        crosses = False
        stack = [meta.root]
        while stack:
            node = stack.pop()
            if node.meta is not meta:
                crosses = True
                continue
            if node.keys is None:
                stack.append(node.left)
                stack.append(node.right)
        assert rf._meta_info[meta.root.nid][3] == (not crosses)


def test_fpr_validation():
    rng = np.random.default_rng(7)
    tree = make_tree(rng.random((200, 2)))
    for bad in (0.0, -0.1, 0.5, 1.0):
        with pytest.raises(ValueError):
            RouteFilterSet(tree, fpr=bad)


# ----------------------------------------------------------------------
# byte-identity + monotone savings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["reference", "vectorized"], indirect=True)
def test_search_answers_identical_and_words_fewer(engine):
    rng = np.random.default_rng(11)
    pts = rng.random((4000, 3))
    queries = np.vstack([pts[:80], rng.random((80, 3))])
    t0 = make_tree(pts)
    t1 = make_tree(pts, fpr=0.01)
    r0 = t0.search(queries)
    r1 = t1.search(queries)
    assert search_presence(r0) == search_presence(r1)
    assert comm_words(t1) < comm_words(t0)
    rf = t1.route_filters
    assert rf.queries_pruned > 0
    assert rf.words_saved > 0
    # Every probed absent key is either pruned or a false positive.
    absent = sum(1 for r, p in zip(r1, search_presence(r1)) if not p)
    assert rf.queries_pruned + rf.fp_probes <= absent + rf.probes


def test_false_positive_tally_is_the_per_query_scan(monkeypatch):
    """``account_search`` pools the reached leaves' keys and searches them
    once; its tally must equal the per-query scan — screened, unpruned
    queries whose own leaf (none, off an edge) lacks the key — on lookups
    and deletes at an FPR high enough for false positives."""
    tallies = []
    real = RouteFilterSet.account_search

    def spy(self, results, probed):
        want = sum(
            1 for res, p in zip(results, probed.tolist())
            if p and not res.pruned
            and (res.leaf is None or res.leaf.keys is None
                 or res.key not in res.leaf.keys.tolist()))
        before = self.fp_probes
        real(self, results, probed)
        tallies.append((self.fp_probes - before, want))

    monkeypatch.setattr(RouteFilterSet, "account_search", spy)
    rng = np.random.default_rng(17)
    pts = rng.random((3000, 3))
    tree = make_tree(pts, fpr=0.3)
    near = pts[:200] + 1e-9  # absent, and mostly in a stored key's leaf
    tree.search(np.vstack([pts[:300], near, rng.random((300, 3))]))
    tree.delete(np.vstack([pts[300:340], near[:60]]))
    assert len(tallies) == 2
    assert all(got == want for got, want in tallies)
    assert sum(got for got, _ in tallies) > 0


@pytest.mark.parametrize("engine", ["reference", "vectorized"], indirect=True)
def test_delete_identical_and_words_fewer(engine):
    rng = np.random.default_rng(13)
    pts = rng.random((4000, 3))
    delq = np.vstack([pts[200:260], rng.random((60, 3))])
    t0 = make_tree(pts)
    t1 = make_tree(pts, fpr=0.01)
    assert t0.delete(delq) == t1.delete(delq) == 60
    assert comm_words(t1) < comm_words(t0)
    a0, a1 = t0.all_points(), t1.all_points()
    order = np.lexsort(a0.T[::-1])
    assert np.array_equal(a0[order], a1[np.lexsort(a1.T[::-1])])


@pytest.mark.parametrize("engine", ["reference", "vectorized"], indirect=True)
def test_knn_identical_and_words_never_more(engine):
    rng = np.random.default_rng(17)
    pts = rng.random((4000, 3))
    qs = rng.random((40, 3))
    t0 = make_tree(pts)
    t1 = make_tree(pts, fpr=0.01)
    for (d0, p0), (d1, p1) in zip(t0.knn(qs, 5), t1.knn(qs, 5)):
        assert np.array_equal(d0, d1)
        assert np.array_equal(p0, p1)
    assert comm_words(t1) <= comm_words(t0)


def test_insert_phase_never_pruned_and_filters_maintained():
    rng = np.random.default_rng(19)
    pts = rng.random((2000, 3))
    t0 = make_tree(pts)
    t1 = make_tree(pts, fpr=0.01)
    fresh = rng.random((150, 3))
    t0.insert(fresh)
    t1.insert(fresh)
    order = np.lexsort(t0.all_points().T[::-1])
    assert np.array_equal(t0.all_points()[order],
                          t1.all_points()[np.lexsort(t1.all_points().T[::-1])])
    # The maintained filters immediately cover the fresh keys: lookups of
    # just-inserted points are never pruned.
    res = t1.search(fresh)
    assert all(search_presence(res))
    assert all(not r.pruned for r in res)
    assert t1.route_filters.rebuilds >= 2  # attach + insert maintenance


def test_maintenance_is_charged_under_route_phase():
    rng = np.random.default_rng(29)
    tree = make_tree(rng.random((1000, 3)))
    before = tree.system.stats.to_dict()["total"]
    RouteFilterSet(tree, fpr=0.01)
    after = tree.system.stats.to_dict()
    assert after["total"]["cpu_ops"] > before["cpu_ops"]
    assert after["total"]["dram_words"] > before["dram_words"]
    assert "route" in after["phases"]
    # Filter maintenance never touches the interconnect.
    assert after["phases"]["route"]["comm_words"] == 0


def test_summary_counters():
    rng = np.random.default_rng(31)
    pts = rng.random((2000, 3))
    tree = make_tree(pts, fpr=0.05)
    tree.search(rng.random((50, 3)))
    s = tree.route_filters.summary()
    assert s["enabled"] is True
    assert s["fpr"] == 0.05
    assert s["queries_pruned"] >= 1
    assert s["words_saved"] >= 2 * s["queries_pruned"]
    assert s["probes"] >= s["queries_pruned"]
    assert s["rebuilds"] == 1
    assert s["keys_indexed"] >= len(pts)
    assert s["filter_kib"] > 0


@pytest.mark.parametrize("engine", ["reference", "vectorized"], indirect=True)
def test_replicated_l0_gate(engine):
    """With L0 replicated on the modules (tiny LLC), even the routing
    round is a send — the global filter must gate it, keep answers
    identical, and shave the round participation of absent keys."""
    rng = np.random.default_rng(43)
    pts = rng.random((4000, 3))
    queries = np.vstack([pts[:80], rng.random((80, 3))])

    def mk(fpr):
        cfg = skew_resistant(N_MODULES)
        tree = PIMZdTree(pts, config=cfg,
                         system=PIMSystem(N_MODULES, llc_bytes=4096, seed=0),
                         bounds=(np.zeros(3), np.ones(3)))
        if fpr is not None:
            RouteFilterSet(tree, fpr=fpr)
        return tree

    t0, t1 = mk(None), mk(0.01)
    assert not t0.l0_on_cpu and not t1.l0_on_cpu
    base0, base1 = comm_words(t0), comm_words(t1)
    r0 = t0.search(queries)
    r1 = t1.search(queries)
    assert search_presence(r0) == search_presence(r1)
    spent0 = comm_words(t0) - base0
    spent1 = comm_words(t1) - base1
    rf = t1.route_filters
    assert rf.queries_pruned > 0
    # Every pruned query skips its L0-round send (2) + trace return (3).
    assert spent0 - spent1 >= 5 * rf.queries_pruned
    assert t0.delete(queries[:40]) == t1.delete(queries[:40]) == 40


# ----------------------------------------------------------------------
# incremental insert-only maintenance
# ----------------------------------------------------------------------
def _filter_bits(rf):
    return (rf._global.words.copy(),
            {mid: f.words.copy() for mid, f in rf._filters.items()},
            dict(rf._meta_info))


def _assert_bits_equal(a, b):
    g0, mods0, meta0 = a
    g1, mods1, meta1 = b
    assert np.array_equal(g0, g1)
    assert sorted(mods0) == sorted(mods1)
    for mid in mods0:
        assert np.array_equal(mods0[mid], mods1[mid]), mid
    assert meta0 == meta1


def test_insert_incremental_bits_match_full_rebuild():
    """A small insert-only batch (no leaf splits, no Bloom-geometry
    growth) is served by the in-place OR path, and the resulting bit
    arrays are identical to a full rebuild over the same residency (the
    OR-of-hashes argument, checked on real bits)."""
    rng = np.random.default_rng(47)
    t = make_tree(rng.random((2600, 3)), fpr=0.01)
    rf = t.route_filters
    t.insert(rng.random((4, 3)))
    assert rf.incremental == 1
    assert rf.rebuilds == 2  # attach (full) + insert (incremental)
    after_inc = _filter_bits(rf)
    rf.refresh()  # nothing staged -> the full path, same residency
    assert rf.incremental == 1 and rf.rebuilds == 3
    _assert_bits_equal(after_inc, _filter_bits(rf))
    assert rf.summary()["incremental"] == 1


def test_incremental_maintenance_charges_less():
    """The incremental path charges per *new* key; the full rebuild
    re-hashes every resident key.  At 4 new keys over 2600 resident the
    route-phase CPU delta must be far smaller."""
    rng = np.random.default_rng(53)
    t = make_tree(rng.random((2600, 3)), fpr=0.01)
    rf = t.route_filters

    def route_cpu():
        return t.system.stats.to_dict()["phases"]["route"]["cpu_ops"]

    base = route_cpu()
    t.insert(rng.random((4, 3)))
    inc_cost = route_cpu() - base
    assert rf.incremental == 1
    base = route_cpu()
    rf.refresh()  # full
    full_cost = route_cpu() - base
    assert inc_cost > 0
    assert inc_cost * 5 < full_cost


def test_delete_takes_the_full_rebuild_path():
    """Deletes never stage, so their rebuild is the full one — the
    incremental counter must not move."""
    rng = np.random.default_rng(59)
    pts = rng.random((2500, 3))
    t = make_tree(pts, fpr=0.01)
    rf = t.route_filters
    assert t.delete(pts[:40]) == 40
    assert rf.rebuilds >= 2
    assert rf.incremental == 0


def test_geometry_growth_falls_back_to_full_rebuild():
    """A batch big enough to grow the Bloom geometry cannot be served in
    place (the sizing check fails) — it falls back to the full rebuild
    and the fresh keys are still covered."""
    rng = np.random.default_rng(61)
    t = make_tree(rng.random((3000, 3)), fpr=0.01)
    rf = t.route_filters
    m_before = rf._global.m_bits
    fresh = rng.random((300, 3))
    t.insert(fresh)
    assert rf.incremental == 0
    assert rf.rebuilds >= 2
    assert rf._global.m_bits > m_before
    res = t.search(fresh)
    assert all(search_presence(res))
    assert all(not r.pruned for r in res)


def test_incremental_with_replicas_covers_copies():
    """With chunk replicas attached, the incremental path must OR the new
    keys into every secondary module's filter too — checked by comparing
    against the full rebuild bit-for-bit."""
    from repro.replicate import ReplicaSet, ReplicationConfig

    rng = np.random.default_rng(67)
    t = make_tree(rng.random((2600, 3)))
    ReplicaSet(t, ReplicationConfig(k=2, write_policy="write-all",
                                    staleness_bound_s=1e-3)).replicate_all()
    RouteFilterSet(t, fpr=0.01)
    rf = t.route_filters
    fresh = rng.random((4, 3))
    t.insert(fresh)
    assert rf.incremental == 1
    after_inc = _filter_bits(rf)
    rf.refresh()
    _assert_bits_equal(after_inc, _filter_bits(rf))
    res = t.search(fresh)
    assert all(search_presence(res))
    assert all(not r.pruned for r in res)


# ----------------------------------------------------------------------
# persistence: manifest round-trip + crash-restart rebuild
# ----------------------------------------------------------------------
def test_manifest_roundtrip_and_crash_restart_rebuilds_bits():
    rng = np.random.default_rng(37)
    pts = rng.random((1200, 3))
    with tempfile.TemporaryDirectory() as tmp:
        tree = PIMZdTree(pts, system=PIMSystem(4, seed=3))
        RouteFilterSet(tree, fpr=0.02, seed=9)
        store = DurableStore(open_backend("file", Path(tmp) / "s"))
        store.attach(tree)
        tree.insert(rng.random((40, 3)))
        res = recover(store.backend, cost_model=tree.cost_model)
        store.backend.close()

    rf0, rf1 = tree.route_filters, res.tree.route_filters
    assert rf1 is not None
    assert (rf1.fpr, rf1.seed) == (0.02, 9)
    assert np.array_equal(rf0._global.words, rf1._global.words)
    assert sorted(rf0._filters) == sorted(rf1._filters)
    for mid in rf0._filters:
        assert np.array_equal(rf0._filters[mid].words,
                              rf1._filters[mid].words), mid
    assert rf0._meta_info == rf1._meta_info
    # Recovery charges (incl. the filter rebuild) all land in "recovery".
    assert sorted(res.system.stats.phases) == ["recovery"]


def test_manifest_absent_without_filters():
    from repro.store import encode_tree

    rng = np.random.default_rng(41)
    tree = PIMZdTree(rng.random((300, 3)), system=PIMSystem(4, seed=3))
    img = encode_tree(tree, wal_seq=0)
    assert "route_filters" not in img.manifest
    RouteFilterSet(tree, fpr=DEFAULT_FPR)
    img2 = encode_tree(tree, wal_seq=0)
    assert img2.manifest["route_filters"] == {
        "fpr": DEFAULT_FPR, "seed": 0, "enabled": True}
