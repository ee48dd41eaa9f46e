"""The route filters' one hashing pass ≡ one pass per filter.

``repro.route.filters._or_into`` ORs the bits of many ``(filter, keys,
seed)`` jobs, one per filter, in one pass: every job's keys end to end,
each key carrying its filter's salt, bit mask and word offset.  It must
set exactly the bits, range summary and key count that hashing job after
job sets — ``_one_filter_add`` below is the per-filter
``_ModuleFilter.add`` the pass replaced, kept verbatim — over several
filter geometries, a filter built in the pass, more keys than one
scatter block, and seeds whose ``seed + 1`` carries (low bits all ones;
``2**64 - 1`` wraps to 0).  And a refresh that goes through it must
leave every filter equal to a fresh build after inserts, deletes,
rebalancer migrations and a replica install.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.balance import BalanceConfig, OnlineRebalancer
from repro.eval.harness import PIMZdTreeAdapter
from repro.eval.skewbench import boxes_under_metas, hottest_colocated_metas
from repro.replicate import ReplicaSet, ReplicationConfig
from repro.route import RouteFilterSet
from repro.route import filters as route_filters
from repro.route.filters import (
    _HASH_STEPS,
    _MASK64,
    _SCATTER_BLOCK,
    _ModuleFilter,
    _or_into,
    _splitmix_array,
)
from repro.workloads import varden_points

# Seeds whose ``+ 1`` carries through the low bits, or out of 64 bits.
CARRY_SEEDS = (2**64 - 1, 2**63 - 1, 2**32 - 1, 0xFFFF, 2**64 - 2, -1)


def _one_filter_add(f, keys: np.ndarray, seed: int) -> None:
    """One filter's OR-in, as it was before the one-pass form."""
    if not len(keys):
        return
    mask = np.uint64(f.m_bits - 1)
    for at in range(0, len(keys), _SCATTER_BLOCK):
        block = keys[at:at + _SCATTER_BLOCK]
        h1 = _splitmix_array(block, seed)
        h2 = _splitmix_array(block, seed + 1) | np.uint64(1)
        idx = (h1 + _HASH_STEPS[:f.k] * h2) & mask
        np.bitwise_or.at(
            f.words, (idx >> np.uint64(6)).astype(np.intp).ravel(),
            (np.uint64(1) << (idx & np.uint64(63))).ravel(),
        )
    klo, khi = int(keys.min()), int(keys.max())
    f.lo = klo if f.lo is None else min(f.lo, klo)
    f.hi = khi if f.hi is None else max(f.hi, khi)
    f.n_keys += len(keys)


def _state(f) -> tuple:
    return f.words.tobytes(), f.m_bits, f.k, f.lo, f.hi, f.n_keys


def _keys(rng, n: int) -> np.ndarray:
    return rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64,
                        endpoint=True)


@pytest.mark.parametrize("seed", CARRY_SEEDS)
def test_per_key_salt_carries_like_the_scalar_salt(seed):
    keys = _keys(np.random.default_rng(1), 257)
    salt = np.full(len(keys), seed & _MASK64, dtype=np.uint64)
    assert np.array_equal(_splitmix_array(keys, salt + np.uint64(1)),
                          _splitmix_array(keys, seed + 1))
    assert np.array_equal(_splitmix_array(keys, salt),
                          _splitmix_array(keys, seed))


@pytest.mark.parametrize("case", range(12))
@pytest.mark.parametrize("fpr", [0.01, 0.1, 0.3])
def test_one_pass_equals_one_pass_per_filter(case, fpr):
    rng = np.random.default_rng(case)
    # Geometries from the 64-bit floor to a filter wider than a block
    # of keys; a carrying seed in every case.
    sizes = (0, 5, 300, 3000, 9000)
    seeds = [int(s) for s in rng.integers(0, 2**62, size=len(sizes))]
    seeds[case % len(sizes)] = CARRY_SEEDS[case % len(CARRY_SEEDS)]
    filters = []
    for n, seed in zip(sizes, seeds):
        filters.append(_ModuleFilter(n, fpr))
        _one_filter_add(filters[-1], _keys(rng, n), seed)
    # A filter built in the pass: empty, sized for the keys it takes.
    fresh = _keys(rng, 2 * _SCATTER_BLOCK + 5)
    filters.append(_ModuleFilter(len(fresh), fpr))
    seeds.append(CARRY_SEEDS[(case + 1) % len(CARRY_SEEDS)])
    # One job per filter, in a shuffled order: an empty job, jobs of
    # more than a scatter block, blocks straddling job boundaries.
    jobs = [(i, _keys(rng, int(n)))
            for i, n in enumerate(rng.integers(1, 50, size=len(sizes)))]
    jobs[2] = (2, _keys(rng, 0))
    jobs[4] = (4, _keys(rng, _SCATTER_BLOCK + 123))
    jobs.append((len(sizes), fresh))
    if case % 2:
        # Duplicate keys in one job.
        head = jobs[0][1]
        jobs[0] = (0, np.concatenate([head, np.repeat(head[:3], 2)]))
    order = rng.permutation(len(jobs))
    jobs = [jobs[i] for i in order]

    one_pass = copy.deepcopy(filters)
    _or_into([(one_pass[i], keys, seeds[i]) for i, keys in jobs])
    by_job = copy.deepcopy(filters)
    for i, keys in jobs:
        _one_filter_add(by_job[i], keys, seeds[i])
    for a, b in zip(one_pass, by_job, strict=True):
        assert _state(a) == _state(b)


def test_upkeep_through_the_one_pass_equals_a_fresh_build(monkeypatch):
    """Inserts (new and re-inserted keys), deletes, rebalancer
    migrations and a replica install, ``check()`` after each; the
    replicated insert grows several filters in one pass."""
    data = varden_points(8000, 3, seed=7)
    ad = PIMZdTreeAdapter(data, n_modules=16, seed=7)
    tree = ad.tree
    rf = RouteFilterSet(tree, seed=2**64 - 3)
    passes: list[int] = []
    or_into = route_filters._or_into

    def counted(jobs):
        passes.append(sum(1 for _, keys, _ in jobs if len(keys)))
        or_into(jobs)

    monkeypatch.setattr(route_filters, "_or_into", counted)
    rng = np.random.default_rng(3)
    lo, hi = data.min(axis=0), data.max(axis=0)

    tree.insert(np.vstack([rng.uniform(lo, hi, (40, 3)), data[:5]]))
    rf.check()
    tree.delete(data[rng.integers(0, len(data), 30)])
    rf.check()

    _, metas = hottest_colocated_metas(tree)
    boxes = boxes_under_metas(tree, metas, 128, seed=8)
    reb = OnlineRebalancer(tree, BalanceConfig(min_observed_cycles=1.0,
                                               ratio_threshold=1.01))
    moves = 0
    for step in range(4):
        ad.box_count([boxes[(j + 32 * step) % len(boxes)] for j in range(32)])
        summary = reb.step()
        moves += summary["moves"] if summary is not None else 0
        rf.check()
    assert moves > 0

    ReplicaSet(tree, ReplicationConfig(k=2)).replicate_all()
    rf.check()
    passes.clear()
    tree.insert(rng.uniform(lo, hi, (40, 3)))
    rf.check()
    assert max(passes) > 2  # the global filter and several modules
    tree.check_invariants()
