"""The host LLC model, ``repro.pim.cache.LRUCache``.

``touch_many`` replays a call's accesses in one loop.  It must leave
exactly what a ``touch`` per element leaves: hits, misses, the returned
miss count and the recency order of ``_blocks``.
"""

from __future__ import annotations

import random

import pytest

from repro.pim import LRUCache


def _replay(cache: LRUCache, ids) -> int:
    return sum(1 for b in ids if not cache.touch(b))


def _same(a: LRUCache, b: LRUCache) -> None:
    assert (a.hits, a.misses) == (b.hits, b.misses)
    assert list(a._blocks) == list(b._blocks)


def _check_call(many: LRUCache, ref: LRUCache, ids) -> int:
    misses = many.touch_many(list(ids))
    assert misses == _replay(ref, ids)
    _same(many, ref)
    return misses


@pytest.mark.parametrize("seed", range(40))
def test_replay_matches_per_element_touches(seed):
    """Seeded random calls with repeats, over a universe a little larger
    than the cache, so calls land under, at and over the free capacity."""
    rng = random.Random(seed)
    cap = rng.randint(1, 16)
    many, ref = LRUCache(cap), LRUCache(cap)
    for _ in range(30):
        n = rng.randint(0, 2 * cap + 2)
        ids = [("blk", rng.randint(0, cap + 4)) for _ in range(n)]
        _check_call(many, ref, ids)


def test_calls_just_under_at_and_over_the_free_capacity():
    cap = 8
    for resident in range(cap + 1):
        free = cap - resident
        for n_new in (free - 1, free, free + 1):
            if n_new < 0:
                continue
            many, ref = LRUCache(cap), LRUCache(cap)
            warm = list(range(resident))
            _check_call(many, ref, warm)
            # New ids interleaved with repeats of themselves and of
            # resident ids (hits that move those to the recent end).
            new = [100 + i for i in range(n_new)]
            ids = []
            for i, b in enumerate(new):
                ids += [b, warm[i % resident]] if resident else [b]
            ids += new[::-1]
            _check_call(many, ref, ids)
            assert len(many._blocks) == min(cap, resident + n_new)


def test_one_block_cache():
    many, ref = LRUCache(1), LRUCache(1)
    for ids in (["a"], ["a", "a"], ["b"], ["a", "b"], ["b", "b", "a"], []):
        _check_call(many, ref, ids)


def test_empty_call_changes_nothing():
    cache = LRUCache(4)
    cache.touch_many(["x", "y"])
    before = (cache.hits, cache.misses, list(cache._blocks))
    assert cache.touch_many([]) == 0
    assert (cache.hits, cache.misses, list(cache._blocks)) == before


def test_generator_argument():
    many, ref = LRUCache(6), LRUCache(6)
    ids = [i % 4 for i in range(10)]
    assert many.touch_many(b for b in ids) == _replay(ref, ids)
    _same(many, ref)
    # A generator whose new blocks overflow the cache is consumed once,
    # in order.
    ids = list(range(10, 20))
    assert many.touch_many(iter(ids)) == _replay(ref, ids) == 10
    _same(many, ref)


def test_recency_follows_last_touch():
    cache = LRUCache(8)
    cache.touch_many(["a", "b", "c", "d"])
    cache.touch_many(["b", "e", "a", "b"])
    assert list(cache._blocks) == ["c", "d", "e", "a", "b"]
    assert (cache.hits, cache.misses) == (3, 5)


def test_stream_dram_words_resident_and_clear():
    cache = LRUCache(2, words_per_block=8)
    assert cache.touch_many(["a", "b", "c"]) == 3  # "a" is evicted
    assert not cache.resident("a")
    assert cache.resident("b") and cache.resident("c")
    hits = cache.hits
    cache.resident("b")  # a probe records no access
    assert cache.hits == hits and list(cache._blocks) == ["b", "c"]
    cache.stream(40)
    cache.stream(2.9)  # streamed words are whole words
    assert cache.streamed_words == 42
    assert cache.dram_words == 3 * 8 + 42
    cache.clear()
    assert not cache.resident("b") and list(cache._blocks) == []
    assert cache.dram_words == 3 * 8 + 42  # clearing moves no traffic
    assert cache.touch("b") is False


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        LRUCache(0)
