"""A last-level-cache (LLC) model for the host CPU.

UPMEM's host runs programs that overflow the L3, and the paper's memory
traffic metric includes CPU↔DRAM traffic (§2.1, §7.1).  We model the LLC as
a fully-associative LRU over cache blocks; every miss charges one block of
DRAM traffic.  Fully-associative LRU is the standard analytic stand-in for
a hardware set-associative cache and is what cache-oblivious analyses
assume.

Block identifiers are arbitrary hashables; the data structures hand out
stable ids per node / array chunk so re-touching a resident structure is a
hit.  ``stream`` models non-temporal bulk transfers (large scans) that
bypass the cache.

:meth:`LRUCache.touch_many` replays a sequence of accesses in one call,
with the same effect as one :meth:`LRUCache.touch` per access.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["LRUCache"]


class LRUCache:
    """Fully-associative LRU cache of ``capacity_blocks`` blocks."""

    def __init__(self, capacity_blocks: int, words_per_block: int = 8) -> None:
        if capacity_blocks < 1:
            raise ValueError("capacity must be at least one block")
        self.capacity_blocks = int(capacity_blocks)
        self.words_per_block = int(words_per_block)
        self._blocks: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.streamed_words = 0

    @property
    def dram_words(self) -> int:
        """Total words moved between the cache and DRAM."""
        return self.misses * self.words_per_block + self.streamed_words

    def touch(self, block_id) -> bool:
        """Access one block; returns ``True`` on a hit."""
        blocks = self._blocks
        if block_id in blocks:
            blocks.move_to_end(block_id)
            self.hits += 1
            return True
        self.misses += 1
        blocks[block_id] = None
        if len(blocks) > self.capacity_blocks:
            blocks.popitem(last=False)
        return False

    def touch_many(self, block_ids) -> int:
        """Access the blocks in order, as :meth:`touch` one by one would;
        returns the number of misses."""
        blocks = self._blocks
        move_to_end = blocks.move_to_end
        cap = self.capacity_blocks
        size = len(blocks)
        hits = misses = 0
        for b in block_ids:
            if b in blocks:
                move_to_end(b)
                hits += 1
            else:
                misses += 1
                blocks[b] = None
                if size < cap:
                    size += 1
                else:
                    blocks.popitem(last=False)
        self.hits += hits
        self.misses += misses
        return misses

    def stream(self, words: int) -> None:
        """Charge ``words`` of DRAM traffic without polluting the cache."""
        self.streamed_words += int(words)

    def resident(self, block_id) -> bool:
        """Whether the block is currently cached (no access recorded)."""
        return block_id in self._blocks

    def clear(self) -> None:
        self._blocks.clear()
